"""Isochrone potentials as parabola arcs in the Henon plane.

A radial potential psi(r) is encoded through the Henon variable x = 2 r**2
and the curve Y(x) = 2 r**2 psi(r).  Isochrone potentials are exactly those
whose Y-curve is a convex arc of a parabola

    (a x + b y)**2 + c x + d y + e = 0,

so the whole theory reduces to algebra on the five Latin coefficients
(a, b, c, d, e).  This module owns that algebra: classification, evaluation
of Y and its derivatives, the r-space view psi(r), gauge shifts, canonical
constructors for the named families, and the universal parabola ODE check.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParams, OutOfDomain, SingularPoint

__all__ = [
    "ParabolaParams",
    "PotentialClass",
    "PotentialFamily",
    "GaugeTerm",
    "classify",
    "y_value",
    "y_derivatives",
    "psi_value",
    "psi_derivative",
    "domain",
    "radial_domain",
    "apply_gauge",
    "from_kepler",
    "from_harmonic",
    "from_henon",
    "from_bounded",
    "from_hollowed",
    "parabola_ode_residual",
    "ode_residual_from_derivatives",
]

# Tolerance below which x_v is treated as exactly zero (Kepler degeneracy).
_XV_ZERO = 1e-14
_FLOAT_MAX = float(np.finfo(np.float64).max)


@dataclass(frozen=True)
class ParabolaParams:
    """Latin coefficients of the implicit parabola (ax + by)^2 + cx + dy + e = 0.

    The discriminant delta = a*d - b*c must be strictly positive.  For b = 0
    the arc is an upright parabola (harmonic class) and convexity requires
    d < 0 and a != 0.  All quantities are dimensionless; units are the
    caller's contract.  ``delta``, ``x_v``, the domain and the constants of
    the branch are computed once, on construction; they are not fields, so
    equality, hashing, ``repr`` and ``dataclasses.replace`` see only the five
    coefficients.
    """

    a: float
    b: float
    c: float
    d: float
    e: float

    def __post_init__(self) -> None:
        for name in ("a", "b", "c", "d", "e"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise InvalidParams(f"coefficient {name} is not finite: {v!r}")
        a, b, c, d, e = self.as_tuple()
        # Stored with object.__setattr__, not cached_property: writing to
        # __dict__ would slow every later attribute read on the instance.
        delta = a * d - b * c
        object.__setattr__(self, "delta", delta)
        if delta <= 0.0:
            raise InvalidParams(
                f"discriminant delta = a*d - b*c = {delta:g} must be > 0"
            )
        if b == 0.0:
            if d >= 0.0:
                raise InvalidParams("harmonic class (b = 0) requires d < 0")
            if a == 0.0:
                raise InvalidParams("harmonic class requires a != 0 (degenerate line)")
            # The branch Y = _a2 x^2 + _a1 x + _a0 on [0, inf].
            for name, v in (("_a2", -(a**2 / d)), ("_a1", -(c / d)),
                            ("_a0", -(e / d)), ("_xlo", 0.0), ("_xhi", math.inf)):
                object.__setattr__(self, name, v)
            return
        x_v = (4.0 * b**2 * e - d**2) / (4.0 * b * delta)
        if b < 0.0 and x_v <= 0.0:
            # Left-opening parabola whose real branch never reaches x > 0.
            raise InvalidParams(
                "bounded-type parabola (b < 0) needs x_v > 0 to intersect x > 0"
            )
        # The branch Y = _slope x - _offset - sqrt(W) / _b2 with
        # W = _bdelta (x - x_v) >= 0 on its domain [_xlo, _xhi].
        for name, v in (("_x_v", x_v), ("_slope", -(a / b)),
                        ("_offset", d / (2.0 * b * b)), ("_b2", b * b),
                        ("_bdelta", b * delta), ("_2b", 2.0 * b),
                        ("_xlo", max(0.0, x_v) if b > 0.0 else 0.0),
                        ("_xhi", math.inf if b > 0.0 else x_v)):
            object.__setattr__(self, name, v)

    @property
    def x_v(self) -> float:
        """Abscissa of the vertical tangent, (4 b^2 e - d^2) / (4 b delta)."""
        if self.b == 0.0:
            raise InvalidParams("x_v is undefined for the harmonic class (b = 0)")
        return self._x_v

    def as_tuple(self) -> tuple[float, float, float, float, float]:
        return (self.a, self.b, self.c, self.d, self.e)


class PotentialFamily(enum.Enum):
    HARMONIC = "Harmonic"
    HENON = "Henon"
    BOUNDED = "Bounded"
    HOLLOWED = "Hollowed"


@dataclass(frozen=True)
class PotentialClass:
    """Classification result: family plus the Kepler-degeneracy flag."""

    family: PotentialFamily
    kepler_degenerate: bool = False

    def __str__(self) -> str:
        s = self.family.value
        if self.kepler_degenerate:
            s += " (Kepler degenerate)"
        return s


@dataclass(frozen=True)
class GaugeTerm:
    """Additive term eps + lam / (2 r^2) that preserves isochrony."""

    eps_gauge: float = 0.0
    lam_gauge: float = 0.0


def classify(params: ParabolaParams) -> PotentialClass:
    """Sort a parabola into one of the four isochrone families.

    b = 0 is harmonic; otherwise the signs of b and of the vertical-tangent
    abscissa x_v decide: right-opening with x_v <= 0 is Henon (Kepler in the
    degenerate x_v = 0 case), right-opening with x_v > 0 is Hollowed, and
    left-opening (necessarily x_v > 0) is Bounded.
    """
    if params.b == 0.0:
        return PotentialClass(PotentialFamily.HARMONIC)
    x_v = params.x_v
    if params.b > 0.0:
        if abs(x_v) <= _XV_ZERO:
            return PotentialClass(PotentialFamily.HENON, kepler_degenerate=True)
        if x_v < 0.0:
            return PotentialClass(PotentialFamily.HENON)
        return PotentialClass(PotentialFamily.HOLLOWED)
    return PotentialClass(PotentialFamily.BOUNDED)


def domain(params: ParabolaParams) -> tuple[float, float]:
    """Physical x-interval of the convex branch (closed at finite ends)."""
    return (params._xlo, params._xhi)


def radial_domain(params: ParabolaParams) -> tuple[float, float]:
    """Physical r-interval, from the x-interval through x = 2 r^2."""
    xlo, xhi = domain(params)
    rlo = math.sqrt(xlo / 2.0)
    rhi = math.inf if math.isinf(xhi) else math.sqrt(xhi / 2.0)
    return (rlo, rhi)


# _branch holds the branch formula for floats and arrays, and y_value its
# domain check (psi_value is Y / x, with y_value's float checks inline);
# psi_derivative evaluates both branches, harmonic and square-root, in its own
# frame, with W and sqrt(W) once: the oracle's innermost calls.


def _out_of_domain(params: ParabolaParams, x: float) -> OutOfDomain:
    return OutOfDomain(f"x = {x:g} outside domain [{params._xlo:g}, {params._xhi:g}]")


def y_value(params: ParabolaParams, x: float | np.ndarray) -> float | np.ndarray:
    """Convex branch Y(x); satisfies Y(2 r^2) = 2 r^2 psi(r).

    ``x`` may be a float or a float64 array; the array result equals the
    float call element for element (one formula, :func:`_branch`).  An array
    that fails the fast checks goes to the float call element by element, so
    it raises the float call's error at the first element refused.  Where Y
    does not come out finite (x = inf, or an overflow) it raises OutOfDomain.
    """
    if isinstance(x, np.ndarray):
        # Computed first and checked after, as in psi_value.
        with np.errstate(over="ignore", invalid="ignore"):
            y = _branch(params, x, np.sqrt)
            if (x.size and params._xlo <= x.min() and x.max() <= params._xhi
                    and _all_finite(y)):
                return y
        # The float call raises at the first bad element; with none, the
        # values are finite and only their sum overflowed.
        for v in x.ravel().tolist():
            y_value(params, v)
        return y
    if x < params._xlo or x > params._xhi:
        raise _out_of_domain(params, x)
    y = _branch(params, x, math.sqrt)
    if y - y == 0.0:  # finite: inf - inf and nan - nan are nan
        return y
    raise OutOfDomain(f"Y is not finite at x = {x:g}")


def _branch(params: ParabolaParams, x: float | np.ndarray, sqrt) -> float | np.ndarray:
    """The branch Y at x, unchecked.  ``sqrt`` is math.sqrt for a float and
    np.sqrt for an array; both are correctly rounded, so the bits agree."""
    if params.b == 0.0:
        return params._a1 * x + params._a0 + params._a2 * x * x
    w = params._bdelta * (x - params._x_v)
    return params._slope * x - params._offset - sqrt(w) / params._b2


def _all_finite(values: np.ndarray) -> bool:
    """True only if every value is finite: a sum with an inf or a NaN term is
    not.  A sum of finite terms may overflow; its caller then checks again."""
    return math.isfinite(values.sum())


def y_derivatives(params: ParabolaParams, x: float, order: int = 4) -> list[float]:
    """Closed-form derivatives [Y', .., Y^(order)] of the convex branch.

    Derivatives of every order diverge at the vertical tangent x = x_v, so
    that point is rejected, as is one where a power of (x - x_v) underflows
    (SingularPoint).  Where W = b delta (x - x_v), a power of it or a
    derivative overflows (x = inf among them) it raises OutOfDomain.  Only
    the orders asked for are computed, so a power that only a higher order
    needs refuses nothing.  Y'' is positive on the interior wherever it does
    not underflow to 0.
    """
    if not 1 <= order <= 4:
        raise InvalidParams(f"order must be between 1 and 4, got {order!r}")
    if not params._xlo <= x <= params._xhi:  # also rejects x = nan
        raise _out_of_domain(params, x)
    if params.b == 0.0:
        out = [params._a1 + 2.0 * params._a2 * x, 2.0 * params._a2, 0.0, 0.0][:order]
    else:
        w = params._bdelta * (x - params._x_v)
        if w <= 0.0:
            raise SingularPoint("derivatives diverge at the vertical tangent x = x_v")
        if w == math.inf:  # every derivative would come out as its x -> inf limit
            raise _overflow(x)
        b, dl = params.b, params.delta
        sw = math.sqrt(w)
        out = [params._slope - dl / (params._2b * sw)]
        higher = (lambda: dl**2 / (4.0 * w * sw),
                  lambda: -3.0 * b * dl**3 / (8.0 * w**2 * sw),
                  lambda: 15.0 * b**2 * dl**4 / (16.0 * w**3 * sw))
        try:
            out += [term() for term in higher[:order - 1]]
        except ZeroDivisionError:
            raise SingularPoint("derivatives overflow at the vertical tangent") from None
        except OverflowError:  # a power of W
            raise _overflow(x) from None
    for v in out:
        if v - v != 0.0:  # not finite: inf - inf and nan - nan are nan
            raise _overflow(x)
    return out


def _overflow(x: float) -> OutOfDomain:
    return OutOfDomain(f"derivatives of Y overflow at x = {x:g}")


def psi_value(params: ParabolaParams, r: float | np.ndarray) -> float | np.ndarray:
    """Potential in r-space, psi(r) = Y(2 r^2) / (2 r^2).

    ``r`` may be a float or a float64 array, as for :func:`y_value`.  Where
    2 r^2 underflows to 0, or psi does not come out finite, it raises
    OutOfDomain.
    """
    if isinstance(r, np.ndarray):
        # Computed first and checked after: the common all-valid array returns
        # with three reductions.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            x = 2.0 * r * r
            psi = _branch(params, x, np.sqrt) / x
            if r.size:  # x = 2 r^2 is least and greatest where r is
                lo, hi = r.min(), r.max()
                if (0.0 < lo and params._xlo <= 2.0 * lo * lo
                        and 2.0 * hi * hi <= params._xhi and _all_finite(psi)):
                    return psi
        for v in r.ravel().tolist():  # as in y_value
            psi_value(params, v)
        return psi
    if r <= 0.0:
        raise OutOfDomain("psi_value requires r > 0")
    x = 2.0 * r * r
    # y_value's float path, its checks in its order, without its frame.
    if x < params._xlo or x > params._xhi:
        raise _out_of_domain(params, x)
    try:
        y = _branch(params, x, math.sqrt)
        if y - y != 0.0:  # not finite: inf - inf and nan - nan are nan
            raise OutOfDomain(f"Y is not finite at x = {x:g}")
        psi = y / x
    except ZeroDivisionError:  # x underflows to 0 below r ~ 1e-162
        raise OutOfDomain("psi_value requires 2 r^2 > 0") from None
    if psi - psi == 0.0:  # finite: inf - inf and nan - nan are nan
        return psi
    raise OutOfDomain(f"psi is not finite at r = {r:g}")


def psi_derivative(params: ParabolaParams, r: float) -> float:
    """d psi / d r = 4 r (x Y' - Y) / x^2 at x = 2 r^2, with W and sqrt(W) once;
    OutOfDomain where x^2 underflows to 0 or overflows, where the result does
    not come out finite, and for r = nan."""
    if not r > 0.0:
        raise OutOfDomain("psi_derivative requires r > 0")
    x = 2.0 * r * r
    xx = x * x
    if xx > _FLOAT_MAX:  # above r ~ 8e76
        raise OutOfDomain(f"psi_derivative: (2 r^2)^2 overflows at r = {r:g}")
    if x < params._xlo or x > params._xhi:
        raise _out_of_domain(params, x)
    if params.b == 0.0:
        y = params._a1 * x + params._a0 + params._a2 * x * x
        if y - y != 0.0:  # not finite, as y_value refuses it
            raise OutOfDomain(f"Y is not finite at x = {x:g}")
        yp = params._a1 + 2.0 * params._a2 * x
        if yp - yp != 0.0:
            raise _overflow(x)
    else:
        w = params._bdelta * (x - params._x_v)
        if w <= 0.0:
            raise SingularPoint("derivatives diverge at the vertical tangent x = x_v")
        sw = math.sqrt(w)
        y = params._slope * x - params._offset - sw / params._b2
        yp = params._slope - params.delta / (params._2b * sw)
    try:
        dpsi = 4.0 * r * (yp * x - y) / xx
    except ZeroDivisionError:  # x^2 underflows to 0 below r ~ 1e-81
        raise OutOfDomain("psi_derivative requires (2 r^2)^2 > 0") from None
    if dpsi - dpsi == 0.0:  # finite: inf - inf and nan - nan are nan
        return dpsi
    raise OutOfDomain(f"psi_derivative is not finite at r = {r:g}")


def apply_gauge(params: ParabolaParams, g: GaugeTerm) -> ParabolaParams:
    """Latin coefficients of the gauged potential Y(x) + eps*x + lam.

    For b != 0 the square-root part of the branch is gauge invariant, so the
    pair (b*delta, x_v) is preserved and only the affine part moves:
    a' = a - eps*b and d' = d - 2*lam*b**2, with c and e adjusted to keep the
    discriminant and vertical tangent fixed.  For the harmonic class the
    linear coefficients shift directly.
    """
    eps, lam = g.eps_gauge, g.lam_gauge
    if not (math.isfinite(eps) and math.isfinite(lam)):
        raise InvalidParams("gauge terms must be finite")
    a, b, c, d, e = params.as_tuple()
    if b == 0.0:
        # Y = -(c/d) x - e/d - (a^2/d) x^2 : shift -c/d by eps, -e/d by lam.
        return ParabolaParams(a, b, c - eps * d, d, e - lam * d)
    delta = params.delta
    x_v = params.x_v
    a2 = a - eps * b
    d2 = d - 2.0 * lam * b * b
    c2 = (a2 * d2 - delta) / b
    e2 = (4.0 * b * delta * x_v + d2 * d2) / (4.0 * b * b)
    return ParabolaParams(a2, b, c2, d2, e2)


def from_kepler(mu: float) -> ParabolaParams:
    """Kepler potential psi = -mu/r, i.e. Y(x) = -mu*sqrt(2x)."""
    _require_positive(mu=mu)
    return ParabolaParams(0.0, 1.0, -2.0 * mu * mu, 0.0, 0.0)


def from_harmonic(omega: float) -> ParabolaParams:
    """Harmonic potential psi = omega^2 r^2 / 8, i.e. Y(x) = omega^2 x^2 / 16."""
    _require_positive(omega=omega)
    return ParabolaParams(-omega / 2.0, 0.0, 0.0, -4.0, 0.0)


def from_henon(mu: float, beta: float) -> ParabolaParams:
    """Henon potential psi = -mu / (beta + sqrt(beta^2 + r^2))."""
    _require_positive(mu=mu, beta=beta)
    return ParabolaParams(0.0, 1.0, -2.0 * mu * mu, -4.0 * mu * beta, 0.0)


def from_bounded(mu: float, beta: float) -> ParabolaParams:
    """Bounded potential psi = mu / (beta + sqrt(beta^2 - r^2)), r <= beta."""
    _require_positive(mu=mu, beta=beta)
    return ParabolaParams(0.0, -1.0, 2.0 * mu * mu, -4.0 * mu * beta, 0.0)


def from_hollowed(mu: float, beta: float) -> ParabolaParams:
    """Hollowed potential psi = -(mu/r^2) sqrt(r^2 - beta^2), r >= beta."""
    _require_positive(mu=mu, beta=beta)
    return ParabolaParams(0.0, 1.0, -2.0 * mu * mu, 0.0, 4.0 * mu * mu * beta * beta)


def _require_positive(**kwargs: float) -> None:
    for name, v in kwargs.items():
        if not (math.isfinite(v) and v > 0.0):
            raise InvalidParams(f"{name} must be positive and finite, got {v!r}")


def ode_residual_from_derivatives(y2: float, y3: float, y4: float) -> float:
    """Residual 3 Y'' Y'''' - 5 (Y''')^2 of the universal parabola ODE."""
    return 3.0 * y2 * y4 - 5.0 * y3 * y3


def parabola_ode_residual(params: ParabolaParams, x: float) -> float:
    """Universal-ODE residual at x; identically zero (to rounding) on parabolae."""
    d2, d3, d4 = y_derivatives(params, x, 4)[1:]
    return ode_residual_from_derivatives(d2, d3, d4)
