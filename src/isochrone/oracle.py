"""Independent numerical ground truth for orbit quantities.

Nothing in this module knows the closed-form orbit solutions: the radial
period, apsidal angle and radial action are computed straight from their
defining integrals, and trajectories come from direct integration of the
equations of motion

    rdot' = Lambda^2 / r^3 - psi'(r),      theta' = Lambda / r^2.

The only information shared with the analytic side is the potential itself
(psi and its first derivative).  Works for any radial potential through
:class:`RadialPotential`, the one generic-potential type: its Henon view
Y(x) = x psi(sqrt(x/2)) also serves the Birkhoff checks, for negative
controls such as the Plummer sphere.

The three defining integrals share their turning points and the
inverse-square-root singularities there.  One substitution,
r = r_p + (r_a - r_p) sin(u)^2, removes them, and one periodic midpoint rule
on one node set sums all three (Trefethen & Weideman 2014).  Every
potential's turning points and node set are kept per orbit: its three
quadratures and ODE share the last turning points, and the quadratures the
last node set.

Every numerical derivative, here and in the Birkhoff checks, is a call of
the one difference routine, :func:`difference`, with a rule from its table:
Y' to Y'''' of a generic potential, psi' where ``dpsi`` is omitted (the
central rule), the epicyclic curvature as the slope of the force balance,
and the Lambda- and J-slopes of the frequencies in the frequency wedges.
The Lambda-slopes of the Birkhoff invariants are exact and take none.

The equations of motion are stepped by DOP853 (Hairer, Norsett & Wanner)
on Python floats: scipy's tableau, read once, and its controller and dense
output.  That is ``solve_ivp``'s step sequence without the per-step array
overhead, and with sums in a fixed order, so the states have the same bits
whatever BLAS library numpy uses.

scipy is imported inside the three functions that call it, on the first
oracle call, not with this module: the closed-form commands (``classify``,
``elements``, ``table``, ``orbit``) never load it.  It stays a runtime
dependency: ``verify``, the oracle's functions and the Birkhoff checks of a
generic :class:`RadialPotential` load it.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from . import potential as potmod
from .analytic import OrbitConstants
from .errors import (
    DomainExit,
    InvalidParams,
    NoBoundOrbit,
    NoCircularOrbit,
    OutOfDomain,
    StepSizeUnderflow,
    ToleranceNotMet,
)
from .potential import ParabolaParams

__all__ = [
    "QuadratureResult",
    "OdeState",
    "RadialPotential",
    "plummer_potential",
    "as_potential",
    "turning_radii",
    "quad_radial_period",
    "quad_apsidal_angle",
    "quad_radial_action",
    "integrate_orbit",
    "isochrony_spread",
]

_SQRT2 = math.sqrt(2.0)

# Orbits whose radial span is below this fraction of r_a are handled by the
# epicyclic (small-oscillation) limit instead of the singular quadrature.
_CIRCULAR_SPAN = 1e-9

# Difference rules (n, ((k, w_k), ...), c): the n-th derivative is
# sum_k w_k f(x + k h) / (c h^n), evaluated and summed in the listed order.
CENTRAL = (1, ((1, 1), (-1, -1)), 2)
FORWARD = (1, ((0, -3), (1, 4), (2, -1)), 2)
# 5-point rules for Y' to Y'''', each with its step relative to max(|x|, 1).
FIVE_POINT = (
    ((1, ((-2, 1), (-1, -8), (1, 8), (2, -1)), 12), 1e-4),
    ((2, ((-2, -1), (-1, 16), (0, -30), (1, 16), (2, -1)), 12), 1e-4),
    ((3, ((-2, -1), (-1, 2), (1, -2), (2, 1)), 2), 2e-3),
    ((4, ((-2, 1), (-1, -4), (0, 6), (1, -4), (2, 1)), 1), 1e-2),
)


def difference(f: Callable, x: float, h: float, rule: tuple):
    """The derivative of f at x by ``rule``, step h; f may return an array."""
    n, ((k0, w0), *terms), c = rule
    total = w0 * f(x + k0 * h)
    for k, w in terms:
        total = total + w * f(x + k * h)
    return total / (c * h**n)


@dataclass(frozen=True)
class QuadratureResult:
    """``evaluations`` counts psi evaluations through the returned level of
    the midpoint rule; ``error_estimate`` is its change from the level before."""

    value: float
    error_estimate: float
    evaluations: int


@dataclass(frozen=True)
class OdeState:
    """One integrated sample with conservation diagnostics.

    ``energy_drift`` and ``lam_drift`` are relative to the initial values;
    Lambda is an exact parameter of the reduced system, so its drift is zero
    by construction and reported for interface completeness.
    """

    t: float
    r: float
    rdot: float
    theta: float
    energy_drift: float
    lam_drift: float


@dataclass(frozen=True, eq=False)
class RadialPotential:
    """A generic radial potential: psi(r), or Y(x) = x psi(sqrt(x/2)).

    ``dpsi`` may be omitted; psi' is then the central rule of :func:`difference`
    (adequate for negative controls, not for tight-tolerance work).
    ``r_bounds`` is the open interval on which psi is defined.  The
    turning-point scan, each quadrature level and the ODE energy drift call
    ``psi`` once on a float64 array, or point by point where it takes floats.

    Equality and hash are by identity, so any potential keys the oracle's
    caches whatever its ``psi``.  The oracle keeps the last orbit of a
    potential object, so ``psi`` and ``dpsi`` must be pure functions of r.
    """

    psi: Callable[[float], float]
    dpsi: Optional[Callable[[float], float]] = None
    r_bounds: tuple[float, float] = (0.0, math.inf)
    name: str = "generic"

    def force_term(self, r: float) -> float:
        """psi'(r); without ``dpsi``, the central rule with step 1e-6 max(|r|, 1),
        capped at half the distance to the nearer end of ``r_bounds`` so that
        the stencil stays inside.  OutOfDomain outside the open interval."""
        if self.dpsi is not None:
            return self.dpsi(r)
        rlo, rhi = self.r_bounds
        if not rlo < r < rhi:
            raise OutOfDomain(f"r = {r:g} outside the domain of {self.name}")
        h = min(1e-6 * max(abs(r), 1.0), 0.5 * (r - rlo), 0.5 * (rhi - r))
        return difference(self.psi, r, h, CENTRAL)

    def y_value(self, x: float) -> float:
        """Y(x) = x psi(sqrt(x/2)) on the open interval (2 r_lo^2, 2 r_hi^2)."""
        rlo, rhi = self.r_bounds
        if not 2.0 * rlo * rlo < x < 2.0 * rhi * rhi:
            raise OutOfDomain(f"x = {x:g} outside the domain of {self.name}")
        return x * self.psi(math.sqrt(0.5 * x))

    def y_derivatives(self, x: float, order: int = 4) -> list[float]:
        """[Y', .., Y^(order)] by 5-point central differences; OutOfDomain
        when a stencil [x - 2h, x + 2h] leaves the domain."""
        if not 1 <= order <= 4:
            raise InvalidParams(f"order must be between 1 and 4, got {order!r}")
        return [difference(self.y_value, x, step * max(abs(x), 1.0), rule)
                for rule, step in FIVE_POINT[:order]]

    def circular_radius(self, lam: float) -> float:
        """Circular radius: Lambda^2 / r^3 = psi'(r), i.e. x Y' - Y = Lambda^2
        at x = 2 r^2, since x Y' - Y = r^3 psi'."""
        if lam <= 0.0:
            raise InvalidParams("circular orbit requires Lambda > 0")
        r_c = _force_balance_radius(self, lam, *_search_window(self))
        if r_c is None:
            raise NoCircularOrbit(
                f"no circular orbit of {self.name} at Lambda = {lam:g}")
        return r_c


def plummer_potential(mu: float = 1.0, b: float = 1.0) -> RadialPotential:
    """Plummer sphere psi = -mu / sqrt(r^2 + b^2); not isochrone."""
    def psi(r: float | np.ndarray) -> float | np.ndarray:
        sqrt = np.sqrt if isinstance(r, np.ndarray) else math.sqrt
        return -mu / sqrt(r * r + b * b)

    def dpsi(r: float) -> float:
        return mu * r / (r * r + b * b) ** 1.5

    return RadialPotential(psi=psi, dpsi=dpsi, name=f"plummer(mu={mu:g},b={b:g})")


PotentialLike = Union[ParabolaParams, RadialPotential]


def as_potential(obj: PotentialLike) -> RadialPotential:
    """Normalize a ParabolaParams or RadialPotential into the oracle handle."""
    if isinstance(obj, RadialPotential):
        return obj
    if isinstance(obj, ParabolaParams):
        return RadialPotential(
            psi=lambda r: potmod.psi_value(obj, r),
            dpsi=lambda r: potmod.psi_derivative(obj, r),
            r_bounds=potmod.radial_domain(obj),
            name="parabola",
        )
    raise TypeError(f"expected ParabolaParams or RadialPotential, got {type(obj)!r}")


# ---------------------------------------------------------------------------
# turning points by root bracketing


def _psi_array(p: RadialPotential, r: np.ndarray) -> np.ndarray:
    """psi on a float64 array: one call, or point by point for a psi written
    for floats only (math.sqrt, float(), an if on r)."""
    try:
        return p.psi(r)
    except (TypeError, ValueError):
        return np.array([p.psi(x) for x in r])


def _search_window(p: RadialPotential) -> tuple[float, float]:
    rlo, rhi = p.r_bounds
    lo = max(rlo, 1e-8) * (1.0 + 1e-12) if rlo > 0.0 else 1e-8
    hi = rhi * (1.0 - 1e-12) if math.isfinite(rhi) else 1e8
    return lo, hi


def _force_balance(p: RadialPotential, lam: float) -> Callable[[float], float]:
    """r -> Lambda^2 / r^3 - psi'(r), whose root is the circular radius."""
    def bal(r: float) -> float:
        return lam**2 / r**3 - p.force_term(r)

    return bal


def _force_balance_radius(p: RadialPotential, lam: float, lo: float,
                          hi: float) -> Optional[float]:
    """Circular radius from Lambda^2 / r^3 = psi'(r); sharp, unlike the kinetic
    max.  None where the force balance does not change sign on [lo, hi]."""
    from scipy.optimize import brentq

    bal = _force_balance(p, lam)
    if not bal(lo) > 0.0 > bal(hi):
        return None
    return float(brentq(bal, lo, hi, xtol=1e-300, rtol=8.9e-16))


def turning_radii(pot: PotentialLike, oc: OrbitConstants) -> tuple[float, float]:
    """Periastron and apoastron radii found purely numerically.

    Scans the radial kinetic term on a log grid to seed the maximum, refines
    it, then brackets and solves the two zero crossings with Brent's method.
    The last solve is kept, so the quadratures and the ODE of one orbit
    share it.
    """
    return _kept_radii(pot, oc)


# Keyed on the caller's (pot, oc): a parabola by value, a RadialPotential by
# identity.  The three quadratures and the ODE of one orbit ask in a row, and
# successive orbits differ.
@functools.lru_cache(maxsize=1)
def _kept_radii(pot: PotentialLike, oc: OrbitConstants) -> tuple[float, float]:
    return _solve_radii(as_potential(pot), oc)


@functools.lru_cache(maxsize=16)
def _scan_grid(lo: float, hi: float) -> np.ndarray:
    """np.geomspace(lo, hi, 600) by libm's pow: numpy's rounds apart on AVX512.
    Read-only, since every solve shares it and hands it to psi."""
    exponents = np.linspace(math.log10(lo), math.log10(hi), 600)[1:-1].tolist()
    grid = np.array([lo, *(10.0**y for y in exponents), hi])
    grid.flags.writeable = False
    return grid


def _solve_radii(p: RadialPotential, oc: OrbitConstants) -> tuple[float, float]:
    from scipy.optimize import brentq, minimize_scalar

    lam2 = oc.lam**2

    def kin(r: float) -> float:
        return oc.xi - 0.5 * lam2 / (r * r) - p.psi(r)

    lo, hi = _search_window(p)
    grid = _scan_grid(lo, hi)
    vals = oc.xi - 0.5 * lam2 / (grid * grid) - _psi_array(p, grid)
    imax = int(np.argmax(vals))
    bl = grid[max(imax - 1, 0)]
    bh = grid[min(imax + 1, len(grid) - 1)]
    res = minimize_scalar(lambda r: -kin(r), bounds=(bl, bh), method="bounded",
                          options={"xatol": 1e-14 * grid[imax]})
    r_ref = float(res.x)
    k_ref = kin(r_ref)
    scale = max(abs(oc.xi), oc.lam**2, 1.0)
    if k_ref <= 0.0:
        # At most grazing contact: circular to round-off, or no orbit at all.
        if k_ref >= -1e-11 * scale:
            r_c = _force_balance_radius(p, oc.lam, bl, bh) or r_ref
            return (r_c, r_c)
        raise NoBoundOrbit("radial kinetic term never positive: no bound orbit")
    r_star = r_ref if k_ref > vals[imax] else float(grid[imax])

    def root(inner: float, outer: float) -> float:
        return float(brentq(kin, inner, outer, xtol=1e-300, rtol=8.9e-16,
                            maxiter=300))

    # The grid points next to r_star where kin < 0 bracket the turning points;
    # the grid ends at the window's ends, so a side without one has none inside.
    neg = vals < 0.0
    below = np.flatnonzero(neg[:imax + 1] & (grid[:imax + 1] < r_star))
    above = imax + np.flatnonzero(neg[imax:] & (grid[imax:] > r_star))
    if not below.size:
        raise NoBoundOrbit("no inner turning point above the domain floor")
    r_p = root(grid[below[-1]], r_star)
    if not above.size:
        raise NoBoundOrbit("no outer turning point: orbit unbound or exits domain")
    r_a = root(r_star, grid[above[0]])
    return (r_p, r_a)


# ---------------------------------------------------------------------------
# quadratures


def _epicyclic(p: RadialPotential, oc: OrbitConstants,
               r_c: float) -> tuple[QuadratureResult, ...]:
    """(T, Theta, J) of a near-circular orbit from the effective-potential
    curvature, minus the slope of the force balance by the central rule."""
    curv = -difference(_force_balance(p, oc.lam), r_c, 1e-6 * r_c, CENTRAL)
    if curv <= 0.0:
        raise NoBoundOrbit("effective potential not convex at the circular radius")
    T = 2.0 * math.pi / math.sqrt(curv)
    return (*(QuadratureResult(value=v, error_estimate=1e-10 * v, evaluations=5)
              for v in (T, T * oc.lam / r_c**2)), QuadratureResult(0.0, 0.0, 0))


_MAX_NODES = 4096  # doubling from 8 nodes: at most 8184 psi evaluations an orbit


@functools.lru_cache(maxsize=None)
def _tangents(n: int) -> np.ndarray:
    """tan(v) at the n midpoints v of [0, pi/2], by libm on every host."""
    return np.array([math.tan((k + 0.5) * (0.5 * math.pi / n)) for k in range(n)])


# Kept like _kept_radii: the three quadratures of an orbit share its nodes.
@functools.lru_cache(maxsize=1)
def _orbit_integrals(pot: PotentialLike, oc: OrbitConstants, epsrel: float,
                     r_p: float, r_a: float) -> tuple:
    """(T, Theta, J), each a QuadratureResult or the reason it is refused.

    With r = r_p + span sin(u)^2 and u = atan(c tan v), c = (r_p / r_a)^(1/4),
    each integrand is smooth, even and pi-periodic in v.  A part takes the
    first level of the midpoint rule in v that agrees with the one before to
    ``epsrel``, unless kin <= 0 at a node first; a span below _CIRCULAR_SPAN
    r_a, where kin cancels to noise, takes the near-circular limit instead.
    """
    p = as_potential(pot)
    span = r_a - r_p
    if span <= _CIRCULAR_SPAN * r_a:
        return _epicyclic(p, oc, 0.5 * (r_p + r_a))
    c = (r_p / r_a) ** 0.25
    out, prev, evaluations, n = [None] * 3, None, 0, 8
    reason = f"no two levels of the midpoint rule up to {_MAX_NODES} nodes agree"
    while None in out and n <= _MAX_NODES:
        t = _tangents(n)
        ct2 = (c * t) * (c * t)
        cos2 = 1.0 / (1.0 + ct2)
        sin2 = ct2 * cos2
        r = r_p + span * sin2
        kin = oc.xi - 0.5 * (oc.lam * oc.lam) / (r * r) - _psi_array(p, r)
        evaluations += n
        if not np.all(kin > 0.0):  # also for a NaN
            reason = f"radial kinetic term <= 0 at a node of the {n}-point midpoint rule"
            break
        root = np.sqrt(kin / ((span * sin2) * (span * cos2)))
        w = (_SQRT2 * math.pi * c / n) * (1.0 + t * t) * cos2
        values = [float(np.sum(w / root)), oc.lam * float(np.sum(w / (r * r * root))),
                  span * span / math.pi * float(np.sum(w * sin2 * cos2 * root))]
        for k, v in enumerate(values):
            if out[k] is None and prev and abs(v - prev[k]) <= epsrel * abs(v):
                out[k] = QuadratureResult(value=v, error_estimate=abs(v - prev[k]),
                                          evaluations=evaluations)
        prev, n = values, 2 * n
    return tuple(reason if v is None else v for v in out)


def _orbit_integral(pot: PotentialLike, oc: OrbitConstants, epsrel: float,
                    part: int) -> QuadratureResult:
    """Part 0, 1 or 2 of (T, Theta, J); ToleranceNotMet where it is refused."""
    result = _orbit_integrals(pot, oc, epsrel, *turning_radii(pot, oc))[part]
    if isinstance(result, str):
        raise ToleranceNotMet(result)
    return result


def quad_radial_period(pot: PotentialLike, oc: OrbitConstants,
                       epsrel: float = 1e-11) -> QuadratureResult:
    """T = sqrt(2) * integral dr / sqrt(xi - Lambda^2/2r^2 - psi) over [r_p, r_a]."""
    return _orbit_integral(pot, oc, epsrel, 0)


def quad_apsidal_angle(pot: PotentialLike, oc: OrbitConstants,
                       epsrel: float = 1e-11) -> QuadratureResult:
    """Theta = sqrt(2) * Lambda * integral dr / (r^2 sqrt(...)) over [r_p, r_a]."""
    return _orbit_integral(pot, oc, epsrel, 1)


def quad_radial_action(pot: PotentialLike, oc: OrbitConstants,
                       epsrel: float = 1e-11) -> QuadratureResult:
    """J = (sqrt(2)/pi) * integral sqrt(xi - Lambda^2/2r^2 - psi) dr."""
    return _orbit_integral(pot, oc, epsrel, 2)


# ---------------------------------------------------------------------------
# direct integration of the equations of motion


# Accepted steps allowed between two output times, after the per-call step
# limit of LSODA's mxstep (Hindmarsh, ODEPACK 1983).  A completing one-period
# call of the benchmark's edge-judge takes at most 363; the crawls it refuses,
# apoastra some 1e-10 inside the bounded family's wall, took 7.5k-9.3k.
_MAX_STEPS = 2000

# DOP853 silently raises a smaller rtol to 100 eps.
_RTOL_FLOOR = 100.0 * np.finfo(float).eps

# DOP853's step-size controller (Hairer, Norsett & Wanner, Solving ODEs I,
# II.4), with scipy's constants; the error estimator has order 7.
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_EXPONENT = -1.0 / 8.0
_SQRT3 = math.sqrt(3.0)


@functools.lru_cache(maxsize=1)
def _dop853_tableau() -> tuple:
    """scipy's DOP853 tableau as float tuples without its zero weights.

    Read on first use from the class attributes of ``scipy.integrate.DOP853``:
    ``stages[s - 1]`` holds the (j, a_sj) of stage s = 1 .. 11 and ``extra``
    those of the dense-output stages 13 .. 15; ``final`` holds (j, b_j, e5_j,
    e3_j) wherever one of the three weights is nonzero, and ``dense`` the
    (j, d_ij) of each row of D.  The nodes C and C_EXTRA go unused: the
    equations of motion are autonomous.
    """
    from scipy.integrate import DOP853

    def pairs(row) -> tuple:
        return tuple((j, float(w)) for j, w in enumerate(row) if w != 0.0)

    n = DOP853.n_stages
    stages = tuple(pairs(a[:s]) for s, a in enumerate(DOP853.A[1:n], 1))
    extra = tuple(pairs(a[:s]) for s, a in enumerate(DOP853.A_EXTRA, n + 1))
    final = tuple((j, float(b), float(e5), float(e3)) for j, (b, e5, e3) in
                  enumerate(itertools.zip_longest(DOP853.B, DOP853.E5, DOP853.E3,
                                                  fillvalue=0.0))
                  if b or e5 or e3)
    return stages, extra, final, tuple(pairs(d) for d in DOP853.D)


def _rms(x: list[float]) -> float:
    """Root mean square of three floats, summed in order."""
    return math.sqrt(x[0] * x[0] + x[1] * x[1] + x[2] * x[2]) / _SQRT3


def _dop853(rhs: Callable[[float, float], tuple[float, float, float]],
            y0: tuple[float, float, float], t_end: float, t_eval: list[float],
            rtol: float, atol: float,
            walls: tuple[float, float]) -> list[tuple[float, float, float]]:
    """The states (r, rdot, theta) at ``t_eval`` of DOP853 stepped from t = 0.

    scipy's DOP853 on Python floats: the same tableau, automatic first step
    (HNW II.4), controller, error norm and dense output, built only on the
    steps that reach an output time, as ``solve_ivp`` does.  ``rhs(r, rdot)``
    is the derivative of the state, which does not depend on theta.  Sums
    run in a fixed order, so the bits do not depend on the BLAS library.

    DomainExit when a step ends outside the open interval ``walls``;
    StepSizeUnderflow when the step falls below 10 ulp of t, or after
    _MAX_STEPS accepted steps without reaching the next output time.
    """
    stages, extra, final, dense = _dop853_tableau()
    # The stages of one step, by component; [0] is the derivative at its
    # start, [12] the one at its end, [13:] the dense-output stages.
    kr, kv, kt = ([0.0] * 16 for _ in range(3))

    def fill(rows: tuple, first: int, r: float, v: float, h: float) -> None:
        """Stages first, first + 1, .. from the weights (j, a_sj) in rows."""
        for s, row in enumerate(rows, first):
            sr = sv = 0.0
            for j, a in row:
                sr += a * kr[j]
                sv += a * kv[j]
            kr[s], kv[s], kt[s] = rhs(r + sr * h, v + sv * h)
    t, (r, v, th) = 0.0, y0
    kr[0], kv[0], kt[0] = f0 = rhs(r, v)

    sc = [atol + abs(y) * rtol for y in y0]
    d0 = _rms([y / s for y, s in zip(y0, sc)])
    d1 = _rms([f / s for f, s in zip(f0, sc)])
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, t_end)
    f1 = rhs(r + h0 * f0[0], v + h0 * f0[1])
    d2 = _rms([(a - b) / s for a, b, s in zip(f1, f0, sc)]) / h0
    h1 = (max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15
          else (0.01 / max(d1, d2)) ** (1.0 / 8.0))
    h_abs = min(100.0 * h0, h1, t_end)

    out: list[tuple[float, float, float]] = []
    done = steps = 0
    while done < len(t_eval):
        min_step = 10.0 * math.ulp(t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise StepSizeUnderflow(
                    f"ODE integration failed: step {h_abs:g} below 10 ulp of "
                    f"t = {t:.10g}")
            t_new = min(t + h_abs, t_end)
            h = t_new - t
            fill(stages, 1, r, v, h)
            br = bv = bt = 0.0
            e5r = e5v = e5t = e3r = e3v = e3t = 0.0
            for j, b, e5, e3 in final:
                br += b * kr[j]
                bv += b * kv[j]
                bt += b * kt[j]
                e5r += e5 * kr[j]
                e5v += e5 * kv[j]
                e5t += e5 * kt[j]
                e3r += e3 * kr[j]
                e3v += e3 * kv[j]
                e3t += e3 * kt[j]
            r_new, v_new, th_new = r + h * br, v + h * bv, th + h * bt
            kr[12], kv[12], kt[12] = rhs(r_new, v_new)
            sc_r = atol + max(abs(r), abs(r_new)) * rtol
            sc_v = atol + max(abs(v), abs(v_new)) * rtol
            sc_t = atol + max(abs(th), abs(th_new)) * rtol
            e5n = (e5r / sc_r) ** 2 + (e5v / sc_v) ** 2 + (e5t / sc_t) ** 2
            e3n = (e3r / sc_r) ** 2 + (e3v / sc_v) ** 2 + (e3t / sc_t) ** 2
            error = (abs(h) * e5n / math.sqrt((e5n + 0.01 * e3n) * 3.0)
                     if e5n or e3n else 0.0)
            if error < 1.0:
                factor = (_MAX_FACTOR if error == 0.0
                          else min(_MAX_FACTOR, _SAFETY * error ** _EXPONENT))
                h_abs *= min(1.0, factor) if rejected else factor
                break
            # Also for a NaN error: max keeps _MIN_FACTOR.
            h_abs *= max(_MIN_FACTOR, _SAFETY * error ** _EXPONENT)
            rejected = True

        if not walls[0] < r_new < walls[1]:
            raise DomainExit(f"trajectory reached the domain boundary at t = {t_new:g}")
        steps += 1
        reached = done
        while reached < len(t_eval) and t_eval[reached] <= t_new:
            reached += 1
        if reached > done:
            fill(extra, 13, r, v, h)
            # Per component, y plus a polynomial in x and 1 - x by turns:
            # Horner's rule on h D K, highest first, then 2 dy - h (f + f_old),
            # h f_old - dy and dy.
            polys = []
            for y, y_new, k in ((r, r_new, kr), (v, v_new, kv), (th, th_new, kt)):
                dy = y_new - y
                high = []
                for row in reversed(dense):
                    acc = 0.0
                    for j, d in row:
                        acc += d * k[j]
                    high.append(h * acc)
                polys.append((y, *high, 2.0 * dy - h * (k[12] + k[0]), h * k[0] - dy,
                              dy))
            for te in t_eval[done:reached]:
                x = (te - t) / h
                u = 1.0 - x
                out.append(tuple(
                    y + ((((((c0 * x + c1) * u + c2) * x + c3) * u + c4) * x + c5) * u
                         + c6) * x
                    for y, c0, c1, c2, c3, c4, c5, c6 in polys))
            done, steps = reached, 0
        elif steps >= _MAX_STEPS:
            raise StepSizeUnderflow(
                f"{steps} steps to t = {t_new:.10g} without reaching the "
                f"output time {t_eval[done]:.10g}")
        t, r, v, th = t_new, r_new, v_new, th_new
        kr[0], kv[0], kt[0] = kr[12], kv[12], kt[12]
    return out


def integrate_orbit(pot: PotentialLike, oc: OrbitConstants, t_end: float,
                    reltol: float = 1e-10,
                    t_eval: Optional[Sequence[float]] = None) -> list[OdeState]:
    """Integrate (r, rdot, theta) from periastron with an embedded RK pair.

    Starts exactly at (r_p, 0, 0); the right-hand side is smooth at turning
    points in these variables.  Steps DOP853 on Python floats from t = 0
    (automatic first step, rtol ``reltol``, no step ceiling) and reads each
    output time of ``t_eval``, or else of 200 evenly spaced times in
    [0, t_end], from the dense output of the step that reaches it.  That is
    the step sequence and the right-hand-side calls of ``solve_ivp``'s
    DOP853, with the states equal to its own within rounding, and the same
    bits on every host.  It stops at the last output time.

    Raises InvalidParams unless t_end is finite and > 0, reltol is finite and
    at least 100 eps (DOP853's floor), and t_eval is non-empty, strictly
    increasing and inside [0, t_end]; DomainExit when a step ends within a
    relative 1e-12 of a wall of ``r_bounds``; StepSizeUnderflow when the step
    falls below 10 ulp of t, or after _MAX_STEPS accepted steps without
    reaching the next output time.
    """
    t_end = float(t_end)
    if not 0.0 < t_end < math.inf:
        raise InvalidParams(f"t_end must be finite and > 0, got {t_end!r}")
    if not _RTOL_FLOOR <= reltol < math.inf:
        raise InvalidParams(
            f"reltol must be finite and >= {_RTOL_FLOOR:.3g}, got {reltol!r}")
    t_eval = (np.linspace(0.0, t_end, 200) if t_eval is None
              else np.asarray(t_eval, dtype=float))
    if t_eval.ndim != 1 or not t_eval.size:
        raise InvalidParams("t_eval must be a non-empty sequence of times")
    # Also false for NaN.
    if not (np.all(t_eval >= 0.0) and np.all(t_eval <= t_end)):
        raise InvalidParams(f"t_eval must lie in [0, t_end = {t_end!r}]")
    if np.any(np.diff(t_eval) <= 0.0):
        raise InvalidParams("t_eval must be strictly increasing")

    p = as_potential(pot)
    r_p, r_a = turning_radii(pot, oc)
    lam = oc.lam
    lam2 = lam * lam

    def rhs(r: float, rdot: float) -> tuple[float, float, float]:
        return rdot, lam2 / r**3 - p.force_term(r), lam / (r * r)

    rlo, rhi = p.r_bounds
    vmax = math.sqrt(max(2.0 * (oc.xi - p.psi(r_a) - 0.5 * lam2 / r_a**2), 1e-12))
    states = _dop853(rhs, (r_p, 0.0, 0.0), t_end, t_eval.tolist(), reltol,
                     1e-2 * reltol * max(r_a, vmax, 1.0),
                     (rlo * (1.0 + 1e-12), rhi * (1.0 - 1e-12)))
    r, rdot, theta = np.array(states).T
    e_t = 0.5 * rdot * rdot + 0.5 * lam2 / (r * r) + _psi_array(p, r)
    drift = np.abs(e_t - oc.xi) / max(abs(oc.xi), 1.0)
    return [OdeState(t=float(t), r=float(r_k), rdot=float(v_k), theta=float(th_k),
                     energy_drift=float(d_k), lam_drift=0.0)
            for t, r_k, v_k, th_k, d_k in zip(t_eval, r, rdot, theta, drift)]


def isochrony_spread(pot: PotentialLike, xi: float,
                     lam_grid: Sequence[float]) -> float:
    """(max - min) / mean of the quadrature radial period over a Lambda grid.

    Zero (to quadrature noise) exactly when the potential is isochrone;
    order-of-percent values flag generic potentials such as Plummer.
    Over fewer than two Lambda values it would be 0 whatever the potential.
    """
    if len(lam_grid) < 2:
        raise InvalidParams("lam_grid needs at least two Lambda values")
    periods = [quad_radial_period(pot, OrbitConstants(xi, lam)).value
               for lam in lam_grid]
    mean = sum(periods) / len(periods)
    return (max(periods) - min(periods)) / mean
