"""Birkhoff invariants of near-circular motion and the theorems they encode.

Around every circular orbit the Hamiltonian reduces to the normal form
N(rho) = l + b rho + (1/2) B rho^2, whose coefficients are coordinate
independent.  Two independent routes compute them:

* ``invariants_from_potential`` - from derivatives of Y at the circular
  abscissa x_c, valid for any radial potential:
      l = Y'(x_c),  b = sqrt(8 Y''),  B = 4 Y3/Y2 + x_c (3 Y2 Y4 - 5 Y3^2)/(3 Y2^2)
  with closed-form derivatives for a parabola; finite-difference derivatives of
  Y(x) = x psi(sqrt(x/2)) for the generic type ``oracle.RadialPotential``.
* ``invariants_from_period`` - from the closed-form radial period of an
  isochrone parabola: l = xi_c, b = 2 pi / T(xi_c), B = -4 pi^2 T'(xi_c) / T^3.

Equality of the two routes is the engine behind the fundamental theorem of
isochrony (the universal parabola ODE 3 Y'' Y'''' = 5 Y'''^2), the Bertrand
theorem (d l/d Lambda = Q b with constant Q only for the inverse-distance and
harmonic potentials), the generalized third law T = pi / sqrt(2 Y''(x_c)),
and the SL(2,Z)-invariant frequency scalars of the action-angle frequency map.
The Lambda-slopes of l and b those theorems need are exact: along the
circular family x Y' - Y = Lambda^2, dx_c/dLambda = 2 Lambda / (x_c Y''),
so each Lambda solves one circular orbit and takes no difference in Lambda.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import analytic, potential as potmod
from .errors import InvalidParams, NoCircularOrbit, SingularPoint
from .oracle import CENTRAL, FORWARD, PotentialLike, difference
from .potential import ParabolaParams

__all__ = [
    "BirkhoffInvariants",
    "FrequencyInvariants",
    "TheoremCheck",
    "circular_abscissa",
    "invariants_from_potential",
    "invariants_from_period",
    "isochrone_theorem_check",
    "bertrand_check",
    "third_law",
    "frequency_invariants",
]


@dataclass(frozen=True)
class BirkhoffInvariants:
    """Normal-form coefficients (l, b, B) at fixed Lambda."""

    l: float
    b_inv: float
    B_inv: float


@dataclass(frozen=True)
class FrequencyInvariants:
    """Wedge scalars of the frequency map at one (J, Lambda) point.

    j_inv vanishes iff the potential is isochrone; t_inv and g_inv vanish
    together iff it is a Bertrand potential.
    """

    j_inv: float
    g_inv: float
    t_inv: float


@dataclass(frozen=True)
class TheoremCheck:
    """Residuals of the two isochrony identities at one Lambda."""

    lam: float
    invariant_ode_residual: float   # |B l' - b b'| relative
    potential_ode_residual: float   # |3 Y2 Y4 - 5 Y3^2| relative, at x_c


def circular_abscissa(obj: PotentialLike, lam: float) -> float:
    """Solve x Y'(x) - Y(x) = Lambda^2 for the circular abscissa x_c = 2 r_c^2."""
    if isinstance(obj, ParabolaParams):
        return analytic.circular_abscissa(obj, lam)
    r_c = obj.circular_radius(lam)
    return 2.0 * r_c * r_c


def _near_vertical_tangent(params: ParabolaParams, x_c: float) -> bool:
    """Whether Y'' and higher at x_c would keep fewer than 10 digits.

    They magnify the rounding of x_c by x_c / |x_c - x_v|, without bound at
    a finite wall (the vertical tangent x_v, b != 0); past 1e6 too few
    digits are left.
    """
    return params.b != 0.0 and abs(x_c) > 1e6 * abs(x_c - params.x_v)


def _circular_orbit(obj: PotentialLike, lam: float) -> tuple[
        BirkhoffInvariants, tuple[float, float], list[float]]:
    """The FromPotential invariants at Lambda, their Lambda-slopes (l', b')
    and [Y', .., Y4] at x_c.

    Along the circular family x Y' - Y = Lambda^2, dx_c/dLambda
    = 2 Lambda / (x_c Y''), so l' = 2 Lambda / x_c and
    b' = 8 Lambda Y''' / (b x_c Y''), exactly and for any potential.
    """
    x_c = circular_abscissa(obj, lam)
    if isinstance(obj, ParabolaParams):
        if _near_vertical_tangent(obj, x_c):
            raise NoCircularOrbit(f"circular orbit at Lambda = {lam:g} within "
                                  "rounding of the vertical tangent")
        ys = potmod.y_derivatives(obj, x_c, 4)
    else:
        ys = obj.y_derivatives(x_c)
    y1, y2, y3, y4 = ys
    if y2 <= 0.0:
        raise SingularPoint(f"Y''(x_c) = {y2:g} must be positive")
    b_inv = math.sqrt(8.0 * y2)
    big_b = 4.0 * y3 / y2 + x_c * (3.0 * y2 * y4 - 5.0 * y3 * y3) / (3.0 * y2 * y2)
    slopes = (2.0 * lam / x_c, 8.0 * lam * y3 / (b_inv * x_c * y2))
    if not all(map(math.isfinite, (y1, b_inv, big_b, *slopes))):
        raise InvalidParams(f"Birkhoff invariants at Lambda = {lam:g} are not finite "
                            "in float64")
    return BirkhoffInvariants(l=y1, b_inv=b_inv, B_inv=big_b), slopes, ys


def invariants_from_potential(obj: PotentialLike, lam: float) -> BirkhoffInvariants:
    """Normal-form coefficients from derivatives of Y at x_c; any potential."""
    return _circular_orbit(obj, lam)[0]


def invariants_from_period(params: ParabolaParams, lam: float) -> BirkhoffInvariants:
    """Normal-form coefficients from the closed-form period of a parabola.

    T(xi_c) is the limit value of T(xi) at the circular energy, and
    T'(xi_c) = -(3/2) b T / (a + b xi_c), zero for the harmonic class.
    """
    if not isinstance(params, ParabolaParams):
        raise InvalidParams("the FromPeriod route needs parabola parameters")
    xi_c = analytic.circular_energy(params, lam)
    T = analytic.radial_period(params, xi_c)
    t_prime = -1.5 * params.b * T / (params.a + params.b * xi_c)
    try:  # T^3 may underflow to 0 or overflow
        big_b = -4.0 * math.pi**2 * t_prime / T**3
    except (ZeroDivisionError, OverflowError):
        raise InvalidParams(f"T(xi_c)^3 is not finite in float64 at Lambda = {lam:g}") from None
    return BirkhoffInvariants(l=xi_c, b_inv=2.0 * math.pi / T, B_inv=big_b)


def _rel_residual(lhs: float, rhs: float) -> float:
    denom = max(abs(lhs), abs(rhs))
    if denom < 1e-300:
        return 0.0
    return abs(lhs - rhs) / denom


def isochrone_theorem_check(obj: PotentialLike,
                            lam_grid: Sequence[float]) -> list[TheoremCheck]:
    """Residuals of the two equivalent isochrony identities on a Lambda grid.

    (i) B dl/dLambda = b db/dLambda between the Lambda-dependent invariants,
    with the exact slopes of the circular family (see ``_circular_orbit``);
    (ii) the universal parabola ODE 3 Y2 Y4 = 5 Y3^2 at x_c(Lambda).  With
    those slopes B l' - b b' = 2 Lambda (3 Y2 Y4 - 5 Y3^2) / (3 Y2^2), which
    is the paper's equivalence of (i) and (ii): one identity, computed two
    ways from one set of Y derivatives at one circular orbit per Lambda.
    Both vanish iff Y is isochrone.
    """
    out = []
    for lam in lam_grid:
        inv, (l_prime, b_prime), (_, y2, y3, y4) = _circular_orbit(obj, lam)
        res_i = _rel_residual(inv.B_inv * l_prime, inv.b_inv * b_prime)
        res_ii = _rel_residual(3.0 * y2 * y4, 5.0 * y3 * y3)
        out.append(TheoremCheck(lam=lam, invariant_ode_residual=res_i,
                                potential_ode_residual=res_ii))
    return out


def bertrand_check(obj: PotentialLike,
                   lam_grid: Sequence[float]) -> tuple[float, float]:
    """Fit dl/dLambda = Q b over the grid; return (Q_fit, max relative deviation).

    The slope dl/dLambda = 2 Lambda / x_c is exact (see ``_circular_orbit``),
    so each Lambda solves one circular orbit.  A constant Q (tiny residual)
    holds exactly for Bertrand potentials: Q = 1 for the inverse-distance
    class and Q = 1/2 for the harmonic class.  Non-Bertrand isochrones such
    as the Henon family show Q drifting with Lambda and a residual orders of
    magnitude above the fit noise.  One Lambda would fit any Q exactly, so
    the grid needs two or more.
    """
    if len(lam_grid) < 2:
        raise InvalidParams("lam_grid needs at least two Lambda values")
    lps, bs = [], []
    for lam in lam_grid:
        inv, (l_prime, _), _ = _circular_orbit(obj, lam)
        lps.append(l_prime)
        bs.append(inv.b_inv)
    q_fit = sum(lp * b for lp, b in zip(lps, bs)) / sum(b * b for b in bs)
    if abs(q_fit) < 1e-300:
        raise InvalidParams("degenerate Bertrand fit: Q = 0")
    residual = max(abs(lp / b - q_fit) for lp, b in zip(lps, bs)) / abs(q_fit)
    return (q_fit, residual)


def third_law(params: ParabolaParams, xi: float) -> float:
    """Radial period from the circular orbit of equal energy.

    Y'(x_c) = xi has the closed-form root s = sqrt(b delta (x_c - x_v))
    = -delta / (2 (a + b xi)), positive exactly when a + b xi < 0; then
    T = pi / sqrt(2 Y''(x_c)) is evaluated from the potential's derivatives
    and agrees with the direct closed form (Y'' is constant for the harmonic
    class, where every xi above Y'(0) has a circular orbit).  Raises
    NoCircularOrbit when x_c falls outside the domain or too close to a wall
    for Y''(x_c) to hold 10 digits, and InvalidParams unless xi is finite.
    """
    if not math.isfinite(xi):
        raise InvalidParams(f"energy must be finite, got {xi!r}")
    if params.b == 0.0:
        y1, y2 = potmod.y_derivatives(params, 0.0, 2)
        if xi <= y1:
            raise NoCircularOrbit("energy below the harmonic potential floor")
    else:
        a, b, d, dl = params.a, params.b, params.d, params.delta
        bh = a + b * xi
        if bh >= 0.0:
            raise NoCircularOrbit(
                f"no circular orbit at energy xi = {xi:g}: a + b xi = {bh:g} >= 0")
        s = -dl / (2.0 * bh)
        x_c = ((s - 0.5 * d) * (s + 0.5 * d) + b * b * params.e) / (b * dl)
        xlo, xhi = potmod.domain(params)
        if not xlo < x_c < xhi:
            raise NoCircularOrbit(f"no circular orbit at energy xi = {xi:g}")
        if _near_vertical_tangent(params, x_c):
            raise NoCircularOrbit(f"circular orbit at xi = {xi:g} within "
                                  "rounding of the vertical tangent")
        y2 = potmod.y_derivatives(params, x_c, 2)[1]
    if y2 > 0.0:
        return math.pi / math.sqrt(2.0 * y2)
    raise InvalidParams(f"radial period at xi = {xi:g} is not finite in float64: "
                        "Y''(x_c) underflows to 0")


def frequency_invariants(params: ParabolaParams, J: float,
                         lam: float) -> FrequencyInvariants:
    """Wedge scalars of the frequency map, by finite differences in (J, Lambda).

    They judge the algebraic form of H(J, Lambda) at an orbit's actions:
    InvalidParams where :func:`analytic.frequencies` refuses the actions or
    a difference's neighbours (no orbit has them), or where a wedge is not
    finite in float64.
    """
    w = analytic.frequencies(params, J, lam)
    h_j = 1e-5 * max(1.0, abs(J))
    d_j = difference(lambda j: np.array(analytic.frequencies(params, j, lam)), J,
                     h_j, CENTRAL if J - h_j >= 0.0 else FORWARD).tolist()
    d_l = difference(lambda L: np.array(analytic.frequencies(params, J, L)), lam,
                     1e-5 * lam, CENTRAL).tolist()

    def wedge(u: Sequence[float], v: Sequence[float]) -> float:
        return u[0] * v[1] - u[1] * v[0]

    wedges = (wedge(d_j, w), wedge(w, d_l), wedge(d_j, d_l))
    if all(map(math.isfinite, wedges)):
        return FrequencyInvariants(*wedges)
    raise InvalidParams(f"frequency wedges at J = {J:g}, Lambda = {lam:g} are not "
                        "finite in float64")
