"""Birkhoff invariants of near-circular motion and the theorems they encode.

Around every circular orbit the Hamiltonian reduces to the normal form
N(rho) = l + b rho + (1/2) B rho^2, whose coefficients are coordinate
independent.  Two independent routes compute them:

* ``FromPotential`` - from derivatives of Y at the circular abscissa x_c,
  valid for any radial potential:
      l = Y'(x_c),  b = sqrt(8 Y''),  B = 4 Y3/Y2 + x_c (3 Y2 Y4 - 5 Y3^2)/(3 Y2^2)
  with closed-form derivatives for a parabola, and finite differences of
  Y(x) = x psi(sqrt(x/2)) for the generic type ``oracle.RadialPotential``.
* ``FromPeriod`` - from the closed-form radial period of an isochrone
  parabola: l = xi_c, b = 2 pi / T(xi_c), B = -4 pi^2 T'(xi_c) / T^3.

Equality of the two routes is the engine behind the fundamental theorem of
isochrony (the universal parabola ODE 3 Y'' Y'''' = 5 Y'''^2), the Bertrand
theorem (d l/d Lambda = Q b with constant Q only for the inverse-distance and
harmonic potentials), the generalized third law T = pi / sqrt(2 Y''(x_c)),
and the SL(2,Z)-invariant frequency scalars of the action-angle frequency map.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Sequence

from . import analytic, potential as potmod
from .errors import InvalidParams, NoCircularOrbit, SingularPoint
from .oracle import PotentialLike
from .potential import ParabolaParams

__all__ = [
    "Route",
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


class Route(enum.Enum):
    FROM_POTENTIAL = "FromPotential"
    FROM_PERIOD = "FromPeriod"


@dataclass(frozen=True)
class BirkhoffInvariants:
    """Normal-form coefficients (l, b, B) at fixed Lambda, tagged by route."""

    l: float
    b_inv: float
    B_inv: float
    route: Route


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
    passed: bool


def _derivs_at(obj: PotentialLike, x: float, order: int = 4) -> list[float]:
    if isinstance(obj, ParabolaParams):
        return potmod.y_derivatives(obj, x, order)
    return obj.y_derivatives(x, order)


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


def invariants_from_potential(obj: PotentialLike, lam: float) -> BirkhoffInvariants:
    """Normal-form coefficients from derivatives of Y at x_c; any potential."""
    x_c = circular_abscissa(obj, lam)
    if isinstance(obj, ParabolaParams) and _near_vertical_tangent(obj, x_c):
        raise NoCircularOrbit(f"circular orbit at Lambda = {lam:g} within "
                              "rounding of the vertical tangent")
    y1, y2, y3, y4 = _derivs_at(obj, x_c, 4)
    if y2 <= 0.0:
        raise SingularPoint(f"Y''(x_c) = {y2:g} must be positive")
    big_b = 4.0 * y3 / y2 + x_c * (3.0 * y2 * y4 - 5.0 * y3 * y3) / (3.0 * y2 * y2)
    return BirkhoffInvariants(l=y1, b_inv=math.sqrt(8.0 * y2), B_inv=big_b,
                              route=Route.FROM_POTENTIAL)


def invariants_from_period(params: ParabolaParams, lam: float) -> BirkhoffInvariants:
    """Normal-form coefficients from the closed-form period of a parabola.

    T(xi_c) is the limit value of T(xi) at the circular energy, and
    T'(xi_c) = -(3/2) b T / (a + b xi_c) for b != 0 (zero for harmonic).
    """
    if not isinstance(params, ParabolaParams):
        raise InvalidParams("the FromPeriod route needs parabola parameters")
    xi_c = analytic.circular_energy(params, lam)
    T = analytic.radial_period(params, xi_c)
    if params.b == 0.0:
        t_prime = 0.0
    else:
        t_prime = -1.5 * params.b * T / (params.a + params.b * xi_c)
    return BirkhoffInvariants(
        l=xi_c,
        b_inv=2.0 * math.pi / T,
        B_inv=-4.0 * math.pi**2 * t_prime / T**3,
        route=Route.FROM_PERIOD,
    )


def _lam_derivative(fun: Callable[[float], float], lam: float) -> float:
    h = 1e-4 * lam
    return (fun(lam + h) - fun(lam - h)) / (2.0 * h)


def _rel_residual(lhs: float, rhs: float) -> float:
    denom = max(abs(lhs), abs(rhs))
    if denom < 1e-300:
        return 0.0
    return abs(lhs - rhs) / denom


def isochrone_theorem_check(obj: PotentialLike, lam_grid: Sequence[float],
                            tol: float = 1e-6) -> list[TheoremCheck]:
    """Residuals of the two equivalent isochrony identities on a Lambda grid.

    (i) B dl/dLambda = b db/dLambda between the Lambda-dependent invariants,
    with central differences of step 1e-4 Lambda; (ii) the universal parabola
    ODE 3 Y2 Y4 = 5 Y3^2 at x_c(Lambda).  Both vanish iff Y is isochrone.
    """
    out = []
    for lam in lam_grid:
        inv = invariants_from_potential(obj, lam)
        l_prime = _lam_derivative(
            lambda L: invariants_from_potential(obj, L).l, lam)
        b_prime = _lam_derivative(
            lambda L: invariants_from_potential(obj, L).b_inv, lam)
        res_i = _rel_residual(inv.B_inv * l_prime, inv.b_inv * b_prime)
        x_c = circular_abscissa(obj, lam)
        _, y2, y3, y4 = _derivs_at(obj, x_c, 4)
        res_ii = _rel_residual(3.0 * y2 * y4, 5.0 * y3 * y3)
        out.append(TheoremCheck(lam=lam, invariant_ode_residual=res_i,
                                potential_ode_residual=res_ii,
                                passed=(res_i <= tol and res_ii <= tol)))
    return out


def bertrand_check(obj: PotentialLike,
                   lam_grid: Sequence[float]) -> tuple[float, float]:
    """Fit dl/dLambda = Q b over the grid; return (Q_fit, max relative deviation).

    A constant Q (tiny residual) holds exactly for Bertrand potentials:
    Q = 1 for the inverse-distance class and Q = 1/2 for the harmonic class.
    Non-Bertrand isochrones such as the Henon family show Q drifting with
    Lambda and a residual orders of magnitude above the fit noise.  One
    Lambda would fit any Q exactly, so the grid needs two or more.
    """
    if len(lam_grid) < 2:
        raise InvalidParams("lam_grid needs at least two Lambda values")
    lps, bs = [], []
    for lam in lam_grid:
        lps.append(_lam_derivative(
            lambda L: invariants_from_potential(obj, L).l, lam))
        bs.append(invariants_from_potential(obj, lam).b_inv)
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
    and agrees with the direct closed form.  Raises NoCircularOrbit when x_c
    falls outside the domain or too close to a wall for Y''(x_c) to hold
    10 digits.
    """
    if params.b == 0.0:
        a2c, a1c, _ = analytic._harmonic_coeffs(params)
        if xi <= a1c:
            raise NoCircularOrbit("energy below the harmonic potential floor")
        return math.pi / math.sqrt(4.0 * a2c)
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
        raise NoCircularOrbit(
            f"circular orbit at xi = {xi:g} within rounding of the vertical tangent")
    y2 = potmod.y_derivatives(params, x_c, 2)[1]
    return math.pi / math.sqrt(2.0 * y2)


def frequency_invariants(params: ParabolaParams, J: float,
                         lam: float) -> FrequencyInvariants:
    """Wedge scalars of the frequency map, by central differences in (J, Lambda)."""
    h_j = 1e-5 * max(1.0, abs(J))
    h_l = 1e-5 * lam

    def omega(j: float, L: float) -> tuple[float, float]:
        return analytic.frequencies(params, j, L)

    if J - h_j >= 0.0:
        wj_lo, wj_hi = omega(J - h_j, lam), omega(J + h_j, lam)
        d_j = ((wj_hi[0] - wj_lo[0]) / (2 * h_j), (wj_hi[1] - wj_lo[1]) / (2 * h_j))
    else:
        w0, w1, w2 = omega(J, lam), omega(J + h_j, lam), omega(J + 2 * h_j, lam)
        d_j = ((-3 * w0[0] + 4 * w1[0] - w2[0]) / (2 * h_j),
               (-3 * w0[1] + 4 * w1[1] - w2[1]) / (2 * h_j))
    wl_lo, wl_hi = omega(J, lam - h_l), omega(J, lam + h_l)
    d_l = ((wl_hi[0] - wl_lo[0]) / (2 * h_l), (wl_hi[1] - wl_lo[1]) / (2 * h_l))
    w = omega(J, lam)

    def wedge(u: tuple[float, float], v: tuple[float, float]) -> float:
        return u[0] * v[1] - u[1] * v[0]

    return FrequencyInvariants(j_inv=wedge(d_j, w), g_inv=wedge(w, d_l),
                               t_inv=wedge(d_j, d_l))
