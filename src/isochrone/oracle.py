"""Independent numerical ground truth for orbit quantities.

Nothing in this module knows the closed-form orbit solutions: the radial
period, apsidal angle and radial action are computed straight from their
defining integrals, and trajectories come from direct integration of the
equations of motion

    rdot' = Lambda^2 / r^3 - psi'(r),      theta' = Lambda / r^2.

The only information shared with the analytic side is the potential itself
(psi and its first derivative).  Works for any radial potential through
:class:`RadialPotential`, which also enables negative controls such as the
Plummer sphere.

The defining integrals have inverse-square-root singularities at the turning
points; the substitution r = r_p + (r_a - r_p) sin(u)^2 removes them, after
which the integrands are smooth and an adaptive Gauss-Kronrod rule
(scipy.integrate.quad, QUADPACK) converges rapidly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np
from scipy.integrate import quad, solve_ivp
from scipy.optimize import brentq, minimize_scalar

from . import potential as potmod
from .analytic import OrbitConstants
from .errors import (
    DomainExit,
    NoBoundOrbit,
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


@dataclass(frozen=True)
class QuadratureResult:
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


@dataclass(frozen=True)
class RadialPotential:
    """A generic radial potential handle for the oracle.

    ``dpsi`` may be omitted, in which case a central finite difference is
    used (adequate for negative controls, not for tight-tolerance work).
    ``r_bounds`` is the open interval on which psi is defined.
    """

    psi: Callable[[float], float]
    dpsi: Optional[Callable[[float], float]] = None
    r_bounds: tuple[float, float] = (0.0, math.inf)
    name: str = "generic"

    def force_term(self, r: float) -> float:
        if self.dpsi is not None:
            return self.dpsi(r)
        h = 1e-6 * max(abs(r), 1.0)
        return (self.psi(r + h) - self.psi(r - h)) / (2.0 * h)


def plummer_potential(mu: float = 1.0, b: float = 1.0) -> RadialPotential:
    """Plummer sphere psi = -mu / sqrt(r^2 + b^2); not isochrone."""
    def psi(r: float) -> float:
        return -mu / math.sqrt(r * r + b * b)

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


def _radial_kinetic(p: RadialPotential, oc: OrbitConstants) -> Callable[[float], float]:
    lam2 = oc.lam**2

    def kin(r: float) -> float:
        return oc.xi - 0.5 * lam2 / (r * r) - p.psi(r)

    return kin


def _search_window(p: RadialPotential) -> tuple[float, float]:
    rlo, rhi = p.r_bounds
    lo = max(rlo, 1e-8) * (1.0 + 1e-12) if rlo > 0.0 else 1e-8
    hi = rhi * (1.0 - 1e-12) if math.isfinite(rhi) else 1e8
    return lo, hi


def _force_balance_radius(p: RadialPotential, lam: float, lo: float,
                          hi: float) -> Optional[float]:
    """Circular radius from Lambda^2 / r^3 = psi'(r); sharp, unlike the kinetic max."""
    def bal(r: float) -> float:
        return lam**2 / r**3 - p.force_term(r)

    for _ in range(60):
        if bal(lo) > 0.0 > bal(hi):
            return float(brentq(bal, lo, hi, xtol=1e-300, rtol=8.9e-16))
        lo *= 0.9
        hi *= 1.1
        wlo, whi = _search_window(p)
        if lo < wlo or hi > whi:
            return None
    return None


def turning_radii(pot: PotentialLike, oc: OrbitConstants) -> tuple[float, float]:
    """Periastron and apoastron radii found purely numerically.

    Scans the radial kinetic term on a log grid to seed the maximum, refines
    it, then brackets and solves the two zero crossings with Brent's method.
    """
    p = as_potential(pot)
    kin = _radial_kinetic(p, oc)
    lo, hi = _search_window(p)
    grid = np.geomspace(lo, hi, 600)
    vals = np.array([kin(r) for r in grid])
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

    def bracket_root(inner: float, outer: float) -> float:
        return float(brentq(kin, inner, outer, xtol=1e-300, rtol=8.9e-16,
                            maxiter=300))

    # Inward: the centrifugal barrier guarantees kin < 0 near the centre.
    left = None
    for i in range(imax, -1, -1):
        if grid[i] < r_star and vals[i] < 0.0:
            left = grid[i]
            break
    if left is None:
        if kin(lo) < 0.0:
            left = lo
        else:
            raise NoBoundOrbit("no inner turning point above the domain floor")
    r_p = bracket_root(left, r_star)

    right = None
    for i in range(imax, len(grid)):
        if grid[i] > r_star and vals[i] < 0.0:
            right = grid[i]
            break
    if right is None:
        if kin(hi) < 0.0:
            right = hi
        else:
            raise NoBoundOrbit("no outer turning point: orbit unbound or exits domain")
    r_a = bracket_root(r_star, right)
    return (r_p, r_a)


# ---------------------------------------------------------------------------
# quadratures


def _epicyclic(p: RadialPotential, oc: OrbitConstants,
               r_c: float) -> tuple[float, float]:
    """(T, Theta) of a near-circular orbit from the effective-potential curvature."""
    lam2 = oc.lam**2
    h = 1e-5 * r_c

    def veff(r: float) -> float:
        return p.psi(r) + 0.5 * lam2 / (r * r)

    curv = (veff(r_c + h) - 2.0 * veff(r_c) + veff(r_c - h)) / (h * h)
    if curv <= 0.0:
        raise NoBoundOrbit("effective potential not convex at the circular radius")
    T = 2.0 * math.pi / math.sqrt(curv)
    return T, T * oc.lam / r_c**2


def _substituted(pot: PotentialLike, oc: OrbitConstants):
    """Common setup: turning radii plus the smooth factor h(u) of the integrand."""
    p = as_potential(pot)
    kin = _radial_kinetic(p, oc)
    r_p, r_a = turning_radii(p, oc)
    span = r_a - r_p

    def r_of(u: float) -> float:
        s = math.sin(u)
        return r_p + span * s * s

    def smooth(u: float) -> float:
        r = r_of(u)
        denom = (r - r_p) * (r_a - r)
        val = kin(r) / denom if denom > 0.0 else 0.0
        return max(val, 1e-300)

    return p, r_p, r_a, span, r_of, smooth


def _run_quad(f: Callable[[float], float], epsrel: float) -> QuadratureResult:
    # QUADPACK appends a warning message to the result when it gives up.
    val, abserr, info, *warning = quad(f, 0.0, 0.5 * math.pi, epsabs=0.0,
                                       epsrel=epsrel, limit=200, full_output=1)
    if warning:
        raise ToleranceNotMet(
            "quadrature did not converge: " + " ".join(warning[0].split()))
    result = QuadratureResult(value=float(val), error_estimate=float(abserr),
                              evaluations=int(info["neval"]))
    # A non-finite or negative estimate bounds nothing.
    bound = 100.0 * epsrel * max(abs(val), 1e-30)
    if not (math.isfinite(val) and 0.0 <= abserr <= bound):
        raise ToleranceNotMet(
            f"quadrature error estimate {abserr:g} not a bound within tolerance "
            f"for value {val:g}")
    return result


def quad_radial_period(pot: PotentialLike, oc: OrbitConstants,
                       epsrel: float = 1e-11) -> QuadratureResult:
    """T = sqrt(2) * integral dr / sqrt(xi - Lambda^2/2r^2 - psi) over [r_p, r_a]."""
    p, r_p, r_a, span, r_of, smooth = _substituted(pot, oc)
    if span <= _CIRCULAR_SPAN * r_a:
        t_val, _ = _epicyclic(p, oc, 0.5 * (r_p + r_a))
        return QuadratureResult(value=t_val, error_estimate=1e-10 * t_val,
                                evaluations=5)
    return _run_quad(lambda u: 2.0 * _SQRT2 / math.sqrt(smooth(u)), epsrel)


def quad_apsidal_angle(pot: PotentialLike, oc: OrbitConstants,
                       epsrel: float = 1e-11) -> QuadratureResult:
    """Theta = sqrt(2) * Lambda * integral dr / (r^2 sqrt(...)) over [r_p, r_a]."""
    p, r_p, r_a, span, r_of, smooth = _substituted(pot, oc)
    if span <= _CIRCULAR_SPAN * r_a:
        _, th = _epicyclic(p, oc, 0.5 * (r_p + r_a))
        return QuadratureResult(value=th, error_estimate=1e-10 * th, evaluations=5)

    def f(u: float) -> float:
        r = r_of(u)
        return 2.0 * _SQRT2 * oc.lam / (r * r * math.sqrt(smooth(u)))

    return _run_quad(f, epsrel)


def quad_radial_action(pot: PotentialLike, oc: OrbitConstants,
                       epsrel: float = 1e-11) -> QuadratureResult:
    """J = (sqrt(2)/pi) * integral sqrt(xi - Lambda^2/2r^2 - psi) dr."""
    p, r_p, r_a, span, r_of, smooth = _substituted(pot, oc)
    if span <= _CIRCULAR_SPAN * r_a:
        return QuadratureResult(value=0.0, error_estimate=1e-16, evaluations=0)

    def f(u: float) -> float:
        sc = math.sin(u) * math.cos(u)
        return (2.0 * _SQRT2 / math.pi) * span**2 * sc * sc * math.sqrt(smooth(u))

    return _run_quad(f, epsrel)


# ---------------------------------------------------------------------------
# direct integration of the equations of motion


def integrate_orbit(pot: PotentialLike, oc: OrbitConstants, t_end: float,
                    reltol: float = 1e-10,
                    t_eval: Optional[Sequence[float]] = None,
                    n_samples: int = 200) -> list[OdeState]:
    """Integrate (r, rdot, theta) from periastron with an embedded RK pair.

    Starts exactly at (r_p, 0, 0); the right-hand side is smooth at turning
    points in these variables.  Uses scipy's DOP853.  Raises DomainExit if a
    finite domain wall is reached and StepSizeUnderflow on integrator failure.
    """
    p = as_potential(pot)
    r_p, r_a = turning_radii(p, oc)
    lam = oc.lam
    lam2 = lam * lam

    def rhs(t: float, y: np.ndarray) -> list[float]:
        r = y[0]
        return [y[1], lam2 / r**3 - p.force_term(r), lam / (r * r)]

    events = []
    rlo, rhi = p.r_bounds
    if math.isfinite(rhi):
        def hit_outer(t: float, y: np.ndarray, wall=rhi) -> float:
            return wall * (1.0 - 1e-12) - y[0]
        hit_outer.terminal = True  # type: ignore[attr-defined]
        events.append(hit_outer)
    if rlo > 0.0:
        def hit_inner(t: float, y: np.ndarray, wall=rlo) -> float:
            return y[0] - wall * (1.0 + 1e-12)
        hit_inner.terminal = True  # type: ignore[attr-defined]
        events.append(hit_inner)

    if t_eval is None:
        t_eval = np.linspace(0.0, t_end, n_samples)
    vmax = math.sqrt(max(2.0 * (oc.xi - p.psi(r_a) - 0.5 * lam2 / r_a**2), 1e-12))
    scale = max(r_a, vmax, 1.0)
    sol = solve_ivp(rhs, (0.0, t_end), [r_p, 0.0, 0.0], method="DOP853",
                    rtol=reltol, atol=1e-2 * reltol * scale,
                    t_eval=np.asarray(t_eval, dtype=float),
                    events=events or None, max_step=np.inf)
    if sol.status == 1:
        raise DomainExit("trajectory reached the domain boundary")
    if not sol.success:
        raise StepSizeUnderflow(f"ODE integration failed: {sol.message}")

    e0 = oc.xi
    out = []
    for t, r, rdot, theta in zip(sol.t, sol.y[0], sol.y[1], sol.y[2]):
        e_t = 0.5 * rdot * rdot + 0.5 * lam2 / (r * r) + p.psi(r)
        drift = abs(e_t - e0) / max(abs(e0), 1.0)
        out.append(OdeState(t=float(t), r=float(r), rdot=float(rdot),
                            theta=float(theta), energy_drift=float(drift),
                            lam_drift=0.0))
    return out


def isochrony_spread(pot: PotentialLike, xi: float,
                     lam_grid: Sequence[float],
                     epsrel: float = 1e-11) -> float:
    """(max - min) / mean of the quadrature radial period over a Lambda grid.

    Zero (to quadrature noise) exactly when the potential is isochrone;
    order-of-percent values flag generic potentials such as Plummer.
    """
    if len(lam_grid) == 0:
        raise ValueError("lam_grid must be non-empty")
    periods = [quad_radial_period(pot, OrbitConstants(xi, lam), epsrel).value
               for lam in lam_grid]
    mean = sum(periods) / len(periods)
    return (max(periods) - min(periods)) / mean
