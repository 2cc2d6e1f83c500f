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
r = r_p + (r_a - r_p) sin(u)^2, removes them, and one core integrates each
quantity's smooth integrand in u by QUADPACK's adaptive Gauss-Kronrod rule.
A parabola's turning points are solved once per orbit: the three
quadratures and the ODE of the same (params, oc) share the last solve.

Every numerical derivative, here and in the Birkhoff checks, is a call of
the one difference routine, :func:`difference`, with a rule from its table:
Y' to Y'''' of a generic potential, psi' where ``dpsi`` is omitted (the
central rule), the epicyclic curvature as the slope of the force balance,
and the Lambda- and J-slopes of the invariants and the frequencies.

scipy is imported inside the four functions that call it, on the first
oracle call, not with this module: the closed-form commands (``classify``,
``elements``, ``table``, ``orbit``) never load it.  It stays a runtime
dependency: ``verify``, the oracle's functions and the Birkhoff checks of a
generic :class:`RadialPotential` load it.
"""

from __future__ import annotations

import functools
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
    """A generic radial potential: psi(r), or Y(x) = x psi(sqrt(x/2)).

    ``dpsi`` may be omitted; psi' is then the central rule of :func:`difference`
    (adequate for negative controls, not for tight-tolerance work).
    ``r_bounds`` is the open interval on which psi is defined.  The
    turning-point scan and the ODE energy drift call ``psi`` once on a
    float64 array, or point by point where ``psi`` takes floats only.
    """

    psi: Callable[[float], float]
    dpsi: Optional[Callable[[float], float]] = None
    r_bounds: tuple[float, float] = (0.0, math.inf)
    name: str = "generic"

    def force_term(self, r: float) -> float:
        if self.dpsi is not None:
            return self.dpsi(r)
        return difference(self.psi, r, 1e-6 * max(abs(r), 1.0), CENTRAL)

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


def _force_balance(p: RadialPotential, lam: float) -> Callable[[float], float]:
    """r -> Lambda^2 / r^3 - psi'(r), whose root is the circular radius."""
    def bal(r: float) -> float:
        return lam**2 / r**3 - p.force_term(r)

    return bal


def _force_balance_radius(p: RadialPotential, lam: float, lo: float,
                          hi: float) -> Optional[float]:
    """Circular radius from Lambda^2 / r^3 = psi'(r); sharp, unlike the kinetic max."""
    from scipy.optimize import brentq

    bal = _force_balance(p, lam)
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
    A parabola's last solve is kept, so the quadratures and the ODE of one
    orbit share it; a generic potential is solved on every call.
    """
    if isinstance(pot, ParabolaParams):
        return _parabola_radii(pot, oc)
    return _solve_radii(as_potential(pot), oc)


# Keyed by value on the caller's (params, oc): the three quadratures and the
# ODE of one orbit ask in a row, and successive orbits differ.  A generic
# psi may be any callable, hashable or not, so only parabolae are kept.
@functools.lru_cache(maxsize=1)
def _parabola_radii(params: ParabolaParams, oc: OrbitConstants) -> tuple[float, float]:
    return _solve_radii(as_potential(params), oc)


def _solve_radii(p: RadialPotential, oc: OrbitConstants) -> tuple[float, float]:
    from scipy.optimize import brentq, minimize_scalar

    kin = _radial_kinetic(p, oc)
    lo, hi = _search_window(p)
    grid = np.geomspace(lo, hi, 600)
    vals = oc.xi - 0.5 * oc.lam**2 / (grid * grid) - _psi_array(p, grid)
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
               r_c: float) -> tuple[QuadratureResult, QuadratureResult]:
    """(T, Theta) of a near-circular orbit from the effective-potential curvature,
    minus the slope of the force balance by the central rule."""
    curv = -difference(_force_balance(p, oc.lam), r_c, 1e-6 * r_c, CENTRAL)
    if curv <= 0.0:
        raise NoBoundOrbit("effective potential not convex at the circular radius")
    T = 2.0 * math.pi / math.sqrt(curv)
    return tuple(QuadratureResult(value=v, error_estimate=1e-10 * v, evaluations=5)
                 for v in (T, T * oc.lam / r_c**2))


def _orbit_integral(pot: PotentialLike, oc: OrbitConstants, epsrel: float,
                    weight: Callable[..., float],
                    circular: Callable[..., QuadratureResult]) -> QuadratureResult:
    """Integral over [r_p, r_a] under r = r_p + span sin(u)^2, u in [0, pi/2].

    There kin(r) = (r - r_p)(r_a - r) g(u) with g smooth, and the integrand
    is ``weight(u, r, span, sqrt(g))``.  An orbit whose span is below
    _CIRCULAR_SPAN r_a, where g cancels to noise, gets the quantity's
    near-circular limit ``circular(p, oc, r_c)`` at the mean radius instead.
    """
    from scipy.integrate import quad

    p = as_potential(pot)
    kin = _radial_kinetic(p, oc)
    r_p, r_a = turning_radii(pot, oc)
    span = r_a - r_p
    if span <= _CIRCULAR_SPAN * r_a:
        return circular(p, oc, 0.5 * (r_p + r_a))

    def f(u: float) -> float:
        s = math.sin(u)
        r = r_p + span * s * s
        denom = (r - r_p) * (r_a - r)
        g = kin(r) / denom if denom > 0.0 else 0.0
        return weight(u, r, span, math.sqrt(1e-300 if g < 1e-300 else g))

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
    return _orbit_integral(pot, oc, epsrel,
                           lambda u, r, span, root: 2.0 * _SQRT2 / root,
                           lambda p, oc, r_c: _epicyclic(p, oc, r_c)[0])


def quad_apsidal_angle(pot: PotentialLike, oc: OrbitConstants,
                       epsrel: float = 1e-11) -> QuadratureResult:
    """Theta = sqrt(2) * Lambda * integral dr / (r^2 sqrt(...)) over [r_p, r_a]."""
    return _orbit_integral(
        pot, oc, epsrel,
        lambda u, r, span, root: 2.0 * _SQRT2 * oc.lam / (r * r * root),
        lambda p, oc, r_c: _epicyclic(p, oc, r_c)[1])


def quad_radial_action(pot: PotentialLike, oc: OrbitConstants,
                       epsrel: float = 1e-11) -> QuadratureResult:
    """J = (sqrt(2)/pi) * integral sqrt(xi - Lambda^2/2r^2 - psi) dr."""
    def weight(u: float, r: float, span: float, root: float) -> float:
        sc = math.sin(u) * math.cos(u)
        return (2.0 * _SQRT2 / math.pi) * span**2 * sc * sc * root

    return _orbit_integral(
        pot, oc, epsrel, weight,
        lambda *_: QuadratureResult(value=0.0, error_estimate=1e-16, evaluations=0))


# ---------------------------------------------------------------------------
# direct integration of the equations of motion


# Accepted steps allowed between two output times, after the per-call step
# limit of LSODA's mxstep (Hindmarsh, ODEPACK 1983).  A completing one-period
# call of the benchmark's edge-judge takes at most 363; the crawls it refuses,
# apoastra some 1e-10 inside the bounded family's wall, took 7.5k-9.3k.
_MAX_STEPS = 2000

# DOP853 silently raises a smaller rtol to 100 eps.
_RTOL_FLOOR = 100.0 * np.finfo(float).eps


def integrate_orbit(pot: PotentialLike, oc: OrbitConstants, t_end: float,
                    reltol: float = 1e-10,
                    t_eval: Optional[Sequence[float]] = None) -> list[OdeState]:
    """Integrate (r, rdot, theta) from periastron with an embedded RK pair.

    Starts exactly at (r_p, 0, 0); the right-hand side is smooth at turning
    points in these variables.  Steps scipy's DOP853 from t = 0 (automatic
    first step, rtol ``reltol``, no step ceiling) and reads each output time
    of ``t_eval``, or else of 200 evenly spaced times in [0, t_end], from the
    dense output of the step that reaches it, as ``solve_ivp`` does: the
    same states to the bit.  It stops at the last output time.

    Raises InvalidParams unless t_end is finite and > 0, reltol is finite and
    at least 100 eps (DOP853's floor), and t_eval is non-empty, strictly
    increasing and inside [0, t_end]; DomainExit when a step ends within a
    relative 1e-12 of a wall of ``r_bounds``; StepSizeUnderflow when DOP853
    fails, or after _MAX_STEPS accepted steps without reaching the next
    output time.
    """
    from scipy.integrate import DOP853

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

    def rhs(t: float, y: np.ndarray) -> list[float]:
        r = float(y[0])  # a float: numpy scalar arithmetic is slower, same bits
        return [y[1], lam2 / r**3 - p.force_term(r), lam / (r * r)]

    rlo, rhi = p.r_bounds
    wall_lo, wall_hi = rlo * (1.0 + 1e-12), rhi * (1.0 - 1e-12)
    vmax = math.sqrt(max(2.0 * (oc.xi - p.psi(r_a) - 0.5 * lam2 / r_a**2), 1e-12))
    scale = max(r_a, vmax, 1.0)
    solver = DOP853(rhs, 0.0, [r_p, 0.0, 0.0], t_end, rtol=reltol,
                    atol=1e-2 * reltol * scale, max_step=np.inf)
    ys = []
    done = steps = 0
    while done < t_eval.size:
        message = solver.step()
        if solver.status == "failed":
            raise StepSizeUnderflow(f"ODE integration failed: {message}")
        if not wall_lo < solver.y[0] < wall_hi:
            raise DomainExit(
                f"trajectory reached the domain boundary at t = {solver.t:g}")
        steps += 1
        reached = int(np.searchsorted(t_eval, solver.t, side="right"))
        if reached > done:
            ys.append(solver.dense_output()(t_eval[done:reached]))
            done, steps = reached, 0
        elif steps >= _MAX_STEPS:
            raise StepSizeUnderflow(
                f"{steps} steps to t = {solver.t:.10g} without reaching the "
                f"output time {t_eval[done]:.10g}")

    r, rdot, theta = np.hstack(ys)
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
