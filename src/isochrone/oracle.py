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
on one node set sums all three (Trefethen & Weideman 2014), to one
relative tolerance, 1e-11.  An orbit is one value, :class:`Orbit`, made by
:func:`solve_orbit`: it holds the turning points and its three integrals,
summed when it is solved, each a QuadratureResult or the error that
refuses it, raised when it is read.  :func:`solve_orbits` makes many orbits
of one potential at once, the batch that ``solve_orbit`` is one of: they
share one psi call on the turning-point scan, and one per group of
midpoint-rule levels over the nodes of every orbit not yet settled, each
orbit with the bits it has alone.
Only the one-orbit wrappers (``turning_radii``, the three ``quad_*`` and
``integrate_orbit``) keep an orbit between calls: the last one asked for,
or the error that refuses it.

Every numerical derivative, here and in the Birkhoff checks, is a call of
the one difference routine, :func:`difference`, with a rule from its table:
Y' to Y'''' of a generic potential, psi' where ``dpsi`` is omitted (the
central rule), the epicyclic curvature as the slope of the force balance,
and the Lambda- and J-slopes of the frequencies in the frequency wedges.
The Lambda-slopes of the Birkhoff invariants are exact and take none.

The equations of motion are stepped by DOP853 (Hairer, Norsett & Wanner)
on Python floats: its tableau as float literals, scipy's float64 values, each
stage written out as in dop853.f, and scipy's controller and dense output.
That is ``solve_ivp``'s step sequence without the per-step array overhead,
and with sums in a fixed order, so the states have the same bits whatever
BLAS library numpy uses.

Nothing here imports scipy.  The turning points and the circular radius are
found by Brent's root finder and bounded minimiser in ``_brent``, ports of
scipy's that keep its arithmetic order, so the oracle's values keep the bits
they had under scipy.
"""

from __future__ import annotations

import copy
import functools
import math
import types
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Sequence, Union

import numpy as np

from . import _brent, potential as potmod
from .analytic import OrbitConstants, _power
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
    "Orbit",
    "plummer_potential",
    "as_potential",
    "solve_orbits",
    "solve_orbit",
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

# A part of the midpoint rule settles where two levels agree to this.
_EPSREL = 1e-11

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
    """``evaluations`` counts the nodes of the midpoint rule through the
    returned level, though psi may have been called on the rest of that
    level's group; ``error_estimate`` is its change from the level before."""

    value: float
    error_estimate: float
    evaluations: int


class OdeState(NamedTuple):
    """One integrated sample with its energy drift, relative to the initial
    energy; Lambda is an exact parameter of the reduced system."""

    t: float
    r: float
    rdot: float
    theta: float
    energy_drift: float


@dataclass(frozen=True, eq=False)
class RadialPotential:
    """A generic radial potential: psi(r), or Y(x) = x psi(sqrt(x/2)).

    ``dpsi`` may be omitted; psi' is then the central rule of :func:`difference`
    (adequate for negative controls, not for tight-tolerance work).
    ``r_bounds`` is the open interval on which psi is defined.  The
    turning-point scan and each group of quadrature levels of a batch of
    orbits, and the ODE energy drift, call ``psi`` once on a 1-D float64
    array, or point by point where it takes floats.

    Equality and hash are by identity, so any potential keys the one-orbit
    wrappers' memo whatever its ``psi``.  Only those wrappers keep an orbit,
    the last one asked for, so there ``psi`` and ``dpsi`` must be pure
    functions of r.
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

    def y_derivatives(self, x: float) -> list[float]:
        """[Y', Y'', Y''', Y''''] by 5-point central differences; OutOfDomain
        when a stencil [x - 2h, x + 2h] leaves the domain."""
        return [difference(self.y_value, x, step * max(abs(x), 1.0), rule)
                for rule, step in FIVE_POINT]

    def circular_radius(self, lam: float) -> float:
        """Circular radius: Lambda^2 / r^3 = psi'(r), i.e. x Y' - Y = Lambda^2
        at x = 2 r^2, since x Y' - Y = r^3 psi'."""
        if not 0.0 < lam < math.inf:
            raise InvalidParams(f"circular orbit requires finite Lambda > 0, got {lam!r}")
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
        # Bound as methods of the parabola, so that a call of the force from
        # the ODE's step loop runs one Python frame: a lambda costs a second
        # frame, and a partial a call through C that costs about as much.
        return RadialPotential(
            psi=types.MethodType(potmod.psi_value, obj),
            dpsi=types.MethodType(potmod.psi_derivative, obj),
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
    bal = _force_balance(p, lam)
    if not bal(lo) > 0.0 > bal(hi):
        return None
    return _brent.brentq(bal, lo, hi, xtol=1e-300, rtol=8.9e-16, maxiter=100)


@functools.lru_cache(maxsize=16)
def _scan_grid(lo: float, hi: float) -> np.ndarray:
    """np.geomspace(lo, hi, 600) by libm's pow: numpy's rounds apart on AVX512.
    Read-only, since every solve shares it and hands it to psi."""
    exponents = np.linspace(math.log10(lo), math.log10(hi), 600)[1:-1].tolist()
    grid = np.array([lo, *(10.0**y for y in exponents), hi])
    grid.flags.writeable = False
    return grid


def _solve_radii(p: RadialPotential, oc: OrbitConstants, grid: np.ndarray,
                 psi_grid: np.ndarray) -> tuple[float, float]:
    """(r_p, r_a) of one orbit, from the scan ``grid`` of ``p`` and psi on it."""
    xi, psi = oc.xi, p.psi
    lam2 = _power(oc.lam, 2, "Lambda")  # libm's pow: lam * lam may round apart

    def kin(r: float) -> float:
        return xi - 0.5 * lam2 / (r * r) - psi(r)

    def neg_kin(r: float) -> float:  # -kin(r) in one frame, for the minimiser
        return -(xi - 0.5 * lam2 / (r * r) - psi(r))

    with np.errstate(over="ignore"):  # an infinite centrifugal term: kin = -inf
        vals = xi - 0.5 * lam2 / (grid * grid) - psi_grid
    imax = int(np.argmax(vals))
    scan_nan = vals[imax] != vals[imax]  # argmax stops at the first NaN
    if scan_nan:
        if np.isnan(vals).all():
            raise OutOfDomain("psi is NaN at every point of the turning-point scan")
        imax = int(np.nanargmax(vals))
    # Python floats, not numpy scalars, for the force balance below as for
    # the minimiser: psi, psi' and the arithmetic run some 3x faster on them,
    # with the same bits.
    bl = float(grid[max(imax - 1, 0)])
    bh = float(grid[min(imax + 1, len(grid) - 1)])
    r_ref = _brent.fminbound(neg_kin, bl, bh, xatol=1e-14 * grid[imax])
    k_ref = kin(r_ref)
    scale = max(abs(xi), lam2, 1.0)
    if k_ref <= 0.0:
        # At most grazing contact: circular to round-off, or no orbit at all.
        if k_ref >= -1e-11 * scale:
            r_c = _force_balance_radius(p, oc.lam, bl, bh) or r_ref
            return (r_c, r_c)
        raise NoBoundOrbit("radial kinetic term never positive: no bound orbit")
    r_star = r_ref if k_ref > vals[imax] else float(grid[imax])

    def root(inner: float, outer: float) -> float:
        return _brent.brentq(kin, inner, outer, xtol=1e-300, rtol=8.9e-16, maxiter=300)

    # The grid points next to r_star where kin < 0 bracket the turning points;
    # the grid ends at the window's ends, so a side without one has none inside.
    neg = vals < 0.0
    below = np.flatnonzero(neg[:imax + 1] & (grid[:imax + 1] < r_star))
    above = imax + np.flatnonzero(neg[imax:] & (grid[imax:] > r_star))
    # A NaN of psi outside the orbit changes nothing; one inside it refuses.
    if scan_nan and np.isnan(vals[below[-1] if below.size else 0:
                                  above[0] if above.size else len(vals)]).any():
        raise OutOfDomain("psi is NaN at a point of the turning-point scan "
                          "inside the orbit")
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

# The levels of the midpoint rule evaluated together: one psi call and one
# pass of array operations per group, then each level summed on its own slice.
# Most orbits settle at 16-128 nodes, where a level alone is mostly call cost.
_GROUPS = ((8, 16, 32, 64), (128, 256), (512,), (1024,), (2048,), (4096,))


@functools.lru_cache(maxsize=None)
def _group_nodes(levels: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """tan(v) at the n midpoints v of [0, pi/2] of each level n in turn, by libm
    on every host, and (1 + tan(v)^2) / n beside them: one row each, read-only."""
    t = np.array([math.tan((k + 0.5) * (0.5 * math.pi / n))
                  for n in levels for k in range(n)])
    # n is a power of two, so dividing by it is exact, and K (1 + t^2) / n
    # has the bits of (K / n) (1 + t^2) for any factor K.
    scaled = (1.0 + t * t) / np.repeat(np.array(levels, dtype=float), levels)
    t, scaled = t[None], scaled[None]
    for a in (t, scaled):
        a.flags.writeable = False
    return t, scaled


class _Rule:
    """One orbit's midpoint rule, fed the sums of its levels in turn.

    With r = r_p + span sin(u)^2 and u = atan(c tan v), c = (r_p / r_a)^(1/4),
    each integrand is smooth, even and pi-periodic in v.  A part takes the
    first level of the midpoint rule in v that agrees with the one before to
    _EPSREL, unless kin <= 0 at a node first, which refuses each open part.
    The rule stays open until no part is, or it is closed from outside.
    """

    def __init__(self, oc: OrbitConstants, r_p: float, r_a: float) -> None:
        self.oc, self.r_p, self.r_a = oc, r_p, r_a
        self.span = span = r_a - r_p
        c = (r_p / r_a) ** 0.25
        # The orbit's scalars in _node_terms: xi, Lambda^2 / 2, r_p, span, c
        # and sqrt(2) pi c.
        self.consts = (oc.xi, 0.5 * (oc.lam * oc.lam), r_p, span, c,
                       _SQRT2 * math.pi * c)
        # Each part None while open, then a QuadratureResult or its refusal.
        self.out, self.prev, self.evaluations, self.open = [None] * 3, None, 0, True

    def take(self, n: int, sums: Optional[Sequence[float]]) -> None:
        """Level n's sums of T, Theta and J, or None where kin <= 0 (or NaN)
        at one of its nodes, fed while the rule is open."""
        self.evaluations += n
        if sums is None:
            reason = f"radial kinetic term <= 0 at a node of the {n}-point midpoint rule"
            self.out = [ToleranceNotMet(reason) if v is None else v for v in self.out]
            self.open = False
            return
        span, prev, out = self.span, self.prev, self.out
        values = [sums[0], self.oc.lam * sums[1], span * span / math.pi * sums[2]]
        if prev:
            for k, v in enumerate(values):
                if out[k] is None and abs(v - prev[k]) <= _EPSREL * abs(v):
                    out[k] = QuadratureResult(value=v, error_estimate=abs(v - prev[k]),
                                              evaluations=self.evaluations)
        self.prev = values
        self.open = None in out


def _node_terms(p: RadialPotential, rules: Sequence[_Rule],
                levels: tuple[int, ...]) -> tuple:
    """kin > 0 at the nodes of ``levels`` of each orbit, a row per rule, and
    the terms of the sums of T, Theta and J there, one array of them each,
    from one psi call on the raveled nodes of all of them.

    Each term is an elementwise IEEE operation, so a level's slice of a row
    has the bits of that level of that orbit computed alone.  A level
    refused, or past the one that settles, may hold kin <= 0: the sqrt and
    divisions ignore the warnings it raises.
    """
    t, scaled = _group_nodes(levels)
    xi, half_lam2, r_p, span, c, k = np.array([rule.consts for rule in rules]).T[..., None]
    ct = c * t
    ct2 = ct * ct
    cos2 = 1.0 / (1.0 + ct2)
    sin2 = ct2 * cos2
    r = r_p + span * sin2
    rr = r * r
    kin = xi - half_lam2 / rr - _psi_array(p, r.ravel()).reshape(r.shape)
    terms = np.empty((3, *r.shape))
    with np.errstate(invalid="ignore", divide="ignore"):
        root = np.sqrt(kin / ((span * sin2) * (span * cos2)))
        w = k * scaled * cos2
        np.divide(w, root, out=terms[0])
        np.divide(w, rr * root, out=terms[1])
        np.multiply(w * sin2 * cos2, root, out=terms[2])
    return kin > 0.0, terms  # kin > 0 is also false for a NaN


def _levels(p: RadialPotential, rules: Sequence[_Rule],
            levels: tuple[int, ...]) -> None:
    """Feed each rule the sums of ``levels``, from one psi call on all their
    nodes, until every rule is closed.  Each level's sums are its row slice,
    the same pairwise sum as on that level of that orbit alone."""
    positive, terms = _node_terms(p, rules, levels)
    lo = 0
    for n in levels:
        hi = lo + n
        admitted = positive[:, lo:hi].all(axis=1).tolist()
        sums = terms[:, :, lo:hi].sum(axis=2).T.tolist()
        still = False
        for rule, ok, level in zip(rules, admitted, sums):
            if rule.open:
                rule.take(n, level if ok else None)
                still = still or rule.open
        if not still:
            break
        lo = hi


def _orbit_integrals(p: RadialPotential, orbits: Sequence[tuple]) -> list[tuple]:
    """(T, Theta, J) of each orbit (oc, r_p, r_a) of ``p`` in ``orbits``, in
    order: each part a QuadratureResult or the error that refuses it.  The
    midpoint rule refuses a part with ToleranceNotMet; an error that psi or
    the near-circular limit raises for an orbit refuses all three parts.

    A span below _CIRCULAR_SPAN r_a, where kin cancels to noise, takes the
    epicyclic limit, orbit by orbit.  The rest share the midpoint rule's
    groups of levels (_GROUPS): one psi call per group on the nodes of every
    orbit still open, so a psi may be called on the nodes of up to one group
    beyond the level an orbit returns.  A group whose psi call raises is
    redone orbit by orbit, one level at a time, so that an error surfaces
    only for an orbit, and at the first level, whose nodes raise it.
    """
    rules = [_Rule(oc, r_p, r_a) for oc, r_p, r_a in orbits]
    for rule in rules:
        if rule.span <= _CIRCULAR_SPAN * rule.r_a:
            rule.open = False
            try:
                rule.out = _epicyclic(p, rule.oc, 0.5 * (rule.r_p + rule.r_a))
            except Exception as exc:  # the orbit's refusal, without the solve's frames
                rule.out = [exc.with_traceback(None)] * 3
    for group in _GROUPS:
        active = [rule for rule in rules if rule.open]
        if not active:
            break
        try:
            _levels(p, active, group)
        except Exception:  # psi raised on some orbit's nodes
            for rule in active:  # each orbit alone, level by level
                for n in group:
                    try:
                        _levels(p, [rule], (n,))
                    except Exception as exc:  # this orbit's refusal, kept as above
                        rule.out, rule.open = [exc.with_traceback(None)] * 3, False
                    if not rule.open:
                        break
    reason = f"no two levels of the midpoint rule up to {_MAX_NODES} nodes agree"
    return [tuple(ToleranceNotMet(reason) if v is None else v for v in rule.out)
            for rule in rules]


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

# DOP853's tableau (HNW II.5 and their dop853.f) as the float64 values of
# scipy's DOP853 class, whose e3 is b minus Hairer's bhh: its nonzero entries,
# row by row.  Stage 0 is the derivative at the start of a step, 12 the one at
# its end.  The nodes c go unused: the equations of motion are autonomous.
_A = {  # a_ij of stages i = 1 .. 11
    (1, 0): 0.05260015195876773,
    (2, 0): 0.0197250569845379, (2, 1): 0.0591751709536137,
    (3, 0): 0.02958758547680685, (3, 2): 0.08876275643042054,
    (4, 0): 0.2413651341592667, (4, 2): -0.8845494793282861, (4, 3): 0.924834003261792,
    (5, 0): 0.037037037037037035, (5, 3): 0.17082860872947386,
    (5, 4): 0.12546768756682242,
    (6, 0): 0.037109375, (6, 3): 0.17025221101954405, (6, 4): 0.06021653898045596,
    (6, 5): -0.017578125,
    (7, 0): 0.03709200011850479, (7, 3): 0.17038392571223998,
    (7, 4): 0.10726203044637328, (7, 5): -0.015319437748624402,
    (7, 6): 0.008273789163814023,
    (8, 0): 0.6241109587160757, (8, 3): -3.3608926294469414, (8, 4): -0.868219346841726,
    (8, 5): 27.59209969944671, (8, 6): 20.154067550477894, (8, 7): -43.48988418106996,
    (9, 0): 0.47766253643826434, (9, 3): -2.4881146199716677,
    (9, 4): -0.590290826836843, (9, 5): 21.230051448181193, (9, 6): 15.279233632882423,
    (9, 7): -33.28821096898486, (9, 8): -0.020331201708508627,
    (10, 0): -0.9371424300859873, (10, 3): 5.186372428844064,
    (10, 4): 1.0914373489967295, (10, 5): -8.149787010746927,
    (10, 6): -18.52006565999696, (10, 7): 22.739487099350505,
    (10, 8): 2.4936055526796523, (10, 9): -3.0467644718982196,
    (11, 0): 2.273310147516538, (11, 3): -10.53449546673725,
    (11, 4): -2.0008720582248625, (11, 5): -17.9589318631188,
    (11, 6): 27.94888452941996, (11, 7): -2.8589982771350235,
    (11, 8): -8.87285693353063, (11, 9): 12.360567175794303,
    (11, 10): 0.6433927460157636,
}
_A_EXTRA = {  # a_ij of the dense-output stages i = 13 .. 15
    (13, 0): 0.056167502283047954, (13, 6): 0.25350021021662483,
    (13, 7): -0.2462390374708025, (13, 8): -0.12419142326381637,
    (13, 9): 0.15329179827876568, (13, 10): 0.00820105229563469,
    (13, 11): 0.007567897660545699, (13, 12): -0.008298,
    (14, 0): 0.03183464816350214, (14, 5): 0.028300909672366776,
    (14, 6): 0.053541988307438566, (14, 7): -0.05492374857139099,
    (14, 10): -0.00010834732869724932, (14, 11): 0.0003825710908356584,
    (14, 12): -0.00034046500868740456, (14, 13): 0.1413124436746325,
    (15, 0): -0.42889630158379194, (15, 5): -4.697621415361164,
    (15, 6): 7.683421196062599, (15, 7): 4.06898981839711, (15, 8): 0.3567271874552811,
    (15, 12): -0.0013990241651590145, (15, 13): 2.9475147891527724,
    (15, 14): -9.15095847217987,
}
_B = {  # b_j
    0: 0.054293734116568765, 5: 4.450312892752409, 6: 1.8915178993145003,
    7: -5.801203960010585, 8: 0.3111643669578199, 9: -0.1521609496625161,
    10: 0.20136540080403034, 11: 0.04471061572777259,
}
_E5 = {  # e5_j
    0: 0.01312004499419488, 5: -1.2251564463762044, 6: -0.4957589496572502,
    7: 1.6643771824549864, 8: -0.35032884874997366, 9: 0.3341791187130175,
    10: 0.08192320648511571, 11: -0.022355307863886294,
}
_E3 = {  # e3_j
    0: -0.18980075407240762, 5: 4.450312892752409, 6: 1.8915178993145003,
    7: -5.801203960010585, 8: -0.4226823213237919, 9: -0.1521609496625161,
    10: 0.20136540080403034, 11: 0.02265179219836082,
}
_D = {  # d_ij, rows i = 0 .. 3
    (0, 0): -8.428938276109013, (0, 5): 0.5667149535193777, (0, 6): -3.0689499459498917,
    (0, 7): 2.38466765651207, (0, 8): 2.117034582445028, (0, 9): -0.871391583777973,
    (0, 10): 2.2404374302607883, (0, 11): 0.6315787787694688,
    (0, 12): -0.08899033645133331, (0, 13): 18.148505520854727,
    (0, 14): -9.194632392478356, (0, 15): -4.436036387594894,
    (1, 0): 10.427508642579134, (1, 5): 242.28349177525817, (1, 6): 165.20045171727028,
    (1, 7): -374.5467547226902, (1, 8): -22.113666853125306, (1, 9): 7.733432668472264,
    (1, 10): -30.674084731089398, (1, 11): -9.332130526430229,
    (1, 12): 15.697238121770845, (1, 13): -31.139403219565178,
    (1, 14): -9.35292435884448, (1, 15): 35.81684148639408,
    (2, 0): 19.985053242002433, (2, 5): -387.0373087493518, (2, 6): -189.17813819516758,
    (2, 7): 527.8081592054236, (2, 8): -11.57390253995963, (2, 9): 6.8812326946963,
    (2, 10): -1.0006050966910838, (2, 11): 0.7777137798053443,
    (2, 12): -2.778205752353508, (2, 13): -60.19669523126412,
    (2, 14): 84.32040550667716, (2, 15): 11.99229113618279,
    (3, 0): -25.69393346270375, (3, 5): -154.18974869023643, (3, 6): -231.5293791760455,
    (3, 7): 357.6391179106141, (3, 8): 93.40532418362432, (3, 9): -37.45832313645163,
    (3, 10): 104.0996495089623, (3, 11): 29.8402934266605, (3, 12): -43.53345659001114,
    (3, 13): 96.32455395918828, (3, 14): -39.17726167561544,
    (3, 15): -149.72683625798564,
}


def _rms(x: list[float]) -> float:
    """Root mean square of three floats, summed in order."""
    return math.sqrt(x[0] * x[0] + x[1] * x[1] + x[2] * x[2]) / _SQRT3


def _dop853(p: RadialPotential, lam: float, r_p: float, t_end: float,
            t_eval: list[float], rtol: float, atol: float,
            walls: tuple[float, float]) -> list[tuple[float, float, float]]:
    """The states (r, rdot, theta) at ``t_eval`` of the orbit of ``p`` with
    angular momentum ``lam``, stepped by DOP853 from (r_p, 0, 0) at t = 0.

    scipy's DOP853 on Python floats: the same tableau, automatic first step
    (HNW II.4), controller, error norm and dense output, built only on the
    steps that reach an output time, as ``solve_ivp`` does.  Each stage is
    written out, as in dop853.f, on the equations of motion: its weighted sums
    run left to right over ascending stages, so the bits depend neither on the
    BLAS library nor on the Python version (3.12's ``sum`` compensates).

    Each sum starts at its first product, not at scipy's 0.0.  The two
    differ only in the sign of a zero sum, -0.0 where scipy has +0.0, and
    under + and * a zero's sign moves only the sign of a zero result.  Each
    sum is squared in the error norm, or scaled by h > 0 and added to r,
    rdot or theta, directly or through the dense output's Horner rule; and
    none of these is ever -0.0: r stays inside walls >= 0, and rdot and
    theta start at +0.0, which a sum in round-to-nearest turns into -0.0
    only if both terms are -0.0.  So every state keeps scipy's bits.

    DomainExit when a step ends outside the open interval ``walls``;
    StepSizeUnderflow when the first step estimate is 0 or a step falls
    below 10 ulp of t, or after _MAX_STEPS accepted steps without reaching
    the next output time.
    """
    force = p.dpsi if p.dpsi is not None else p.force_term
    lam2 = lam * lam
    (a1_0, a2_0, a2_1, a3_0, a3_2, a4_0, a4_2, a4_3, a5_0, a5_3, a5_4,
     a6_0, a6_3, a6_4, a6_5, a7_0, a7_3, a7_4, a7_5, a7_6,
     a8_0, a8_3, a8_4, a8_5, a8_6, a8_7, a9_0, a9_3, a9_4, a9_5, a9_6, a9_7, a9_8,
     a10_0, a10_3, a10_4, a10_5, a10_6, a10_7, a10_8, a10_9,
     a11_0, a11_3, a11_4, a11_5, a11_6, a11_7, a11_8, a11_9, a11_10) = _A.values()
    (a13_0, a13_6, a13_7, a13_8, a13_9, a13_10, a13_11, a13_12,
     a14_0, a14_5, a14_6, a14_7, a14_10, a14_11, a14_12, a14_13,
     a15_0, a15_5, a15_6, a15_7, a15_8, a15_12, a15_13, a15_14) = _A_EXTRA.values()
    b0, b5, b6, b7, b8, b9, b10, b11 = _B.values()
    e5_0, e5_5, e5_6, e5_7, e5_8, e5_9, e5_10, e5_11 = _E5.values()
    e3_0, e3_5, e3_6, e3_7, e3_8, e3_9, e3_10, e3_11 = _E3.values()
    (d0_0, d0_5, d0_6, d0_7, d0_8, d0_9, d0_10, d0_11, d0_12, d0_13, d0_14, d0_15,
     d1_0, d1_5, d1_6, d1_7, d1_8, d1_9, d1_10, d1_11, d1_12, d1_13, d1_14, d1_15,
     d2_0, d2_5, d2_6, d2_7, d2_8, d2_9, d2_10, d2_11, d2_12, d2_13, d2_14, d2_15,
     d3_0, d3_5, d3_6, d3_7, d3_8, d3_9, d3_10, d3_11, d3_12, d3_13, d3_14,
     d3_15) = _D.values()

    def poly(h: float, y: float, y_new: float, k0: float, k5: float, k6: float,
             k7: float, k8: float, k9: float, k10: float, k11: float, k12: float,
             k13: float, k14: float, k15: float) -> tuple:
        """The coefficients of one component's dense output, a polynomial in
        x and 1 - x by turns: Horner's rule on h D K, highest row first, then
        2 dy - h (f + f_old), h f_old - dy and dy."""
        dy = y_new - y
        return (h * (d3_0 * k0 + d3_5 * k5 + d3_6 * k6 + d3_7 * k7 + d3_8 * k8
                     + d3_9 * k9 + d3_10 * k10 + d3_11 * k11 + d3_12 * k12
                     + d3_13 * k13 + d3_14 * k14 + d3_15 * k15),
                h * (d2_0 * k0 + d2_5 * k5 + d2_6 * k6 + d2_7 * k7 + d2_8 * k8
                     + d2_9 * k9 + d2_10 * k10 + d2_11 * k11 + d2_12 * k12
                     + d2_13 * k13 + d2_14 * k14 + d2_15 * k15),
                h * (d1_0 * k0 + d1_5 * k5 + d1_6 * k6 + d1_7 * k7 + d1_8 * k8
                     + d1_9 * k9 + d1_10 * k10 + d1_11 * k11 + d1_12 * k12
                     + d1_13 * k13 + d1_14 * k14 + d1_15 * k15),
                h * (d0_0 * k0 + d0_5 * k5 + d0_6 * k6 + d0_7 * k7 + d0_8 * k8
                     + d0_9 * k9 + d0_10 * k10 + d0_11 * k11 + d0_12 * k12
                     + d0_13 * k13 + d0_14 * k14 + d0_15 * k15),
                2.0 * dy - h * (k12 + k0), h * k0 - dy, dy)

    # Stage s at radius r<s> has the derivatives kr<s> = rdot, kv<s> = rdot'
    # and kt<s> = theta'.
    t, r, v, th = 0.0, r_p, 0.0, 0.0
    kr0, kv0, kt0 = v, lam2 / r**3 - force(r), lam / (r * r)

    y0 = (r, v, th)
    f0 = (kr0, kv0, kt0)
    sc = [atol + abs(y) * rtol for y in y0]
    d0 = _rms([y / s for y, s in zip(y0, sc)])
    d1 = _rms([f / s for f, s in zip(f0, sc)])
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, t_end)
    if h0 == 0.0:
        raise StepSizeUnderflow("ODE integration failed: the first step estimate is 0")
    r1, kr1 = r + h0 * kr0, v + h0 * kv0
    f1 = (kr1, lam2 / r1**3 - force(r1), lam / (r1 * r1))
    d2 = _rms([(a - b) / s for a, b, s in zip(f1, f0, sc)]) / h0
    h1 = (max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15
          else (0.01 / max(d1, d2)) ** (1.0 / 8.0))
    h_abs = min(100.0 * h0, h1, t_end)

    # The step controller calls no builtin: a comparison stands for each
    # min, max and abs, and returns what the builtin returns, on a tie or a
    # NaN too: the first operand of min (max) unless the second is smaller
    # (larger), and |y| as y or 0.0 - y (+0.0 at y = -0.0).  |y| of the
    # accepted state is kept for the next step's error scale.
    n_eval = len(t_eval)
    wall_lo, wall_hi = walls
    ar, av, at = r if r > 0.0 else 0.0 - r, 0.0, 0.0  # |r|, |v|, |theta|
    out: list[tuple[float, float, float]] = []
    done = steps = 0
    while done < n_eval:
        min_step = 10.0 * math.ulp(t)
        if min_step > h_abs:
            h_abs = min_step
        rejected = False
        while True:
            if h_abs < min_step:
                raise StepSizeUnderflow(
                    f"ODE integration failed: step {h_abs:g} below 10 ulp of "
                    f"t = {t:.10g}")
            t_new = t + h_abs
            if t_end < t_new:
                t_new = t_end
            h = t_new - t  # > 0: every t_eval lies in [0, t_end]
            # Theta feeds no stage, and the weights of stages 1 .. 4 are zero:
            # their theta derivatives go unused.
            r1 = r + a1_0 * kr0 * h
            kr1 = v + a1_0 * kv0 * h
            kv1 = lam2 / r1**3 - force(r1)
            r2 = r + (a2_0 * kr0 + a2_1 * kr1) * h
            kr2 = v + (a2_0 * kv0 + a2_1 * kv1) * h
            kv2 = lam2 / r2**3 - force(r2)
            r3 = r + (a3_0 * kr0 + a3_2 * kr2) * h
            kr3 = v + (a3_0 * kv0 + a3_2 * kv2) * h
            kv3 = lam2 / r3**3 - force(r3)
            r4 = r + (a4_0 * kr0 + a4_2 * kr2 + a4_3 * kr3) * h
            kr4 = v + (a4_0 * kv0 + a4_2 * kv2 + a4_3 * kv3) * h
            kv4 = lam2 / r4**3 - force(r4)
            r5 = r + (a5_0 * kr0 + a5_3 * kr3 + a5_4 * kr4) * h
            kr5 = v + (a5_0 * kv0 + a5_3 * kv3 + a5_4 * kv4) * h
            kv5 = lam2 / r5**3 - force(r5)
            kt5 = lam / (r5 * r5)
            r6 = r + (a6_0 * kr0 + a6_3 * kr3 + a6_4 * kr4 + a6_5 * kr5) * h
            kr6 = v + (a6_0 * kv0 + a6_3 * kv3 + a6_4 * kv4 + a6_5 * kv5) * h
            kv6 = lam2 / r6**3 - force(r6)
            kt6 = lam / (r6 * r6)
            r7 = r + (a7_0 * kr0 + a7_3 * kr3 + a7_4 * kr4 + a7_5 * kr5
                      + a7_6 * kr6) * h
            kr7 = v + (a7_0 * kv0 + a7_3 * kv3 + a7_4 * kv4 + a7_5 * kv5
                       + a7_6 * kv6) * h
            kv7 = lam2 / r7**3 - force(r7)
            kt7 = lam / (r7 * r7)
            r8 = r + (a8_0 * kr0 + a8_3 * kr3 + a8_4 * kr4 + a8_5 * kr5
                      + a8_6 * kr6 + a8_7 * kr7) * h
            kr8 = v + (a8_0 * kv0 + a8_3 * kv3 + a8_4 * kv4 + a8_5 * kv5
                       + a8_6 * kv6 + a8_7 * kv7) * h
            kv8 = lam2 / r8**3 - force(r8)
            kt8 = lam / (r8 * r8)
            r9 = r + (a9_0 * kr0 + a9_3 * kr3 + a9_4 * kr4 + a9_5 * kr5
                      + a9_6 * kr6 + a9_7 * kr7 + a9_8 * kr8) * h
            kr9 = v + (a9_0 * kv0 + a9_3 * kv3 + a9_4 * kv4 + a9_5 * kv5
                       + a9_6 * kv6 + a9_7 * kv7 + a9_8 * kv8) * h
            kv9 = lam2 / r9**3 - force(r9)
            kt9 = lam / (r9 * r9)
            r10 = r + (a10_0 * kr0 + a10_3 * kr3 + a10_4 * kr4 + a10_5 * kr5
                       + a10_6 * kr6 + a10_7 * kr7 + a10_8 * kr8 + a10_9 * kr9) * h
            kr10 = v + (a10_0 * kv0 + a10_3 * kv3 + a10_4 * kv4 + a10_5 * kv5
                        + a10_6 * kv6 + a10_7 * kv7 + a10_8 * kv8 + a10_9 * kv9) * h
            kv10 = lam2 / r10**3 - force(r10)
            kt10 = lam / (r10 * r10)
            r11 = r + (a11_0 * kr0 + a11_3 * kr3 + a11_4 * kr4 + a11_5 * kr5
                       + a11_6 * kr6 + a11_7 * kr7 + a11_8 * kr8 + a11_9 * kr9
                       + a11_10 * kr10) * h
            kr11 = v + (a11_0 * kv0 + a11_3 * kv3 + a11_4 * kv4 + a11_5 * kv5
                        + a11_6 * kv6 + a11_7 * kv7 + a11_8 * kv8 + a11_9 * kv9
                        + a11_10 * kv10) * h
            kv11 = lam2 / r11**3 - force(r11)
            kt11 = lam / (r11 * r11)
            br = (b0 * kr0 + b5 * kr5 + b6 * kr6 + b7 * kr7 + b8 * kr8
                  + b9 * kr9 + b10 * kr10 + b11 * kr11)
            bv = (b0 * kv0 + b5 * kv5 + b6 * kv6 + b7 * kv7 + b8 * kv8
                  + b9 * kv9 + b10 * kv10 + b11 * kv11)
            bt = (b0 * kt0 + b5 * kt5 + b6 * kt6 + b7 * kt7 + b8 * kt8
                  + b9 * kt9 + b10 * kt10 + b11 * kt11)
            e5r = (e5_0 * kr0 + e5_5 * kr5 + e5_6 * kr6 + e5_7 * kr7
                   + e5_8 * kr8 + e5_9 * kr9 + e5_10 * kr10 + e5_11 * kr11)
            e5v = (e5_0 * kv0 + e5_5 * kv5 + e5_6 * kv6 + e5_7 * kv7
                   + e5_8 * kv8 + e5_9 * kv9 + e5_10 * kv10 + e5_11 * kv11)
            e5t = (e5_0 * kt0 + e5_5 * kt5 + e5_6 * kt6 + e5_7 * kt7
                   + e5_8 * kt8 + e5_9 * kt9 + e5_10 * kt10 + e5_11 * kt11)
            e3r = (e3_0 * kr0 + e3_5 * kr5 + e3_6 * kr6 + e3_7 * kr7
                   + e3_8 * kr8 + e3_9 * kr9 + e3_10 * kr10 + e3_11 * kr11)
            e3v = (e3_0 * kv0 + e3_5 * kv5 + e3_6 * kv6 + e3_7 * kv7
                   + e3_8 * kv8 + e3_9 * kv9 + e3_10 * kv10 + e3_11 * kv11)
            e3t = (e3_0 * kt0 + e3_5 * kt5 + e3_6 * kt6 + e3_7 * kt7
                   + e3_8 * kt8 + e3_9 * kt9 + e3_10 * kt10 + e3_11 * kt11)
            r_new, v_new, th_new = r + h * br, v + h * bv, th + h * bt
            kr12 = v_new
            kv12 = lam2 / r_new**3 - force(r_new)
            kt12 = lam / (r_new * r_new)
            anr = r_new if r_new > 0.0 else 0.0 - r_new
            anv = v_new if v_new > 0.0 else 0.0 - v_new
            ant = th_new if th_new > 0.0 else 0.0 - th_new
            sc_r = atol + (anr if anr > ar else ar) * rtol
            sc_v = atol + (anv if anv > av else av) * rtol
            sc_t = atol + (ant if ant > at else at) * rtol
            e5n = (e5r / sc_r) ** 2 + (e5v / sc_v) ** 2 + (e5t / sc_t) ** 2
            e3n = (e3r / sc_r) ** 2 + (e3v / sc_v) ** 2 + (e3t / sc_t) ** 2
            error = (h * e5n / math.sqrt((e5n + 0.01 * e3n) * 3.0)
                     if e5n or e3n else 0.0)
            if error < 1.0:
                factor = (_MAX_FACTOR if error == 0.0
                          else _SAFETY * error ** _EXPONENT)
                if not factor < _MAX_FACTOR:
                    factor = _MAX_FACTOR
                if rejected and not factor < 1.0:
                    factor = 1.0
                h_abs *= factor
                break
            # Also for a NaN error: the factor is then _MIN_FACTOR.
            factor = _SAFETY * error ** _EXPONENT
            h_abs *= factor if factor > _MIN_FACTOR else _MIN_FACTOR
            rejected = True

        if not wall_lo < r_new < wall_hi:
            raise DomainExit(f"trajectory reached the domain boundary at t = {t_new:g}")
        steps += 1
        reached = done
        while reached < n_eval and t_eval[reached] <= t_new:
            reached += 1
        if reached > done:
            r13 = r + (a13_0 * kr0 + a13_6 * kr6 + a13_7 * kr7 + a13_8 * kr8
                       + a13_9 * kr9 + a13_10 * kr10 + a13_11 * kr11
                       + a13_12 * kr12) * h
            kr13 = v + (a13_0 * kv0 + a13_6 * kv6 + a13_7 * kv7 + a13_8 * kv8
                        + a13_9 * kv9 + a13_10 * kv10 + a13_11 * kv11
                        + a13_12 * kv12) * h
            kv13 = lam2 / r13**3 - force(r13)
            kt13 = lam / (r13 * r13)
            r14 = r + (a14_0 * kr0 + a14_5 * kr5 + a14_6 * kr6 + a14_7 * kr7
                       + a14_10 * kr10 + a14_11 * kr11 + a14_12 * kr12
                       + a14_13 * kr13) * h
            kr14 = v + (a14_0 * kv0 + a14_5 * kv5 + a14_6 * kv6 + a14_7 * kv7
                        + a14_10 * kv10 + a14_11 * kv11 + a14_12 * kv12
                        + a14_13 * kv13) * h
            kv14 = lam2 / r14**3 - force(r14)
            kt14 = lam / (r14 * r14)
            r15 = r + (a15_0 * kr0 + a15_5 * kr5 + a15_6 * kr6 + a15_7 * kr7
                       + a15_8 * kr8 + a15_12 * kr12 + a15_13 * kr13
                       + a15_14 * kr14) * h
            kr15 = v + (a15_0 * kv0 + a15_5 * kv5 + a15_6 * kv6 + a15_7 * kv7
                        + a15_8 * kv8 + a15_12 * kv12 + a15_13 * kv13
                        + a15_14 * kv14) * h
            kv15 = lam2 / r15**3 - force(r15)
            kt15 = lam / (r15 * r15)
            cr0, cr1, cr2, cr3, cr4, cr5, cr6 = poly(
                h, r, r_new, kr0, kr5, kr6, kr7, kr8, kr9, kr10, kr11, kr12, kr13,
                kr14, kr15)
            cv0, cv1, cv2, cv3, cv4, cv5, cv6 = poly(
                h, v, v_new, kv0, kv5, kv6, kv7, kv8, kv9, kv10, kv11, kv12, kv13,
                kv14, kv15)
            ct0, ct1, ct2, ct3, ct4, ct5, ct6 = poly(
                h, th, th_new, kt0, kt5, kt6, kt7, kt8, kt9, kt10, kt11, kt12, kt13,
                kt14, kt15)
            for te in t_eval[done:reached]:
                x = (te - t) / h
                u = 1.0 - x
                out.append((
                    r + ((((((cr0 * x + cr1) * u + cr2) * x + cr3) * u + cr4) * x
                          + cr5) * u + cr6) * x,
                    v + ((((((cv0 * x + cv1) * u + cv2) * x + cv3) * u + cv4) * x
                          + cv5) * u + cv6) * x,
                    th + ((((((ct0 * x + ct1) * u + ct2) * x + ct3) * u + ct4) * x
                           + ct5) * u + ct6) * x))
            done, steps = reached, 0
        elif steps >= _MAX_STEPS:
            raise StepSizeUnderflow(
                f"{steps} steps to t = {t_new:.10g} without reaching the "
                f"output time {t_eval[done]:.10g}")
        t, r, v, th = t_new, r_new, v_new, th_new
        ar, av, at = anr, anv, ant
        kr0, kv0, kt0 = kr12, kv12, kt12
    return out


# ---------------------------------------------------------------------------
# one orbit


@dataclass(frozen=True, eq=False)
class Orbit:
    """One orbit of a potential, from :func:`solve_orbits` or :func:`solve_orbit`.
    Its three integrals are summed on one node set when it is solved, to a
    relative tolerance of 1e-11, together with those of the other orbits
    solved in the same call.  Each is held as a QuadratureResult or the error
    that refuses it, raised when it is read: ToleranceNotMet where the
    midpoint rule refuses it, or the error psi or the near-circular limit
    raised for this orbit."""

    pot: RadialPotential
    oc: OrbitConstants
    r_p: float
    r_a: float
    # (T, Theta, J), each a QuadratureResult or the error that refuses it.
    integrals: tuple[Union[QuadratureResult, Exception], ...] = field(repr=False)

    def radial_period(self) -> QuadratureResult:
        """T = sqrt(2) * integral dr / sqrt(xi - Lambda^2/2r^2 - psi) over [r_p, r_a]."""
        return self._integral(0)

    def apsidal_angle(self) -> QuadratureResult:
        """Theta = sqrt(2) * Lambda * integral dr / (r^2 sqrt(...)) over [r_p, r_a]."""
        return self._integral(1)

    def radial_action(self) -> QuadratureResult:
        """J = (sqrt(2)/pi) * integral sqrt(xi - Lambda^2/2r^2 - psi) dr."""
        return self._integral(2)

    def _integral(self, part: int) -> QuadratureResult:
        result = self.integrals[part]
        if isinstance(result, Exception):
            # A copy: the traceback a raise adds holds the reader's frames,
            # which the kept error would keep alive until the next read.
            raise copy.copy(result)
        return result

    def integrate(self, t_end: float, reltol: float = 1e-10,
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
        relative 1e-12 of a wall of ``r_bounds``; StepSizeUnderflow when the first
        step estimate is 0 or a step falls below 10 ulp of t, or after
        _MAX_STEPS accepted steps without reaching the next output time.
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

        p, oc, r_p, r_a = self.pot, self.oc, self.r_p, self.r_a
        lam2 = oc.lam * oc.lam
        rlo, rhi = p.r_bounds
        vmax = math.sqrt(max(2.0 * (oc.xi - p.psi(r_a) - 0.5 * lam2 / r_a**2), 1e-12))
        states = _dop853(p, oc.lam, r_p, t_end, t_eval.tolist(), reltol,
                         1e-2 * reltol * max(r_a, vmax, 1.0),
                         (rlo * (1.0 + 1e-12), rhi * (1.0 - 1e-12)))
        r, rdot, theta = np.array(states).T
        e_t = 0.5 * rdot * rdot + 0.5 * lam2 / (r * r) + _psi_array(p, r)
        drift = np.abs(e_t - oc.xi) / max(abs(oc.xi), 1.0)
        return list(map(OdeState, t_eval.tolist(), r.tolist(), rdot.tolist(),
                        theta.tolist(), drift.tolist()))


def solve_orbits(pot: PotentialLike,
                 ocs: Sequence[OrbitConstants]) -> list[Union[Orbit, Exception]]:
    """The orbits of ``pot`` with constants ``ocs``, in order, each its
    periastron and apoastron radii found purely numerically: an Orbit, or
    the error that :func:`solve_orbit` raises for it.

    Scans the radial kinetic term on a log grid to seed the maximum, refines
    it by Brent's bounded minimiser, then brackets and solves the two zero
    crossings by Brent's root finder (``_brent.fminbound``, ``_brent.brentq``).
    The orbits share one psi call on the scan grid; each is refined and
    solved alone.  Their integrals are then summed together, with one psi
    call per group of levels over the nodes of every orbit still open.  A
    NaN of psi met inside the orbit, by the scan or a root finder, or at
    every scanned point is OutOfDomain; the scan's NaNs outside the orbit
    are passed over.  A crossing that does not converge is ToleranceNotMet,
    and a Lambda^2 that overflows float64 InvalidParams.
    """
    p = as_potential(pot)
    grid = _scan_grid(*_search_window(p))
    try:
        psi_grid = _psi_array(p, grid)
    except Exception as exc:  # every orbit's refusal, returned as its value
        return [exc] * len(ocs)
    solved = []  # (oc, r_p, r_a) of each orbit, or its refusal
    for oc in ocs:
        try:
            solved.append((oc, *_solve_radii(p, oc, grid, psi_grid)))
        except Exception as exc:  # the orbit's refusal, returned as its value
            solved.append(exc)
    integrals = iter(_orbit_integrals(
        p, [s for s in solved if not isinstance(s, Exception)]))
    return [s if isinstance(s, Exception) else Orbit(p, *s, next(integrals))
            for s in solved]


def solve_orbit(pot: PotentialLike, oc: OrbitConstants) -> Orbit:
    """The one orbit of :func:`solve_orbits`, or the error it is refused with.
    Each call solves afresh; the integrals and the ODE of the returned orbit
    share its turning points."""
    orbits = solve_orbits(pot, [oc])
    if isinstance(orbits[0], Orbit):
        return orbits[0]
    # Popped, so that no local of the frame its traceback holds keeps it.
    raise orbits.pop()


# The one-orbit wrappers' memo, keyed on the caller's (pot, oc): a parabola by
# value, a RadialPotential by identity.  One orbit asked for in a row is solved
# once, and so is one refused: the memo keeps the Orbit or its refusal.
@functools.lru_cache(maxsize=1)
def _last_orbit(pot: PotentialLike, oc: OrbitConstants) -> Union[Orbit, Exception]:
    orbit = solve_orbits(pot, [oc])[0]
    # A refusal is kept without the traceback that holds the solve's frames.
    return orbit.with_traceback(None) if isinstance(orbit, Exception) else orbit


def _kept_orbit(pot: PotentialLike, oc: OrbitConstants) -> Orbit:
    """The memo's orbit of (pot, oc), or a copy of its refusal raised, as
    Orbit._integral raises a refused integral: the copy takes the traceback,
    and with it the reader's frames, which the kept error would keep alive
    until the next read."""
    orbit = _last_orbit(pot, oc)
    if isinstance(orbit, Exception):
        raise copy.copy(orbit)
    return orbit


def turning_radii(pot: PotentialLike, oc: OrbitConstants) -> tuple[float, float]:
    """(r_p, r_a) of ``solve_orbit(pot, oc)``; the last orbit is kept."""
    orbit = _kept_orbit(pot, oc)
    return orbit.r_p, orbit.r_a


def quad_radial_period(pot: PotentialLike, oc: OrbitConstants) -> QuadratureResult:
    """:meth:`Orbit.radial_period` of ``solve_orbit(pot, oc)``; the last orbit is kept."""
    return _kept_orbit(pot, oc).radial_period()


def quad_apsidal_angle(pot: PotentialLike, oc: OrbitConstants) -> QuadratureResult:
    """:meth:`Orbit.apsidal_angle` of ``solve_orbit(pot, oc)``; the last orbit is kept."""
    return _kept_orbit(pot, oc).apsidal_angle()


def quad_radial_action(pot: PotentialLike, oc: OrbitConstants) -> QuadratureResult:
    """:meth:`Orbit.radial_action` of ``solve_orbit(pot, oc)``; the last orbit is kept."""
    return _kept_orbit(pot, oc).radial_action()


def integrate_orbit(pot: PotentialLike, oc: OrbitConstants, t_end: float,
                    reltol: float = 1e-10,
                    t_eval: Optional[Sequence[float]] = None) -> list[OdeState]:
    """:meth:`Orbit.integrate` of ``solve_orbit(pot, oc)``; the last orbit is kept."""
    return _kept_orbit(pot, oc).integrate(t_end, reltol, t_eval)


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
