"""Closed-form orbit theory for isochrone potentials.

Everything a bound orbit does in an isochrone potential is expressible in
elementary functions of the particle constants (xi, Lambda) and the Latin
parabola coefficients: the radial period T(xi), apsidal angle Theta(Lambda),
radial action J, the Hamiltonian in action-angle form, and a parametric
solution (r(E), theta(E)) driven by a generalized Kepler equation
Omega t = E - eps sin(E).

Conventions used throughout (all validated against the ODE oracle):

* ``Omega**2 = -16 (a + b xi)**3 / delta`` so that ``Omega T = 2 pi`` exactly.
* ``alpha2`` is the *signed* squared semi-major axis, ``delta / (8 b (a+b xi)**2)``,
  carrying the sign of b; with it the radius map is universally
  ``x(E) = x_v + 2 alpha2 (1 - eps_eff cos E)**2``.
* The turning points are x(E) at E = 0 and pi.  x_a = x(pi) is taken from
  the map; x(0) cancels near escape, so x_p comes from the product of the
  roots, ``x_p x_a = S(Lambda)**2 / (a + b xi)**2`` (for the harmonic class
  ``(Lambda**2 + A0) / A2``).
* For left-opening parabolae (b < 0, the bounded family) the eccentric
  anomaly anchored at periastron obeys ``Omega t = E + eps sin(E)``; this is
  folded into a signed eccentricity ``eps_eff = sign(b) * eps`` so a single
  Kepler equation serves every class.  Public ``solve_kepler`` keeps the
  nonnegative-eccentricity contract.
* ``zeta**2 = -x_v / (2 alpha2)``; the angle formula is evaluated in real
  arithmetic where zeta is real, and in complex arithmetic (principal
  branches, real part returned) for the hollowed family, where zeta is
  imaginary and the two partial-fraction terms are complex conjugates.
* The Kepler equation is solved without iteration from ``M = 2 pi t / T``,
  exactly 2 pi k where t / T = k, so that E = 2 pi k there; at eps_eff = 0
  (circular orbits, the harmonic class) E = M.
* The Kepler inversion and the closed forms x(E), r(E), theta(E) act on
  each element of a float64 array independently: ``trajectory`` runs them
  once over all its times, and the scalar functions wrap the same code.

The harmonic class (b = 0) runs through the general closed forms of T,
Theta, Omega, the frequencies and x_c: none divides by b, and at b = 0
(delta = a d with a < 0, R = sqrt(-d), s_c = -d/2) each is the harmonic
class's elementary value.  It keeps its own formula wherever the general one
divides by b or uses alpha2 ~ 1/b: the turning points, J, H, xi_c,
``feasible_energy``, and the radius and angle maps, with E = M and
``x(E) = x_a + (x_p - x_a) cos(E/2)**2``.
"""

from __future__ import annotations

import cmath
import math
from collections import abc
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import potential as pot
from .errors import (
    InvalidParams,
    NoBoundOrbit,
    NoCircularOrbit,
    ToleranceNotMet,
    UnboundOrbit,
)
from .potential import ParabolaParams

__all__ = [
    "OrbitConstants",
    "OrbitElements",
    "TrajectorySample",
    "Trajectory",
    "turning_points",
    "radial_period",
    "apsidal_angle",
    "radial_action",
    "hamiltonian",
    "frequencies",
    "orbit_elements",
    "solve_kepler",
    "radius_of_E",
    "angle_of_E",
    "angle_of_E_with_residual",
    "trajectory",
    "circular_abscissa",
    "circular_energy",
    "feasible_energy",
]

TWO_PI = 2.0 * math.pi

# Eccentricities at or below this are treated as exactly circular; the angle
# formula is 0/0-free but ill-conditioned there.
CIRCULAR_ECC = 1e-12

# An anomaly is reduced to (-pi, pi] only where its ulp is at most this many
# radians, i.e. below 2^33 (about 1.4e9 periods); beyond it the float holds
# too little of the phase for E or theta to mean anything.
PHASE_TOL = 1e-6


@dataclass(frozen=True)
class OrbitConstants:
    """Energy and angular momentum of a test particle."""

    xi: float
    lam: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.xi) and math.isfinite(self.lam)):
            raise InvalidParams("orbit constants must be finite")
        if self.lam < 0.0:
            raise InvalidParams("angular momentum must be >= 0")


@dataclass(frozen=True)
class OrbitElements:
    """Derived per-orbit quantities.

    ``alpha2`` is signed with b; ``x_v``, ``alpha2`` and ``zeta2`` are None for
    the harmonic class, which has no vertical tangent.
    """

    xi: float
    lam: float
    omega_r: float
    ecc: float
    T: float
    Theta: float
    J: float
    x_p: float
    x_a: float
    alpha2: Optional[float]
    x_v: Optional[float]
    zeta2: Optional[float]
    harmonic: bool
    b_sign: float

    @property
    def eps_eff(self) -> float:
        """Signed eccentricity used by the universal Kepler equation."""
        return self.b_sign * self.ecc

    @property
    def r_p(self) -> float:
        return math.sqrt(self.x_p / 2.0)

    @property
    def r_a(self) -> float:
        return math.sqrt(self.x_a / 2.0)


@dataclass(frozen=True)
class TrajectorySample:
    """One point along an orbit, in time, anomaly, and polar coordinates."""

    t: float
    E: float
    x: float
    r: float
    theta: float
    z_j: float
    z_lam: float


# ---------------------------------------------------------------------------
# small closed-form helpers


def _power(base: float, n: int, name: str) -> float:
    """base**n; InvalidParams where it overflows float64."""
    try:
        return base**n
    except OverflowError:
        raise InvalidParams(f"{name}^{n} overflows float64 at {name} = {base:g}") from None


def _s_squared(p: ParabolaParams, lam: float) -> float:
    """S(Lambda)^2 = b^2 L^4 - d L^2 + e."""
    return p.b**2 * _power(lam, 4, "Lambda") - p.d * _power(lam, 2, "Lambda") + p.e


def _s_value(p: ParabolaParams, lam: float) -> float:
    s2 = _s_squared(p, lam)
    if s2 <= 0.0:
        raise InvalidParams(
            f"b^2 L^4 - d L^2 + e = {s2:g} must be positive (Lambda = {lam:g})"
        )
    return math.sqrt(s2)


def _half_r_squared(p: ParabolaParams, lam: float, s_big: float) -> float:
    """R(Lambda)^2 / 2 = p + b S, with p = b^2 Lambda^2 - d/2 and S = ``s_big``;
    where b p <= 0 it is q / (p - b S), q = d^2/4 - b^2 e the product of the
    roots p +- b S, so that nothing cancels."""
    b = p.b
    pp = b * b * (lam * lam) - 0.5 * p.d
    if b * pp > 0.0:
        return pp + b * s_big
    return (0.25 * p.d * p.d - b * b * p.e) / (pp - b * s_big)


def _r_value(p: ParabolaParams, lam: float) -> float:
    """R(Lambda) = sqrt(2 b^2 L^2 - d + 2 b S(L)); xi-independent action part."""
    s_c = _half_r_squared(p, lam, _s_value(p, lam))
    if s_c <= 0.0:
        raise InvalidParams("R(Lambda)^2 non-positive; parabola not admissible here")
    return math.sqrt(2.0 * s_c)


def _harmonic_root(p: ParabolaParams, lam: float) -> float:
    """sqrt(Lambda^2 + A0) of the harmonic class; InvalidParams where imaginary."""
    arg = _power(lam, 2, "Lambda") + p._a0
    if arg < 0.0:
        raise InvalidParams(f"Lambda^2 - e/d = {arg:g} must be positive "
                            f"for the harmonic class (Lambda = {lam:g})")
    return math.sqrt(arg)


def _beta_hat(p: ParabolaParams, xi: float) -> float:
    """a + b xi; strictly negative for bound motion when b != 0."""
    return p.a + p.b * xi


def _require_bound_slope(p: ParabolaParams, xi: float) -> float:
    bh = _beta_hat(p, xi)
    if bh >= 0.0:
        raise UnboundOrbit(f"a + b*xi = {bh:g} must be negative for bound motion")
    return bh


def _ecc_coeffs(p: ParabolaParams, lam: float) -> tuple[float, float]:
    """(P, Q) with eccentricity^2 = 1 + 2 P (a + b xi) + Q (a + b xi)^2."""
    dl = p.delta
    pcoef = (2.0 * p.b**2 * _power(lam, 2, "Lambda") - p.d) / dl
    qcoef = (p.d**2 - 4.0 * p.b**2 * p.e) / dl**2
    return (pcoef, qcoef)


def _clip_ecc2(e2: float) -> float:
    """Clip tiny negative round-off; reject genuinely unbound values."""
    if e2 < 0.0:
        if e2 > -1e-12:
            return 0.0
        raise NoBoundOrbit(f"eccentricity^2 = {e2:g} < 0: no bound orbit")
    if e2 >= 1.0:
        raise NoBoundOrbit(f"eccentricity^2 = {e2:g} >= 1: no bound orbit")
    return e2


# ---------------------------------------------------------------------------
# turning points


def _apsides(params: ParabolaParams,
             oc: OrbitConstants) -> tuple[float, float, float, Optional[float]]:
    """(ecc, x_p, x_a, alpha2) of a bound orbit; alpha2 is None for harmonic.

    x_p is the root of the line-parabola quadratic taken from the product
    of the roots, kept at or below x_a.
    """
    xi, lam = oc.xi, oc.lam
    if params.b == 0.0:
        bb = xi - params._a1
        cc = _power(lam, 2, "Lambda") + params._a0
        disc = bb * bb - 4.0 * params._a2 * cc
        if disc < 0.0:
            if disc > -1e-12 * max(1.0, bb * bb):
                disc = 0.0
            else:
                raise NoBoundOrbit("energy below the circular minimum")
        if bb <= 0.0:
            raise NoBoundOrbit("no positive turning points for this energy")
        q = bb + math.sqrt(disc)
        x_a = q / (2.0 * params._a2)
        x_p = min(2.0 * cc / q, x_a)
        if x_p < 0.0:
            raise NoBoundOrbit("inner turning point below x = 0")
        ecc = math.sqrt(max(1.0 - x_p / x_a, 0.0)) if x_a > 0.0 else 0.0
        return (ecc, x_p, x_a, None)
    bh = _require_bound_slope(params, xi)
    pcoef, qcoef = _ecc_coeffs(params, lam)
    ecc = math.sqrt(_clip_ecc2(1.0 + 2.0 * pcoef * bh + qcoef * bh * bh))
    alpha2 = params.delta / (8.0 * params.b * bh * bh)
    h = 1.0 + math.copysign(ecc, params.b)
    x_a = params._x_v + 2.0 * alpha2 * h * h
    x_p = min(_s_squared(params, lam) / (bh * bh * x_a), x_a) if x_a != 0.0 else 0.0
    return (ecc, x_p, x_a, alpha2)


def turning_points(params: ParabolaParams, oc: OrbitConstants) -> tuple[float, float]:
    """Periastron and apoastron abscissae (x_p, x_a) of a bound orbit.

    The intersections of the line y = xi x - Lambda^2 with the convex
    branch, x(E) at E = 0 and pi (see the module docstring).  Circular
    orbits return x_p == x_a.
    """
    return _apsides(params, oc)[1:3]


# ---------------------------------------------------------------------------
# periods, angles, actions, Hamiltonian


def radial_period(params: ParabolaParams, xi: float) -> float:
    """Radial period T(xi); independent of Lambda by isochrony.

    T^2 = -(pi^2/4) delta / (a + b xi)^3 for every class; at b = 0, where
    delta = a d and a < 0, it is the harmonic constant pi sqrt(-d) / (2|a|).
    InvalidParams unless xi and T are finite.
    """
    if not math.isfinite(xi):
        raise InvalidParams(f"energy must be finite, got {xi!r}")
    bh = _require_bound_slope(params, xi)
    try:  # |a + b xi|^3 may underflow to 0 or overflow
        T = 0.5 * math.pi * math.sqrt(params.delta / abs(bh) ** 3)
    except (ZeroDivisionError, OverflowError):
        T = math.inf
    if T < math.inf:
        return T
    raise InvalidParams(f"radial period at xi = {xi:g} is not finite in float64")


def apsidal_angle(params: ParabolaParams, lam: float) -> float:
    """Apsidal angle Theta(Lambda); independent of xi by isochrony."""
    if not 0.0 < lam < math.inf:
        raise InvalidParams(f"apsidal angle requires finite Lambda > 0, got {lam!r}")
    return math.pi * lam * _r_value(params, lam) / _s_value(params, lam)


def radial_action(params: ParabolaParams, oc: OrbitConstants) -> float:
    """Radial action J = (1/2pi) closed-integral of p_r dr, in closed form."""
    xi, lam = oc.xi, oc.lam
    _apsides(params, oc)  # raises where there is no bound orbit
    if params.b == 0.0:
        sd, aa = math.sqrt(-params.d), abs(params.a)
        j = sd * xi / (4.0 * aa) - 0.5 * _harmonic_root(params, lam) \
            - params.c / (4.0 * aa * sd)
    else:
        bh = _beta_hat(params, xi)
        j = (math.sqrt(-params.delta / bh) - _r_value(params, lam)) / (2.0 * params.b)
    if j < 0.0:
        if j < -1e-10 * max(1.0, abs(xi), lam):
            raise NoBoundOrbit(f"negative radial action J = {j:g}")
        j = 0.0
    return j


def hamiltonian(params: ParabolaParams, J: float, lam: float) -> float:
    """Energy xi = H(J, Lambda) in action-angle variables.

    InvalidParams where no bound orbit has the actions: J not finite and
    >= 0, Lambda not finite and > 0, 2 b J + R(Lambda) <= 0 (a bound orbit
    has it equal to sqrt(-delta / (a + b xi))), or, for b < 0, an energy at
    or past the wall's (see ``feasible_energy``).
    """
    if not 0.0 <= J < math.inf:
        raise InvalidParams(f"radial action must be finite and >= 0, got {J!r}")
    if not 0.0 < lam < math.inf:
        raise InvalidParams(f"Lambda must be finite and > 0, got {lam!r}")
    if params.b == 0.0:
        sd, aa = math.sqrt(-params.d), abs(params.a)
        return (params._a1 + 4.0 * aa * J / sd
                + 2.0 * aa * _harmonic_root(params, lam) / sd)
    b = params.b
    den = 2.0 * b * J + _r_value(params, lam)
    if not den > 0.0:
        raise InvalidParams(f"2 b J + R(Lambda) = {den:g} must be positive "
                            f"(J = {J:g}, Lambda = {lam:g})")
    xi = -params.a / b - params.delta / (b * den * den)
    if b < 0.0:
        xi_wall = _wall_energy(params, lam)
        if xi >= xi_wall:
            raise InvalidParams(
                f"J = {J:g} beyond the wall's radial action at Lambda = {lam:g}: "
                f"energy {xi:g} >= the wall's {xi_wall:g}")
    return xi


def frequencies(params: ParabolaParams, J: float, lam: float) -> tuple[float, float]:
    """Hamiltonian frequencies (omega_J, omega_Lambda) = grad H of the orbit
    with actions (J, Lambda); InvalidParams where :func:`hamiltonian` refuses
    them."""
    hamiltonian(params, J, lam)
    r_big = _r_value(params, lam)
    den3 = _power(2.0 * params.b * J + r_big, 3, "(2 b J + R)")
    # omega_Lambda = 2 delta R' / (b den^3) with R' = dR/dLambda = b Lambda R / S.
    return (4.0 * params.delta / den3,
            2.0 * params.delta * lam * r_big / (_s_value(params, lam) * den3))


# ---------------------------------------------------------------------------
# orbit elements


def orbit_elements(params: ParabolaParams, oc: OrbitConstants) -> OrbitElements:
    """Assemble all per-orbit derived quantities for (params, xi, Lambda)."""
    xi, lam = oc.xi, oc.lam
    ecc, x_p, x_a, alpha2 = _apsides(params, oc)
    if ecc <= CIRCULAR_ECC:
        ecc = 0.0
    T = radial_period(params, xi)
    theta_tot = apsidal_angle(params, lam)
    J = radial_action(params, oc)
    omega = math.sqrt(-16.0 * _beta_hat(params, xi) ** 3 / params.delta)
    harmonic = params.b == 0.0
    x_v = None if harmonic else params.x_v
    zeta2 = None if harmonic else -x_v / (2.0 * alpha2)
    return OrbitElements(
        xi=xi, lam=lam, omega_r=omega, ecc=ecc, T=T, Theta=theta_tot, J=J,
        x_p=x_p, x_a=x_a, alpha2=alpha2, x_v=x_v, zeta2=zeta2,
        harmonic=harmonic, b_sign=0.0 if harmonic else math.copysign(1.0, params.b),
    )


# ---------------------------------------------------------------------------
# generalized Kepler equation and the parametric solution
#
# _kepler, _radius and _angle are the one implementation; trajectory composes
# them, and the public functions below them are thin wrappers that take a
# float or an array.


# E - sin E = E^3 sum_k (-1)^k E^(2k) / (2k + 3)!, to rounding for |E| < 1.
_SIN_TAIL = [(-1) ** k / math.factorial(2 * k + 3) for k in range(8)]


def _reduce(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(m, k) with m = M - k 2 pi in (-pi, pi] and k whole; the difference is
    exact (Sterbenz), so m + k * TWO_PI gives M back.  InvalidParams where M
    is not finite or its ulp exceeds PHASE_TOL."""
    big = float(np.abs(M).max(initial=0.0))
    if not math.ulp(big) <= PHASE_TOL:  # also for inf and nan
        raise InvalidParams(f"anomaly {big:.17g} is beyond the phase tolerance: "
                            f"its ulp exceeds {PHASE_TOL:g} rad")
    cycles = np.ceil((M - math.pi) / TWO_PI)
    return (M - cycles * TWO_PI, cycles)


def _kepler(ecc: float, M: np.ndarray) -> np.ndarray:
    """Solve E - ecc sin E = M elementwise for |ecc| < 1, without iteration.

    Markley (1995, Celest. Mech. Dyn. Astron. 63, 101) on M reduced to
    [-pi, pi]: the root of a cubic from a Pade approximant of sin E, exact at
    0 and +-pi, then one fifth-order correction, with E - sin E summed as its
    series where it cancels.  A negative ecc maps through
    E(-e, m) = E(e, m + pi) - pi.  At ecc = 0 the root is M itself, returned
    as m + 2 pi k: the bits the solve gives (+0 where M is -0).
    """
    m, cycles = _reduce(M)
    if ecc == 0.0:
        return m + cycles * TWO_PI
    if ecc < 0.0:
        half = np.where(m > 0.0, math.pi, -math.pi)
        return (_kepler(-ecc, m - half) + half) + cycles * TWO_PI
    alpha = (3.0 * math.pi**2 + 1.6 * math.pi * (math.pi - np.abs(m)) / (1.0 + ecc)) \
        / (math.pi**2 - 6.0)
    d = 3.0 * (1.0 - ecc) + alpha * ecc
    q = 2.0 * alpha * d * (1.0 - ecc) - m * m
    r = 3.0 * alpha * d * (d - 1.0 + ecc) * m + m * m * m
    w = np.cbrt(np.abs(r) + np.sqrt(q * q * q + r * r)) ** 2
    e1 = (2.0 * r * w / (w * w + w * q + q * q) + m) / d
    f2, f3 = ecc * np.sin(e1), ecc * np.cos(e1)
    tail = e1**3 * np.polynomial.polynomial.polyval(e1 * e1, _SIN_TAIL)
    f0 = np.where(np.abs(e1) < 1.0, (1.0 - ecc) * e1 + ecc * tail, e1 - f2) - m
    f1 = 1.0 - f3
    d3 = -f0 / (f1 - 0.5 * f0 * f2 / f1)
    d4 = -f0 / (f1 + 0.5 * d3 * f2 + d3 * d3 * f3 / 6.0)
    d5 = -f0 / (f1 + 0.5 * d4 * f2 + d4 * d4 * f3 / 6.0 - d4**3 * f2 / 24.0)
    return (e1 + d5) + cycles * TWO_PI


def _radius(el: OrbitElements, E: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(x, r) at eccentric anomalies E, clipped to [x_p, x_a]; see radius_of_E."""
    if el.harmonic:
        x = el.x_a + (el.x_p - el.x_a) * np.cos(0.5 * E) ** 2
    else:
        h = 1.0 - el.eps_eff * np.cos(E)
        x = el.x_v + 2.0 * el.alpha2 * h * h
    x = np.minimum(np.maximum(x, el.x_p), el.x_a)
    return (x, np.sqrt(x / 2.0))


def _angle(el: OrbitElements, E: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(theta, imaginary residual) at eccentric anomalies E.

    The closed form is derived on the half period E in [0, pi]; the symmetry
    theta(-E) = -theta(E) and the periodicity theta(E + 2 pi k) = k Theta +
    theta(E) extend it to all E.
    """
    if el.ecc <= CIRCULAR_ECC:
        return (el.Theta * E / TWO_PI, np.zeros_like(E))
    e_red, cycles = _reduce(E)
    if el.harmonic:
        th, resid = _theta_harmonic(el, np.abs(e_red)), np.zeros_like(E)
    else:
        th, resid = _theta_half(el, np.abs(e_red))
    return (cycles * el.Theta + np.copysign(th, e_red), resid)


def _theta_half(el: OrbitElements, E: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """theta(E) on E in [0, pi] for b != 0, plus the imaginary residual.

    Partial fractions split 1/x(E) into two terms with shifted eccentricities
    k = eps_eff / (1 +- zeta), each term (1/(w sqrt(1 - k^2)))
    arctan(sqrt((1 + k)/(1 - k)) tan(E/2)) with w = 1 +- zeta.  Where zeta is
    real and |k| < 1 both terms are real and evaluated in real arithmetic.
    For the hollowed family zeta is imaginary; the terms are then complex
    conjugates, evaluated on principal branches, and their sum is real up to
    the residual returned.
    """
    zeta = cmath.sqrt(el.zeta2)
    terms = []
    for sgn in (1.0, -1.0):
        w = 1.0 + sgn * zeta
        k = el.eps_eff / w
        terms.append((1.0 / (w * cmath.sqrt(1.0 - k * k)),
                      cmath.sqrt((1.0 + k) / (1.0 - k))))
    if all(c.imag == 0.0 for term in terms for c in term):
        terms = [(norm.real, slope.real) for norm, slope in terms]
    # tan(E/2) has its pole at E = pi, where each arctangent is pi/2.
    pole = E >= math.pi
    half_tan = np.tan(0.5 * np.where(pole, 0.0, E))
    total = 0.0
    for norm, slope in terms:
        total = total + norm * np.where(pole, 0.5 * math.pi,
                                        np.arctan(slope * half_tan))
    total = total * (el.lam / (el.omega_r * el.alpha2))
    return (np.real(total), np.abs(np.imag(total)))


def _theta_harmonic(el: OrbitElements, E: np.ndarray) -> np.ndarray:
    """theta(E) on E in [0, pi] for the harmonic class."""
    quarter_tan = np.tan(0.25 * E)
    # sqrt((1 + ecc) / (1 - ecc)), exactly, as ecc^2 = 1 - x_p / x_a; it
    # stays finite where ecc rounds to 1 on near-radial orbits.
    g = (1.0 + el.ecc) * math.sqrt(el.x_a / el.x_p)
    pair = np.arctan(g * quarter_tan) + np.arctan(quarter_tan / g)
    return 4.0 * el.lam * pair / (el.omega_r * math.sqrt(el.x_p * el.x_a))


def _as_array(values, what: str) -> np.ndarray:
    """``values`` as a new flat float64 array; InvalidParams unless all finite."""
    arr = np.array(values, dtype=float).ravel()
    bad = ~np.isfinite(arr)
    if bad.any():
        raise InvalidParams(f"non-finite {what} {float(arr[bad][0])!r}")
    return arr


def _shaped(result: np.ndarray, like):
    """``result`` in the shape of the argument ``like``: a float for a scalar."""
    if np.ndim(like) == 0:
        return float(result[0])
    return result.reshape(np.shape(like))


def solve_kepler(ecc: float, M, tol: float = 1e-13):
    """Invert the generalized Kepler equation Omega t = E - ecc sin E in one
    closed-form step, for ecc in [0, 1) and M a float or array (cycles are
    preserved); ToleranceNotMet where the residual on M reduced to [-pi, pi]
    exceeds ``tol``."""
    if not 0.0 <= ecc < 1.0:
        raise InvalidParams(f"eccentricity must lie in [0, 1), got {ecc!r}")
    m, cycles = _reduce(_as_array(M, "mean anomaly"))
    e_anom = _kepler(ecc, m)
    resid = np.abs(e_anom - ecc * np.sin(e_anom) - m).max(initial=0.0)
    if not resid <= tol:  # also for a nan residual
        raise ToleranceNotMet(f"Kepler residual {resid:.3g} exceeds tol = {tol:g}")
    return _shaped(e_anom + cycles * TWO_PI, M)


def radius_of_E(elements: OrbitElements, E):
    """Henon abscissa and radius (x, r) at eccentric anomaly E (float or array).

    E = 0 is periastron and E = pi apoastron for every class; the harmonic
    class uses x(E) = x_a + (x_p - x_a) cos(E/2)^2 with E = Omega t.
    """
    x, r = _radius(elements, _as_array(E, "eccentric anomaly"))
    return (_shaped(x, E), _shaped(r, E))


def angle_of_E_with_residual(elements: OrbitElements, E):
    """Polar angle theta(E) with cycle unwrapping, plus imaginary residual.

    E is a float or an array; see ``_angle`` and ``_theta_half`` for the
    closed form.
    """
    theta, resid = _angle(elements, _as_array(E, "eccentric anomaly"))
    return (_shaped(theta, E), _shaped(resid, E))


def angle_of_E(elements: OrbitElements, E):
    """Polar angle theta(E); see angle_of_E_with_residual."""
    return angle_of_E_with_residual(elements, E)[0]


@dataclass(frozen=True, eq=False)
class Trajectory(abc.Sequence):
    """A sampled orbit: one float64 array per field of TrajectorySample.

    It is also a sequence of TrajectorySample (``len``, iteration and
    integer indexing give Python floats).
    """

    t: np.ndarray
    E: np.ndarray
    x: np.ndarray
    r: np.ndarray
    theta: np.ndarray
    z_j: np.ndarray
    z_lam: np.ndarray

    def columns(self) -> tuple[np.ndarray, ...]:
        """The seven arrays in the field order of TrajectorySample."""
        return (self.t, self.E, self.x, self.r, self.theta, self.z_j, self.z_lam)

    def __len__(self) -> int:
        return len(self.t)

    def __getitem__(self, i: int) -> TrajectorySample:
        return TrajectorySample(*(float(c[i]) for c in self.columns()))

    def __iter__(self) -> abc.Iterator[TrajectorySample]:
        for row in zip(*(c.tolist() for c in self.columns())):
            yield TrajectorySample(*row)


def trajectory(params: ParabolaParams, oc: OrbitConstants | OrbitElements,
               times: Sequence[float] | np.ndarray) -> Trajectory:
    """Sample the analytic orbit at the given times (a 1-D sequence or array).

    Periastron with theta = 0 at t = 0.  E solves the Kepler equation at the
    mean anomaly z_J = M = 2 pi t / T (= Omega t); z_Lambda = (Theta / 2 pi) M.
    ``oc`` may be the orbit's ``orbit_elements``, for a caller that has them.
    """
    el = oc if isinstance(oc, OrbitElements) else orbit_elements(params, oc)
    if np.ndim(times) != 1:
        raise InvalidParams("sample times must be a 1-D sequence")
    t = _as_array(times, "sample time")
    with np.errstate(over="ignore"):  # _reduce refuses an infinite M
        m = TWO_PI * (t / el.T)
    e_anom = _kepler(el.eps_eff, m)
    x, r = _radius(el, e_anom)
    theta, _ = _angle(el, e_anom)
    return Trajectory(t=t, E=e_anom, x=x, r=r, theta=theta, z_j=m,
                      z_lam=(el.Theta / TWO_PI) * m)


# ---------------------------------------------------------------------------
# circular orbits and feasibility helpers


def circular_abscissa(params: ParabolaParams, lam: float) -> float:
    """Abscissa x_c of the circular orbit: x Y'(x) - Y(x) = Lambda^2.

    In s = sqrt(b delta (x - x_v)) the condition is the quadratic
    s^2 - 2 p s + q = 0 with p = b^2 Lambda^2 - d/2 and q = -b delta x_v,
    whose roots are p +- |b| S(Lambda).  The circular orbit is the root
    s_c = p + b S = R(Lambda)^2 / 2, taken from the product q of the roots
    when the sum cancels, and then x_c = 2 S s_c / delta without cancellation.
    At b = 0 the product gives s_c = -d/2, so x_c = S / |a|.
    Raises NoCircularOrbit when s_c is not positive (Lambda^2 outside the
    range of x Y' - Y on the domain).
    """
    return _circular_orbit(params, lam)[0]


def circular_energy(params: ParabolaParams, lam: float) -> float:
    """Energy xi_c(Lambda) of the circular orbit (slope of the tangent line).

    For b != 0 it is Y'(x_c) = -a/b - delta / (2 b s_c), taken from s_c
    because Y' at the rounded x_c loses digits next to the vertical tangent.
    """
    return _circular_orbit(params, lam)[1]


def _circular_orbit(params: ParabolaParams, lam: float) -> tuple[float, float]:
    """(x_c, xi_c) of the circular orbit; see circular_abscissa."""
    if not 0.0 < lam < math.inf:
        raise InvalidParams(f"circular orbit requires finite Lambda > 0, got {lam!r}")
    s2 = _s_squared(params, lam)
    if s2 <= 0.0:
        raise NoCircularOrbit(f"no circular orbit at Lambda = {lam:g}: S^2 = {s2:g}")
    s_big = math.sqrt(s2)
    s_c = _half_r_squared(params, lam, s_big)
    x_c = 2.0 * s_big * s_c / params.delta
    xlo, xhi = pot.domain(params)
    if not (s_c > 0.0 and xlo < x_c < xhi):
        raise NoCircularOrbit(
            f"Lambda^2 = {lam * lam:g} outside the range of x Y' - Y on the domain")
    if params.b == 0.0:
        return (x_c, params._a1 + 2.0 * params._a2 * x_c)
    return (x_c, -params.a / params.b - params.delta / (2.0 * params.b * s_c))


def feasible_energy(params: ParabolaParams, lam: float, frac: float = 0.5) -> float:
    """An energy giving a bound, non-circular orbit at this Lambda.

    ``frac`` in (0, 1) interpolates between the circular energy and the
    upper feasibility edge (escape for right-opening parabolae, the domain
    wall for the bounded family).  Useful for building test grids.
    """
    if not 0.0 < frac < 1.0:
        raise InvalidParams("frac must be in (0, 1)")
    xi_c = circular_energy(params, lam)
    if params.b == 0.0:
        return xi_c + 2.0 * frac * max(1.0, abs(xi_c))
    xi_hi = -params.a / params.b if params.b > 0.0 else _wall_energy(params, lam)
    return xi_c + frac * (xi_hi - xi_c)


def _wall_energy(params: ParabolaParams, lam: float) -> float:
    """The energy, for b < 0, at which the apoastron reaches the wall x_v:
    eccentricity 1, at a + b xi = -2 P / Q."""
    pcoef, qcoef = _ecc_coeffs(params, lam)
    return (-2.0 * pcoef / qcoef - params.a) / params.b
