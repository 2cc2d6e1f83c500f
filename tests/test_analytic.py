import dataclasses
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isochrone import analytic, birkhoff, oracle
from isochrone.analytic import (
    CIRCULAR_ECC,
    OrbitConstants,
    TrajectorySample,
    angle_of_E,
    angle_of_E_with_residual,
    apsidal_angle,
    circular_abscissa,
    circular_energy,
    feasible_energy,
    frequencies,
    hamiltonian,
    orbit_elements,
    radial_action,
    radial_period,
    radius_of_E,
    solve_kepler,
    trajectory,
    turning_points,
)
from isochrone.errors import (
    InvalidParams,
    IsochroneError,
    NoBoundOrbit,
    NoCircularOrbit,
    ToleranceNotMet,
    UnboundOrbit,
)
from isochrone.potential import (
    GaugeTerm,
    ParabolaParams,
    apply_gauge,
    from_harmonic,
    from_kepler,
    y_value,
)

from conftest import BASE_POTENTIALS, gauged_potentials, grid_orbits

GOLDEN = OrbitConstants(-0.5, 0.8)
LAM_GRID = [0.5, 0.8, 1.0, 1.3, 1.7]


def bisect_kepler(ecc, m):
    """Independent bisection oracle for E - ecc sin E = m."""
    lo, hi = m - 1.0, m + 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid - ecc * math.sin(mid) - m > 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# turning points


def test_turning_points_kepler_circular(kepler):
    x_p, x_a = turning_points(kepler, OrbitConstants(-0.5, 1.0))
    assert x_p == pytest.approx(2.0, rel=1e-12)
    assert x_a == pytest.approx(2.0, rel=1e-12)


def test_turning_points_kepler_golden(kepler):
    x_p, x_a = turning_points(kepler, GOLDEN)
    assert x_p == pytest.approx(0.32, rel=1e-12)
    assert x_a == pytest.approx(5.12, rel=1e-12)


def test_turning_points_harmonic_circular(harmonic):
    x_p, x_a = turning_points(harmonic, OrbitConstants(1.0, 1.0))
    assert x_p == pytest.approx(2.0, rel=1e-7)
    assert x_a == pytest.approx(2.0, rel=1e-7)


def test_turning_points_residual(all_classes):
    for _, params, oc in all_classes:
        for x in turning_points(params, oc):
            resid = abs(oc.xi * x - oc.lam**2 - y_value(params, x))
            assert resid <= 1e-10 * max(1.0, abs(oc.xi * x))


def test_turning_points_no_bound_orbit(henon):
    # xi = -0.25 lies below the circular energy at Lambda = 1.
    with pytest.raises(NoBoundOrbit):
        turning_points(henon, OrbitConstants(-0.25, 1.0))
    with pytest.raises(UnboundOrbit):
        turning_points(henon, OrbitConstants(0.1, 1.0))


def mp_turning_points(params, oc):
    """Roots (x_p, x_a) of the line-parabola quadratic at 50 digits.

    Putting y = xi x - Lambda^2 into (a x + b y)^2 + c x + d y + e = 0 gives
    (a + b xi)^2 x^2 + (c + d xi - 2 b (a + b xi) Lambda^2) x + S^2 = 0 with
    S^2 = b^2 Lambda^4 - d Lambda^2 + e.
    """
    with mpmath.workdps(50):
        a, b, c, d, e = (mpmath.mpf(v) for v in params.as_tuple())
        xi, lam2 = mpmath.mpf(oc.xi), mpmath.mpf(oc.lam) ** 2
        bh2 = (a + b * xi) ** 2
        qb = c + d * xi - 2 * b * (a + b * xi) * lam2
        qc = b * b * lam2 * lam2 - d * lam2 + e
        x_a = (mpmath.sqrt(qb * qb - 4 * bh2 * qc) - qb) / (2 * bh2)
        return (qc / (bh2 * x_a), x_a)


def test_turning_points_match_mpmath(kepler, henon, bounded, hollowed):
    # Near escape (0.999999) and for small Lambda the periastron is far
    # below the apoastron; it must not inherit the apoastron's rounding.
    for params in (kepler, henon, bounded, hollowed):
        for lam in (0.05, 1.0, 3.0):
            for frac in (0.35, 0.9, 0.999999):
                oc = OrbitConstants(feasible_energy(params, lam, frac), lam)
                refs = mp_turning_points(params, oc)
                for got, ref in zip(turning_points(params, oc), refs):
                    assert abs(got - ref) <= 1e-14 * ref, (params, lam, frac)


def test_turning_points_at_the_centre(henon, harmonic):
    # At rest in the Henon centre both turning points are x = 0.
    assert turning_points(henon, OrbitConstants(-0.5, 0.0)) == (0.0, 0.0)
    # A radial harmonic orbit passes through the centre and has J = xi/2.
    radial = OrbitConstants(2.0, 0.0)
    assert turning_points(harmonic, radial)[0] == 0.0
    assert radial_action(harmonic, radial) == 1.0


def test_orbits_into_the_centre_are_refused(harmonic, kepler):
    # A gauge term lam/(2 r^2) with lam < 0 beats the centrifugal barrier
    # at small Lambda: harmonic Lambda^2 + A0 < 0, and R(Lambda) = 0 for the
    # gauged Kepler potential below Lambda^2 = 0.1.  No orbit has these
    # actions, so there is no value to return.
    harm = apply_gauge(harmonic, GaugeTerm(0.0, -0.5))
    kep = apply_gauge(kepler, GaugeTerm(0.0, -0.1))
    with pytest.raises(InvalidParams):
        apsidal_angle(kep, 0.2)
    for fn in (hamiltonian, frequencies):
        with pytest.raises(InvalidParams):
            fn(harm, 1.0, 0.5)
        with pytest.raises(InvalidParams):
            fn(kep, 0.1, 0.2)


@pytest.mark.parametrize("fn", [hamiltonian, frequencies,
                                birkhoff.frequency_invariants])
@pytest.mark.parametrize("J, lam", [
    (-1.0, 1.0), (-0.1, 1.0), (math.nan, 1.0), (math.inf, 1.0),
    (0.1, math.nan), (0.1, math.inf),
], ids=["J=-R/2b", "J<0", "J=nan", "J=inf", "lam=nan", "lam=inf"])
def test_impossible_actions_are_refused(kepler, harmonic, fn, J, lam):
    # Kepler at Lambda = 1 has R = 2 and b = 1: at J = -R/(2b) frequencies
    # divided by zero, at J = -0.1 it returned (1.37, 1.37) and at J = inf
    # (0, 0).  The harmonic frequencies do not depend on J at all.
    for params in (kepler, harmonic):
        with pytest.raises(InvalidParams):
            fn(params, J, lam)


@pytest.mark.parametrize("family", ["kepler", "henon", "bounded", "hollowed",
                                    "harmonic"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf],
                         ids=["nan", "inf", "-inf"])
def test_non_finite_energy_or_lambda_is_refused(request, family, bad):
    # They returned NaN at NaN, T = 0 at xi = -inf (Henon, Kepler, hollowed)
    # or +inf (bounded), and Theta = NaN at Lambda = inf; the harmonic
    # third law returned pi at xi = NaN and inf.
    # A circular orbit at Lambda = NaN or inf was NoCircularOrbit.
    params = request.getfixturevalue(family)
    for fn in (radial_period, apsidal_angle, birkhoff.third_law,
               analytic.circular_abscissa,
               lambda q, lam: oracle.as_potential(q).circular_radius(lam)):
        with pytest.raises(InvalidParams):
            fn(params, bad)


def test_bounded_actions_beyond_the_wall_are_refused(bounded):
    # from_bounded(1, 1) at Lambda = 1: the wall's energy is 1.5 and its
    # radial action about 0.041.  At J = 0.3 hamiltonian returned xi = 4.94,
    # and at J = R / (2|b|) both functions divided by zero.  The frequency
    # wedges judged the formula at J = 0.1, where no orbit is.
    wall = analytic.radial_action(
        bounded, OrbitConstants(analytic.feasible_energy(bounded, 1.0, 1 - 1e-6), 1.0))
    assert 0.04 < wall < 0.041
    assert hamiltonian(bounded, wall, 1.0) < 1.5
    frequencies(bounded, wall, 1.0)
    for J in (0.041, 0.1, 0.3, analytic._r_value(bounded, 1.0) / 2.0, 1.0):
        for fn in (hamiltonian, frequencies, birkhoff.frequency_invariants):
            with pytest.raises(InvalidParams):
                fn(bounded, J, 1.0)


# ---------------------------------------------------------------------------
# periods, angles, actions


def test_radial_period_values(kepler, harmonic, henon):
    assert radial_period(kepler, -0.5) == pytest.approx(2 * math.pi, rel=1e-14)
    for xi in (0.5, 1.0, 2.5, 7.0):
        assert radial_period(harmonic, xi) == pytest.approx(math.pi, rel=1e-15)
    assert radial_period(henon, -0.25) == pytest.approx(
        math.pi * math.sqrt(32.0), rel=1e-14)


def test_radial_period_unbound(kepler):
    with pytest.raises(UnboundOrbit):
        radial_period(kepler, 0.0)


def test_radial_period_that_is_not_finite_is_refused(kepler):
    # |a + b xi|^3 underflowed to 0 (ZeroDivisionError) at -1e-110 and
    # overflowed (OverflowError) at -1e110; at -1e-103 delta / |a + b xi|^3
    # overflows to inf.
    for xi in (-1e-110, -1e-103, -1e110):
        with pytest.raises(InvalidParams):
            radial_period(kepler, xi)
    assert radial_period(kepler, -1e-100) == 0.5 * math.pi * math.sqrt(2.0 / 1e-100 ** 3)


# Lambda^4 overflows float64 above Lambda of about 1.2e77, Lambda^2 above
# 1.3e154.
HUGE_LAMBDAS = [1e77, 1e78, 1e155, 1e160, 1e300]


def _all_finite(value) -> bool:
    """Whether every float of a result (a float, a sequence of results, or a
    dataclass of them such as OrbitElements or Trajectory) is finite."""
    if dataclasses.is_dataclass(value):
        value = [getattr(value, f.name) for f in dataclasses.fields(value)]
    if isinstance(value, (list, tuple)):
        return all(map(_all_finite, value))
    if isinstance(value, np.ndarray):
        return bool(np.isfinite(value).all())
    return not isinstance(value, float) or math.isfinite(value)


# The public closed forms that take an orbit's constants, Lambda among them.
ORBIT_CALLS = (turning_points, radial_action, orbit_elements,
               lambda params, oc: trajectory(params, oc, [0.0, 1.0]))


def _lambda_calls(params, lam, orbit_calls=ORBIT_CALLS) -> list:
    """Each public closed form and Birkhoff check that takes Lambda, as a
    call at ``lam``: ``orbit_calls`` with the orbit constants at three
    energies."""
    calls = [
        lambda: apsidal_angle(params, lam),
        lambda: circular_abscissa(params, lam),
        lambda: circular_energy(params, lam),
        lambda: feasible_energy(params, lam),
        *(lambda J=J, fn=fn: fn(params, J, lam) for J in (0.0, 1.0)
          for fn in (hamiltonian, frequencies, birkhoff.frequency_invariants)),
        lambda: birkhoff.circular_abscissa(params, lam),
        lambda: birkhoff.invariants_from_potential(params, lam),
        lambda: birkhoff.invariants_from_period(params, lam),
        lambda: birkhoff.isochrone_theorem_check(params, [lam]),
        lambda: birkhoff.bertrand_check(params, [lam, 2.0 * lam]),
    ]
    xis = [-0.1, 0.5]
    try:
        xis.append(feasible_energy(params, lam))
    except IsochroneError:
        pass
    for xi in xis:
        oc = OrbitConstants(xi, lam)
        calls += [*(lambda oc=oc, fn=fn: fn(params, oc) for fn in orbit_calls),
                  lambda xi=xi: birkhoff.third_law(params, xi)]
    return calls


def _finite_or_refused(potentials, lams, orbit_calls=ORBIT_CALLS) -> tuple[int, int]:
    """(returned, refused) over every call of _lambda_calls; each returns
    only finite values or raises an IsochroneError."""
    returned = refused = 0
    for label, params in potentials:
        for lam in lams:
            for call in _lambda_calls(params, lam, orbit_calls):
                try:
                    value = call()
                except IsochroneError:
                    refused += 1
                    continue
                assert _all_finite(value), (label, lam, value)
                returned += 1
    return returned, refused


@pytest.mark.parametrize("lam", HUGE_LAMBDAS)
def test_huge_lambda_gives_a_finite_value_or_a_typed_refusal(lam):
    # Over the families and their gauges.  Powers of Lambda leaked
    # OverflowError; at Lambda 1e77 the last parabola's b^2 Lambda^4 was inf,
    # and its apsidal angle inf / inf = nan.
    returned, refused = _finite_or_refused(
        [*gauged_potentials(), ("b 1e100", ParabolaParams(0.0, 1e100, -2e-100, 0.0, 0.0))],
        [lam])
    assert returned and refused


def test_tiny_lambda_gives_a_finite_value_or_a_typed_refusal():
    # Lambda = 10^k, k = -300 .. -1, over the families and a gauge.  The
    # frequencies' (2 b J + R)^3 underflowed to 0 (ZeroDivisionError), and
    # the frequency wedges and B of Kepler came out NaN.  The near-radial
    # theta raised ZeroDivisionError where 1 - k^2 rounded to 0, and was NaN
    # at E = 0 where the harmonic x_p was subnormal.
    gauge = GaugeTerm(0.1, 0.2)
    potentials = [(name, params) for base_name, base in BASE_POTENTIALS.items()
                  for name, params in ((base_name, base),
                                       (f"{base_name} gauged", apply_gauge(base, gauge)))]
    returned, refused = _finite_or_refused(
        potentials, [10.0**k for k in range(-300, 0)])
    assert returned and refused


# Calls that leaked an error or returned infinities, each found by a random
# sweep over xi and Lambda: as (call, params, oc).
SWEPT_LEAKS = {
    # 8 b (a + b xi)^2 underflowed to 0: ZeroDivisionError.
    "apoapsis-underflow": (orbit_elements, apply_gauge(from_kepler(1.0), GaugeTerm(0.0, -0.1)),
                           OrbitConstants(-5.2380807688976344e-163, 3.089576180087571e76)),
    # The discriminant overflowed: (0.0, inf), and x_a = inf with ecc = 1.
    "harmonic-turning-points": (turning_points, ParabolaParams(-1, 0, -1.2, -4, -0.4),
                                OrbitConstants(2.8398329074921703e220, 14.85674566739683)),
    "harmonic-elements": (orbit_elements, apply_gauge(from_harmonic(2), GaugeTerm(0.1, 0.0)),
                          OrbitConstants(6.42158622329883e284, 0.0986153202950307)),
    # Lambda**2 raised OverflowError.
    "oracle-lambda-squared": (
        lambda params, oc: (lambda o: (o.r_p, o.r_a))(oracle.solve_orbit(params, oc)),
        apply_gauge(from_kepler(1.0), GaugeTerm(-0.3, 0.2)),
        OrbitConstants(-0.00323543417304344, 7.328986571265788e166)),
    # The scan's centrifugal term overflowed with a RuntimeWarning, then the
    # ODE's first step estimate was 0: ZeroDivisionError.
    "oracle-first-step": (
        lambda params, oc: oracle.solve_orbit(params, oc).integrate(1.0),
        apply_gauge(from_kepler(1.0), GaugeTerm(-0.3, -0.1)),
        OrbitConstants(-6.508445844784934e23, 1.0729424612228959e153)),
}


@pytest.mark.parametrize("case", SWEPT_LEAKS)
def test_swept_edges_give_a_finite_value_or_a_typed_refusal(case):
    call, params, oc = SWEPT_LEAKS[case]
    try:
        value = call(params, oc)
    except IsochroneError:
        return
    assert _all_finite(value), value


_KEPLER, _HARMONIC = from_kepler(1.0), from_harmonic(2.0)
# Calls whose powers leaked OverflowError: Lambda^4 and Lambda^2, the cube of
# 2 b J + R in the frequencies, and T^3 in the period route (T about 1e136).
POWER_OVERFLOWS = {
    **{f"kepler {fn.__name__}": lambda fn=fn: fn(_KEPLER, 1e78)
       for fn in (apsidal_angle, circular_abscissa, circular_energy, feasible_energy,
                  birkhoff.invariants_from_potential)},
    **{f"kepler {fn.__name__}": lambda fn=fn: fn(_KEPLER, 0.1, 1e78)
       for fn in (hamiltonian, frequencies)},
    "harmonic apsidal_angle": lambda: apsidal_angle(_HARMONIC, 1e160),
    "harmonic orbit_elements": lambda: orbit_elements(_HARMONIC,
                                                      OrbitConstants(3.0, 1e160)),
    "frequencies at J 1e103": lambda: frequencies(_KEPLER, 1e103, 1.0),
    "period route at Lambda 1e45": lambda: birkhoff.invariants_from_period(_KEPLER, 1e45),
}


@pytest.mark.parametrize("call", POWER_OVERFLOWS.values(), ids=list(POWER_OVERFLOWS))
def test_overflowing_powers_are_invalid_params(call):
    with pytest.raises(InvalidParams, match="float64"):
        call()


def test_apsidal_angle_values(kepler, harmonic, henon):
    for lam in (0.3, 0.8, 2.0):
        assert apsidal_angle(kepler, lam) == pytest.approx(2 * math.pi, rel=1e-13)
        assert apsidal_angle(harmonic, lam) == pytest.approx(math.pi, rel=1e-15)
    assert apsidal_angle(henon, 2.0) == pytest.approx(
        math.pi * (1.0 + 2.0 / math.sqrt(8.0)), rel=1e-14)


def test_radial_action_golden(kepler):
    assert radial_action(kepler, GOLDEN) == pytest.approx(0.2, abs=1e-14)


def test_radial_action_circular_is_zero(all_classes):
    for _, params, oc in all_classes:
        lam = oc.lam
        oc_circ = OrbitConstants(circular_energy(params, lam), lam)
        assert radial_action(params, oc_circ) == pytest.approx(0.0, abs=1e-10)


def test_henon_circular_energy_frozen(henon):
    # x_c(Lambda=1) solves x^2 - 10x + 20 = 0 in disguise; the energy is
    # -(3 - sqrt(5))/4, derived by hand from R(1)^2 = 6 + 2 sqrt(5).
    assert circular_energy(henon, 1.0) == pytest.approx(
        -(3.0 - math.sqrt(5.0)) / 4.0, rel=1e-12)


def test_hamiltonian_round_trip(all_classes):
    for _, params, oc in all_classes:
        j = radial_action(params, oc)
        assert hamiltonian(params, j, oc.lam) == pytest.approx(
            oc.xi, rel=1e-10)


def test_hamiltonian_kepler_delaunay(kepler):
    assert hamiltonian(kepler, 0.2, 0.8) == pytest.approx(-0.5, rel=1e-14)
    # Delaunay form -mu^2 / (2 (J + Lambda)^2)
    for j, lam in ((0.0, 1.0), (0.5, 0.7), (1.2, 2.0)):
        assert hamiltonian(kepler, j, lam) == pytest.approx(
            -1.0 / (2.0 * (j + lam) ** 2), rel=1e-13)


def test_hamiltonian_harmonic_linear(harmonic):
    for j, lam in ((0.0, 1.0), (0.75, 1.0), (0.3, 2.2)):
        assert hamiltonian(harmonic, j, lam) == pytest.approx(
            2.0 * j + lam, rel=1e-14)


def test_frequencies_values(kepler, harmonic):
    om_j, om_lam = frequencies(kepler, 0.2, 0.8)
    assert om_j == pytest.approx(1.0, rel=1e-13)
    assert om_lam / om_j == pytest.approx(1.0, rel=1e-13)
    om_j, om_lam = frequencies(harmonic, 0.75, 1.0)
    assert om_j == pytest.approx(2.0, rel=1e-14)
    assert om_lam / om_j == pytest.approx(0.5, rel=1e-14)


def test_frequencies_match_mpmath_where_r_cancels(bounded):
    # bounded gauged by (-0.3, 0.2) at Lambda = 20 has b p < 0, where
    # 2 b^2 Lambda^2 - d + 2 b S(Lambda) cancels; omega_Lambda = dH/dLambda.
    # The orbit's J is 7.7e-8: there R = 0.0997, so no orbit has J = 0.5.
    params = apply_gauge(bounded, GaugeTerm(-0.3, 0.2))
    lam = 20.0
    J = radial_action(params, OrbitConstants(feasible_energy(params, lam, 0.5), lam))
    with mpmath.workdps(50):
        a, b, c, d, e = (mpmath.mpf(v) for v in params.as_tuple())
        delta = a * d - b * c

        def hamiltonian_mp(lam_mp):
            s_big = mpmath.sqrt(b * b * lam_mp**4 - d * lam_mp**2 + e)
            r_big = mpmath.sqrt(2 * b * b * lam_mp**2 - d + 2 * b * s_big)
            return -a / b - delta / (b * (2 * b * J + r_big) ** 2)

        ref = mpmath.diff(hamiltonian_mp, mpmath.mpf(lam))
    om_lam = frequencies(params, J, lam)[1]
    assert abs(om_lam - ref) <= 1e-15 * abs(ref)


@pytest.mark.parametrize("omega", [0.01, 0.37, 2.0, 100.0])
def test_harmonic_closed_forms_match_mpmath(omega):
    # The harmonic class (b = 0) runs through the general closed forms of
    # x_c, Theta, T, Omega and the frequencies; each is within 2 ulp of its
    # elementary harmonic value at 40 digits.  Where Lambda^2 + A0 <= 0 no
    # circular orbit exists: x_c is refused with NoCircularOrbit, Theta and
    # the frequencies with InvalidParams.
    def ulps(got, ref):
        return float(abs(mpmath.mpf(got) - ref)) / math.ulp(float(ref))

    worst = 0.0
    for eps in (-0.3, 0.0, 0.1):
        for gauge_lam in (-0.5, -0.1, 0.0, 0.2):
            params = apply_gauge(from_harmonic(omega), GaugeTerm(eps, gauge_lam))
            with mpmath.workdps(40):
                a, _, c, d, e = (mpmath.mpf(v) for v in params.as_tuple())
                T = mpmath.pi * mpmath.sqrt(-d) / (2 * abs(a))
                omega_j = 2 * mpmath.pi / T
            for lam in (1e-3, 0.05, 0.7, 1.0, 3.0, 20.0):
                worst = max(worst, ulps(radial_period(params, 1.0), T))
                with mpmath.workdps(40):
                    root2 = mpmath.mpf(lam) ** 2 - e / d
                if root2 <= 0:
                    with pytest.raises(NoCircularOrbit):
                        circular_abscissa(params, lam)
                    for fn in (apsidal_angle, lambda p, L: frequencies(p, 0.3, L)):
                        with pytest.raises(InvalidParams):
                            fn(params, lam)
                    continue
                with mpmath.workdps(40):
                    x_c = mpmath.sqrt(root2 / (-a * a / d))
                    theta = mpmath.pi * lam / mpmath.sqrt(root2)
                    omega_lam = omega_j * theta / (2 * mpmath.pi)
                oc = OrbitConstants(feasible_energy(params, lam, 0.5), lam)
                pairs = [(circular_abscissa(params, lam), x_c),
                         (apsidal_angle(params, lam), theta),
                         (orbit_elements(params, oc).omega_r, omega_j),
                         *zip(frequencies(params, 0.3, lam), (omega_j, omega_lam))]
                worst = max(worst, *(ulps(got, ref) for got, ref in pairs))
    assert worst <= 2.0


def test_frequency_ratio_equals_theta(all_classes):
    for _, params, _ in all_classes:
        for oc, el in grid_orbits(params, LAM_GRID):
            om_j, om_lam = frequencies(params, el.J, oc.lam)
            assert om_lam / om_j == pytest.approx(
                el.Theta / (2 * math.pi), rel=1e-10)
            assert om_j == pytest.approx(2 * math.pi / el.T, rel=1e-10)


# ---------------------------------------------------------------------------
# orbit elements


def test_elements_golden(kepler):
    el = orbit_elements(kepler, GOLDEN)
    assert el.omega_r == pytest.approx(1.0, rel=1e-14)
    assert el.ecc == pytest.approx(0.6, rel=1e-14)
    assert el.alpha2 == pytest.approx(1.0, rel=1e-14)
    assert el.T == pytest.approx(2 * math.pi, rel=1e-14)
    assert el.J == pytest.approx(0.2, abs=1e-14)
    assert el.r_p == pytest.approx(0.4, rel=1e-13)
    assert el.r_a == pytest.approx(1.6, rel=1e-13)


def test_elements_circular(kepler):
    el = orbit_elements(kepler, OrbitConstants(-0.5, 1.0))
    assert el.ecc == 0.0
    assert el.x_p == pytest.approx(el.x_a, rel=1e-12)


def test_elements_third_law_identity(all_classes):
    for _, params, _ in all_classes:
        if params.b == 0.0:
            continue
        rhs = math.sqrt(params.delta / (2.0 * abs(params.b) ** 3))
        for oc, el in grid_orbits(params, LAM_GRID):
            lhs = el.omega_r**2 * abs(el.alpha2) ** 1.5
            assert abs(lhs - rhs) <= 1e-12 * rhs


def test_elements_omega_t(all_classes):
    for _, params, _ in all_classes:
        for oc, el in grid_orbits(params, LAM_GRID):
            assert el.omega_r * el.T == pytest.approx(2 * math.pi, rel=1e-12)
            assert el.x_p <= el.x_a


def test_oracle_equivalence_grid(all_classes):
    """T, Theta, J against quadrature on a 5x5 feasible grid per class."""
    fracs = (0.15, 0.3, 0.5, 0.7, 0.85)
    for name, params, _ in all_classes:
        for oc, el in grid_orbits(params, LAM_GRID, fracs=fracs):
            assert oracle.quad_radial_period(params, oc).value == pytest.approx(
                el.T, rel=1e-8), name
            assert oracle.quad_apsidal_angle(params, oc).value == pytest.approx(
                el.Theta, rel=1e-8), name
            qj = oracle.quad_radial_action(params, oc).value
            assert abs(qj - el.J) <= 1e-8 * max(el.J, 1.0), name


# ---------------------------------------------------------------------------
# Kepler equation


def test_solve_kepler_trivial():
    assert solve_kepler(0.3, 0.0) == 0.0
    assert solve_kepler(0.6, math.pi) == pytest.approx(math.pi, abs=1e-13)


def test_solve_kepler_against_bisection():
    e_ref = bisect_kepler(0.6, 1.0)
    e_new = solve_kepler(0.6, 1.0)
    assert e_new == pytest.approx(e_ref, abs=1e-12)
    assert abs(e_new - 0.6 * math.sin(e_new) - 1.0) <= 1e-13


def test_solve_kepler_rejects_bad_ecc():
    with pytest.raises(InvalidParams):
        solve_kepler(1.0, 0.5)
    with pytest.raises(InvalidParams):
        solve_kepler(-0.1, 0.5)


def test_solve_kepler_tol_is_a_check(monkeypatch):
    # The residual is taken on the anomaly reduced to [-pi, pi], so a large
    # mean anomaly meets the tolerance.
    e_val = solve_kepler(0.5, 1e6)
    assert abs(e_val - 0.5 * math.sin(e_val) - 1e6) <= 1e-9
    # Just below 2^33 the ulp of M is within PHASE_TOL, and |E - M| <= ecc.
    m_big = 2.0**33 - 1.0
    assert math.ulp(m_big) <= analytic.PHASE_TOL
    assert abs(solve_kepler(0.5, m_big) - m_big) <= 0.5 + math.ulp(m_big)
    anomalies = np.linspace(0.1, 3.0, 50)
    monkeypatch.setattr(analytic, "KEPLER_TOL", 1e-300)
    with pytest.raises(ToleranceNotMet):
        solve_kepler(0.6, anomalies)


@pytest.mark.parametrize("anomaly", [1e17, -1e17, 1.7e308, 2.0**33])
def test_solve_kepler_refuses_an_anomaly_beyond_the_phase_tolerance(anomaly):
    # ulp(M) > PHASE_TOL: the float no longer holds the phase of M.
    assert math.ulp(anomaly) > analytic.PHASE_TOL
    with pytest.raises(InvalidParams, match="phase tolerance"):
        solve_kepler(0.5, anomaly)


def test_trajectory_refuses_times_beyond_the_phase_tolerance(kepler):
    el = orbit_elements(kepler, GOLDEN)
    for late in (1e17 * el.T, 1.7e308):
        with pytest.raises(InvalidParams, match="phase tolerance"):
            trajectory(kepler, GOLDEN, [0.0, late])
    # T < 1, so 2 pi t / T overflows to inf: refused, with no warning.
    fast = from_harmonic(10.0)
    oc = OrbitConstants(feasible_energy(fast, 1.0, 0.5), 1.0)
    assert orbit_elements(fast, oc).T < 1.0
    with pytest.raises(InvalidParams, match="phase tolerance"):
        trajectory(fast, oc, [0.0, 1.7e308])


# Bound on |E - E_exact| per eccentricity: 2-3x the largest error measured on
# 500 anomalies, uniform on [-2 pi, 2 pi] and log-spaced down to 1e-12.  A
# negative ecc maps through E(-e, m) = E(e, m + pi) - pi, which adds the
# rounding of pi times dE/dm (about 80 next to E = pi at -0.999999).
KEPLER_E_BOUNDS = {0.5: 1.5e-15, 0.99: 5e-15, 0.999999: 5e-15, 1.0 - 1e-12: 5e-15,
                   -0.9: 3e-15, -0.999999: 3e-14}


def mp_kepler_root(ecc, m):
    """The root of E - ecc sin E = m at 50 digits, bracketed by m +- |ecc|."""
    with mpmath.workdps(50):
        ecc, m = mpmath.mpf(ecc), mpmath.mpf(m)
        lo, hi = m - abs(ecc), m + abs(ecc)
        return mpmath.findroot(lambda e: e - ecc * mpmath.sin(e) - m, (lo, hi),
                               solver="illinois", tol=mpmath.mpf(10) ** -90,
                               maxsteps=500)


def test_kepler_matches_mpmath():
    rng = np.random.default_rng(11)
    anomalies = np.concatenate([rng.uniform(0.0, 2 * math.pi, 40),
                                np.logspace(-12, 0, 25)])
    for ecc, bound in KEPLER_E_BOUNDS.items():
        e_anom = analytic._kepler(ecc, anomalies)
        for m, e_val in zip(anomalies, e_anom):
            err = abs(float(mp_kepler_root(ecc, m) - mpmath.mpf(e_val)))
            assert err <= bound, (ecc, m, err)


def test_kepler_is_the_identity_at_zero_eccentricity():
    rng = np.random.default_rng(12)
    anomalies = np.concatenate([rng.uniform(-1e8, 1e8, 2000), rng.uniform(-50, 50, 2000),
                                np.logspace(-300, 2, 200), [0.0, -0.0, math.pi, -math.pi]])
    for ecc in (0.0, -0.0):
        # Bit for bit, -0 giving +0 as the solve does.
        assert np.array_equal(analytic._kepler(ecc, anomalies).view(np.int64),
                              (anomalies + 0.0).view(np.int64))


@settings(max_examples=300, deadline=None)
@given(ecc=st.floats(0.0, 0.99), m=st.floats(-50.0, 50.0))
def test_solve_kepler_residual_property(ecc, m):
    e_val = solve_kepler(ecc, m)
    assert abs(e_val - ecc * math.sin(e_val) - m) <= 1e-13


@settings(max_examples=100, deadline=None)
@given(ecc=st.floats(0.0, 0.99), m1=st.floats(0.0, 20.0), dm=st.floats(1e-9, 5.0))
def test_solve_kepler_monotone(ecc, m1, dm):
    assert solve_kepler(ecc, m1 + dm) > solve_kepler(ecc, m1)


# ---------------------------------------------------------------------------
# parametric solution


def test_radius_of_E_endpoints(all_classes):
    for _, params, oc in all_classes:
        el = orbit_elements(params, oc)
        assert radius_of_E(el, 0.0)[0] == pytest.approx(el.x_p, rel=1e-12)
        assert radius_of_E(el, math.pi)[0] == pytest.approx(
            el.x_a, rel=1e-12)


def test_radius_of_E_kepler_midpoint(kepler):
    el = orbit_elements(kepler, GOLDEN)
    _, r = radius_of_E(el, math.pi / 2)
    assert r == pytest.approx(1.0, rel=1e-13)


def test_radius_of_E_harmonic_midpoint(harmonic):
    oc = OrbitConstants(2.5, 1.0)
    el = orbit_elements(harmonic, oc)
    x, _ = radius_of_E(el, math.pi / 2)
    assert x == pytest.approx(0.5 * (el.x_p + el.x_a), rel=1e-12)


def test_angle_of_E_kepler_quadrant(kepler):
    el = orbit_elements(kepler, GOLDEN)
    assert angle_of_E(el, 0.0) == 0.0
    assert angle_of_E(el, math.pi / 2) == pytest.approx(
        2.0 * math.atan(2.0), rel=1e-13)


def test_angle_half_period_is_half_apsidal(all_classes):
    for _, params, _ in all_classes:
        for oc, el in grid_orbits(params, LAM_GRID, fracs=(0.4, 0.75)):
            th = angle_of_E(el, math.pi)
            assert th == pytest.approx(el.Theta / 2.0, rel=1e-10)


@pytest.mark.parametrize("lam", [1e-6, 1e-8, 1e-10])
def test_near_radial_harmonic_angle(harmonic, lam):
    # Below Lambda ~ 1e-8 the eccentricity rounds to 1, where the harmonic
    # angle's sqrt((1 + ecc) / (1 - ecc)) divided by zero.
    for frac in (0.5, 0.999):
        oc = OrbitConstants(analytic.feasible_energy(harmonic, lam, frac), lam)
        el = orbit_elements(harmonic, oc)
        assert abs(angle_of_E(el, math.pi) - el.Theta / 2.0) <= 1e-15 * el.Theta
        theta = trajectory(harmonic, el, np.linspace(0.0, el.T, 33)).theta
        assert np.all(np.diff(theta) >= 0.0) and theta[-1] == el.Theta


def test_angle_reflection_and_periodicity(henon):
    oc = OrbitConstants(-0.12, 1.0)
    el = orbit_elements(henon, oc)
    th1 = angle_of_E(el, 1.0)
    assert angle_of_E(el, 2 * math.pi - 1.0) == pytest.approx(
        el.Theta - th1, rel=1e-12)
    assert angle_of_E(el, 1.0 + 4 * math.pi) == pytest.approx(
        2 * el.Theta + th1, rel=1e-12)
    e_vals = np.array([[0.0, 1.0], [math.pi, 7.5]])
    assert angle_of_E(el, e_vals).tolist() == [
        [angle_of_E(el, e) for e in row] for row in e_vals.tolist()]


def test_complex_branch_imaginary_residual(bounded, hollowed):
    for params, oc in ((bounded, OrbitConstants(0.95, 0.5)),
                       (hollowed, OrbitConstants(-0.2, 1.0))):
        el = orbit_elements(params, oc)
        for i in range(41):
            e_val = math.pi * i / 40.0
            th, resid = angle_of_E_with_residual(el, e_val)
            assert resid <= 1e-12 * max(abs(th), 1e-30)


def test_trajectory_endpoints(all_classes):
    for name, params, oc in all_classes:
        el = orbit_elements(params, oc)
        s0, s_half, s_full = trajectory(params, oc, [0.0, el.T / 2.0, el.T])
        assert s0.r == pytest.approx(el.r_p, rel=1e-12), name
        assert s0.theta == 0.0
        assert s_half.r == pytest.approx(el.r_a, rel=1e-10), name
        assert s_half.theta == pytest.approx(el.Theta / 2.0, rel=1e-10), name
        assert s_full.r == pytest.approx(el.r_p, rel=1e-8), name
        assert s_full.theta == pytest.approx(el.Theta, rel=1e-10), name


def test_trajectory_angle_variables(kepler):
    el = orbit_elements(kepler, GOLDEN)
    t = 0.37 * el.T
    (s,) = trajectory(kepler, GOLDEN, [t])
    assert s.z_j == pytest.approx(el.omega_r * t, rel=1e-14)
    assert s.z_lam == pytest.approx(el.Theta / (2 * math.pi) * el.omega_r * t,
                                    rel=1e-14)
    assert s.z_j == pytest.approx(s.E - el.ecc * math.sin(s.E), abs=1e-12)


def test_trajectory_whole_periods_return_to_periastron():
    # At whole periods that are exact in floating point, M = 2 pi t / T is
    # exactly 2 pi k, so E = 2 pi k, theta = k Theta and r repeats r(0).
    periods = np.array([0.0, 1.0, 2.0, 4.0, 8.0])
    count = 0
    for label, params in gauged_potentials():
        for lam in (0.3, 3.0):
            for frac in (1e-6, 0.5, 0.999999):
                try:
                    oc = OrbitConstants(feasible_energy(params, lam, frac), lam)
                    el = orbit_elements(params, oc)
                except IsochroneError:
                    continue
                traj = trajectory(params, oc, periods * el.T)
                case = (label, lam, frac)
                assert np.array_equal(traj.E, 2 * math.pi * periods), case
                assert np.array_equal(traj.theta, periods * el.Theta), case
                assert np.all(traj.r == traj.r[0]), case
                count += 1
    assert count >= 300


def test_anomaly_is_the_mean_anomaly_without_eccentricity(harmonic):
    # Harmonic and circular orbits: E = z_J = 2 pi t / T bit for bit.
    orbits = [(harmonic, OrbitConstants(2.5, 1.0))]
    for _, params in gauged_potentials():
        for lam in (0.3, 1.0, 3.0):
            try:
                orbits.append((params, OrbitConstants(circular_energy(params, lam), lam)))
            except IsochroneError:
                pass
    times = np.linspace(0.0, 7.3, 50)
    circular = 0
    for params, oc in orbits:
        el = orbit_elements(params, oc)
        if el.ecc != 0.0 and not el.harmonic:
            continue
        circular += not el.harmonic
        traj = trajectory(params, oc, times)
        assert np.array_equal(traj.E, traj.z_j)
        assert np.array_equal(traj.z_j, 2 * math.pi * (times / el.T))
    assert circular >= 100


def test_circular_trajectory(kepler):
    oc = OrbitConstants(-0.5, 1.0)
    el = orbit_elements(kepler, oc)
    for s in trajectory(kepler, oc, [0.0, 1.0, 2.5, el.T]):
        assert s.r == pytest.approx(1.0, rel=1e-12)
    (s,) = trajectory(kepler, oc, [el.T / 4.0])
    assert s.theta == pytest.approx(el.Theta / 4.0, rel=1e-12)


def mp_sample(el, lam, e_anom, m):
    """(Kepler residual, clipped x, theta) of the closed form at E, 50 digits.

    The same formulas as the package, with the float elements taken as
    exact: x(E) clipped to [x_p, x_a], and theta(E) from the partial-fraction
    arctangents on [0, pi] in complex arithmetic, reflected and unwrapped.
    """
    with mpmath.workdps(50):
        E, two_pi, Theta = mpmath.mpf(e_anom), 2 * mpmath.pi, mpmath.mpf(el.Theta)
        resid = abs(E - el.eps_eff * mpmath.sin(E) - m)
        if el.harmonic:
            x = el.x_a + (mpmath.mpf(el.x_p) - el.x_a) * mpmath.cos(E / 2) ** 2
        else:
            h = 1 - el.eps_eff * mpmath.cos(E)
            x = el.x_v + 2 * mpmath.mpf(el.alpha2) * h * h
        x = min(max(x, el.x_p), el.x_a)
        if el.ecc <= CIRCULAR_ECC:
            return (resid, x, Theta * E / two_pi)
        cycles = mpmath.floor(E / two_pi)
        e_frac = E - cycles * two_pi
        if el.harmonic:
            quarter_tan = mpmath.tan(e_frac / 4)
            ecc = mpmath.mpf(el.ecc)
            g = mpmath.sqrt((1 + ecc) / (1 - ecc))
            pair = mpmath.atan(g * quarter_tan) + mpmath.atan(quarter_tan / g)
            norm = el.omega_r * mpmath.sqrt(mpmath.mpf(el.x_p) * el.x_a)
            th = 4 * lam * pair / norm
            return (resid, x, cycles * Theta + th)
        upper = e_frac > mpmath.pi
        half_tan = mpmath.tan((two_pi - e_frac if upper else e_frac) / 2)
        zeta = mpmath.sqrt(mpmath.mpc(el.zeta2))
        total = 0
        for w in (1 + zeta, 1 - zeta):
            k = el.eps_eff / w
            total += mpmath.atan(mpmath.sqrt((1 + k) / (1 - k)) * half_tan) / (
                w * mpmath.sqrt(1 - k * k))
        th = mpmath.re(total) * lam / (mpmath.mpf(el.omega_r) * el.alpha2)
        return (resid, x, cycles * Theta + (Theta - th if upper else th))


def test_trajectory_matches_mpmath_closed_form(all_classes, henon):
    kinds = [(name, params) for name, params, _ in all_classes]
    kinds.append(("henon eps=0.1 lam=0.2", apply_gauge(henon, GaugeTerm(0.1, 0.2))))
    for name, params in kinds:
        for lam in (0.05, 1.0, 5.0):
            for frac in (1e-6, 0.5, 0.999):
                oc = OrbitConstants(feasible_energy(params, lam, frac), lam)
                el = orbit_elements(params, oc)
                # Near ecc = 1 the arctangents are ill-conditioned.
                th_tol = (1e-14 if el.ecc <= 0.99 else 5e-12) * el.Theta
                for s in trajectory(params, oc, np.linspace(0.0, 2.5 * el.T, 41)):
                    resid, x, theta = mp_sample(el, lam, s.E, s.z_j)
                    case = (name, lam, frac, s.t)
                    assert resid <= 1e-13, case
                    assert abs(s.x - x) <= 1e-14 * el.x_a, case
                    assert abs(s.theta - theta) <= th_tol, case


def test_trajectory_sequence_agrees_with_columns(henon):
    oc = OrbitConstants(-0.12, 1.0)
    el = orbit_elements(henon, oc)
    traj = trajectory(henon, oc, np.linspace(0.0, 1.5 * el.T, 7))
    samples = list(traj)
    assert len(traj) == len(samples) == 7
    assert traj[-1] == samples[-1]
    for i, s in enumerate(samples):
        assert s == traj[i] == TrajectorySample(*(c[i] for c in traj.columns()))
        assert all(type(v) is float for v in vars(s).values())


def test_empty_trajectory_and_non_finite_inputs(kepler):
    traj = trajectory(kepler, GOLDEN, [])
    assert len(traj) == 0 and list(traj) == []
    assert all(c.shape == (0,) for c in traj.columns())
    with pytest.raises(InvalidParams):
        trajectory(kepler, GOLDEN, [0.0, math.nan])
    el = orbit_elements(kepler, GOLDEN)
    for bad in (math.nan, [1.0, math.inf]):
        with pytest.raises(InvalidParams):
            solve_kepler(0.5, bad)
        with pytest.raises(InvalidParams):
            radius_of_E(el, bad)
        with pytest.raises(InvalidParams):
            angle_of_E(el, bad)


# ---------------------------------------------------------------------------
# circular helpers


def test_circular_abscissa_examples(kepler, harmonic, henon):
    assert circular_abscissa(kepler, 1.0) == pytest.approx(2.0, rel=1e-13)
    assert circular_abscissa(harmonic, 1.0) == pytest.approx(2.0, rel=1e-13)
    # Lambda -> 0: the circular orbit collapses to the centre like
    # x_c ~ sqrt(2 Lambda^2 / Y''(0)) (here Y''(0) = 1/8).
    assert circular_abscissa(henon, 1e-3) == pytest.approx(4e-3, rel=2e-3)
    assert circular_abscissa(henon, 1e-5) < 1e-3


def mp_circular_orbit(params, lam):
    """(x_c, xi_c) from x Y' - Y = Lambda^2 at 60 digits, or None without one.

    For b != 0 the circular root of s^2 - (2 b^2 L^2 - d) s - b delta x_v = 0
    in s = sqrt(b delta (x - x_v)) is s_c = b^2 L^2 - d/2 + b S; a root that
    is round-off of those terms sits on the vertical tangent and counts as
    none.  xi_c = Y'(x_c).
    """
    with mpmath.workdps(60):
        a, b, c, d, e = (mpmath.mpf(v) for v in params.as_tuple())
        lam2 = mpmath.mpf(lam) ** 2
        if b == 0:
            arg = (lam2 - e / d) / (-a * a / d)
            if arg <= 0:
                return None
            x_c = mpmath.sqrt(arg)
            return (x_c, -c / d - 2 * a * a / d * x_c)
        s2 = b * b * lam2 * lam2 - d * lam2 + e
        if s2 <= 0:
            return None
        terms = (b * b * lam2, d / 2, b * mpmath.sqrt(s2))
        s_c = terms[0] - terms[1] + terms[2]
        if s_c <= 1e-14 * max(abs(t) for t in terms):
            return None
        dl = a * d - b * c
        x_v = (4 * b * b * e - d * d) / (4 * b * dl)
        x_c = x_v + s_c * s_c / (b * dl)
        lo, hi = (max(0, x_v), mpmath.inf) if b > 0 else (0, x_v)
        if not lo < x_c < hi:
            return None
        return (x_c, -a / b - dl / (2 * b * mpmath.sqrt(b * dl * (x_c - x_v))))


def test_circular_orbit_matches_mpmath_over_gauges():
    for label, params in gauged_potentials():
        for lam in (1e-3, 1e-2, 0.05, 0.1, 0.3, 1.0, 3.0, 20.0, 1e3):
            ref = mp_circular_orbit(params, lam)
            if ref is None:
                with pytest.raises(NoCircularOrbit):
                    circular_abscissa(params, lam)
                with pytest.raises(NoCircularOrbit):
                    circular_energy(params, lam)
                continue
            x_c, xi_c = circular_abscissa(params, lam), circular_energy(params, lam)
            assert abs(x_c - ref[0]) <= 1e-13 * ref[0], (label, lam)
            assert abs(xi_c - ref[1]) <= 1e-13 * abs(ref[1]), (label, lam)


def test_feasible_energy_gives_bound_orbits(all_classes):
    for _, params, _ in all_classes:
        for lam in LAM_GRID:
            for frac in (0.1, 0.5, 0.9):
                xi = feasible_energy(params, lam, frac)
                el = orbit_elements(params, OrbitConstants(xi, lam))
                assert 0.0 <= el.ecc < 1.0
