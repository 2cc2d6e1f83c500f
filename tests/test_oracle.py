import dataclasses
import hashlib
import itertools
import math
import re

import numpy as np
import pytest

from isochrone import analytic, birkhoff, oracle, potential
from isochrone.analytic import OrbitConstants, orbit_elements
from isochrone.birkhoff import bertrand_check
from isochrone.errors import (
    DomainExit,
    InvalidParams,
    NoBoundOrbit,
    OutOfDomain,
    StepSizeUnderflow,
    ToleranceNotMet,
)
from isochrone.oracle import (
    Orbit,
    RadialPotential,
    as_potential,
    integrate_orbit,
    isochrony_spread,
    plummer_potential,
    quad_apsidal_angle,
    quad_radial_action,
    quad_radial_period,
    solve_orbit,
    turning_radii,
)

from conftest import BASE_POTENTIALS

GOLDEN = OrbitConstants(-0.5, 0.8)

# The midpoint rule's levels, and the node counts of its groups of levels.
LEVELS = [8 * 2**k for k in range(10)]
GROUP_SIZES = [120, 384, 512, 1024, 2048, 4096]


def test_quad_radial_period_golden(kepler, harmonic, henon):
    res = quad_radial_period(kepler, GOLDEN)
    assert abs(res.value - 2 * math.pi) <= 1e-9 * 2 * math.pi
    assert res.error_estimate <= 1e-9 * res.value
    assert res.evaluations > 0
    res = quad_radial_period(harmonic, OrbitConstants(2.5, 1.0))
    assert abs(res.value - math.pi) <= 1e-9 * math.pi
    # T is Lambda-free, so any admissible Lambda must reproduce it.
    res = quad_radial_period(henon, OrbitConstants(-0.25, 0.5))
    assert res.value == pytest.approx(math.pi * math.sqrt(32.0), rel=1e-8)


def test_quad_apsidal_angle_values(kepler, harmonic, henon):
    assert quad_apsidal_angle(kepler, GOLDEN).value == pytest.approx(
        2 * math.pi, rel=1e-9)
    assert quad_apsidal_angle(harmonic, OrbitConstants(3.0, 1.2)).value == (
        pytest.approx(math.pi, rel=1e-9))
    oc = OrbitConstants(analytic.feasible_energy(henon, 2.0, 0.5), 2.0)
    assert quad_apsidal_angle(henon, oc).value == pytest.approx(
        math.pi * (1.0 + 2.0 / math.sqrt(8.0)), rel=1e-8)


def test_quad_radial_action_values(kepler, henon):
    assert quad_radial_action(kepler, GOLDEN).value == pytest.approx(
        0.2, rel=1e-9)
    circ = OrbitConstants(analytic.circular_energy(kepler, 1.0), 1.0)
    assert abs(quad_radial_action(kepler, circ).value) <= 1e-10
    oc = OrbitConstants(analytic.feasible_energy(henon, 1.0, 0.6), 1.0)
    assert quad_radial_action(henon, oc).value == pytest.approx(
        analytic.radial_action(henon, oc), rel=1e-8)


@pytest.mark.parametrize("gauged", [False, True], ids=["ungauged", "gauged"])
@pytest.mark.parametrize("family", ["kepler", "henon", "bounded", "hollowed",
                                    "harmonic"])
def test_circular_orbit_takes_an_accurate_epicyclic_limit(family, gauged):
    # A second difference of the effective potential at h = 1e-5 r_c lost
    # about eps/h^2 of its digits: T and Theta were off by up to 3.8e-6.
    params = BASE_POTENTIALS[family]
    if gauged:
        params = potential.apply_gauge(params, potential.GaugeTerm(0.1, 0.2))
    for lam in (0.3, 1.0, 3.0):
        oc = OrbitConstants(analytic.circular_energy(params, lam), lam)
        assert quad_radial_period(params, oc).value == pytest.approx(
            analytic.radial_period(params, oc.xi), rel=1e-6, abs=0.0), lam
        assert quad_apsidal_angle(params, oc).value == pytest.approx(
            analytic.apsidal_angle(params, lam), rel=1e-6, abs=0.0), lam
        assert quad_radial_action(params, oc).value == 0.0, lam


def test_quad_rejects_unbound(henon):
    with pytest.raises(NoBoundOrbit):
        quad_radial_period(henon, OrbitConstants(-0.25, 1.0))


def test_quad_near_circular_raises_tolerance_not_met(kepler):
    # This near-circular integrand cancels to noise: kin rounds to 0 at a
    # node next to a turning point before any level of the rule settles.
    oc = OrbitConstants(analytic.feasible_energy(kepler, 1.0, 1e-9), 1.0)
    for quad_fn in (quad_radial_period, quad_apsidal_angle, quad_radial_action):
        with pytest.raises(ToleranceNotMet):
            quad_fn(kepler, oc)


def test_quad_negative_error_estimate_raises_tolerance_not_met(kepler):
    # At eccentricity 1e-3 g has lost some six digits to cancellation: no
    # two levels of the rule agree to 1e-11, so T is refused, not returned.
    oc = OrbitConstants(analytic.feasible_energy(kepler, 1.0, 1e-6), 1.0)
    with pytest.raises(ToleranceNotMet):
        quad_radial_period(kepler, oc)


def test_near_circular_values_are_right_or_refused():
    """Each quadrature of a near-circular orbit is within 1e-8 of the closed
    form (J against max(J, 1), as the benchmark judges it), or refused."""
    params = potential.apply_gauge(BASE_POTENTIALS["bounded"],
                                   potential.GaugeTerm(0.1, 0.2))
    returned = 0
    for lam in (0.05, 0.3, 1.0, 4.97):
        for frac in (1e-9, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3):
            oc = OrbitConstants(analytic.feasible_energy(params, lam, frac), lam)
            el = orbit_elements(params, oc)
            for quad_fn, ref, scale in ((quad_radial_period, el.T, el.T),
                                        (quad_apsidal_angle, el.Theta, el.Theta),
                                        (quad_radial_action, el.J, max(el.J, 1.0))):
                try:
                    value = quad_fn(params, oc).value
                except ToleranceNotMet:
                    continue
                assert abs(value - ref) <= 1e-8 * scale, (quad_fn.__name__, lam, frac)
                returned += 1
    assert returned >= 24


def test_one_node_set_serves_the_three_integrals(henon, monkeypatch):
    sizes = []
    psi_value = potential.psi_value

    def counted(params, r):
        sizes.append(np.size(r))
        return psi_value(params, r)

    monkeypatch.setattr(potential, "psi_value", counted)
    orbit = solve_orbit(henon, OrbitConstants(-0.12, 1.0))
    # One scan call, then one psi array call per group of levels, node
    # counts doubling from 8; Brent's float calls have size 1.
    scan, *calls = [n for n in sizes if n > 1]
    assert scan == 600
    assert calls == GROUP_SIZES[:len(calls)]
    done = len(sizes)
    results = [orbit.radial_period(), orbit.apsidal_angle(), orbit.radial_action()]
    assert len(sizes) == done
    # Each result counts the nodes through its own level, and the last of
    # them lies in the last group called.
    totals = list(itertools.accumulate(LEVELS))
    assert all(res.evaluations in totals for res in results)
    assert sum(calls) - calls[-1] < max(res.evaluations for res in results) <= sum(calls)


def _one_orbit(p, oc, epsrel, r_p, r_a):
    """(T, Theta, J) of the midpoint rule's batch of one orbit, at tolerance
    ``epsrel``, each refused part as its reason; raises the error that
    refuses the whole orbit."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_EPSREL", epsrel)
        (got,) = oracle._orbit_integrals(p, [(oc, r_p, r_a)])
    if got[0] is got[1] is got[2]:  # one error for all three parts
        raise got[0]
    return tuple(str(v) if isinstance(v, ToleranceNotMet) else v for v in got)


def _period_at(params, oc, epsrel):
    """T by the midpoint rule at tolerance ``epsrel``."""
    return _one_orbit(as_potential(params), oc, epsrel, *turning_radii(params, oc))[0]


def test_quad_convergence_with_tolerance(kepler, bounded):
    truth = 2 * math.pi
    loose = _period_at(kepler, GOLDEN, 1e-5)
    tight = _period_at(kepler, GOLDEN, 1e-12)
    assert abs(tight.value - truth) <= max(abs(loose.value - truth),
                                           1e-12 * truth)
    assert tight.error_estimate <= loose.error_estimate
    # On a harder integrand, tightening the tolerance must pay for accuracy
    # with evaluations in a controlled way, not blow up.
    oc = OrbitConstants(analytic.feasible_energy(bounded, 0.5, 0.9), 0.5)
    ref = analytic.radial_period(bounded, oc.xi)
    loose = _period_at(bounded, oc, 1e-4)
    tight = _period_at(bounded, oc, 1e-12)
    assert abs(tight.value - ref) <= max(abs(loose.value - ref), 1e-11 * ref)
    assert loose.evaluations <= tight.evaluations <= 256 * loose.evaluations


def test_turning_radii_match_analytic(all_classes):
    for name, params, oc in all_classes:
        r_p, r_a = turning_radii(params, oc)
        el = orbit_elements(params, oc)
        assert r_p == pytest.approx(el.r_p, rel=1e-10), name
        assert r_a == pytest.approx(el.r_a, rel=1e-10), name


def test_turning_radii_scan_is_one_array_call(henon, monkeypatch):
    calls = []
    psi_value = potential.psi_value

    def counted(params, r):
        calls.append(np.size(r) if isinstance(r, np.ndarray) else "float")
        return psi_value(params, r)

    monkeypatch.setattr(potential, "psi_value", counted)
    solve_orbit(henon, OrbitConstants(-0.12, 1.0))
    # Scanned point by point, the 600-point grid alone took 600 float calls.
    # The one scan call comes before the midpoint rule's node calls.
    arrays = [c for c in calls if c != "float"]
    assert arrays[0] == 600 and arrays[1:] == GROUP_SIZES[:len(arrays) - 1]
    assert 0 < calls.count("float") < 100


def _turning_radii_or_error(pot, oc):
    try:
        return turning_radii(pot, oc)
    except Exception as exc:  # compared by class below
        return type(exc)


def test_turning_radii_float_only_psi_agrees_with_array_psi():
    """The elementwise fallback and the one-call scan give the same radii."""
    bases = [BASE_POTENTIALS[k] for k in
             ("kepler", "henon", "bounded", "hollowed", "harmonic")]
    gauged = [potential.apply_gauge(b, potential.GaugeTerm(0.1, 0.2))
              for b in bases]
    compared = 0
    for params in bases + gauged:
        float_only = RadialPotential(
            psi=lambda r, p=params: potential.psi_value(p, float(r)),
            dpsi=lambda r, p=params: potential.psi_derivative(p, r),
            r_bounds=potential.radial_domain(params))
        for lam in (0.05, 1.0, 5.0):
            for frac in (1e-9, 1e-3, 0.5, 1.0 - 1e-6):
                oc = OrbitConstants(analytic.feasible_energy(params, lam, frac), lam)
                got = _turning_radii_or_error(as_potential(params), oc)
                assert got == _turning_radii_or_error(float_only, oc), (params, oc)
                compared += not isinstance(got, type)
    assert compared >= 100


def test_a_nan_of_psi_is_out_of_domain():
    # A NaN band inside the orbit once leaked scipy's ValueError from brentq.
    base = plummer_potential()

    def psi(r):
        if isinstance(r, np.ndarray):
            return np.where((r > 0.9) & (r < 0.95), np.nan, base.psi(r))
        return math.nan if 0.9 < r < 0.95 else base.psi(r)

    p = RadialPotential(psi=psi, dpsi=base.dpsi, name="nan band")
    with pytest.raises(OutOfDomain, match="NaN"):
        turning_radii(p, OrbitConstants(-0.5, 0.5))


def _nan_band(lo, hi):
    """The Plummer sphere with psi = NaN on lo < r < hi."""
    base = plummer_potential()

    def psi(r):
        if isinstance(r, np.ndarray):
            return np.where((r > lo) & (r < hi), np.nan, base.psi(r))
        return math.nan if lo < r < hi else base.psi(r)

    return RadialPotential(psi=psi, dpsi=base.dpsi, name=f"nan on ({lo:g}, {hi:g})")


def test_a_nan_of_psi_outside_the_orbit_changes_no_radius():
    # The scan's argmax once landed on the first NaN, far from the orbit, and
    # the orbit was refused: "radial kinetic term never positive".
    oc = OrbitConstants(-0.5, 0.5)
    plain = turning_radii(plummer_potential(), oc)
    assert plain == (0.5874342382042825, 1.4953008463039108)
    for lo, hi in ((1e3, 2e3), (1e-6, 2e-6), (50.0, 51.0)):
        assert turning_radii(_nan_band(lo, hi), oc) == plain, (lo, hi)
    # A band that holds scanned points inside the orbit is refused.
    for lo, hi in ((0.3, 0.6), (1.4, 1.6)):
        with pytest.raises(OutOfDomain, match="NaN"):
            turning_radii(_nan_band(lo, hi), oc)
    with pytest.raises(OutOfDomain, match="NaN at every point"):
        turning_radii(_nan_band(0.0, math.inf), oc)


def test_energy_drift_is_one_array_call(henon, monkeypatch):
    oc = OrbitConstants(-0.12, 1.0)
    float_only = RadialPotential(
        psi=lambda r: potential.psi_value(henon, float(r)),
        dpsi=lambda r: potential.psi_derivative(henon, r),
        r_bounds=potential.radial_domain(henon))
    states = integrate_orbit(henon, oc, 5.0, reltol=1e-10)
    # A float-only psi is evaluated point by point, to the same bits.
    assert integrate_orbit(float_only, oc, 5.0, reltol=1e-10) == states
    ndims = []
    psi_value = potential.psi_value

    def counted(params, r):
        ndims.append(np.ndim(r))
        return psi_value(params, r)

    monkeypatch.setattr(potential, "psi_value", counted)
    orbit = solve_orbit(henon, oc)
    solved = ndims.count(1)
    assert orbit.integrate(5.0, reltol=1e-10) == states
    # One array call for the 200 samples, beyond those of the solve.
    assert ndims.count(1) == solved + 1
    assert len(states) == 200


def test_one_orbit_solves_its_turning_points_once(henon, monkeypatch):
    solves = []
    solve = oracle._solve_radii

    def counted(p, oc, *scan):
        solves.append(oc)
        return solve(p, oc, *scan)

    monkeypatch.setattr(oracle, "_solve_radii", counted)
    oracle._last_orbit.cache_clear()
    oc = OrbitConstants(-0.12, 1.0)
    for quad in (quad_radial_period, quad_apsidal_angle, quad_radial_action):
        quad(henon, oc)
    integrate_orbit(henon, oc, 5.0)
    assert solves == [oc]
    # Equal by value is the same orbit; another orbit is solved afresh.
    turning_radii(potential.from_henon(1.0, 1.0), OrbitConstants(-0.12, 1.0))
    assert len(solves) == 1
    turning_radii(henon, OrbitConstants(-0.12, 0.9))
    assert len(solves) == 2
    turning_radii(BASE_POTENTIALS["henon(2,0.25)"], OrbitConstants(-0.12, 0.9))
    assert len(solves) == 3
    # A RadialPotential is kept by identity: one wrapper is solved once, and
    # another wrapper of the same parabola afresh.
    wrapped = as_potential(henon)
    turning_radii(wrapped, oc)
    quad_radial_period(wrapped, oc)
    assert len(solves) == 4
    turning_radii(as_potential(henon), oc)
    assert len(solves) == 5


def test_a_generic_orbit_is_solved_and_summed_once(monkeypatch):
    plummer = plummer_potential()
    sizes, solves = [], []
    solve = oracle._solve_radii

    def psi(r):
        if isinstance(r, np.ndarray):
            sizes.append(r.size)
        return plummer.psi(r)

    def counted(p, oc, *scan):
        solves.append(oc)
        return solve(p, oc, *scan)

    monkeypatch.setattr(oracle, "_solve_radii", counted)
    pot = RadialPotential(psi=psi, dpsi=plummer.dpsi)
    oc = OrbitConstants(-0.4, 0.5)
    for quad in (quad_radial_period, quad_apsidal_angle, quad_radial_action):
        quad(pot, oc)
    integrate_orbit(pot, oc, 5.0)
    assert solves == [oc]
    # The scan's 600 points, one run of the midpoint rule's groups of
    # levels, and the ODE's 200 samples.
    assert sizes[0] == 600 and sizes[-1] == 200
    assert sizes[1:-1] == GROUP_SIZES[:len(sizes) - 2]


def _reference_nodes(n, r_p, r_a):
    """The n radii and 1 + tan(v)^2, cos(u)^2, sin(u)^2 of one level."""
    c = (r_p / r_a) ** 0.25
    t = np.array([math.tan((k + 0.5) * (0.5 * math.pi / n)) for k in range(n)])
    ct2 = (c * t) * (c * t)
    cos2 = 1.0 / (1.0 + ct2)
    sin2 = ct2 * cos2
    return r_p + (r_a - r_p) * sin2, 1.0 + t * t, cos2, sin2


def _reference_integrals(p, oc, epsrel, r_p, r_a):
    """The midpoint rule one level at a time, each level its own psi call, as
    the oracle summed it before its levels were grouped."""
    span = r_a - r_p
    if span <= oracle._CIRCULAR_SPAN * r_a:
        return oracle._epicyclic(p, oc, 0.5 * (r_p + r_a))
    c = (r_p / r_a) ** 0.25
    out, prev, evaluations, n = [None] * 3, None, 0, 8
    reason = "no two levels of the midpoint rule up to 4096 nodes agree"
    while None in out and n <= 4096:
        r, tt1, cos2, sin2 = _reference_nodes(n, r_p, r_a)
        kin = oc.xi - 0.5 * (oc.lam * oc.lam) / (r * r) - oracle._psi_array(p, r)
        evaluations += n
        if not np.all(kin > 0.0):
            reason = f"radial kinetic term <= 0 at a node of the {n}-point midpoint rule"
            break
        root = np.sqrt(kin / ((span * sin2) * (span * cos2)))
        w = (math.sqrt(2.0) * math.pi * c / n) * tt1 * cos2
        values = [float(np.sum(w / root)), oc.lam * float(np.sum(w / (r * r * root))),
                  span * span / math.pi * float(np.sum(w * sin2 * cos2 * root))]
        for k, v in enumerate(values):
            if out[k] is None and prev and abs(v - prev[k]) <= epsrel * abs(v):
                out[k] = oracle.QuadratureResult(
                    value=v, error_estimate=abs(v - prev[k]), evaluations=evaluations)
        prev, n = values, 2 * n
    return tuple(reason if v is None else v for v in out)


def _outcome(call):
    try:
        return repr(call())  # repr: every bit
    except Exception as exc:
        return type(exc), str(exc)


def _integrals_or_error(integrals, p, oc, epsrel, r_p, r_a):
    return _outcome(lambda: integrals(p, oc, epsrel, r_p, r_a))


def test_grouped_levels_sum_as_one_level_at_a_time():
    """Every value, error estimate, evaluation count and refusal reason of the
    grouped levels is the one-level-at-a-time loop's, to the bit."""
    bases = [BASE_POTENTIALS[k] for k in
             ("kepler", "henon", "bounded", "hollowed", "harmonic")]
    gauge = potential.GaugeTerm(0.1, 0.2)
    outcomes = set()
    for params in bases + [potential.apply_gauge(b, gauge) for b in bases]:
        p = as_potential(params)
        for lam in (0.05, 0.5, 5.0):
            for frac in (1e-9, 1e-3, 0.5, 1.0 - 1e-6):
                oc = OrbitConstants(analytic.feasible_energy(params, lam, frac), lam)
                try:
                    radii = turning_radii(params, oc)
                except NoBoundOrbit:
                    continue
                for epsrel in (1e-11, 1e-14, 1e-16):
                    got = _integrals_or_error(_one_orbit, p, oc,
                                              epsrel, *radii)
                    assert got == _integrals_or_error(_reference_integrals, p, oc,
                                                      epsrel, *radii), (params, oc)
                    outcomes.update(re.findall(
                        r"evaluations=\d+|radial kinetic|no two levels", got))
    # The grid reaches levels in several groups, and both refusals.
    assert {"evaluations=56", "evaluations=248", "evaluations=1016",
            "evaluations=8184", "radial kinetic", "no two levels"} <= outcomes


def test_a_group_whose_psi_raises_is_redone_level_by_level():
    """A psi undefined at the 256-node level's nodes only: an orbit that
    settles by 128 nodes returns as before, one that needs 256 raises."""
    plummer = plummer_potential()
    for oc, settles in ((OrbitConstants(-0.02, 0.05), True),
                        (OrbitConstants(-0.01, 0.02), False)):
        r_p, r_a = turning_radii(plummer, oc)
        bad = _reference_nodes(256, r_p, r_a)[0]

        def psi(r):
            if np.isin(r, bad).any():
                raise OutOfDomain("psi undefined at a node of the 256-point rule")
            return plummer.psi(r)

        pot = RadialPotential(psi=psi, dpsi=plummer.dpsi)
        got = _integrals_or_error(_one_orbit, pot, oc, 1e-11, r_p, r_a)
        assert got == _integrals_or_error(_reference_integrals, pot, oc, 1e-11,
                                          r_p, r_a)
        # The unraising Plummer sphere settles at 128 nodes, or needs 256.
        plain = _one_orbit(plummer, oc, 1e-11, r_p, r_a)
        assert max(res.evaluations for res in plain) == (248 if settles else 504)
        assert got == (repr(plain) if settles else (OutOfDomain, (
            "psi undefined at a node of the 256-point rule")))


def test_a_float_only_psi_sums_as_one_level_at_a_time(henon):
    """A psi that takes floats only is called point by point, on the nodes of
    whole groups: up to 120 calls where a level at a time made 24."""
    calls = []

    def psi(r):
        calls.append(r)
        return potential.psi_value(henon, float(r))

    pot = RadialPotential(psi=psi, dpsi=lambda r: potential.psi_derivative(henon, r),
                          r_bounds=potential.radial_domain(henon))
    compared = 0
    for lam in (0.05, 0.5, 5.0):
        for frac in (1e-3, 0.5, 1.0 - 1e-6):
            oc = OrbitConstants(analytic.feasible_energy(henon, lam, frac), lam)
            radii = turning_radii(henon, oc)
            calls.clear()
            got = _integrals_or_error(_one_orbit, pot, oc, 1e-11,
                                      *radii)
            # Each group's array call raised TypeError before its float calls.
            floats = sum(not isinstance(r, np.ndarray) for r in calls)
            assert got == _integrals_or_error(_reference_integrals, pot, oc, 1e-11,
                                              *radii)
            assert floats in itertools.accumulate(GROUP_SIZES)
            compared += 1
    assert compared == 9
    # An orbit that settles at 16 nodes.
    oc = OrbitConstants(analytic.feasible_energy(henon, 0.5, 0.5), 0.5)
    calls.clear()
    res = _one_orbit(pot, oc, 1e-5, *turning_radii(henon, oc))
    assert max(r.evaluations for r in res) == 24 and len(calls) == 1 + 120


EDGE_LAMBDAS = [0.05 * 100.0 ** (i / 3) for i in range(4)]
EDGE_FRACTIONS = [1e-9, 1e-6, 1e-3, 0.5, 1.0 - 1e-3, 1.0 - 1e-6]


def _oracle_outcomes(params, oc, fresh):
    out = []
    for call in (turning_radii, quad_radial_period, quad_apsidal_angle,
                 quad_radial_action):
        if fresh:
            oracle._last_orbit.cache_clear()
        try:
            out.append(call(params, oc))
        except Exception as exc:  # compared by class below
            out.append(type(exc))
    return out


def test_kept_turning_points_change_no_result():
    """With the last solve kept, every value and refusal is a fresh solve's."""
    bases = [BASE_POTENTIALS[k] for k in
             ("kepler", "henon", "bounded", "hollowed", "harmonic")]
    gauge = potential.GaugeTerm(0.1, 0.2)
    refused = 0
    for params in bases + [potential.apply_gauge(b, gauge) for b in bases]:
        for lam in EDGE_LAMBDAS:
            for frac in EDGE_FRACTIONS:
                oc = OrbitConstants(analytic.feasible_energy(params, lam, frac), lam)
                kept = _oracle_outcomes(params, oc, fresh=False)
                assert kept == _oracle_outcomes(params, oc, fresh=True), (params, oc)
                refused += sum(isinstance(v, type) for v in kept)
    # The grid's edges reach the refusals too.
    assert refused > 0


def _orbit_outcomes(orbit, T):
    """The radii, the three integrals and the ODE's state one period on, of
    one Orbit."""
    parts = (orbit.radial_period, orbit.apsidal_angle, orbit.radial_action)
    return {"radii": _outcome(lambda: (orbit.r_p, orbit.r_a)),
            **{k: _outcome(part) for k, part in enumerate(parts)},
            "ode": _outcome(lambda: orbit.integrate(T, 1e-11, [T]))}


def _wrapper_outcomes(params, oc, T):
    """The same, asked of the one-orbit wrappers."""
    quads = (quad_radial_period, quad_apsidal_angle, quad_radial_action)
    return {"radii": _outcome(lambda: turning_radii(params, oc)),
            **{k: _outcome(lambda: quad(params, oc)) for k, quad in enumerate(quads)},
            "ode": _outcome(lambda: integrate_orbit(params, oc, T, 1e-11, [T]))}


def test_an_orbit_gives_the_wrappers_results():
    """Every value, error estimate, evaluation count and refusal of a held
    Orbit is the wrappers', to the bit: orbits asked for in the order A, B, A."""
    bases = [BASE_POTENTIALS[k] for k in
             ("kepler", "henon", "bounded", "hollowed", "harmonic")]
    gauge = potential.GaugeTerm(0.1, 0.2)
    outcomes = set()
    for params in bases + [potential.apply_gauge(b, gauge) for b in bases]:
        ocs = [OrbitConstants(analytic.feasible_energy(params, lam, frac), lam)
               for lam in EDGE_LAMBDAS for frac in EDGE_FRACTIONS]
        held = {}
        for oc in (oc for a, b in zip(ocs[::2], ocs[1::2]) for oc in (a, b, a)):
            try:
                T = orbit_elements(params, oc).T
            except NoBoundOrbit:
                T = 1.0
            if oc not in held:
                try:
                    held[oc] = solve_orbit(params, oc)
                except Exception as exc:  # compared by class and message below
                    held[oc] = exc
            orbit = held[oc]
            ref = _wrapper_outcomes(params, oc, T)
            got = (_orbit_outcomes(orbit, T) if isinstance(orbit, Orbit)
                   else dict.fromkeys(ref, (type(orbit), str(orbit))))
            assert got == ref, (params, oc)
            outcomes.update(v[0].__name__ if isinstance(v, tuple) else "value"
                            for v in got.values())
    # The grid reaches values and the quadrature's and the ODE's refusals.
    assert {"value", "ToleranceNotMet", "StepSizeUnderflow"} <= outcomes


def _solved(orbit):
    """The radii and the three integrals of a solved Orbit, or its refusal."""
    if isinstance(orbit, Exception):
        return type(orbit), str(orbit)
    return ((orbit.r_p, orbit.r_a), *(_outcome(part) for part in (
        orbit.radial_period, orbit.apsidal_angle, orbit.radial_action)))


def _solved_alone(params, oc):
    try:
        return _solved(solve_orbit(params, oc))
    except Exception as exc:  # compared by class and message
        return _solved(exc)


def _batched(p, orbits):
    """The integrals of each orbit (oc, r_p, r_a), summed in batches of 1, of
    2 and of all, as _outcome gives them."""
    out = []
    for size in (1, 2, len(orbits)):
        got = [parts for i in range(0, len(orbits), size)
               for parts in oracle._orbit_integrals(p, orbits[i:i + size])]
        out.append([(type(g[0]), str(g[0])) if g[0] is g[1] is g[2] else repr(tuple(
            str(v) if isinstance(v, ToleranceNotMet) else v for v in g)) for g in got])
    return out


def test_batched_orbits_equal_one_at_a_time():
    """Every radius, value, error estimate, evaluation count and refusal of
    an orbit solved and summed in a batch is its own, solved alone and summed
    one level at a time, to the bit: batches of 1, of 2 and of all."""
    bases = [BASE_POTENTIALS[k] for k in
             ("kepler", "henon", "bounded", "hollowed", "harmonic")]
    gauge = potential.GaugeTerm(0.1, 0.2)
    outcomes = set()
    for params in bases + [potential.apply_gauge(b, gauge) for b in bases]:
        p = as_potential(params)
        # The edge-judge grid, and the circular orbits of the epicyclic limit.
        ocs = [OrbitConstants(analytic.feasible_energy(params, lam, frac), lam)
               for lam in EDGE_LAMBDAS for frac in EDGE_FRACTIONS]
        ocs += [OrbitConstants(analytic.circular_energy(params, lam), lam)
                for lam in EDGE_LAMBDAS]
        solved = oracle.solve_orbits(params, ocs)
        assert [_solved(o) for o in solved] == [_solved_alone(params, oc)
                                                 for oc in ocs], params
        orbits = [(o.oc, o.r_p, o.r_a) for o in solved if isinstance(o, Orbit)]
        alone = [_integrals_or_error(_reference_integrals, p, *orbit[:1], 1e-11,
                                     *orbit[1:]) for orbit in orbits]
        assert _batched(p, orbits) == [alone] * 3, params
        outcomes.update(re.findall(r"evaluations=5\)|radial kinetic|no two levels",
                                   str(alone)))
    assert {"evaluations=5)", "radial kinetic", "no two levels"} <= outcomes

    # A psi that raises on one orbit's nodes of the 256-point level: that
    # orbit alone is refused, and the batch's others keep their values.
    plummer = plummer_potential()
    ocs = [OrbitConstants(-0.02, 0.05), OrbitConstants(-0.01, 0.02),
           OrbitConstants(-0.4, 0.5)]
    orbits = [(oc, *turning_radii(plummer, oc)) for oc in ocs]
    bad = _reference_nodes(256, *orbits[1][1:])[0]

    def psi(r):
        if np.isin(r, bad).any():
            raise OutOfDomain("psi undefined at a node of the 256-point rule")
        return plummer.psi(r)

    pot = RadialPotential(psi=psi, dpsi=plummer.dpsi)
    alone = [_integrals_or_error(_reference_integrals, pot, oc, 1e-11, *radii)
             for oc, *radii in orbits]
    assert [isinstance(a, tuple) for a in alone] == [False, True, False]
    assert _batched(pot, orbits) == [alone] * 3

    # A psi that takes floats only is called on the raveled nodes.
    henon = BASE_POTENTIALS["henon"]
    float_only = RadialPotential(
        psi=lambda r: potential.psi_value(henon, float(r)),
        dpsi=lambda r: potential.psi_derivative(henon, r),
        r_bounds=potential.radial_domain(henon))
    ocs = [OrbitConstants(analytic.feasible_energy(henon, lam, frac), lam)
           for lam in (0.05, 0.5, 5.0) for frac in (1e-3, 0.5, 1.0 - 1e-6)]
    orbits = [(oc, *turning_radii(henon, oc)) for oc in ocs]
    alone = [_integrals_or_error(_reference_integrals, float_only, oc, 1e-11, *radii)
             for oc, *radii in orbits]
    assert _batched(float_only, orbits) == [alone] * 3


class _UnhashablePsi:
    __hash__ = None

    def __init__(self, params):
        self.params = params

    def __call__(self, r):
        return potential.psi_value(self.params, r)


def test_generic_potential_with_unhashable_psi(henon):
    pot = RadialPotential(psi=_UnhashablePsi(henon),
                          dpsi=lambda r: potential.psi_derivative(henon, r),
                          r_bounds=potential.radial_domain(henon))
    with pytest.raises(TypeError):
        hash(pot.psi)
    oc = OrbitConstants(-0.12, 1.0)
    assert turning_radii(pot, oc) == turning_radii(henon, oc)
    assert quad_radial_period(pot, oc) == quad_radial_period(henon, oc)
    assert integrate_orbit(pot, oc, 5.0) == integrate_orbit(henon, oc, 5.0)


def test_tracer_still_wraps_the_oracle_and_psi():
    # The benchmark's tracer wraps plain functions only; a cache object in
    # place of turning_radii would drop out of its per-layer counts.
    from perfbench.tracer import public_functions

    assert {"solve_orbit", "turning_radii", "quad_radial_period", "quad_apsidal_angle",
            "quad_radial_action", "integrate_orbit"} <= set(
        public_functions("oracle", oracle))
    assert {"psi_value", "psi_derivative"} <= set(
        public_functions("potential", potential))


@pytest.mark.parametrize("params, xs", [
    (potential.from_henon(1.0, 1.0), (1.0, 2.0)),
    (potential.from_kepler(1.0), (1.0, 2.0)),
    (potential.from_hollowed(1.0, 1.0), (8.0, 16.0)),
    (potential.apply_gauge(potential.from_henon(1.0, 1.0),
                           potential.GaugeTerm(0.1, 0.2)), (1.0, 2.0)),
], ids=["henon", "kepler", "hollowed", "henon-gauged"])
def test_wrapped_y_derivatives_match_closed_form(params, xs):
    # Finite differences of Y(x) = x psi(sqrt(x/2)), Y''' with its sign.
    wrapped = as_potential(params)
    for x in xs:
        assert wrapped.y_derivatives(x) == pytest.approx(
            potential.y_derivatives(params, x, 4), rel=1e-3), x


@pytest.mark.parametrize("call", [
    lambda: isochrony_spread(potential.from_kepler(1.0), -0.5, []),
    lambda: bertrand_check(potential.from_kepler(1.0), []),
    lambda: potential.y_derivatives(potential.from_kepler(1.0), 2.0, 0),
    lambda: potential.y_derivatives(potential.from_kepler(1.0), 2.0, 5),
    # Over one Lambda a spread is 0 and a Q fit exact, whatever the potential.
    lambda: isochrony_spread(plummer_potential(1.0, 1.0), -0.4, [0.5]),
    lambda: bertrand_check(potential.from_henon(1.0, 1.0), [1.0]),
], ids=["isochrony_spread-empty", "bertrand_check-empty",
        "y_derivatives-order0", "y_derivatives-order5",
        "isochrony_spread-one", "bertrand_check-one"])
def test_bad_arguments_raise_invalid_params(call):
    with pytest.raises(InvalidParams):
        call()


def test_integrate_orbit_circular(kepler):
    oc = OrbitConstants(-0.5, 1.0)
    states = integrate_orbit(kepler, oc, 2 * math.pi, reltol=1e-11)
    for s in states:
        assert s.r == pytest.approx(1.0, abs=1e-9)
    assert states[-1].theta == pytest.approx(2 * math.pi, rel=1e-9)


def test_integrate_orbit_kepler_golden(kepler):
    states = integrate_orbit(kepler, GOLDEN, 2 * math.pi, reltol=1e-11)
    last = states[-1]
    assert last.r == pytest.approx(0.4, abs=1e-7)
    assert last.theta == pytest.approx(2 * math.pi, abs=1e-7)


def test_integrate_orbit_henon_period(henon):
    el = orbit_elements(henon, OrbitConstants(-0.25, 0.5))
    states = integrate_orbit(henon, OrbitConstants(-0.25, 0.5), el.T,
                             reltol=1e-11)
    assert states[-1].r == pytest.approx(el.r_p, abs=1e-6 * el.r_a)


def test_conservation_over_ten_periods(henon):
    oc = OrbitConstants(-0.12, 1.0)
    el = orbit_elements(henon, oc)
    states = integrate_orbit(henon, oc, 10.0 * el.T, reltol=1e-10)
    assert max(s.energy_drift for s in states) <= 1e-9


def test_integrated_extrema_match_turning_points(bounded):
    oc = OrbitConstants(0.95, 0.5)
    el = orbit_elements(bounded, oc)
    states = integrate_orbit(bounded, oc, el.T, reltol=1e-11,
                             t_eval=np.linspace(0.0, el.T, 2001))
    rs = [s.r for s in states]
    assert min(rs) == pytest.approx(el.r_p, rel=1e-6)
    assert max(rs) == pytest.approx(el.r_a, rel=1e-6)


def test_isochrony_spread_parabolae(kepler, henon):
    lam_grid = np.linspace(0.2, 1.2, 10)
    assert isochrony_spread(henon, -0.12, lam_grid) <= 1e-8
    assert isochrony_spread(kepler, -0.5, np.linspace(0.3, 0.9, 8)) <= 1e-8


def test_isochrony_spread_plummer_negative_control():
    plummer = plummer_potential(mu=1.0, b=1.0)
    spread = isochrony_spread(plummer, -0.4, np.linspace(0.3, 0.75, 10))
    assert spread > 1e-2


def test_generic_potential_handle():
    plummer = plummer_potential(mu=1.0, b=1.0)
    p = as_potential(plummer)
    assert p.psi(0.0) == pytest.approx(-1.0)
    r_p, r_a = turning_radii(plummer, OrbitConstants(-0.4, 0.5))
    assert 0.0 < r_p < r_a
    states = integrate_orbit(plummer, OrbitConstants(-0.4, 0.5), 10.0,
                             reltol=1e-10)
    assert max(s.energy_drift for s in states) <= 1e-9


def test_generic_handle_without_derivative():
    # A bare psi callable falls back to finite-difference forces; the
    # quadratures never need psi', so they keep full accuracy.
    bare = RadialPotential(psi=lambda r: -1.0 / math.sqrt(r * r + 1.0))
    oc = OrbitConstants(-0.4, 0.5)
    ref = quad_radial_period(plummer_potential(1.0, 1.0), oc).value
    assert quad_radial_period(bare, oc).value == pytest.approx(ref, rel=1e-10)
    # A psi that branches on r also takes floats only.
    branchy = RadialPotential(
        psi=lambda r: -1.0 / math.sqrt(r * r + 1.0) if r > 0.0 else -1.0)
    assert turning_radii(branchy, oc) == turning_radii(plummer_potential(), oc)
    states = integrate_orbit(bare, oc, 5.0, reltol=1e-8)
    assert states[-1].r > 0.0


def test_generic_derivatives_keep_the_hand_written_formulas():
    # oracle.difference against the formulas it replaced, to the bit.
    plummer = plummer_potential()
    y = plummer.y_value
    for x in (0.5, 3.0):
        h1, h3, h4 = (step * max(x, 1.0) for step in (1e-4, 2e-3, 1e-2))
        assert plummer.y_derivatives(x) == [
            (y(x - 2 * h1) - 8 * y(x - h1) + 8 * y(x + h1) - y(x + 2 * h1))
            / (12 * h1),
            (-y(x - 2 * h1) + 16 * y(x - h1) - 30 * y(x) + 16 * y(x + h1)
             - y(x + 2 * h1)) / (12 * h1**2),
            (-y(x - 2 * h3) + 2 * y(x - h3) - 2 * y(x + h3) + y(x + 2 * h3))
            / (2 * h3**3),
            (y(x - 2 * h4) - 4 * y(x - h4) + 6 * y(x) - 4 * y(x + h4)
             + y(x + 2 * h4)) / h4**4,
        ], x
    bare = RadialPotential(psi=plummer.psi)
    for r in (0.3, 2.0):
        h = 1e-6 * max(r, 1.0)
        assert bare.force_term(r) == (
            (plummer.psi(r + h) - plummer.psi(r - h)) / (2.0 * h)), r


@pytest.mark.parametrize("psi, r_c", [
    (math.sqrt, 2.0 ** 0.4),  # Lambda^2 / r^3 = 1 / (2 sqrt r)
    (math.log, 1.0),          # Lambda^2 / r^3 = 1 / r
], ids=["sqrt", "log"])
def test_psi_only_stencil_stays_inside_the_domain(psi, r_c):
    # The central rule's step 1e-6 max(|r|, 1) crossed r = 0 below r = 1e-6,
    # where the circular-radius scan starts: both leaked a bare ValueError.
    bare = RadialPotential(psi=psi)
    assert bare.circular_radius(1.0) == pytest.approx(r_c, rel=1e-9)
    assert birkhoff.circular_abscissa(bare, 1.0) == pytest.approx(
        2.0 * r_c * r_c, rel=1e-9)
    # Half the distance to r = 0 is a coarse step, but a defined one.
    assert bare.force_term(1e-8) == pytest.approx(
        0.5 / math.sqrt(1e-8) if psi is math.sqrt else 1e8, rel=0.1)
    with pytest.raises(OutOfDomain):
        bare.force_term(0.0)


@pytest.mark.parametrize("t_end, reltol, t_eval", [
    (5.0, 1e-10, [0.0, 6.0]),
    (5.0, 1e-10, [-1.0, 1.0]),
    (5.0, 1e-10, [2.0, 1.0]),
    (5.0, 1e-10, [1.0, 1.0]),
    (5.0, 1e-10, [math.nan]),
    (5.0, 1e-10, []),
    (0.0, 1e-10, None),
    (-5.0, 1e-10, None),
    (math.nan, 1e-10, None),
    (math.inf, 1e-10, None),
    (5.0, math.nan, None),
    (5.0, 0.0, None),
    (5.0, 1e-15, None),
    (5.0, math.inf, None),
], ids=["t_eval-beyond", "t_eval-negative", "t_eval-unsorted",
        "t_eval-repeated", "t_eval-nan", "t_eval-empty", "t_end-zero",
        "t_end-backward", "t_end-nan", "t_end-inf", "reltol-nan",
        "reltol-zero", "reltol-below-floor", "reltol-inf"])
def test_integrate_orbit_refuses_bad_inputs(henon, t_end, reltol, t_eval):
    with pytest.raises(InvalidParams):
        integrate_orbit(henon, OrbitConstants(-0.12, 1.0), t_end, reltol=reltol,
                        t_eval=t_eval)


def _solve_ivp(pot, oc, t_end, reltol, t_eval):
    """scipy's solve_ivp with DOP853 on the oracle's equations and tolerances."""
    from scipy.integrate import solve_ivp

    p = as_potential(pot)
    r_p, r_a = turning_radii(pot, oc)
    lam2 = oc.lam * oc.lam

    def rhs(t, y):
        r = float(y[0])
        return [y[1], lam2 / r**3 - p.force_term(r), oc.lam / (r * r)]

    vmax = math.sqrt(max(2.0 * (oc.xi - p.psi(r_a) - 0.5 * lam2 / r_a**2), 1e-12))
    sol = solve_ivp(rhs, (0.0, t_end), [r_p, 0.0, 0.0], method="DOP853",
                    rtol=reltol, atol=1e-2 * reltol * max(r_a, vmax, 1.0),
                    t_eval=t_eval)
    assert sol.success
    return sol


@pytest.mark.parametrize("outputs", [None, 101], ids=["default", "101"])
def test_integrate_orbit_steps_as_solve_ivp(all_classes, outputs):
    # The float stepper takes solve_ivp's DOP853 steps: the same number of
    # right-hand-side calls, and the same states up to the order of its sums,
    # which in scipy depends on the BLAS library.
    henon_gauged = potential.apply_gauge(potential.from_henon(1.0, 1.0),
                                         potential.GaugeTerm(0.1, 0.2))
    orbits = [(pot, oc, orbit_elements(pot, oc).T) for _, pot, oc in all_classes]
    oc = OrbitConstants(analytic.feasible_energy(henon_gauged, 1.0, 0.6), 1.0)
    orbits.append((henon_gauged, oc, orbit_elements(henon_gauged, oc).T))
    orbits.append((plummer_potential(), OrbitConstants(-0.4, 0.5), 10.0))
    for pot, oc, t_end in orbits:
        base = as_potential(pot)
        calls = []

        def dpsi(r, base=base):
            calls.append(r)
            return base.dpsi(r)

        counted = RadialPotential(psi=base.psi, dpsi=dpsi, r_bounds=base.r_bounds)
        t_eval = None if outputs is None else np.linspace(0.0, t_end, outputs)
        states = integrate_orbit(counted, oc, t_end, reltol=1e-11, t_eval=t_eval)
        ref = _solve_ivp(pot, oc, t_end, 1e-11,
                         np.linspace(0.0, t_end, outputs or 200))
        assert len(calls) == ref.nfev, pot
        assert [s.t for s in states] == ref.t.tolist(), pot
        got = np.array([(s.r, s.rdot, s.theta) for s in states])
        r_a = turning_radii(pot, oc)[1]
        scale = [r_a, *np.abs(ref.y[1:]).max(axis=1)]
        assert np.all(np.abs(got - ref.y.T) <= 1e-12 * np.array(scale)), pot
        again = integrate_orbit(pot, oc, t_end, reltol=1e-11, t_eval=t_eval)
        assert again == states, pot


def test_literal_tableau_is_scipys():
    # Every nonzero entry of scipy's DOP853 tableau, bit for bit, and no more,
    # row by row: the stepper unpacks each table in that order.
    from scipy.integrate import DOP853

    def nonzero(rows, first=0):
        return {(i, j): float(a) for i, row in enumerate(rows, first)
                for j, a in enumerate(row) if a != 0.0}

    assert oracle._A == nonzero(DOP853.A)
    assert oracle._A_EXTRA == nonzero(DOP853.A_EXTRA, DOP853.n_stages + 1)
    assert oracle._D == nonzero(DOP853.D)
    for literal, weights in ((oracle._B, DOP853.B), (oracle._E5, DOP853.E5),
                             (oracle._E3, DOP853.E3)):
        assert literal == {j: float(w) for j, w in enumerate(weights) if w != 0.0}
    for table in (oracle._A, oracle._A_EXTRA, oracle._B, oracle._E5, oracle._E3,
                  oracle._D):
        assert list(table) == sorted(table)


# float.hex of (r, rdot, theta) at t_eval = [T], and the sha256 of the float.hex
# of the 101 states at np.linspace(0, T, 101), rtol 1e-11.  The stepper's sums
# run in a fixed order on Python floats, so these hold on every host and
# Python version; a reordered sum or a wrong coefficient moves them.
ODE_BITS = {
    "kepler": (("0x1.9999999999cc5p-2", "0x1.1432ca0000000p-34",
                "0x1.921fb5445c01bp+2"),
               "f4a5a8aec6c6cdca29da3ba200f477c230151f6e7cb7a66fc6c7aec51387bdcf"),
    "henon": (("0x1.6e4ecc1f267fep+0", "0x1.ed1a700000000p-36",
               "0x1.22fac456b6c0fp+2"),
              "5df4cb798559937da864962fe480a1deb0e7da06c740ed771700fb2be1d666a2"),
    "bounded": (("0x1.1cdae1f8a5095p-1", "-0x1.c107000000000p-40",
                 "0x1.309831059b45fp+1"),
                "3d423877715275f2ad5b888c857ab260c2a83a141f094a6f73a56fde8a4ed417"),
    "hollowed": (("0x1.4e9c4a79d647ap+0", "0x1.e8c8b00000000p-37",
                  "0x1.c98209c304d72p+1"),
                 "37b816ac86a5f243046aa5510986546d9dac368c49fa5389eae533e4fce8d94c"),
    "harmonic": (("0x1.d3d08d69abe96p-2", "-0x1.bf79400000000p-36",
                  "0x1.921fb5443da78p+1"),
                 "25366143591d3645f6b3f16654074e629d1cfefc597e826094d74f9b49ef16c2"),
    "henon-gauged": (("0x1.6d7ee72b0b65fp+0", "0x1.8805810000000p-33",
                      "0x1.0fb70f7672544p+2"),
                     "f6642c8261c4ab72cac86cf6bbeffe26027393845edb5aad6f4dd3264996dfcd"),
    "plummer": (("0x1.166966f4ace74p-1", "0x1.560141f895e34p-2",
                 "0x1.13fe0884bf829p+2"),
                "cb3bfbbc9502411a3379b6563afb31ca146892514597bfb751abcbe32a7cd1fe"),
}


def test_ode_states_keep_their_bits(all_classes):
    henon_gauged = potential.apply_gauge(potential.from_henon(1.0, 1.0),
                                         potential.GaugeTerm(0.1, 0.2))
    orbits = [(name, pot, oc, orbit_elements(pot, oc).T)
              for name, pot, oc in all_classes]
    oc = OrbitConstants(analytic.feasible_energy(henon_gauged, 1.0, 0.6), 1.0)
    orbits.append(("henon-gauged", henon_gauged, oc,
                   orbit_elements(henon_gauged, oc).T))
    orbits.append(("plummer", plummer_potential(), OrbitConstants(-0.4, 0.5), 10.0))
    assert [name for name, *_ in orbits] == list(ODE_BITS)

    def bits(states):
        return [(s.r.hex(), s.rdot.hex(), s.theta.hex()) for s in states]

    for name, pot, oc, T in orbits:
        end, digest = ODE_BITS[name]
        assert bits(integrate_orbit(pot, oc, T, reltol=1e-11, t_eval=[T])) == [end]
        states = integrate_orbit(pot, oc, T, reltol=1e-11,
                                 t_eval=np.linspace(0.0, T, 101))
        assert hashlib.sha256(repr(bits(states)).encode()).hexdigest() == digest, name


@pytest.mark.parametrize("params, lam, xi", [
    # Apoastron 2e-10 inside the bounded family's wall: 130 853 right-hand
    # side calls and 1.4 s to return, without the step budget.
    (potential.from_bounded(1.0, 1.0), 5.0, 13.499979427961884),
    # Lambda = 1e-4: 10 846 steps to an endpoint 1.1e-5 off.
    (potential.from_henon(1.0, 1.0), 1e-4,
     analytic.feasible_energy(potential.from_henon(1.0, 1.0), 1e-4, 0.5)),
], ids=["bounded-near-wall", "henon-tiny-lambda"])
def test_step_budget_refuses_a_crawl(params, lam, xi):
    base = as_potential(params)
    calls = []

    def dpsi(r):
        calls.append(r)
        return base.dpsi(r)

    counted = RadialPotential(psi=base.psi, dpsi=dpsi, r_bounds=base.r_bounds)
    oc = OrbitConstants(xi, lam)
    T = orbit_elements(params, oc).T
    with pytest.raises(StepSizeUnderflow, match="2000 steps"):
        integrate_orbit(counted, oc, T, reltol=1e-11, t_eval=[T])
    assert len(calls) < 40_000


def test_step_budget_is_per_output_interval(bounded):
    # 2424 steps to one period: refused with one output, while 101 outputs
    # split the same steps into intervals within the budget.
    oc = OrbitConstants(analytic.feasible_energy(bounded, 1e-4, 1e-6), 1e-4)
    el = orbit_elements(bounded, oc)
    with pytest.raises(StepSizeUnderflow):
        integrate_orbit(bounded, oc, el.T, reltol=1e-11, t_eval=[el.T])
    states = integrate_orbit(bounded, oc, el.T, reltol=1e-11,
                             t_eval=np.linspace(0.0, el.T, 101))
    assert states[-1].r == pytest.approx(el.r_p, abs=1e-6 * el.r_a)


@pytest.mark.parametrize("r_bounds", [(0.0, 1.5), (0.8, math.inf)],
                         ids=["outer-wall", "inner-wall"])
def test_a_wall_inside_the_orbit_raises_domain_exit(r_bounds):
    # The Plummer orbit spans r = 0.50 .. 2.11; the scan would find no
    # turning point inside the walls, so it is handed the true ones.
    plummer = plummer_potential()
    oc = OrbitConstants(-0.4, 0.5)
    orbit = solve_orbit(plummer, oc)
    walled = RadialPotential(psi=plummer.psi, dpsi=plummer.dpsi, r_bounds=r_bounds)
    with pytest.raises(DomainExit):
        dataclasses.replace(orbit, pot=walled).integrate(10.0)
