import math

import numpy as np
import pytest

from isochrone import analytic, potential
from isochrone.analytic import OrbitConstants, orbit_elements
from isochrone.birkhoff import bertrand_check
from isochrone.errors import InvalidParams, NoBoundOrbit, ToleranceNotMet
from isochrone.oracle import (
    RadialPotential,
    as_potential,
    integrate_orbit,
    isochrony_spread,
    plummer_potential,
    quad_apsidal_angle,
    quad_radial_action,
    quad_radial_period,
    turning_radii,
)

from conftest import BASE_POTENTIALS

GOLDEN = OrbitConstants(-0.5, 0.8)


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


def test_quad_rejects_unbound(henon):
    with pytest.raises(NoBoundOrbit):
        quad_radial_period(henon, OrbitConstants(-0.25, 1.0))


def test_quad_near_circular_raises_tolerance_not_met(kepler):
    # QUADPACK gives up on this near-circular integrand and reports it with
    # an extra warning message in its return value.
    oc = OrbitConstants(analytic.feasible_energy(kepler, 1.0, 1e-9), 1.0)
    for quad_fn in (quad_radial_period, quad_apsidal_angle, quad_radial_action):
        with pytest.raises(ToleranceNotMet):
            quad_fn(kepler, oc)


def test_quad_negative_error_estimate_raises_tolerance_not_met(kepler):
    # At eccentricity 1e-3 QUADPACK returned T off by 5e-6 relative, with no
    # warning and an error estimate of about -1.8e129 T.
    oc = OrbitConstants(analytic.feasible_energy(kepler, 1.0, 1e-6), 1.0)
    with pytest.raises(ToleranceNotMet):
        quad_radial_period(kepler, oc)


def test_quad_convergence_with_tolerance(kepler, bounded):
    truth = 2 * math.pi
    loose = quad_radial_period(kepler, GOLDEN, epsrel=1e-5)
    tight = quad_radial_period(kepler, GOLDEN, epsrel=1e-12)
    assert abs(tight.value - truth) <= max(abs(loose.value - truth),
                                           1e-12 * truth)
    assert tight.error_estimate <= loose.error_estimate
    # On a harder integrand, tightening the tolerance must pay for accuracy
    # with evaluations in a controlled way, not blow up.
    oc = OrbitConstants(analytic.feasible_energy(bounded, 0.5, 0.9), 0.5)
    ref = analytic.radial_period(bounded, oc.xi)
    loose = quad_radial_period(bounded, oc, epsrel=1e-4)
    tight = quad_radial_period(bounded, oc, epsrel=1e-12)
    assert abs(tight.value - ref) <= max(abs(loose.value - ref), 1e-11 * ref)
    assert loose.evaluations <= tight.evaluations <= 256 * loose.evaluations


def test_turning_radii_match_analytic(all_classes):
    for name, params, oc in all_classes:
        r_p, r_a = turning_radii(params, oc)
        el = orbit_elements(params, oc)
        assert r_p == pytest.approx(el.r_p, rel=1e-10), name
        assert r_a == pytest.approx(el.r_a, rel=1e-10), name


def test_turning_radii_scan_is_one_array_call(henon, monkeypatch):
    calls = {"array": 0, "float": 0}
    psi_value = potential.psi_value

    def counted(params, r):
        calls["array" if isinstance(r, np.ndarray) else "float"] += 1
        return psi_value(params, r)

    monkeypatch.setattr(potential, "psi_value", counted)
    turning_radii(henon, OrbitConstants(-0.12, 1.0))
    # Scanned point by point, the 600-point grid alone took 600 float calls.
    assert calls["array"] == 1
    assert 0 < calls["float"] < 100


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
    assert max(s.lam_drift for s in states) <= 1e-12


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
