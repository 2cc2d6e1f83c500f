import math

import mpmath
import pytest

from isochrone import analytic, birkhoff
from isochrone.analytic import OrbitConstants
from isochrone.birkhoff import (
    Route,
    bertrand_check,
    circular_abscissa,
    frequency_invariants,
    invariants_from_period,
    invariants_from_potential,
    isochrone_theorem_check,
    third_law,
)
from isochrone.errors import IsochroneError, NoCircularOrbit
from isochrone.oracle import RadialPotential, plummer_potential
from isochrone.potential import (
    GaugeTerm,
    apply_gauge,
    from_henon,
    y_derivatives,
    y_value,
)

from conftest import gauged_potentials, half_action

LAM_GRID = [0.5, 0.8, 1.0, 1.3, 1.7]


def test_circular_abscissa_residual(all_classes):
    for _, params, _ in all_classes:
        for lam in LAM_GRID:
            x_c = circular_abscissa(params, lam)
            y = y_value(params, x_c)
            yp = y_derivatives(params, x_c, 1)[0]
            assert abs(x_c * yp - y - lam**2) <= 1e-12 * lam**2


def test_invariants_kepler_frozen(kepler):
    # Hand-derived at Lambda = 1 (x_c = 2): l = -1/2, b = 1, B = -3.
    inv = invariants_from_potential(kepler, 1.0)
    assert inv.route is Route.FROM_POTENTIAL
    assert inv.l == pytest.approx(-0.5, rel=1e-12)
    assert inv.b_inv == pytest.approx(1.0, rel=1e-12)
    assert inv.B_inv == pytest.approx(-3.0, rel=1e-11)
    inv2 = invariants_from_period(kepler, 1.0)
    assert inv2.route is Route.FROM_PERIOD
    assert inv2.b_inv == pytest.approx(1.0, rel=1e-12)


def test_invariants_harmonic_second_order_zero(harmonic):
    for lam in LAM_GRID:
        assert invariants_from_potential(harmonic, lam).B_inv == 0.0
        assert invariants_from_period(harmonic, lam).B_inv == 0.0


def test_parabola_second_invariant_reduces(henon):
    # For parabolae 3 Y2 Y4 = 5 Y3^2, so B collapses to 4 Y3 / Y2.
    for lam in LAM_GRID:
        x_c = circular_abscissa(henon, lam)
        _, y2, y3, _ = y_derivatives(henon, x_c, 4)
        inv = invariants_from_potential(henon, lam)
        assert inv.B_inv == pytest.approx(4.0 * y3 / y2, rel=1e-12)


def test_route_equality_all_classes(all_classes):
    for name, params, _ in all_classes:
        for lam in LAM_GRID:
            i1 = invariants_from_potential(params, lam)
            i2 = invariants_from_period(params, lam)
            assert abs(i1.l - i2.l) <= 1e-10, name
            assert abs(i1.b_inv - i2.b_inv) <= 1e-10 * i2.b_inv, name
            assert abs(i1.B_inv - i2.B_inv) <= 1e-6 * max(1.0, abs(i2.B_inv)), name


def test_circular_abscissa_lambda_derivative(all_classes, henon):
    # x_c' x_c Y2 = 2 Lambda and d xi_c / d Lambda = x_c' Y2: the chain rule
    # behind the exact Lambda-slopes of the Birkhoff invariants.
    pots = [(name, params) for name, params, _ in all_classes]
    pots.append(("gauged henon", apply_gauge(henon, GaugeTerm(0.1, 0.2))))
    for name, params in pots:
        for lam in (0.6, 1.0, 1.5):
            h = 1e-5 * lam
            xc_p = (circular_abscissa(params, lam + h)
                    - circular_abscissa(params, lam - h)) / (2 * h)
            x_c = circular_abscissa(params, lam)
            y2 = y_derivatives(params, x_c, 2)[1]
            assert xc_p * x_c * y2 == pytest.approx(2.0 * lam, rel=1e-8), (name, lam)
            xic_p = (analytic.circular_energy(params, lam + h)
                     - analytic.circular_energy(params, lam - h)) / (2 * h)
            assert xic_p == pytest.approx(xc_p * y2, rel=1e-8), (name, lam)


def test_theorem_check_isochrones(all_classes):
    for name, params, _ in all_classes:
        for chk in isochrone_theorem_check(params, [0.5, 1.0, 2.0]):
            assert chk.passed, (name, chk)
            assert chk.invariant_ode_residual <= 1e-6
            assert chk.potential_ode_residual <= 1e-6


def test_exact_slopes_keep_the_invariant_ode_at_rounding():
    # With the exact Lambda-slopes, residual (i) is residual (ii) computed a
    # second way, so on a parabola it stays at rounding; the Lambda-
    # difference of the invariants left up to 3.6e-7 here.
    for label, params in gauged_potentials():
        for lam in LAM_GRID:
            try:
                (chk,) = isochrone_theorem_check(params, [lam])
            except IsochroneError:
                continue
            assert chk.invariant_ode_residual <= 1e-13, (label, lam)


def test_theorem_check_harmonic_exact(harmonic):
    for chk in isochrone_theorem_check(harmonic, [0.5, 1.0]):
        assert chk.invariant_ode_residual == 0.0
        assert chk.potential_ode_residual == 0.0


def test_theorem_check_generic_power_law_fails():
    # psi = (2 r^2)^1.5, i.e. Y(x) = x^2.5.
    power = RadialPotential(psi=lambda r: (2 * r * r)**1.5)
    checks = isochrone_theorem_check(power, [0.5, 1.0, 2.0])
    for chk in checks:
        assert not chk.passed
        # Symbolically the relative defect is 1800/1125 = 1.6.
        assert chk.potential_ode_residual == pytest.approx(1.6, rel=1e-2)


def test_birkhoff_checks_reject_plummer():
    plummer = plummer_potential(1.0, 1.0)
    for chk in isochrone_theorem_check(plummer, [0.5, 1.0, 2.0]):
        assert not chk.passed, chk
    _, res = bertrand_check(plummer, LAM_GRID)
    assert res > 1e-3


def test_plummer_invariant_l_is_the_circular_energy():
    # Y'(x_c) = psi(r_c) + Lambda^2 / (2 r_c^2), with r_c the root of the
    # force balance Lambda^2 / r^3 = r / (r^2 + 1)^1.5 at Lambda = 1.
    plummer = plummer_potential(1.0, 1.0)
    with mpmath.workdps(40):
        r_c = mpmath.findroot(lambda r: (r * r + 1) ** 1.5 - r**4, 1.6)
        energy = float(-1 / mpmath.sqrt(r_c * r_c + 1) + 1 / (2 * r_c * r_c))
    assert abs(invariants_from_potential(plummer, 1.0).l - energy) <= 1e-8


def test_plummer_stencil_below_the_floor_is_a_typed_error():
    # At Lambda = 1e-3, x_c = 2e-3 and the 4th-order stencil reaches x < 0.
    with pytest.raises(IsochroneError):
        invariants_from_potential(plummer_potential(1.0, 1.0), 1e-3)


def test_bertrand_kepler_and_harmonic(kepler, harmonic):
    # dl/dLambda = 2 Lambda / x_c is exact: the Lambda-difference it replaced
    # left Kepler's Q off by 2e-8.
    q, res = bertrand_check(kepler, LAM_GRID)
    assert q == pytest.approx(1.0, abs=1e-14)
    assert res <= 1e-14
    q, res = bertrand_check(harmonic, LAM_GRID)
    assert q == pytest.approx(0.5, abs=1e-14)
    assert res <= 1e-14


def test_bertrand_henon_not_constant(henon):
    _, res = bertrand_check(henon, LAM_GRID)
    assert res > 1e-3


@pytest.mark.parametrize("check", [isochrone_theorem_check, bertrand_check])
@pytest.mark.parametrize("pot", [from_henon(1.0, 1.0), plummer_potential(1.0, 1.0)],
                         ids=["henon", "plummer"])
def test_each_lambda_solves_one_circular_orbit(check, pot, monkeypatch):
    # The Lambda-slopes are read from the circular orbit at Lambda itself.
    solved = []
    solve = birkhoff.circular_abscissa

    def counted(obj, lam):
        solved.append(lam)
        return solve(obj, lam)

    monkeypatch.setattr(birkhoff, "circular_abscissa", counted)
    check(pot, LAM_GRID)
    assert solved == LAM_GRID


def test_third_law_values(kepler, harmonic, henon):
    assert third_law(kepler, -0.5) == pytest.approx(2 * math.pi, rel=1e-12)
    for xi in (0.5, 2.5):
        assert third_law(harmonic, xi) == pytest.approx(math.pi, rel=1e-14)
    assert third_law(henon, -0.25) == pytest.approx(
        math.pi * math.sqrt(32.0), rel=1e-12)


def test_third_law_matches_period(all_classes):
    for name, params, _ in all_classes:
        for frac in (0.1, 0.3, 0.5, 0.7, 0.9):
            xi = analytic.feasible_energy(params, 1.0, frac)
            direct = analytic.radial_period(params, xi)
            assert third_law(params, xi) == pytest.approx(
                direct, rel=1e-10), name


def test_third_law_matches_mpmath_over_gauges():
    for label, params in gauged_potentials():
        for lam in (1e-3, 1e-2, 0.05, 1.0, 20.0):
            try:
                xi = analytic.circular_energy(params, lam)
            except NoCircularOrbit:
                continue
            with mpmath.workdps(60):
                a, b, c, d, _ = (mpmath.mpf(v) for v in params.as_tuple())
                if b == 0:
                    ref = mpmath.pi * mpmath.sqrt(-d) / (2 * abs(a))
                else:
                    bh = a + b * mpmath.mpf(xi)
                    ref = mpmath.pi / 2 * mpmath.sqrt((a * d - b * c) / abs(bh) ** 3)
            # Y'' at a rounded x_c next to the vertical tangent magnifies the
            # rounding of x_c by x_c / |x_c - x_v| (the bounded family's wall).
            cond = 1.0
            if params.b != 0.0:
                x_c = analytic.circular_abscissa(params, lam)
                cond = max(1.0, x_c / abs(x_c - params.x_v))
            T = third_law(params, xi)
            assert abs(T - ref) <= 1e-13 * cond * ref, (label, lam)


def test_third_law_out_of_range(kepler, bounded):
    with pytest.raises(NoCircularOrbit):
        third_law(kepler, 0.5)
    # x_c = 2 - 2e-8 sits too close to the wall x_v = 2 for Y''(x_c) to
    # give the period to 10 digits.
    with pytest.raises(NoCircularOrbit):
        third_law(bounded, 5e3)


def test_invariants_from_potential_refuses_at_the_wall(bounded):
    # At Lambda = 1e3, x_c / |x_c - x_v| = 1e12: Y' at the rounded x_c gave
    # l = 499977.78 against the exact 500001.
    with pytest.raises(NoCircularOrbit):
        invariants_from_potential(bounded, 1e3)
    # At Lambda = 20 the conditioning is 1.6e5 and the routes still agree.
    near = invariants_from_potential(bounded, 20.0)
    assert near.l == pytest.approx(invariants_from_period(bounded, 20.0).l, rel=1e-10)


def test_frequency_invariants_isochrony(all_classes):
    # J = 0 takes the forward difference in J.
    for name, params, _ in all_classes:
        for J in (0.0, half_action(params, 1.0)):
            fi = frequency_invariants(params, J, 1.0)
            assert abs(fi.j_inv) <= 1e-6, (name, J)


def test_birkhoff_derivatives_keep_the_hand_written_formulas(henon):
    # oracle.difference against the formulas it replaced, to the bit.
    def omega(j, L):
        return analytic.frequencies(henon, j, L)

    lam, h_l = 1.0, 1e-5
    for J in (0.0, 0.1):
        h_j = 1e-5
        w = omega(J, lam)
        if J == 0.0:
            w1, w2 = omega(J + h_j, lam), omega(J + 2 * h_j, lam)
            d_j = [(-3 * w[i] + 4 * w1[i] - w2[i]) / (2 * h_j) for i in (0, 1)]
        else:
            lo, hi = omega(J - h_j, lam), omega(J + h_j, lam)
            d_j = [(hi[i] - lo[i]) / (2 * h_j) for i in (0, 1)]
        lo, hi = omega(J, lam - h_l), omega(J, lam + h_l)
        d_l = [(hi[i] - lo[i]) / (2 * h_l) for i in (0, 1)]
        fi = frequency_invariants(henon, J, lam)
        assert (fi.j_inv, fi.g_inv, fi.t_inv) == (
            d_j[0] * w[1] - d_j[1] * w[0], w[0] * d_l[1] - w[1] * d_l[0],
            d_j[0] * d_l[1] - d_j[1] * d_l[0]), J
        assert all(type(v) is float for v in (fi.j_inv, fi.g_inv, fi.t_inv))


def test_frequency_invariants_bertrand(kepler, harmonic):
    for params in (kepler, harmonic):
        fi = frequency_invariants(params, 0.1, 1.0)
        assert abs(fi.t_inv) <= 1e-6
        assert abs(fi.g_inv) <= 1e-6


def test_frequency_invariants_henon_torsion(henon):
    fi = frequency_invariants(henon, 0.1, 1.0)
    assert abs(fi.t_inv) > 1e-4
    # Hand-derived closed-form value at (J, Lambda) = (0.1, 1): -0.01215.
    assert fi.t_inv == pytest.approx(-0.012149, rel=1e-3)


def test_bertrand_implies_isochrone(all_classes):
    # Whenever T and G vanish (tolerance 1e-6), J must vanish too.
    for name, params, _ in all_classes:
        for lam in (0.7, 1.0, 1.4):
            fi = frequency_invariants(params, half_action(params, lam), lam)
            if abs(fi.t_inv) <= 1e-6 and abs(fi.g_inv) <= 1e-6:
                assert abs(fi.j_inv) <= 1e-6, name
