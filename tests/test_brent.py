"""The ports of Brent's methods against scipy's, which the tests import."""

import math

import pytest

from isochrone import _brent, analytic, oracle, potential
from isochrone.analytic import OrbitConstants
from isochrone.errors import NoBoundOrbit, OutOfDomain, ToleranceNotMet
from isochrone.oracle import as_potential, plummer_potential

from conftest import BASE_POTENTIALS


def _counted(f):
    """f and a one-element list that counts its calls."""
    calls = [0]

    def g(x):
        calls[0] += 1
        return f(x)

    return g, calls


def _scipy_brentq(f, a, b, **kw):
    """(root, function calls) of scipy's brentq."""
    from scipy.optimize import brentq

    root, info = brentq(f, a, b, full_output=True, disp=False, **kw)
    return root, info.function_calls


def _scipy_fminbound(f, lo, hi, xatol, maxfun=500):
    """(x, function calls) of scipy's bounded scalar minimiser."""
    from scipy.optimize import minimize_scalar

    res = minimize_scalar(f, bounds=(lo, hi), method="bounded",
                          options={"xatol": xatol, "maxiter": maxfun})
    return float(res.x), res.nfev


# Kept here, so that a test may wrap the ones the oracle calls.
_BRENTQ, _FMINBOUND = _brent.brentq, _brent.fminbound


def _port_brentq(f, a, b, **kw):
    g, calls = _counted(f)
    return _BRENTQ(g, a, b, **kw), calls[0]


def _port_fminbound(f, lo, hi, xatol, maxfun=500):
    g, calls = _counted(f)
    return float(_FMINBOUND(g, lo, hi, xatol, maxfun)), calls[0]


def test_ports_are_scipys_on_the_oracles_functions(monkeypatch):
    # Every root and minimum that the oracle asks for, on its own kinetic and
    # force-balance functions and brackets, is scipy's, bit for bit and call
    # for call.
    compared = {"root": 0, "minimum": 0}

    def brentq(f, a, b, **kw):
        got = _port_brentq(f, a, b, **kw)
        assert got == _scipy_brentq(f, a, b, **kw), (a, b, kw)
        compared["root"] += 1
        return got[0]

    def fminbound(f, lo, hi, xatol, maxfun=500):
        got = _port_fminbound(f, lo, hi, xatol, maxfun)
        assert got == _scipy_fminbound(f, lo, hi, xatol, maxfun), (lo, hi, xatol)
        compared["minimum"] += 1
        return got[0]

    monkeypatch.setattr(_brent, "brentq", brentq)
    monkeypatch.setattr(_brent, "fminbound", fminbound)
    parabolae = [*BASE_POTENTIALS.values(),
                 potential.apply_gauge(BASE_POTENTIALS["henon"],
                                       potential.GaugeTerm(0.1, 0.2))]
    plummer = plummer_potential()
    for lam in (0.05, 0.3, 1.0, 5.0):
        for frac in (1e-15, 1e-9, 1e-3, 0.5, 1.0 - 1e-6):
            orbits = [(q, OrbitConstants(analytic.feasible_energy(q, lam, frac), lam))
                      for q in parabolae]
            r_c = plummer.circular_radius(lam)
            xi_c = plummer.psi(r_c) + 0.5 * lam * lam / (r_c * r_c)
            orbits.append((plummer, OrbitConstants(xi_c * (1.0 - frac), lam)))
            for q, oc in orbits:
                try:
                    oracle.solve_orbit(q, oc)
                except (NoBoundOrbit, ToleranceNotMet, OutOfDomain):
                    pass
        for q in parabolae:
            as_potential(q).circular_radius(lam)
    assert compared["minimum"] >= 150
    assert compared["root"] >= 350


@pytest.mark.parametrize("f, a, b", [
    (lambda x: x - 1.0, 1.0, 2.0),  # f(a) == 0
    (lambda x: x - 2.0, 1.0, 2.0),  # a root at b
    (lambda x: x * x - 2.0, 0.0, 3.0),
    (lambda x: math.cos(x) - x, 0.0, 1.0),
    (lambda x: x**3 - 2.0 * x - 5.0, 2.0, 3.0),
    (lambda x: math.expm1(x) - 1e-12, -0.5, 1.0),
], ids=["f(a)-zero", "root-at-b", "sqrt2", "cos", "cubic", "expm1"])
def test_brentq_hand_cases(f, a, b):
    for kw in ({"xtol": 2e-12, "rtol": 8.9e-16, "maxiter": 100},
               {"xtol": 1e-300, "rtol": 8.9e-16, "maxiter": 300}):
        assert _port_brentq(f, a, b, **kw) == _scipy_brentq(f, a, b, **kw)


@pytest.mark.parametrize("maxiter", [1, 3, 8])
def test_brentq_raises_tolerance_not_met_after_maxiter(maxiter):
    # scipy raises a RuntimeError; without disp it returns unconverged after
    # the same calls.
    f = lambda x: (x - 0.3) ** 3  # noqa: E731
    g, calls = _counted(f)
    with pytest.raises(ToleranceNotMet):
        _brent.brentq(g, -1.0, 2.0, xtol=1e-300, rtol=8.9e-16, maxiter=maxiter)
    assert calls[0] == _scipy_brentq(f, -1.0, 2.0, xtol=1e-300, rtol=8.9e-16,
                                     maxiter=maxiter)[1]


def test_brentq_raises_no_bound_orbit_without_a_sign_change():
    with pytest.raises(NoBoundOrbit):
        _brent.brentq(lambda x: x * x + 1.0, -1.0, 1.0, xtol=1e-300,
                       rtol=8.9e-16, maxiter=100)


@pytest.mark.parametrize("f, lo, hi, xatol, maxfun", [
    (lambda x: (x - 0.3) ** 2, 0.0, 1.0, 1e-14, 500),
    (lambda x: -math.sin(x), 0.0, 3.0, 1e-10, 500),
    (lambda x: x, 1.0, 2.0, 1e-14, 500),  # the minimum at the lower bound
    (lambda x: -x, 1.0, 2.0, 1e-14, 500),  # and at the upper
    (lambda x: 1.0, 0.0, 1.0, 1e-14, 500),  # flat: every comparison ties
    (lambda x: abs(x - 0.7), 0.0, 1.0, 1e-14, 500),
    (lambda x: (x - 0.3) ** 2, 0.0, 1.0, 1e-14, 4),  # maxfun exhausted
    (lambda x: abs(x - 0.7), 0.0, 1.0, 1e-14, 20),
], ids=["parabola", "sin", "at-lo", "at-hi", "flat", "kink", "maxfun-4",
        "maxfun-20"])
def test_fminbound_hand_cases(f, lo, hi, xatol, maxfun):
    assert _port_fminbound(f, lo, hi, xatol, maxfun) == _scipy_fminbound(
        f, lo, hi, xatol, maxfun)
