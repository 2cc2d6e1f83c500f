import dataclasses
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isochrone import birkhoff
from isochrone.errors import InvalidParams, OutOfDomain, SingularPoint
from isochrone.potential import (
    GaugeTerm,
    ParabolaParams,
    PotentialFamily,
    apply_gauge,
    classify,
    domain,
    from_bounded,
    from_harmonic,
    from_henon,
    from_hollowed,
    from_kepler,
    ode_residual_from_derivatives,
    parabola_ode_residual,
    psi_derivative,
    psi_value,
    radial_domain,
    y_derivatives,
    y_value,
)

RADII = [0.11, 0.2, 0.35, 0.5, 0.63, 0.71, 0.8, 0.88, 0.95, 0.99]


def mp_y(params, x):
    """Independent high-precision reimplementation of the convex branch."""
    a, b, c, d, e = (mpmath.mpf(v) for v in params.as_tuple())
    if b == 0:
        return -(c / d) * x - e / d - (a**2 / d) * x**2
    delta = a * d - b * c
    x_v = (4 * b**2 * e - d**2) / (4 * b * delta)
    return -(a / b) * x - d / (2 * b**2) - mpmath.sqrt(b * delta * (x - x_v)) / b**2


# ---------------------------------------------------------------------------
# constructors and classification


def test_constructor_canonical_tuples():
    assert from_kepler(1.0).as_tuple() == (0.0, 1.0, -2.0, 0.0, 0.0)
    assert from_henon(1.0, 1.0).as_tuple() == (0.0, 1.0, -2.0, -4.0, 0.0)
    assert from_bounded(1.0, 1.0).as_tuple() == (0.0, -1.0, 2.0, -4.0, 0.0)
    assert from_hollowed(1.0, 1.0).as_tuple() == (0.0, 1.0, -2.0, 0.0, 4.0)
    assert from_harmonic(2.0).as_tuple() == (-1.0, 0.0, 0.0, -4.0, 0.0)


def test_constructor_rejects_nonpositive():
    for bad in (0.0, -1.0, math.inf):
        with pytest.raises(InvalidParams):
            from_kepler(bad)
    with pytest.raises(InvalidParams):
        from_henon(1.0, -2.0)


def test_classify_examples():
    kep = classify(ParabolaParams(0, 1, -2, 0, 0))
    assert kep.family is PotentialFamily.HENON and kep.kepler_degenerate
    bo = classify(ParabolaParams(0, -1, 2, -4, 0))
    assert bo.family is PotentialFamily.BOUNDED and not bo.kepler_degenerate
    ha = classify(ParabolaParams(-1, 0, 0, -4, 0))
    assert ha.family is PotentialFamily.HARMONIC
    ho = classify(ParabolaParams(0, 1, -2, 0, 4))
    assert ho.family is PotentialFamily.HOLLOWED
    he = classify(ParabolaParams(0, 1, -2, -4, 0))
    assert he.family is PotentialFamily.HENON and not he.kepler_degenerate


def test_invalid_params_rejected():
    with pytest.raises(InvalidParams):
        ParabolaParams(0, 1, 2, 0, 0)  # delta = -2
    with pytest.raises(InvalidParams):
        ParabolaParams(-1, 0, 0, 4, 0)  # harmonic with d > 0
    with pytest.raises(InvalidParams):
        ParabolaParams(1, 0, 0, -4, math.nan)
    with pytest.raises(InvalidParams):
        # b < 0 with x_v < 0: branch never reaches x > 0.
        ParabolaParams(0, -1, 2, 0, 1)


# ---------------------------------------------------------------------------
# evaluation


def test_y_value_examples(kepler, harmonic, henon):
    assert y_value(kepler, 2.0) == pytest.approx(-2.0, abs=1e-15)
    assert y_value(harmonic, 2.0) == pytest.approx(1.0, abs=1e-15)
    assert y_value(henon, 0.0) == pytest.approx(0.0, abs=1e-15)


def test_y_value_out_of_domain(bounded, hollowed, harmonic):
    # The harmonic class checks its domain [0, inf) like the other families.
    for params, x in ((bounded, 2.5), (hollowed, 1.0), (harmonic, -1.0),
                      (harmonic, float(np.nextafter(0.0, -1.0)))):
        with pytest.raises(OutOfDomain):
            y_value(params, x)
        with pytest.raises(OutOfDomain):
            y_value(params, np.array([x]))
        with pytest.raises(OutOfDomain):
            y_derivatives(params, x, 2)
        with pytest.raises(OutOfDomain):
            parabola_ode_residual(params, x)


# Five points inside each family's domain, in r and in x = 2 r^2.
_GOOD_R = {"kepler": [0.3, 0.5, 1.0, 2.0, 3.0], "henon": [0.3, 0.5, 1.0, 2.0, 3.0],
           "harmonic": [0.3, 0.5, 1.0, 2.0, 3.0], "bounded": [0.3, 0.5, 0.7, 0.8, 0.9],
           "hollowed": [1.2, 1.5, 2.0, 2.5, 3.0]}
_FAMILIES = {"kepler": from_kepler(1.0), "henon": from_henon(1.0, 1.0),
             "harmonic": from_harmonic(2.0), "bounded": from_bounded(1.0, 1.0),
             "hollowed": from_hollowed(1.0, 1.0)}
# (function, family, bad element, message): every family's refusals of
# r <= 0, r = nan, an r whose 2 r^2 underflows or overflows, and an x out of
# the domain.  The message is the float call's on the bad element.
ARRAY_REFUSALS = [
    *((psi_value, name, bad, "psi_value requires r > 0")
      for name in _FAMILIES for bad in (0.0, -1.0)),
    *((psi_value, name, 1e-170, "psi_value requires 2 r^2 > 0")
      for name in ("kepler", "henon", "harmonic", "bounded")),
    # The hollowed domain starts at x = 2, so its x = 0 is out of it.
    (psi_value, "hollowed", 1e-170, "x = 0 outside domain [2, inf]"),
    *((psi_value, name, math.nan, "Y is not finite at x = nan") for name in _FAMILIES),
    *((psi_value, name, 1e155, "Y is not finite at x = inf")
      for name in ("kepler", "henon", "harmonic", "hollowed")),
    (psi_value, "bounded", 1e155, "x = inf outside domain [0, 2]"),
    (psi_value, "bounded", 1.5, "x = 4.5 outside domain [0, 2]"),
    (psi_value, "hollowed", 0.5, "x = 0.5 outside domain [2, inf]"),
    # Henon's x_v = -2, so W > 0 and Y is finite at x = -1 < 0 = x_lo: a
    # check of finiteness alone would return it.
    (y_value, "henon", -1.0, "x = -1 outside domain [0, inf]"),
    (y_value, "kepler", -1.0, "x = -1 outside domain [0, inf]"),
    (y_value, "harmonic", -1.0, "x = -1 outside domain [0, inf]"),
    *((y_value, name, math.nan, "Y is not finite at x = nan") for name in _FAMILIES),
    (y_value, "harmonic", math.inf, "Y is not finite at x = inf"),
    (y_value, "harmonic", 1e300, "Y is not finite at x = 1e+300"),
    (y_value, "bounded", 4.5, "x = 4.5 outside domain [0, 2]"),
    (y_value, "bounded", math.inf, "x = inf outside domain [0, 2]"),
    (y_value, "hollowed", 0.5, "x = 0.5 outside domain [2, inf]"),
]


@pytest.mark.parametrize("fn, name, bad, message", ARRAY_REFUSALS)
def test_array_refusals_keep_their_messages(fn, name, bad, message):
    """An array is refused with the float call's error on its bad element."""
    params = _FAMILIES[name]
    good = np.array(_GOOD_R[name])
    if fn is y_value:
        good = 2.0 * good * good
    with pytest.raises(OutOfDomain) as want:
        fn(params, bad)
    for at in (0, 2, 4):  # first, middle and last
        arg = good.copy()
        arg[at] = bad
        with pytest.raises(OutOfDomain) as got:
            fn(params, arg)
        assert ((type(got.value), str(got.value))
                == (type(want.value), str(want.value)) == (OutOfDomain, message)), at


def test_scalar_arrays_return_as_the_float_call():
    # A 0-d array and an np.float64 give the float call's value as an
    # np.float64, and a 0-d r <= 0 the float call's message.
    for name, params in _FAMILIES.items():
        r = _GOOD_R[name][2]
        for fn, arg in ((psi_value, r), (y_value, 2.0 * r * r)):
            want = fn(params, arg)
            for same in (np.array(arg), np.float64(arg)):
                got = fn(params, same)
                assert type(got) is np.float64 and got == want, (name, fn)
        for bad in (np.array(-1.0), np.float64(-1.0), np.array([-1.0])):
            with pytest.raises(OutOfDomain, match=r"^psi_value requires r > 0$"):
                psi_value(params, bad)


def test_finite_values_whose_sum_overflows_are_returned(harmonic):
    x = np.array([1.0, 1.9e154, 1.9e154, 1.9e154])
    y = y_value(harmonic, x)
    assert y.tolist() == [y_value(harmonic, float(v)) for v in x]
    with np.errstate(over="ignore"):
        assert np.isinf(y.sum())  # so the slow checks returned it
    assert psi_value(harmonic, np.array([])).shape == (0,)
    assert y_value(harmonic, np.array([])).shape == (0,)


def test_nan_abscissa_is_out_of_domain(all_classes):
    # nan fails every comparison: the domain test must be one that nan fails.
    for name, params, _ in all_classes:
        with pytest.raises(OutOfDomain):
            y_derivatives(params, math.nan, 4)
        with pytest.raises(OutOfDomain):
            parabola_ode_residual(params, math.nan)


def test_psi_value_examples(kepler, henon, bounded):
    assert psi_value(kepler, 2.0) == pytest.approx(-0.5, rel=1e-15)
    assert psi_value(henon, 1.0) == pytest.approx(-1.0 / (1.0 + math.sqrt(2)),
                                                  rel=1e-14)
    assert psi_value(bounded, 0.5) == pytest.approx(
        1.0 / (1.0 + math.sqrt(3) / 2.0), rel=1e-14)


def test_psi_matches_closed_forms():
    mu, beta = 1.3, 0.7
    hen = from_henon(mu, beta)
    bo = from_bounded(mu, beta)
    ho = from_hollowed(mu, beta)
    for t in RADII:
        r = 3.0 * t
        assert psi_value(hen, r) == pytest.approx(
            -mu / (beta + math.sqrt(beta**2 + r**2)), rel=1e-12)
        rb = beta * t
        assert psi_value(bo, rb) == pytest.approx(
            mu / (beta + math.sqrt(beta**2 - rb**2)), rel=1e-12)
        rh = beta * (1.0 + t)
        assert psi_value(ho, rh) == pytest.approx(
            -(mu / rh**2) * math.sqrt(rh**2 - beta**2), rel=1e-12)


ARRAY_POTENTIALS = {
    "kepler": from_kepler(1.0),
    "henon": from_henon(1.0, 1.0),
    "bounded": from_bounded(1.0, 1.0),
    "hollowed": from_hollowed(1.0, 1.0),
    "harmonic": from_harmonic(2.0),
    "henon gauged": apply_gauge(from_henon(1.0, 1.0), GaugeTerm(0.1, 0.2)),
}


def _edge_points(lo, hi):
    """Interior points of [lo, hi], its finite ends, and their outer neighbours."""
    top = hi if math.isfinite(hi) else 50.0
    inner = list(np.geomspace(max(lo, 1e-3), top, 17)[1:-1])
    ends = [lo] + ([hi] if math.isfinite(hi) else [])
    outer = [np.nextafter(lo, -math.inf), -1.0]
    if math.isfinite(hi):
        outer.append(np.nextafter(hi, math.inf))
    return inner + ends, outer


def _float_call(fn, params, v):
    try:
        return fn(params, float(v))
    except OutOfDomain:
        return None


@pytest.mark.parametrize("name", ARRAY_POTENTIALS)
@pytest.mark.parametrize("fn, bounds", [(y_value, domain), (psi_value, radial_domain)])
def test_array_call_equals_float_calls(name, fn, bounds):
    """An array argument is the float call element for element, errors included."""
    params = ARRAY_POTENTIALS[name]
    inside, outer = _edge_points(*bounds(params))
    # 1e-170: psi's x = 2 r^2 underflows to 0.
    points = inside + outer + [0.0, 1e-170]
    floats = [_float_call(fn, params, v) for v in points]
    ok = [v for v, f in zip(points, floats) if f is not None]
    # The wall and the floor themselves are inside for Y; for psi the
    # rounding of 2 r^2 decides, and both paths must agree either way.
    assert len(ok) >= len(inside) - 2
    got = fn(params, np.array(ok))
    assert isinstance(got, np.ndarray)
    assert np.array_equal(got, [f for f in floats if f is not None])
    for v, f in zip(points, floats):
        arr = np.array(ok + [v])
        if f is None:
            with pytest.raises(OutOfDomain):
                fn(params, arr)
        else:
            fn(params, arr)


def test_domain_examples(kepler, bounded, harmonic):
    assert domain(kepler) == (0.0, math.inf)
    assert domain(ParabolaParams(0, 1, -2, 0, 4)) == (2.0, math.inf)
    assert domain(bounded) == (0.0, 2.0)
    assert domain(harmonic) == (0.0, math.inf)


# ---------------------------------------------------------------------------
# derivatives


def test_derivative_examples(kepler, harmonic, henon):
    assert y_derivatives(kepler, 2.0, 2)[1] == pytest.approx(0.125, rel=1e-14)
    assert y_derivatives(harmonic, 5.0, 2)[1] == pytest.approx(0.5, rel=1e-15)
    assert y_derivatives(henon, 0.0, 2)[1] == pytest.approx(0.125, rel=1e-14)


def test_derivatives_singular_at_vertex(bounded, hollowed):
    with pytest.raises(SingularPoint):
        y_derivatives(bounded, 2.0, 1)
    with pytest.raises(SingularPoint):
        y_derivatives(hollowed, 2.0, 1)
    # Y itself is finite at the vertical tangent.
    assert math.isfinite(y_value(bounded, 2.0))


@pytest.mark.parametrize("build", [
    lambda: from_kepler(1.0),
    lambda: from_henon(1.0, 1.0),
    lambda: from_bounded(1.0, 1.0),
    lambda: from_hollowed(1.0, 1.0),
    lambda: from_harmonic(2.0),
    lambda: apply_gauge(from_henon(0.8, 1.3), GaugeTerm(0.2, -0.1)),
])
def test_derivatives_match_high_precision_fd(build):
    """Closed forms vs mpmath numerical differentiation of an independent Y."""
    params = build()
    xlo, xhi = domain(params)
    hi = xhi if math.isfinite(xhi) else max(4.0, 2.0 * xlo + 4.0)
    span = hi - xlo
    with mpmath.workdps(40):
        for frac in (0.15, 0.4, 0.85):
            x = xlo + frac * span
            closed = y_derivatives(params, x, 4)
            for n in range(1, 5):
                ref = float(mpmath.diff(lambda t: mp_y(params, t), mpmath.mpf(x), n))
                assert closed[n - 1] == pytest.approx(ref, rel=1e-10, abs=1e-12)


def test_convexity_on_domain_interior(all_classes):
    for _, params, _ in all_classes:
        xlo, xhi = domain(params)
        hi = xhi if math.isfinite(xhi) else 50.0
        for i in range(1, 20):
            x = xlo + (hi - xlo) * i / 20.0
            assert y_derivatives(params, x, 2)[1] >= 0.0


def test_psi_derivative_matches_fd(henon):
    def mp_psi(r):
        x = 2 * r * r
        return mp_y(henon, x) / x

    with mpmath.workdps(40):
        for r in (0.3, 1.0, 2.7):
            ref = float(mpmath.diff(mp_psi, mpmath.mpf(r)))
            assert psi_derivative(henon, r) == pytest.approx(ref, rel=1e-12)


def _psi_derivative_from_y(params, r):
    """4 r (x Y' - Y) / x^2 from the public Y and Y', in psi_derivative's order."""
    if r <= 0.0:
        raise OutOfDomain("r <= 0")
    x = 2.0 * r * r
    y = y_value(params, x)
    yp = y_derivatives(params, x, 1)[0]
    try:
        return 4.0 * r * (yp * x - y) / (x * x)
    except ZeroDivisionError:
        raise OutOfDomain("x^2 underflows") from None


def _value_or_class(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # compared by class
        return type(exc)


FAMILY_BUILDERS = {
    "kepler": lambda: from_kepler(0.9),
    "henon": lambda: from_henon(0.7, 1.3),
    "bounded": lambda: from_bounded(0.9, 1.7),
    "hollowed": lambda: from_hollowed(0.9, 1.7),
    "harmonic": lambda: from_harmonic(1.3),
}


@pytest.mark.parametrize("gauged", [False, True], ids=["plain", "gauged"])
@pytest.mark.parametrize("family", sorted(FAMILY_BUILDERS))
def test_psi_derivative_is_the_chain_rule_bit_for_bit(family, gauged):
    params = FAMILY_BUILDERS[family]()
    if gauged:
        params = apply_gauge(params, GaugeTerm(0.1, 0.2))
    # (k a, k b, k^2 c, k^2 d, k^2 e) is the same curve; with b off the
    # powers of two, a reassociated product shows in the last bit.
    k = 0.7
    a, b, c, d, e = params.as_tuple()
    params = ParabolaParams(k * a, k * b, k * k * c, k * k * d, k * k * e)
    rlo, rhi = radial_domain(params)
    inside = [r for r in np.geomspace(1e-6, 1e4, 301) if rlo < r < rhi]
    assert len(inside) > 100
    for r in inside:
        r = float(r)
        assert psi_derivative(params, r) == _psi_derivative_from_y(params, r), r
    # Below, at and beyond the domain: the same refusals as the chain rule.
    for r in (-1.0, 0.0, 1e-100, 0.5 * rlo, rlo, rhi, 2.0 * rhi):
        if math.isfinite(r):
            assert (_value_or_class(psi_derivative, params, r)
                    == _value_or_class(_psi_derivative_from_y, params, r)), r
    for r in (-1.0, 0.0, 1e-100, math.nan):
        with pytest.raises(OutOfDomain):
            psi_derivative(params, r)
    if family in ("bounded", "hollowed"):
        # The vertical tangent x_v = 2 r^2 bounds the domain, at r = beta.
        r_v = math.sqrt(params.x_v / 2.0)
        assert 2.0 * r_v * r_v == params.x_v
        with pytest.raises(SingularPoint):
            psi_derivative(params, r_v)
        with pytest.raises(OutOfDomain):
            psi_derivative(params, 2.0 * r_v if family == "bounded" else 0.5 * r_v)
    if family == "harmonic":
        # Y = 4 x^2 overflows before (2 r^2)^2 does, at r = 7e76 and 8.1e76;
        # at 8.3e76 (2 r^2)^2 overflows first.  The refusals are those of
        # y_value and of the x^2 check, message and all.
        steep = from_harmonic(8.0)
        if gauged:
            steep = apply_gauge(steep, GaugeTerm(0.1, 0.2))
        for r in (7e76, 8.1e76):
            with pytest.raises(OutOfDomain) as composed:
                y_value(steep, 2.0 * r * r)
            assert str(composed.value).startswith("Y is not finite at x = ")
            with pytest.raises(OutOfDomain) as inline:
                psi_derivative(steep, r)
            assert type(inline.value) is type(composed.value), r
            assert str(inline.value) == str(composed.value), r
        with pytest.raises(OutOfDomain,
                           match=r"^psi_derivative: \(2 r\^2\)\^2 overflows at r = 8.3e\+76$"):
            psi_derivative(steep, 8.3e76)


def test_underflowing_radius_is_out_of_domain(kepler, henon):
    # x = 2 r^2 underflows to 0 below r ~ 1e-162, x^2 below r ~ 1e-81.
    for params in (kepler, henon):
        with pytest.raises(OutOfDomain):
            psi_value(params, 1e-170)
        with pytest.raises(OutOfDomain):
            psi_derivative(params, 1e-100)
    with pytest.raises(OutOfDomain):
        psi_derivative(henon, 1e-170)
    # Kepler's x = 0 is its vertical tangent, where every derivative diverges.
    with pytest.raises(SingularPoint):
        psi_derivative(kepler, 1e-170)
    # A power of W = 2 x underflows next to Kepler's tangent; Y' alone does not.
    with pytest.raises(SingularPoint):
        y_derivatives(kepler, 2e-200, 4)
    assert psi_derivative(kepler, 1e-60) == pytest.approx(1e120, rel=1e-14)


def _henon_psi(mu, beta, eps=0, lam=0):
    def psi(r):
        return -mu / (beta + mpmath.sqrt(beta**2 + r**2)) + eps + lam / (2 * r**2)
    return psi


# psi(r) of each family in closed form, evaluated in mpmath; None outside
# the family's domain.
OVERFLOW_CASES = {
    "kepler": (from_kepler(1.0), lambda r: -1 / r),
    "harmonic": (from_harmonic(2.0), lambda r: 4 * r**2 / 8),
    "henon": (from_henon(1.0, 1.0), _henon_psi(1, 1)),
    "bounded": (from_bounded(1.0, 1.0), lambda r: None),
    "hollowed": (from_hollowed(1.0, 1.0), lambda r: -mpmath.sqrt(r**2 - 1) / r**2),
    "gauged henon": (apply_gauge(from_henon(1.0, 1.0), GaugeTerm(0.1, 0.2)),
                     _henon_psi(1, 1, mpmath.mpf("0.1"), mpmath.mpf("0.2"))),
}


@pytest.mark.parametrize("name", sorted(OVERFLOW_CASES))
def test_overflowing_radius_is_out_of_domain_or_exact(name):
    # x = 2 r^2 overflows above r ~ 9e153 and x^2 above r ~ 8e76: psi and
    # psi' either come out right or raise, never nan, inf or a silent 0.
    params, closed = OVERFLOW_CASES[name]
    for r in (1e100, 1e150, 1e160, 1e200):
        with mpmath.workdps(40):
            r_mp = mpmath.mpf(r)
            exact = closed(r_mp)
            slope = (None if exact is None
                     else mpmath.diff(closed, r_mp, h=r_mp * mpmath.mpf("1e-15")))
        for call, ref in ((lambda: psi_value(params, r), exact),
                          (lambda: psi_value(params, np.array([1.0, r]))[-1], exact),
                          (lambda: psi_derivative(params, r), slope)):
            try:
                got = call()
            except OutOfDomain:
                continue
            assert ref is not None and math.isfinite(got)
            assert abs(got - ref) <= 1e-12 * abs(ref)
    for x in (math.inf, np.array([1.0, math.inf])):
        with pytest.raises(OutOfDomain):
            y_value(params, x)


_KEPLER, _HARMONIC = _FAMILIES["kepler"], _FAMILIES["harmonic"]
# Derivatives that overflowed (OverflowError from a power of W), came out as
# inf, or came out as the x -> inf limit where W = inf (Y' = -0.0 at
# x = 9e307, where it is about -7.5e-155).
DERIVATIVE_OVERFLOWS = {
    "W^3 overflows": lambda: y_derivatives(_KEPLER, 1e103, 4),
    "birkhoff at Lambda 1e26": lambda: birkhoff.invariants_from_potential(_KEPLER, 1e26),
    "Y4 overflows near x_v": lambda: y_derivatives(_KEPLER, 1e-92, 4),
    **{f"{name} at x {x:g}": lambda q=_FAMILIES[name], x=x: y_derivatives(q, x, 4)
       for name in ("kepler", "henon", "hollowed") for x in (9e307, math.inf)},
    "harmonic at x inf": lambda: y_derivatives(_HARMONIC, math.inf, 4),
    "harmonic ODE residual at x inf": lambda: parabola_ode_residual(_HARMONIC, math.inf),
    **{f"harmonic psi' at r {r:g}": lambda r=r: psi_derivative(_HARMONIC, r)
       for r in (1e62, 1e70, 8e76)},
}


@pytest.mark.parametrize("call", DERIVATIVE_OVERFLOWS.values(),
                         ids=list(DERIVATIVE_OVERFLOWS))
def test_derivative_overflow_is_out_of_domain(call):
    with pytest.raises(OutOfDomain):
        call()


def test_only_the_orders_asked_for_are_computed():
    # At x = 1e103 only W^3, which Y'''' alone needs, overflows: orders 1-3
    # return, with the bits the order-4 call gives where nothing overflows.
    y1, y2, y3 = y_derivatives(_KEPLER, 1e103, 3)
    assert y1 == pytest.approx(-(2e103) ** -0.5, rel=1e-14)
    assert y2 == pytest.approx((2e103) ** -1.5, rel=1e-14)
    assert y3 == pytest.approx(-3.0 * (2e103) ** -2.5, rel=1e-14)
    for params in _FAMILIES.values():
        xlo, xhi = domain(params)
        for x in (xlo + 0.1, xlo + 1.5, min(xlo + 40.0, 0.9 * xhi)):
            full = y_derivatives(params, x, 4)
            assert [y_derivatives(params, x, k) for k in (1, 2, 3)] == [
                full[:1], full[:2], full[:3]]


# ---------------------------------------------------------------------------
# gauge


def test_gauge_identity(henon):
    assert apply_gauge(henon, GaugeTerm(0.0, 0.0)).as_tuple() == henon.as_tuple()


def test_gauge_energy_shift_kepler(kepler):
    eps = 0.37
    gauged = apply_gauge(kepler, GaugeTerm(eps, 0.0))
    assert psi_value(gauged, 1.0) == pytest.approx(eps - 1.0, rel=1e-13)
    for t in RADII:
        r = 2.0 * t
        assert psi_value(gauged, r) == pytest.approx(
            psi_value(kepler, r) + eps, rel=1e-12)


def test_gauge_centrifugal_shift_kepler(kepler):
    lamg = 0.8
    gauged = apply_gauge(kepler, GaugeTerm(0.0, lamg))
    assert psi_value(gauged, 2.0) - psi_value(kepler, 2.0) == pytest.approx(
        lamg / 8.0, rel=1e-12)
    for t in RADII:
        r = 2.0 * t
        assert psi_value(gauged, r) == pytest.approx(
            psi_value(kepler, r) + lamg / (2 * r * r), rel=1e-12)


def test_gauge_harmonic_shifts(harmonic):
    gauged = apply_gauge(harmonic, GaugeTerm(0.25, -0.5))
    for t in RADII:
        r = 2.0 * t
        assert psi_value(gauged, r) == pytest.approx(
            psi_value(harmonic, r) + 0.25 - 0.5 / (2 * r * r), rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(eps=st.floats(-0.5, 0.5), lamg=st.floats(-0.3, 0.3),
       which=st.sampled_from(["kepler", "henon", "bounded", "hollowed",
                              "harmonic"]))
def test_gauge_preserves_class(eps, lamg, which):
    params = {
        "kepler": from_kepler(1.0),
        "henon": from_henon(1.0, 1.0),
        "bounded": from_bounded(1.0, 1.0),
        "hollowed": from_hollowed(1.0, 1.0),
        "harmonic": from_harmonic(2.0),
    }[which]
    try:
        gauged = apply_gauge(params, GaugeTerm(eps, lamg))
    except InvalidParams:
        return
    assert classify(gauged).family is classify(params).family


def test_gauge_preserves_branch_geometry(henon):
    gauged = apply_gauge(henon, GaugeTerm(0.3, 0.2))
    assert gauged.b * gauged.delta == pytest.approx(henon.b * henon.delta,
                                                    rel=1e-14)
    assert gauged.x_v == pytest.approx(henon.x_v, rel=1e-13)


def test_stored_constants_are_not_fields(henon, harmonic, bounded):
    # delta, x_v, the domain and the branch constants are stored on
    # construction: equality, hashing, repr and replace see only the five
    # coefficients, so equal coefficients are one cache key.
    twin = ParabolaParams(*henon.as_tuple())
    assert henon.x_v == (4.0 * 1.0 * 0.0 - 16.0) / (4.0 * 1.0 * 2.0)
    assert twin == henon and hash(twin) == hash(henon)
    assert repr(twin) == "ParabolaParams(a=0.0, b=1.0, c=-2.0, d=-4.0, e=0.0)"
    assert [f.name for f in dataclasses.fields(twin)] == list("abcde")
    moved = dataclasses.replace(henon, d=-2.0)
    fresh = ParabolaParams(0.0, 1.0, -2.0, -2.0, 0.0)
    assert (moved.delta, moved.x_v) == (fresh.delta, fresh.x_v) == (2.0, -0.5)
    assert moved != henon
    for params in (henon, bounded, harmonic):
        stored = {k: v for k, v in vars(params).items() if k not in "abcde"}
        assert {"delta", "_xlo", "_xhi"} <= set(stored)
        twin = ParabolaParams(*params.as_tuple())
        assert vars(twin) == vars(params)
        assert not any(k in repr(params) for k in stored)
        # An edited copy carries its own constants, not the original's.
        edited = dataclasses.replace(params, e=params.e + 0.5)
        assert vars(edited) == vars(ParabolaParams(*edited.as_tuple()))
        assert edited != params and hash(edited) != hash(params)
    assert len(vars(bounded)) == 5 + 9
    assert (bounded._slope, bounded._offset, bounded._b2, bounded._bdelta,
            bounded._2b, bounded._xlo, bounded._xhi) == (
        -(0.0 / -1.0), -4.0 / 2.0, 1.0, -2.0, -2.0, 0.0, 2.0)
    for _ in range(2):
        with pytest.raises(InvalidParams):
            harmonic.x_v
    assert harmonic.delta == 4.0


# ---------------------------------------------------------------------------
# universal parabola ODE


def test_parabola_ode_on_all_classes(all_classes):
    for _, params, _ in all_classes:
        xlo, xhi = domain(params)
        hi = xhi if math.isfinite(xhi) else 100.0
        span = hi - xlo
        for i in range(20):
            x = xlo + span * 10.0 ** (-6.0 + 5.9 * i / 19)
            res = parabola_ode_residual(params, x)
            if params.b == 0.0:
                assert res == 0.0
            else:
                _, y2, y3, y4 = y_derivatives(params, x, 4)
                assert abs(res) <= 1e-10 * max(1.0, abs(5 * y3 * y3))


def test_parabola_ode_counter_check_power_law():
    # Y = x^{5/2}: Y'' = (15/4) x^{1/2}, Y''' = (15/8) x^{-1/2},
    # Y'''' = -(15/16) x^{-3/2}; residual at x = 1 is -1800/64 = -28.125.
    y2, y3, y4 = 15.0 / 4.0, 15.0 / 8.0, -15.0 / 16.0
    res = ode_residual_from_derivatives(y2, y3, y4)
    assert res == pytest.approx(-28.125, rel=1e-15)
    assert abs(res) > 1.0
