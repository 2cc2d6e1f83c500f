import pytest

from isochrone import analytic
from isochrone.analytic import OrbitConstants

ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
from isochrone.potential import (
    GaugeTerm,
    apply_gauge,
    from_bounded,
    from_harmonic,
    from_henon,
    from_hollowed,
    from_kepler,
)


@pytest.fixture(scope="session")
def kepler():
    return from_kepler(1.0)


@pytest.fixture(scope="session")
def henon():
    return from_henon(1.0, 1.0)


@pytest.fixture(scope="session")
def bounded():
    return from_bounded(1.0, 1.0)


@pytest.fixture(scope="session")
def hollowed():
    return from_hollowed(1.0, 1.0)


@pytest.fixture(scope="session")
def harmonic():
    return from_harmonic(2.0)


@pytest.fixture(scope="session")
def all_classes(kepler, henon, bounded, hollowed, harmonic):
    """(name, params, eccentric orbit constants) for every family."""
    return [
        ("kepler", kepler, OrbitConstants(-0.5, 0.8)),
        ("henon", henon, OrbitConstants(-0.12, 1.0)),
        ("bounded", bounded, OrbitConstants(0.95, 0.5)),
        ("hollowed", hollowed, OrbitConstants(-0.2, 1.0)),
        ("harmonic", harmonic, OrbitConstants(2.5, 1.0)),
    ]


def grid_orbits(params, lams, fracs=(0.35, 0.7)):
    """Feasible (OrbitConstants, elements) pairs spanning a Lambda grid."""
    out = []
    for lam in lams:
        for frac in fracs:
            xi = analytic.feasible_energy(params, lam, frac)
            oc = OrbitConstants(xi, lam)
            out.append((oc, analytic.orbit_elements(params, oc)))
    return out


def half_action(params, lam):
    """Radial action of the orbit at ``feasible_energy`` fraction 0.5."""
    xi = analytic.feasible_energy(params, lam, 0.5)
    return analytic.radial_action(params, OrbitConstants(xi, lam))


BASE_POTENTIALS = {
    "kepler": from_kepler(1.0),
    "harmonic": from_harmonic(2.0),
    "henon": from_henon(1.0, 1.0),
    "henon(2,0.25)": from_henon(2.0, 0.25),
    "bounded": from_bounded(1.0, 1.0),
    "bounded(0.5,3)": from_bounded(0.5, 3.0),
    "hollowed": from_hollowed(1.0, 1.0),
}


def gauged_potentials():
    """(label, params): every base potential under a grid of gauge terms."""
    return [
        (f"{name} eps={eps} lam={lam}", apply_gauge(base, GaugeTerm(eps, lam)))
        for name, base in BASE_POTENTIALS.items()
        for eps in (-0.3, 0.0, 0.1)
        for lam in (-0.5, -0.1, 0.0, 0.2)
    ]
