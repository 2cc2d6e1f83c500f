"""Analytic theory of isochrone potentials with an independent numeric oracle.

Subpackages
-----------
potential : parabola parameters, classification, Y(x)/psi(r) evaluation
analytic  : closed-form orbits, generalized Kepler equation, action-angle theory
oracle    : quadrature and ODE ground truth, generic radial potentials
birkhoff  : normal-form invariants, isochrone/Bertrand/third-law checks
cli       : command-line front end (``isochrone`` entry point)
"""

from . import analytic, birkhoff, oracle, potential
from .analytic import (
    OrbitConstants,
    OrbitElements,
    Trajectory,
    TrajectorySample,
    orbit_elements,
    solve_kepler,
    trajectory,
)
from .errors import (
    DomainExit,
    InvalidParams,
    IsochroneError,
    NoBoundOrbit,
    NoCircularOrbit,
    OutOfDomain,
    SingularPoint,
    StepSizeUnderflow,
    ToleranceNotMet,
    UnboundOrbit,
)
from .potential import (
    GaugeTerm,
    ParabolaParams,
    PotentialClass,
    PotentialFamily,
    classify,
    from_bounded,
    from_harmonic,
    from_henon,
    from_hollowed,
    from_kepler,
)

__version__ = "0.1.0"

__all__ = [
    "analytic", "birkhoff", "oracle", "potential",
    "OrbitConstants", "OrbitElements", "Trajectory", "TrajectorySample",
    "orbit_elements", "solve_kepler", "trajectory",
    "GaugeTerm", "ParabolaParams", "PotentialClass", "PotentialFamily",
    "classify", "from_bounded", "from_harmonic", "from_henon",
    "from_hollowed", "from_kepler",
    "IsochroneError", "InvalidParams", "OutOfDomain", "SingularPoint",
    "NoBoundOrbit", "UnboundOrbit", "NoCircularOrbit", "ToleranceNotMet",
    "StepSizeUnderflow", "DomainExit",
    "__version__",
]
