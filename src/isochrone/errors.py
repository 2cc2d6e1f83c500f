"""Exception hierarchy shared by all isochrone modules."""

__all__ = [
    "IsochroneError",
    "InvalidParams",
    "OutOfDomain",
    "SingularPoint",
    "NoBoundOrbit",
    "UnboundOrbit",
    "NoCircularOrbit",
    "ToleranceNotMet",
    "StepSizeUnderflow",
    "DomainExit",
]


class IsochroneError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParams(IsochroneError):
    """Parabola coefficients or inputs violate a structural invariant."""


class OutOfDomain(IsochroneError):
    """Evaluation point lies outside the physical domain of the potential."""


class SingularPoint(IsochroneError):
    """Derivatives requested at the vertical-tangent abscissa, where they diverge."""


class NoBoundOrbit(IsochroneError):
    """The (energy, angular momentum) pair admits no bound orbit."""


class UnboundOrbit(IsochroneError):
    """Energy at or above the escape threshold of the potential class."""


class NoCircularOrbit(IsochroneError):
    """No circular orbit exists for the requested angular momentum or energy."""


class ToleranceNotMet(IsochroneError):
    """A quadrature failed to reach the requested error target."""


class StepSizeUnderflow(IsochroneError):
    """The ODE integrator could not advance without violating tolerances,
    or spent its step budget without reaching the next output time."""


class DomainExit(IsochroneError):
    """An integrated trajectory reached the boundary of the potential's domain."""
