"""The one outcome classifier shared by every workload.

Each operation is sorted into exactly one class.  The tolerances are the
benchmark's own statement of what counts as a correct value:

* oracle quadratures agree with the closed form to ``QUAD_RTOL`` (relative),
  the default tolerance of ``isochrone verify``;
* ODE endpoints agree with the closed form to ``ODE_TOL``, as the
  ``trajectory_vs_ode_*`` checks of ``verify`` do;
* every ``orbit`` row satisfies the Kepler equation to ``KEPLER_TOL`` and
  lies between the turning radii.
"""

from __future__ import annotations

from isochrone import errors

OK = "ok"
REFUSED = "refused"    # raised a typed IsochroneError
LEAKED = "leaked"      # raised anything else
WRONG = "wrong"        # returned a value outside its tolerance without raising
TIMEOUT = "timeout"    # did not finish within the workload's latency limit

CLASSES = (OK, REFUSED, LEAKED, WRONG, TIMEOUT)

# When one operation has several parts, the worst part decides its class;
# the wrong and leaked shares still count every operation with such a part.
_SEVERITY = {OK: 0, REFUSED: 1, TIMEOUT: 2, WRONG: 3, LEAKED: 4}

QUAD_RTOL = 1e-8
ODE_TOL = 1e-6
KEPLER_TOL = 1e-12


def of_exception(exc: BaseException) -> str:
    return REFUSED if isinstance(exc, errors.IsochroneError) else LEAKED


def of_error_name(name: str) -> str:
    """Class of an error the CLI reported by type name on stderr."""
    cls = getattr(errors, name, None)
    if isinstance(cls, type) and issubclass(cls, errors.IsochroneError):
        return REFUSED
    return LEAKED


def of_residual(residual: float, tol: float) -> str:
    # A NaN residual compares False and so counts as wrong.
    return OK if residual <= tol else WRONG


def worst(outcomes) -> str:
    return max(outcomes, key=_SEVERITY.__getitem__, default=OK)
