"""Closed-loop measurement of a workload and the metrics derived from it.

One caller runs the operations of a workload one after another; the next
starts only when the previous one has returned and been checked.  The loop
runs whole passes and starts a new pass only while less than the requested
time has gone by, so every run measures complete passes of the same strata.
"""

from __future__ import annotations

import gc
import resource
import statistics
from dataclasses import dataclass
from typing import Optional

from . import outcome
from .calibrate import OpTimeout, Stopwatch
from .tracer import Tracer

# A traced operation runs slower; its latency limit grows by this factor so
# that tracing does not turn finished operations into timeouts.
TRACED_LIMIT_SCALE = 4.0

ORACLE_RAISED = ("ValueError", "InvalidParams", "OutOfDomain", "SingularPoint",
                 "NoBoundOrbit", "UnboundOrbit", "NoCircularOrbit",
                 "ToleranceNotMet", "StepSizeUnderflow", "DomainExit")
QUADS = ("oracle.quad_radial_period", "oracle.quad_apsidal_angle",
         "oracle.quad_radial_action")


@dataclass
class OpResult:
    parts: tuple[str, ...]  # the outcome class of each part of the operation
    items: int
    latency_s: float  # at the reference speed of perfbench.calibrate
    wall_s: float
    reference_ok: bool
    detail: object = None  # the operation's own breakdown, if it has one

    @property
    def outcome(self) -> str:
        return outcome.worst(self.parts)


def call_op(op, limit_s: Optional[float] = None,
            tracer: Optional[Tracer] = None) -> OpResult:
    """Time ``op.run()``, then check its result outside the timed region.

    A garbage collection runs first, untimed, so that the collections inside
    the operation depend on the operation alone and not on the ones before.
    The latency and its limit are times at the reference speed.
    """
    gc.collect()
    if tracer is not None:
        tracer.begin_op()
    raised = None
    watch = Stopwatch(limit_s)
    try:
        with watch:
            result = op.run()
    except (OpTimeout, Exception) as exc:  # classified below
        raised = exc
    latency, wall = watch.reference_s(), watch.wall_s
    if tracer is not None:
        tracer.end_op()
    if isinstance(raised, OpTimeout):
        return OpResult((outcome.TIMEOUT,), 0, latency, wall, True)
    if raised is not None:
        return OpResult((outcome.of_exception(raised),), 0, latency, wall, False)
    try:
        parts, items = op.check(result)
    except Exception:  # output the check cannot read is a wrong output
        return OpResult((outcome.WRONG,), 0, latency, wall, False)
    ref_ok = outcome.worst(parts) == outcome.OK if op.GATED else op.reference_ok
    return OpResult(parts, items, latency, wall, ref_ok, getattr(op, "detail", None))


def run_passes(passes, seconds: float, limit_s: Optional[float] = None) -> list[OpResult]:
    """Run whole passes, cycling through them, until the operations have
    taken ``seconds`` at the reference speed."""
    results: list[OpResult] = []
    busy = 0.0
    i = 0
    while i == 0 or busy < seconds:
        for op in passes[i % len(passes)]:
            results.append(call_op(op, limit_s))
            busy += results[-1].latency_s
        i += 1
    return results


def run_traced(passes, seconds: float, limit_s: Optional[float],
               tracer: Tracer) -> tuple[list[OpResult], list[OpResult]]:
    """Run each pass untraced and then traced, until the operations have
    taken ``seconds`` at the reference speed.

    Returns (untraced, traced) results over the same operations; the ratio
    of their busy times is the tracing overhead.
    """
    plain: list[OpResult] = []
    traced: list[OpResult] = []
    traced_limit = None if limit_s is None else limit_s * TRACED_LIMIT_SCALE
    i = 0
    while i == 0 or busy_s(plain) + busy_s(traced) < seconds:
        ops = passes[i % len(passes)]
        plain.extend(call_op(op, limit_s) for op in ops)
        traced.extend(call_op(op, traced_limit, tracer) for op in ops)
        i += 1
    return plain, traced


def busy_s(results: list[OpResult]) -> float:
    return sum(r.latency_s for r in results)


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def counts(results: list[OpResult]) -> dict[str, int]:
    out = {c: 0 for c in outcome.CLASSES}
    for r in results:
        out[r.outcome] += 1
    return out


def share_with(results: list[OpResult], cls: str) -> float:
    """Share of operations with at least one part of class ``cls``."""
    return sum(cls in r.parts for r in results) / len(results)


def end_to_end(results: list[OpResult], setup_s: float) -> dict[str, tuple[float, str]]:
    """Every end-to-end metric as name -> (value, unit)."""
    lat = [r.latency_s for r in results]
    busy = sum(lat)
    n = len(results)
    deciles = statistics.quantiles(lat, n=10, method="inclusive") if n > 1 else lat * 9
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (n / busy, "1/s"),
        "op_p50_ms": (1e3 * statistics.median(lat), "ms"),
        "op_p90_ms": (1e3 * deciles[8], "ms"),
        "samples_per_s": (sum(r.items for r in results) / busy, "1/s"),
        "ok_frac": (counts(results)[outcome.OK] / n, "frac"),
        "trusted_frac": (1.0 - share_with(results, outcome.WRONG), "frac"),
        "typed_frac": (1.0 - share_with(results, outcome.LEAKED), "frac"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def wall_summary(results: list[OpResult]) -> str:
    """The run's wall-clock view, for the report: not a gated metric."""
    wall = [r.wall_s for r in results]
    speed = [r.latency_s / r.wall_s for r in results if r.wall_s > 0.0]
    return (f"in wall time: ops_per_s {len(wall) / sum(wall):.6g} 1/s, "
            f"op_p50_ms {1e3 * statistics.median(wall):.6g} ms; host speed over "
            f"the reference: median {statistics.median(speed):.3f}, "
            f"range {min(speed):.3f}-{max(speed):.3f}")


def failure_fractions(results: list[OpResult]) -> dict[str, tuple[float, str]]:
    """The failure shares themselves, which are zero on healthy workloads."""
    n = len(results)
    c = counts(results)
    return {
        "failed_frac": ((n - c[outcome.OK]) / n, "frac"),
        "wrong_frac": (share_with(results, outcome.WRONG), "frac"),
        "leaked_frac": (share_with(results, outcome.LEAKED), "frac"),
    }


def per_layer(tracer: Tracer, setup: dict[str, float],
              plain: list[OpResult], traced: list[OpResult]) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as name -> (value, unit); counts are per operation."""
    n = max(len(traced), 1)
    quad_calls = tracer.calls_of(*QUADS)
    quad_raised = tracer.raised_by(*QUADS)
    samples = tracer.items_of("analytic.trajectory")
    raised = tracer.raised_from("oracle")
    raised.pop("OpTimeout", None)
    out = {
        "potential.calls": (tracer.calls_of("potential.y_value",
                                            "potential.y_derivatives",
                                            "potential.psi_value",
                                            "potential.psi_derivative") / n, "calls/op"),
        "potential.self_s": (tracer.layer_self("potential") / n, "s/op"),
        "analytic.trajectory.us_per_sample": (
            1e6 * tracer.total_of("analytic.trajectory") / samples if samples else 0.0,
            "us"),
        "analytic.orbit_elements.calls": (
            tracer.calls_of("analytic.orbit_elements") / n, "calls/op"),
        "analytic.orbit_elements.self_s": (
            tracer.self_of("analytic.orbit_elements") / n, "s/op"),
        "analytic.circular_abscissa.calls": (
            tracer.calls_of("analytic.circular_abscissa") / n, "calls/op"),
        "analytic.circular_abscissa.self_s": (
            tracer.self_of("analytic.circular_abscissa") / n, "s/op"),
        "oracle.turning_radii.calls_per_op": (
            tracer.calls_of("oracle.turning_radii") / n, "calls/op"),
        "oracle.turning_radii.self_s": (tracer.self_of("oracle.turning_radii") / n, "s/op"),
        "oracle.quad.calls": (quad_calls / n, "calls/op"),
        "oracle.quad.neval": (tracer.items_of(*QUADS) / n, "evals/op"),
        "oracle.quad.self_s": (tracer.self_of(*QUADS) / n, "s/op"),
        "oracle.quad.ok_frac": (
            (quad_calls - quad_raised) / quad_calls if quad_calls else 0.0, "frac"),
        "oracle.integrate_orbit.calls": (
            tracer.calls_of("oracle.integrate_orbit") / n, "calls/op"),
        "oracle.integrate_orbit.self_s": (
            tracer.self_of("oracle.integrate_orbit") / n, "s/op"),
    }
    for exc in ORACLE_RAISED:
        out[f"oracle.raised.{exc}"] = (raised.pop(exc, 0) / n, "count/op")
    out["oracle.raised.other"] = (sum(raised.values()) / n, "count/op")
    out.update({
        "birkhoff.self_s": (tracer.layer_self("birkhoff") / n, "s/op"),
        "birkhoff.third_law.self_s": (tracer.self_of("birkhoff.third_law") / n, "s/op"),
        "birkhoff.invariants_from_potential.calls": (
            tracer.calls_of("birkhoff.invariants_from_potential") / n, "calls/op"),
        "cli.self_s": (tracer.layer_self("cli") / n, "s/op"),
        "cli.parse_s": (tracer.total_of("cli.build_parser", "cli.parse_args") / n, "s/op"),
        "setup.import_s": (setup["import_s"], "s"),
        "setup.inputs_s": (setup["inputs_s"], "s"),
        "trace.spans_per_op": (tracer.span_count / n, "spans/op"),
        "trace.overhead_frac": (
            sum(r.latency_s for r in traced) / sum(r.latency_s for r in plain) - 1.0,
            "frac"),
    })
    return out
