"""Smoke test of the benchmark at a tiny size.

    PYTHONPATH=src python -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from isochrone import analytic, errors, oracle
from perfbench import calibrate, harness, outcome, workloads
from perfbench.tracer import Tracer

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent
                        / "BENCHMARK.json").read_text())
# Shown in the report but not in the JSON result, where every metric must be
# non-zero: the healthy workloads have none of these failures.
FAILURE_SHARES = {"failed_frac", "wrong_frac", "leaked_frac"}


class FakeOp:
    GATED = True

    def __init__(self, run, parts=(outcome.OK,)):
        self.run = run
        self.parts = parts

    def check(self, result):
        return self.parts, 1


def _raise(exc):
    def run():
        raise exc
    return run


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("perfbench")
    smallest = sorted(workloads.ephemeris(1, tmp)[0], key=lambda op: op.samples)
    return {
        "ephemeris": [smallest[:2]],
        "verify": [workloads.verify(1, tmp)[0][:1]],
        "edge-judge": [workloads.edge_judge(1, tmp)[0][:3]],
    }


def _units_given(metrics, declared):
    assert set(declared) <= set(metrics)
    for name in declared:
        value, unit = metrics[name]
        assert isinstance(value, float) and unit, name


def test_every_end_to_end_metric_is_emitted_with_a_unit(tiny):
    for name, passes in tiny.items():
        results = harness.run_passes(passes, 0.0, workloads.LIMITS.get(name))
        metrics = harness.end_to_end(results, setup_s=1.0)
        metrics.update(harness.failure_fractions(results))
        _units_given(metrics, [m["name"] for m in BENCHMARK["end_to_end"]])
        _units_given(metrics, FAILURE_SHARES)
        if name != "edge-judge":
            assert all(r.outcome == outcome.OK for r in results), name


def test_every_per_layer_metric_is_emitted_with_a_unit(tiny):
    declared = [m["name"] for m in BENCHMARK["per_layer"]]
    by_workload = {}
    for name in ("ephemeris", "verify"):
        tracer = Tracer()
        tracer.install()
        try:
            plain, traced = harness.run_traced(tiny[name], 0.0, None, tracer)
        finally:
            tracer.uninstall()
        metrics = harness.per_layer(tracer, {"import_s": 0.5, "inputs_s": 0.1},
                                    plain, traced)
        _units_given(metrics, declared)
        by_workload[name] = metrics
        # Every span lies inside one cli.main span, so self times add up to it.
        assert tracer.self_s.sum() == pytest.approx(tracer.total_of("cli.main"))
    eph, ver = by_workload["ephemeris"], by_workload["verify"]
    for name, (value, _) in eph.items():
        if name.startswith(("oracle.", "birkhoff.")):
            assert value == 0.0, name
    assert ver["oracle.quad.calls"][0] > 0
    assert ver["birkhoff.invariants_from_potential.calls"][0] > 0
    assert eph["analytic.trajectory.us_per_sample"][0] > 0


def test_tracer_restores_module_attributes():
    before = (analytic.orbit_elements, oracle.turning_radii)
    tracer = Tracer()
    tracer.install()
    assert analytic.orbit_elements is not before[0]
    tracer.uninstall()
    assert (analytic.orbit_elements, oracle.turning_radii) == before


def test_planted_bare_value_error_counts_as_leaked():
    ops = [FakeOp(_raise(ValueError("planted"))),
           FakeOp(_raise(errors.NoBoundOrbit("typed"))),
           FakeOp(lambda: None), FakeOp(lambda: None)]
    results = harness.run_passes([ops], 0.0)
    assert [r.outcome for r in results] == [outcome.LEAKED, outcome.REFUSED,
                                           outcome.OK, outcome.OK]
    shares = harness.failure_fractions(results)
    assert shares["leaked_frac"][0] == 0.25
    assert shares["failed_frac"][0] == 0.5
    assert harness.end_to_end(results, 1.0)["typed_frac"][0] == 0.75


def test_wrong_part_counts_beside_a_leaked_part():
    ops = [FakeOp(lambda: None, (outcome.WRONG, outcome.LEAKED, outcome.OK)),
           FakeOp(lambda: None, (outcome.OK, outcome.REFUSED)),
           FakeOp(lambda: None)]
    results = harness.run_passes([ops], 0.0)
    assert [r.outcome for r in results] == [outcome.LEAKED, outcome.REFUSED,
                                           outcome.OK]
    shares = harness.failure_fractions(results)
    assert shares["wrong_frac"][0] == shares["leaked_frac"][0] == 1 / 3
    assert shares["failed_frac"][0] == 2 / 3


def test_latency_limit_counts_a_timeout():
    result = harness.call_op(FakeOp(lambda: time.sleep(5.0)), limit_s=0.05)
    assert result.outcome == outcome.TIMEOUT
    assert result.latency_s < 1.0


def test_stopwatch_gives_wall_time_at_the_reference_speed():
    with calibrate.Stopwatch() as watch:
        time.sleep(0.1)
    assert len(watch.rates) >= 3  # before, at least one tick, after
    assert 0.05 <= watch.wall_s < 0.1  # the kernel runs are left out
    mean_rate = sum(watch.rates) / len(watch.rates)
    assert watch.reference_s() == pytest.approx(watch.wall_s * mean_rate)
