"""Run one workload of the isochrone benchmark and print its metrics.

    python3 perfbench/run.py --workload ephemeris --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

Run it from anywhere inside a checkout; it imports the package from the
checkout's ``src/`` and exits non-zero without a result when that is missing.
With ``--trace 0`` it reports the end-to-end metrics, measured untraced; with
``--trace 1`` it runs every pass untraced and then traced and reports the
per-layer metrics and the tracing overhead.  ``--workload all`` runs the
three workloads one after another, each in its own fresh process.

Human-readable lines come first; the last line of standard output of a
single workload is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  The full result, with its provenance, and the
traced spans are written to ``.perfbench_out/``.
"""

from __future__ import annotations

import os

# One process, no extra threads: pin the numeric libraries before they load.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import ctypes  # noqa: E402

# glibc raises its mmap threshold whenever a large block is freed, so later
# large arrays come from the heap, and the peak memory of a run would depend
# on how the operations before them fragmented it.  Fix the threshold at its
# default of 128 KiB (M_MMAP_THRESHOLD is -3); other C libraries are left be.
try:
    ctypes.CDLL("libc.so.6").mallopt(-3, 128 * 1024)
except (OSError, AttributeError):
    pass

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("ephemeris", "verify", "edge-judge")

# Fresh processes timed per run for setup_s; the median is reported.
SETUP_REPEATS = 5


def _use_checkout_sources() -> None:
    if not (SRC / "isochrone" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package sources at {SRC / 'isochrone'}")
    sys.path[:0] = [str(SRC), str(ROOT)]


def setup_probe(workload: str, seed: int) -> None:
    """In a fresh process: import the CLI, build the inputs, report both times.

    Both are timed at the reference speed; ``wall_s`` is the wall time of
    the two, kernel runs included, so the caller can tell the rest apart.
    """
    from perfbench import calibrate
    t0 = time.perf_counter()
    with calibrate.Stopwatch() as imported:
        import isochrone.cli  # noqa: F401
    with calibrate.Stopwatch() as built:
        from perfbench import workloads
        workloads.WORKLOADS[workload](seed, OUT / "tmp")
    print(json.dumps({"import_s": imported.reference_s(), "inputs_s": built.reference_s(),
                      "wall_s": time.perf_counter() - t0}), flush=True)


def measure_setup(workload: str, seed: int) -> dict[str, float]:
    """Median time from starting a fresh process until its inputs are ready.

    The import and the inputs are timed at the reference speed inside the
    process; the rest (interpreter start, this script's own imports) is timed
    from outside, between two kernel runs.
    """
    from perfbench import calibrate
    totals, imports, inputs = [], [], []
    for _ in range(SETUP_REPEATS):
        before = calibrate.rate()
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT)
        line = proc.stdout.readline()
        wall = time.perf_counter() - t0
        speed = 0.5 * (before + calibrate.rate())
        proc.stdout.read()
        proc.stdout.close()
        if proc.wait() != 0 or not line:
            raise RuntimeError("setup probe failed")
        probe = json.loads(line)
        rest = max(wall - probe["wall_s"], 0.0) * speed
        totals.append(rest + probe["import_s"] + probe["inputs_s"])
        imports.append(probe["import_s"])
        inputs.append(probe["inputs_s"])
    return {"setup_s": statistics.median(totals),
            "import_s": statistics.median(imports),
            "inputs_s": statistics.median(inputs)}


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(workload: str, seed: int, counts: dict[str, int]) -> dict:
    import numpy
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(),
        "workload": workload,
        "seed": seed,
        "operations": counts,
    }


def _metric_lines(metrics: dict[str, tuple[float, str]]) -> list[str]:
    return [f"  {name:<42} {value:>16.6g} {unit}"
            for name, (value, unit) in metrics.items()]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _use_checkout_sources()
    if args.workload == "all":
        for name in WORKLOAD_NAMES:
            subprocess.run([sys.executable, str(Path(__file__).resolve()),
                            "--workload", name, "--seed", str(args.seed),
                            "--seconds", str(args.seconds), "--trace", str(args.trace)],
                           check=True)
        return 0
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    setup = measure_setup(args.workload, args.seed)
    from perfbench import harness, workloads
    from perfbench.tracer import Tracer

    build = workloads.WORKLOADS[args.workload]
    limit = workloads.LIMITS.get(args.workload)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    passes = build(args.seed, OUT / "tmp")
    # Objects that exist once set-up is done live to the end of the run;
    # freezing them keeps the collection before each operation cheap.
    gc.freeze()
    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            plain, traced = harness.run_traced(passes, args.seconds, limit, tracer)
        finally:
            tracer.uninstall()
        tracer.write(OUT / f"spans-{stem}.json")
        results = plain + traced
        metrics = harness.per_layer(tracer, setup, plain, traced)
        shown = metrics
    else:
        results = harness.run_passes(passes, args.seconds, limit)
        metrics = harness.end_to_end(results, setup["setup_s"])
        shown = {**metrics, **harness.failure_fractions(results)}

    counts = harness.counts(results)
    attempted = len(results)
    failed = sum(not r.reference_ok for r in results)
    correct = failed == 0
    prov = provenance(args.workload, args.seed, {"attempted": attempted, **counts})
    notes = workload_notes(args.workload, results)

    lines = [f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
             f"trace={args.trace}",
             "provenance: " + ", ".join(f"{k}={v}" for k, v in prov.items()
                                        if k != "operations"),
             f"operations: {attempted} attempted, {failed} failed the "
             f"benchmark's reference check; by outcome: " + ", ".join(
                 f"{k} {v}" for k, v in counts.items())
             + ("" if args.trace else f"; latency percentiles over {attempted}"),
             f"setup: {setup['setup_s']:.4f} s median of {SETUP_REPEATS} fresh "
             f"processes (import {setup['import_s']:.4f} s, "
             f"inputs {setup['inputs_s']:.4f} s)",
             "times are at the reference speed of perfbench/calibrate.py; "
             + harness.wall_summary(results)]
    lines += _metric_lines(shown)
    lines += [f"  {k}: {v}" for k, v in notes.items()]
    print("\n".join(lines))

    with open(OUT / f"result-{stem}.json", "w") as fh:
        json.dump({"provenance": prov, "setup": setup, "correct": correct,
                   "metrics": {n: {"value": v, "unit": u} for n, (v, u) in shown.items()},
                   "notes": notes}, fh, indent=1)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {n: {"value": v, "unit": u}
                                  for n, (v, u) in metrics.items()}}))
    return 0


def workload_notes(workload: str, results) -> dict:
    """Per-workload detail behind the counts, for the human-readable report."""
    from perfbench import outcome
    if workload == "verify":
        checked = [r.detail for r in results if r.detail is not None]
        return {"report_sha256_matches_reference": f"{sum(checked)} of {len(checked)}"}
    if workload == "edge-judge":
        parts = ("T", "Theta", "J", "end")
        table = {p: {c: 0 for c in outcome.CLASSES} for p in parts}
        for r in results:
            if len(r.parts) == len(parts):  # not a timeout
                for p, cls in zip(parts, r.parts):
                    table[p][cls] += 1
        return {"judgments_by_part": table}
    return {}


if __name__ == "__main__":
    sys.exit(main())
