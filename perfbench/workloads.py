"""The three seeded workloads and the output check of each operation.

A workload is built from a seed into a list of *passes*; a pass is a list of
operations.  Each operation has ``run()``, the timed call into the program,
and ``check(result)``, the untimed check that returns ``(parts, items)``:
the outcome class from :mod:`perfbench.outcome` of each part of the
operation (one part, or one per oracle value judged) and the number of
checked output items (trajectory rows, check verdicts or oracle judgments).

The passes of a workload are built from fixed strata of inputs; the seed
draws the values inside each stratum and the order of the operations.  That
keeps the mix of cheap and expensive operations the same from seed to seed,
so that two runs on different seeds measure the same thing.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from pathlib import Path

import numpy as np

from isochrone import analytic, cli, oracle, potential
from isochrone.analytic import OrbitConstants
from isochrone.potential import GaugeTerm

from . import outcome

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "verify_reference.json"

GAUGE_SPEC = "eps=0.1,lam=0.2"
GAUGE = GaugeTerm(0.1, 0.2)

# name -> (CLI flag, CLI spec, the same potential built in-process)
FAMILIES = {
    "kepler": ("--kepler", "mu=1", lambda: potential.from_kepler(1.0)),
    "henon": ("--henon", "mu=1,beta=1", lambda: potential.from_henon(1.0, 1.0)),
    "bounded": ("--bounded", "mu=1,beta=1", lambda: potential.from_bounded(1.0, 1.0)),
    "hollowed": ("--hollowed", "mu=1,beta=1",
                 lambda: potential.from_hollowed(1.0, 1.0)),
    "harmonic": ("--harmonic", "omega=2", lambda: potential.from_harmonic(2.0)),
}

# The seven verify batteries: five families and a gauged Henon, each with
# the Bertrand test, and a Plummer sphere as the negative control (exit 1).
BATTERIES = {
    "henon": ["--henon", "mu=1,beta=1", "--bertrand"],
    "kepler": ["--kepler", "mu=1", "--bertrand"],
    "bounded": ["--bounded", "mu=1,beta=1", "--bertrand"],
    "hollowed": ["--hollowed", "mu=1,beta=1", "--bertrand"],
    "harmonic": ["--harmonic", "omega=2", "--bertrand"],
    "henon-gauged": ["--henon", "mu=1,beta=1", "--gauge", GAUGE_SPEC, "--bertrand"],
    "plummer": ["--plummer", "b=1"],
}

LAMBDA_RANGE = (0.05, 5.0)

# ephemeris: every pass holds the same log grid of EPHEMERIS_PER_PASS sample
# counts over EPHEMERIS_SAMPLES, each size with the same kind of potential,
# so all passes weigh the same and a run of any number of passes measures
# the same mix.  The seed draws Lambda, the energy fraction, the periods
# and the order; the passes split the range of each into equal strata, and
# each size draws its value in a different stratum in each pass.  An odd
# count puts the median latency of a run among the operations of the middle
# size, not between two sizes.
EPHEMERIS_SAMPLES = (100, 100_000)
EPHEMERIS_PER_PASS = 25
EPHEMERIS_PASSES = 2
EPHEMERIS_FRACTION = (1e-6, 0.999)
# The five families and a gauged Henon.  The harmonic class costs about half
# as much per sample, so each size has a fixed kind, not one the seed draws.
EPHEMERIS_KINDS = [(name, False) for name in FAMILIES] + [("henon", True)]

# edge-judge: one pass holds every cell of families x gauge x Lambda level x
# fraction level once; each value moves by up to EDGE_JITTER decades.  The
# passes split that interval into equal strata and each pass draws its shift
# in a different one, so that a run samples every cell across the whole
# interval and the shares of failures vary little by seed.
EDGE_LAMBDAS = [0.05 * 100.0 ** (i / 3) for i in range(4)]
EDGE_FRACTIONS = [1e-9, 1e-6, 1e-3, 0.5, 1.0 - 1e-3, 1.0 - 1e-6]
EDGE_JITTER = 0.05
EDGE_PASSES = 2
# Latency limit of one judgment.  Near the bounded family's wall the ODE
# oracle can crawl for tens of seconds; such a judgment counts as a timeout.
EDGE_LIMIT_S = 1.0

VERIFY_PASSES = 40


def family_params(name: str, gauged: bool):
    params = FAMILIES[name][2]()
    return potential.apply_gauge(params, GAUGE) if gauged else params


def _strata(rng: random.Random, count: int) -> list[float]:
    """One point in each of ``count`` equal parts of [0, 1), in seeded order.

    Drawn once per pass for one input, so that the passes together cover its
    whole range whatever the seed.
    """
    u = rng.random()
    points = [(k + u) / count for k in range(count)]
    rng.shuffle(points)
    return points


def _log_between(lo: float, hi: float, u: float) -> float:
    return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


def _jitter_fraction(frac: float, u: float) -> float:
    """Move a fraction by (2u - 1) times EDGE_JITTER decades from its nearer end."""
    shift = 10.0 ** (EDGE_JITTER * (2.0 * u - 1.0))
    return frac * shift if frac < 0.5 else 1.0 - (1.0 - frac) * shift


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Call ``cli.main`` in-process; return its exit code and stderr text."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code
    return code, err.getvalue()


def _cli_failure(code: int, stderr: str):
    """Outcome of a CLI call that reported an error, else None."""
    if code in (2, 3) and stderr.startswith("error: "):
        return outcome.of_error_name(stderr[len("error: "):].split(":", 1)[0])
    return None


# ---------------------------------------------------------------------------
# ephemeris


class OrbitOp:
    """``isochrone orbit ... -o <file>``, checked row by row."""

    GATED = True  # any outcome but ok means the program's output is wrong

    def __init__(self, family: str, gauged: bool, lam: float, frac: float,
                 samples: int, periods: float, out: Path) -> None:
        self.params = family_params(family, gauged)
        self.oc = OrbitConstants(analytic.feasible_energy(self.params, lam, frac), lam)
        self.samples = samples
        self.out = out
        flag, spec, _ = FAMILIES[family]
        self.argv = ["orbit", flag, spec]
        if gauged:
            self.argv += ["--gauge", GAUGE_SPEC]
        self.argv += [f"--xi={self.oc.xi!r}", f"--lambda={lam!r}",
                      f"--samples={samples}", f"--periods={periods!r}",
                      "-o", str(out)]

    def run(self):
        return run_cli(self.argv)

    def check(self, result) -> tuple[tuple[str], int]:
        code, stderr = result
        failure = _cli_failure(code, stderr)
        if failure is not None:
            return (failure,), 0
        if code != 0 or not self.out.exists():
            return (outcome.WRONG,), 0
        rows = np.loadtxt(self.out, delimiter=",", skiprows=1, ndmin=2)
        self.out.unlink()
        if rows.shape != (self.samples, 7):
            return (outcome.WRONG,), 0
        t, e_anom, r = rows[:, 0], rows[:, 1], rows[:, 3]
        el = analytic.orbit_elements(self.params, self.oc)
        kepler = np.abs(e_anom - el.eps_eff * np.sin(e_anom) - el.omega_r * t)
        bad = (kepler > outcome.KEPLER_TOL) | (r < el.r_p) | (r > el.r_a)
        return (outcome.WRONG if bad.any() else outcome.OK,), self.samples


def ephemeris(seed: int, tmp: Path) -> list[list[OrbitOp]]:
    rng = random.Random(seed)
    lo, hi = (math.log10(n) for n in EPHEMERIS_SAMPLES)
    count = EPHEMERIS_PER_PASS
    grid = [round(10.0 ** (lo + (hi - lo) * k / (count - 1))) for k in range(count)]
    kinds = EPHEMERIS_KINDS
    out = [[] for _ in range(EPHEMERIS_PASSES)]
    for i, n in enumerate(grid):
        draws = zip(_strata(rng, EPHEMERIS_PASSES), _strata(rng, EPHEMERIS_PASSES),
                    _strata(rng, EPHEMERIS_PASSES))
        for ops, (u_lam, u_frac, u_per) in zip(out, draws):
            ops.append(OrbitOp(*kinds[i % len(kinds)],
                               _log_between(*LAMBDA_RANGE, u_lam),
                               _log_between(*EPHEMERIS_FRACTION, u_frac),
                               n, 1.0 + 2.0 * u_per, tmp / "orbit.csv"))
    for ops in out:
        # The largest operation runs first, on a fresh heap, so that the
        # peak memory of a run does not depend on the order of the others.
        largest = ops.pop()
        rng.shuffle(ops)
        ops.insert(0, largest)
    return out


# ---------------------------------------------------------------------------
# verify


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        ref = json.load(fh)
    for name, argv in BATTERIES.items():
        if ref["batteries"].get(name, {}).get("argv") != argv:
            raise RuntimeError(f"{REFERENCE.name} is stale for battery {name!r}; "
                               f"regenerate it with: {ref['command']}")
    return ref


def verdicts(report: dict) -> dict[str, bool]:
    return {c["name"]: c["pass"] for c in report["checks"]}


class VerifyOp:
    """``isochrone verify ... -o <file>``, checked against stored verdicts."""

    GATED = True

    def __init__(self, name: str, expected: dict, out: Path) -> None:
        self.name = name
        self.expected = expected
        self.out = out
        self.argv = ["verify", *BATTERIES[name], "-o", str(out)]
        self.detail = None  # whether the report's sha256 matched the reference

    def run(self):
        return run_cli(self.argv)

    def check(self, result) -> tuple[tuple[str], int]:
        code, stderr = result
        failure = _cli_failure(code, stderr)
        if failure is not None:
            return (failure,), 0
        if not self.out.exists():
            return (outcome.WRONG,), 0
        raw = self.out.read_bytes()
        self.out.unlink()
        report = json.loads(raw)
        self.detail = (hashlib.sha256(raw).hexdigest()
                       == self.expected["report_sha256"])
        ok = (code == self.expected["exit_code"]
              and verdicts(report) == self.expected["checks"])
        return (outcome.OK if ok else outcome.WRONG,), len(report["checks"])


def verify(seed: int, tmp: Path) -> list[list[VerifyOp]]:
    rng = random.Random(seed)
    ref = load_reference()["batteries"]
    return [[VerifyOp(name, ref[name], tmp / "verify.json")
             for name in rng.sample(list(BATTERIES), len(BATTERIES))]
            for _ in range(VERIFY_PASSES)]


# ---------------------------------------------------------------------------
# edge-judge


class JudgeOp:
    """Judge one closed-form orbit by the quadrature and ODE oracles."""

    # The oracle's failures are what this workload measures; only the closed
    # form the judgments compare against must be right (``reference_ok``).
    GATED = False
    # Looked up on each call, so that a tracer's wrappers are seen.
    QUADS = (("T", "quad_radial_period"), ("Theta", "quad_apsidal_angle"),
             ("J", "quad_radial_action"))

    def __init__(self, family: str, gauged: bool, lam: float, frac: float) -> None:
        self.params = family_params(family, gauged)
        self.setup_error = None
        try:
            self.oc = OrbitConstants(analytic.feasible_energy(self.params, lam, frac),
                                     lam)
        except Exception as exc:  # judged, not fatal: raised again by run()
            self.setup_error = exc

    def run(self):
        if self.setup_error is not None:
            raise self.setup_error
        params, oc = self.params, self.oc
        el = analytic.orbit_elements(params, oc)
        got = {}
        for key, quad in self.QUADS:
            got[key] = _attempt(lambda: getattr(oracle, quad)(params, oc).value)
        got["end"] = _attempt(lambda: oracle.integrate_orbit(
            params, oc, el.T, reltol=1e-11, t_eval=[el.T])[-1])
        end = analytic.trajectory(params, oc, [el.T])[0]
        return el, end, got

    def check(self, result) -> tuple[tuple[str, ...], int]:
        el, end, got = result
        refs = {"T": (el.T, el.T), "Theta": (el.Theta, el.Theta),
                "J": (el.J, max(el.J, 1.0))}
        parts = []
        for key, (ref, scale) in refs.items():
            parts.append(_judged(got[key], lambda v: abs(v - ref) / scale,
                                 outcome.QUAD_RTOL))
        parts.append(_judged(got["end"], lambda s: max(
            abs(s.r - end.r) / el.r_a, abs(s.theta - end.theta) / el.Theta),
            outcome.ODE_TOL))
        # One period after periastron the closed form is back at (r_p, Theta).
        self.reference_ok = (
            abs(end.r - el.r_p) <= outcome.QUAD_RTOL * el.r_a
            and abs(end.theta - el.Theta) <= outcome.QUAD_RTOL * el.Theta)
        returned = sum(p in (outcome.OK, outcome.WRONG) for p in parts)
        return tuple(parts), returned


def _attempt(call):
    try:
        return call()
    except Exception as exc:
        return exc


def _judged(value, residual, tol) -> str:
    if isinstance(value, Exception):
        return outcome.of_exception(value)
    return outcome.of_residual(residual(value), tol)


def edge_judge(seed: int, tmp: Path) -> list[list[JudgeOp]]:
    rng = random.Random(seed)
    lo, hi = LAMBDA_RANGE
    out = [[] for _ in range(EDGE_PASSES)]
    for family in FAMILIES:
        for gauged in (False, True):
            for lam in EDGE_LAMBDAS:
                lams = [min(max(lam * 10.0 ** (EDGE_JITTER * (2.0 * u - 1.0)), lo), hi)
                        for u in _strata(rng, EDGE_PASSES)]
                for frac in EDGE_FRACTIONS:
                    for ops, lam_k, u in zip(out, lams, _strata(rng, EDGE_PASSES)):
                        ops.append(JudgeOp(family, gauged, lam_k,
                                           _jitter_fraction(frac, u)))
    for ops in out:
        rng.shuffle(ops)
    return out


WORKLOADS = {"ephemeris": ephemeris, "verify": verify, "edge-judge": edge_judge}
LIMITS = {"edge-judge": EDGE_LIMIT_S}
