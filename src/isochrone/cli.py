"""Command-line front end: classification, orbit elements, trajectories, verification.

Subcommands
-----------
classify : report the family, discriminant, vertical tangent and domain
elements : per-(xi, Lambda) table of T, Theta, J, Omega, ecc, alpha, turning points
orbit    : sample one trajectory (CSV columns t,E,x,r,theta,zJ,zLambda)
table    : elements rendered as an aligned text table
verify   : JSON report of oracle comparisons and theorem checks

Exit codes: 0 success, 1 verification failure (a failed check or any other
refusal), 2 invalid input, 3 no bound orbit.  Floats are printed with 17
significant digits so outputs round-trip binary64 exactly and runs are
byte-stable; the orbit CSV is formatted in numpy chunks, byte for byte as
``%.17g``.  ``orbit`` computes and writes its CSV in blocks of 4096 rows, so
its memory does not depend on ``--samples`` (a fresh process peaks at about
33 MB RSS from 1e5 to 3e6 samples); a refusal still comes before the first
byte.  The ISOCHRONE_LOG environment variable sets the logging level.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import logging
import math
import os
import re
import sys
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from . import _g17, analytic, birkhoff, oracle, potential
from .analytic import OrbitConstants
from .errors import (
    InvalidParams,
    IsochroneError,
    NoBoundOrbit,
    NoCircularOrbit,
    OutOfDomain,
    SingularPoint,
    UnboundOrbit,
)
from .potential import GaugeTerm, ParabolaParams, PotentialFamily

log = logging.getLogger("isochrone")

_INPUT_ERRORS = (InvalidParams, OutOfDomain, SingularPoint)
_ORBIT_ERRORS = (NoBoundOrbit, UnboundOrbit, NoCircularOrbit)


def fmt(x: float) -> str:
    """17-significant-digit formatting; exact binary64 round trip."""
    return f"{x:.17g}"


def _json_text(obj, indent: int = 0) -> str:
    """Deterministic JSON with 17-significant-digit floats."""
    pad = "  " * indent
    pad_in = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{pad_in}"{k}": {_json_text(v, indent + 1)}'
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{pad_in}{_json_text(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, float):
        return fmt(obj)
    if isinstance(obj, int):
        return str(obj)
    return json.dumps(obj)


def _emit(text: str, output: Optional[str]) -> None:
    if not text.endswith("\n"):
        text += "\n"
    _emit_bytes([text.encode()], output)


def _emit_bytes(chunks: Iterable[bytes], output: Optional[str]) -> None:
    if output:
        with open(output, "wb") as fh:
            fh.writelines(chunks)
        return
    buffer = getattr(sys.stdout, "buffer", None)
    if buffer is None:  # a text-only stream such as io.StringIO
        sys.stdout.writelines(chunk.decode() for chunk in chunks)
        return
    sys.stdout.flush()  # text written before goes out first
    buffer.writelines(chunks)


# ---------------------------------------------------------------------------
# argument handling


def _number(token: str, what: str, kind: type = float) -> float:
    """kind(token), or InvalidParams naming the token."""
    try:
        return kind(token)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise InvalidParams(f"{what}: {token!r} is not {noun}") from None


def _parse_kv(spec: str, fields: dict[str, Optional[float]],
              what: str) -> dict[str, float]:
    """Parse 'mu=1,beta=2' against {field: default}; a None default is required.

    A bare number is allowed for single-field specs.  Only the given values
    are returned, in the order given.
    """
    out: dict[str, float] = {}
    spec = spec.strip()
    if "=" not in spec and len(fields) == 1:
        return {next(iter(fields)): _number(spec, what)}
    for token in spec.split(","):
        if not token:
            continue
        key, _, val = token.partition("=")
        key = key.strip()
        if key not in fields:
            raise InvalidParams(f"unknown {what} parameter {key!r} "
                                f"(expected {', '.join(fields)})")
        out[key] = _number(val, f"{what} parameter {key}")
    missing = [f for f, default in fields.items() if default is None and f not in out]
    if missing:
        raise InvalidParams(f"{what} spec missing {', '.join(missing)}")
    return out


def _parse_grid(spec: str) -> list[float]:
    """'lo:hi:n' -> n inclusive linearly spaced values; a bare float is a 1-grid."""
    parts = spec.split(":")
    if len(parts) == 1:
        return [_number(parts[0], "grid spec")]
    if len(parts) != 3:
        raise InvalidParams(f"grid spec must be lo:hi:n, got {spec!r}")
    lo, hi = (_number(v, f"grid spec {spec!r}") for v in parts[:2])
    n = _number(parts[2], f"grid spec {spec!r}", int)
    if n < 1:
        raise InvalidParams("grid count must be >= 1")
    if n == 1:
        return [lo]
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


# The named potentials: flag -> (constructor, {field: default}), where a
# None default marks a required field.
_NAMED = {
    "kepler": (potential.from_kepler, {"mu": 1.0}),
    "harmonic": (potential.from_harmonic, {"omega": None}),
    "henon": (potential.from_henon, {"mu": 1.0, "beta": None}),
    "bounded": (potential.from_bounded, {"mu": 1.0, "beta": None}),
    "hollowed": (potential.from_hollowed, {"mu": 1.0, "beta": None}),
    "plummer": (oracle.plummer_potential, {"b": 1.0, "mu": 1.0}),
}
_GAUGE_FIELDS = {"eps": 0.0, "lam": 0.0}
_POTENTIAL_FLAGS = ("latin", *_NAMED)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--latin", metavar="a,b,c,d,e")
    for flag, (_, fields) in _NAMED.items():
        p.add_argument(f"--{flag}", metavar=",".join(f"{f}=" for f in fields))
    p.add_argument("--gauge", metavar="eps=,lam=")
    p.add_argument("--xi", type=float)
    p.add_argument("--lambda", dest="lam", type=float)
    p.add_argument("--xi-grid", metavar="lo:hi:n")
    p.add_argument("--lambda-grid", metavar="lo:hi:n")
    p.add_argument("--samples", type=int)
    p.add_argument("--periods", type=float)
    p.add_argument("--format", choices=("csv", "json"))
    p.add_argument("--config", metavar="PATH")
    p.add_argument("--output", "-o", metavar="PATH")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isochrone",
        description="Analytic isochrone-potential orbits with numeric verification.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("classify", "classify a potential and report its geometry"),
        ("elements", "orbit elements over a (xi, Lambda) grid"),
        ("orbit", "sample one analytic trajectory"),
        ("table", "orbit elements as an aligned text table"),
        ("verify", "run the verification battery, emit a JSON report"),
    ):
        p = sub.add_parser(name, help=helptext)
        _add_common(p)
        # Let grid specs like -0.15:-0.05:3 pass as option values; no option
        # here starts with a digit, so the relaxed matcher is unambiguous.
        p._negative_number_matcher = re.compile(r"^-(\d|\.\d)")
        if name == "verify":
            p.add_argument("--bertrand", action="store_const", const=True,
                           default=None)
    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser of ``main``, built on its first call and then reused: each
    parse starts from a new namespace, so no call carries into the next."""
    return build_parser()


def _apply_config(args: argparse.Namespace) -> None:
    if not args.config:
        return
    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or bad UTF-8
        raise InvalidParams(f"cannot read config file {args.config!r}: {exc}") from None
    if not isinstance(cfg, dict):
        raise InvalidParams("config file must contain a JSON object")
    # A config value is converted and checked as the same option would be on
    # the command line.
    common = argparse.ArgumentParser(add_help=False)
    _add_common(common)
    actions = {action.dest: action for action in common._actions}
    for key, val in cfg.items():
        attr = key.replace("-", "_")
        if attr == "lambda":
            attr = "lam"
        if not hasattr(args, attr):
            raise InvalidParams(f"unknown config key {key!r}")
        if getattr(args, attr) is None:
            action = actions.get(attr)
            if action is not None and action.type is not None:
                val = _number(str(val), f"config key {key!r}", action.type)
            if action is not None and action.choices and val not in action.choices:
                raise InvalidParams(f"config key {key!r}: {val!r} is not one of "
                                    f"{', '.join(action.choices)}")
            setattr(args, attr, val)


def _resolve_potential(args: argparse.Namespace, allow_generic: bool = False):
    """Return (params, generic, description).  Exactly one spec form allowed."""
    present = [f for f in _POTENTIAL_FLAGS if getattr(args, f) is not None]
    if len(present) != 1:
        raise InvalidParams(
            "exactly one potential spec is required "
            f"(got {', '.join(present) or 'none'})")
    form = present[0]
    raw = getattr(args, form)
    desc: dict = {"form": form}
    if form == "latin":
        vals = [_number(v, "--latin") for v in str(raw).split(",")]
        if len(vals) != 5:
            raise InvalidParams("--latin needs exactly five coefficients")
        pot = ParabolaParams(*vals)
    else:
        ctor, fields = _NAMED[form]
        kv = _parse_kv(str(raw), fields, form)
        pot = ctor(**{**fields, **kv})
        desc["greek"] = kv
    if not isinstance(pot, ParabolaParams):
        if args.gauge is not None:
            raise InvalidParams("--gauge applies only to parabola potentials")
        if not allow_generic:
            raise InvalidParams(f"the {args.command} command needs a parabola potential")
        desc["class"] = pot.name
        return None, pot, desc
    if args.gauge is not None:
        kv = _parse_kv(str(args.gauge), _GAUGE_FIELDS, "gauge")
        pot = potential.apply_gauge(pot, GaugeTerm(*{**_GAUGE_FIELDS, **kv}.values()))
        desc["gauge"] = kv
    desc["latin"] = list(pot.as_tuple())
    desc["class"] = str(potential.classify(pot))
    return pot, None, desc


def _particle_grids(args: argparse.Namespace) -> tuple[list[float], list[float]]:
    def grid(flag: str, spec: Optional[str], value: Optional[float]) -> list[float]:
        if spec is not None:
            return _parse_grid(spec)
        if value is None:
            raise InvalidParams(f"provide --{flag} or --{flag}-grid")
        return [value]

    return grid("xi", args.xi_grid, args.xi), grid("lambda", args.lambda_grid, args.lam)


# ---------------------------------------------------------------------------
# subcommands


def cmd_classify(args: argparse.Namespace) -> int:
    params, _, desc = _resolve_potential(args)
    cls = potential.classify(params)
    bits = [str(cls), f"delta={fmt(params.delta)}"]
    if params.b != 0.0:
        bits.append(f"x_v={fmt(params.x_v)}")
    xlo, xhi = potential.domain(params)
    dom_hi = "inf" if math.isinf(xhi) else fmt(xhi)
    bits.append(f"domain=[{fmt(xlo)}, {dom_hi}]")
    if "greek" in desc:
        greek = ",".join(f"{k}={fmt(float(v))}" for k, v in desc["greek"].items())
        bits.append(f"greek=({greek})")
    latin = ",".join(fmt(v) for v in params.as_tuple())
    bits.append(f"latin=({latin})")
    _emit(", ".join(bits), args.output)
    return 0


_ELEM_COLS = ("xi", "lambda", "T", "Theta", "J", "Omega", "ecc", "alpha",
              "x_p", "x_a", "error")


def _element_rows(params: ParabolaParams, xis: Sequence[float],
                  lams: Sequence[float]) -> tuple[list[dict], list[IsochroneError]]:
    """The rows of the grid, and the errors of the rows refused, in order."""
    rows, errors = [], []
    for xi in xis:
        for lam in lams:
            row: dict = {"xi": xi, "lambda": lam}
            try:
                el = analytic.orbit_elements(params, OrbitConstants(xi, lam))
                alpha = math.sqrt(abs(el.alpha2)) if el.alpha2 is not None else None
                row.update(T=el.T, Theta=el.Theta, J=el.J, Omega=el.omega_r,
                           ecc=el.ecc, alpha=alpha, x_p=el.x_p, x_a=el.x_a,
                           error=None)
            except IsochroneError as exc:
                row.update(dict.fromkeys(_ELEM_COLS[2:-1]),
                           error=f"{type(exc).__name__}: {exc}")
                errors.append(exc)
            rows.append(row)
    return rows, errors


def _rows_to_csv(rows: list[dict], cols: Sequence[str]) -> str:
    def cell(v) -> str:
        if v is None:
            return ""
        if isinstance(v, float):
            return fmt(v)
        return str(v).replace(",", ";")

    lines = [cols] + [[cell(row.get(c)) for c in cols] for row in rows]
    return "".join(",".join(line) + "\n" for line in lines)


def _columns_to_csv(cols: Sequence[str],
                    blocks: Iterable[Sequence[np.ndarray]]) -> Iterator[bytes]:
    """CSV of float columns in chunks: the bytes of _rows_to_csv with fmt cells.

    Each block is a sequence of equal-length columns, read only when its rows
    are due; its rows follow those of the block before.
    """
    yield (",".join(cols) + "\n").encode("ascii")
    for columns in blocks:
        yield from _g17.csv_rows(columns)


def _columns_to_json(head: dict, cols: Sequence[str],
                     blocks: Iterable[Sequence[np.ndarray]]) -> Iterator[bytes]:
    """The bytes of _emit(_json_text({**head, "samples": rows})), in chunks:
    ``rows`` holds one dict of ``cols`` per row of the blocks, fmt cells.

    Each row fills one bytes template from its CSV row, whose cells are the
    same ``%.17g``; blocks are read as in _columns_to_csv.
    """
    # The head's text ends in "\n}", where the samples go in.
    yield (_json_text(head)[:-2] + ',\n  "samples": [\n').encode()
    row = ("    {\n" + ",\n".join(f'      "{c}": %s' for c in cols)
           + "\n    }").encode()
    sep = b""
    for columns in blocks:
        for chunk in _g17.csv_rows(columns):
            yield sep + b",\n".join(row % tuple(line.split(b","))
                                    for line in chunk.splitlines())
            sep = b",\n"
    yield b"\n  ]\n}\n"


def _rows_to_table(rows: list[dict], cols: Sequence[str]) -> str:
    def cell(v) -> str:
        if v is None:
            return "-"
        if isinstance(v, float):
            return f"{v:.10g}"
        return str(v)

    grid = [list(cols)] + [[cell(r.get(c)) for c in cols] for r in rows]
    widths = [max(len(line[i]) for line in grid) for i in range(len(cols))]
    out = []
    for line in grid:
        out.append("  ".join(s.rjust(w) for s, w in zip(line, widths)))
    return "\n".join(out) + "\n"


def cmd_elements(args: argparse.Namespace, as_table: bool = False) -> int:
    params, _, desc = _resolve_potential(args)
    xis, lams = _particle_grids(args)
    rows, errors = _element_rows(params, xis, lams)
    if as_table:
        _emit(_rows_to_table(rows, _ELEM_COLS), args.output)
    elif (args.format or "csv") == "json":
        _emit(_json_text({"potential": desc, "rows": rows}), args.output)
    else:
        _emit(_rows_to_csv(rows, _ELEM_COLS), args.output)
    if len(errors) == len(rows):
        # A grid of invalid points is invalid input (exit 2), not a missing orbit.
        if all(isinstance(exc, _INPUT_ERRORS) for exc in errors):
            raise errors[0]
        raise NoBoundOrbit("no grid point admits a bound orbit")
    return 0


_ORBIT_COLS = ("t", "E", "x", "r", "theta", "zJ", "zLambda")
# Rows of the orbit CSV computed at once: 32 KiB per column, so that memory
# does not grow with --samples.
_BLOCK = 8 * _g17.CHUNK


def cmd_orbit(args: argparse.Namespace) -> int:
    params, _, desc = _resolve_potential(args)
    if args.xi is None or args.lam is None:
        raise InvalidParams("orbit needs a single --xi and --lambda")
    oc = OrbitConstants(args.xi, args.lam)
    el = analytic.orbit_elements(params, oc)
    n = args.samples if args.samples is not None else 100
    periods = args.periods if args.periods is not None else 1.0
    if n < 1 or periods <= 0.0:
        raise InvalidParams("--samples must be >= 1 and --periods > 0")

    def block(start: int, stop: int) -> analytic.Trajectory:
        """The trajectory at rows start .. stop - 1 of the n sample times."""
        times = periods * el.T * np.arange(start, stop) / (n - 1) if n > 1 \
            else np.zeros(1)
        return analytic.trajectory(params, el, times)

    # Times rise with the row, so the last block holds the largest anomaly
    # and any time that is not finite: computed first, it raises every
    # refusal before a byte is written.
    starts = range(0, n, _BLOCK)
    last = block(starts[-1], n)
    blocks = itertools.chain((block(s, s + _BLOCK) for s in starts[:-1]), [last])
    columns = (b.columns() for b in blocks)
    if (args.format or "csv") == "json":
        head = {"potential": desc, "constants": {"xi": oc.xi, "lambda": oc.lam}}
        _emit_bytes(_columns_to_json(head, _ORBIT_COLS, columns), args.output)
    else:
        _emit_bytes(_columns_to_csv(_ORBIT_COLS, columns), args.output)
    return 0


# ---------------------------------------------------------------------------
# verification battery


def _rel(value: float, ref: float, floor: float = 0.0) -> float:
    """Relative residual |value - ref| / max(|ref|, floor)."""
    return abs(value - ref) / max(abs(ref), floor)


def _check(checks: list[dict], name: str, residuals: Iterable[float],
           tolerance: float, **extra) -> dict:
    """Append and return the record of one check: its largest residual.

    A NaN residual is reported as NaN and fails.
    """
    values = [0.0, *residuals]
    residual = math.nan if any(map(math.isnan, values)) else max(values)
    rec = {"name": name, "residual": residual, "tolerance": tolerance,
           "pass": bool(residual <= tolerance)}
    rec.update(extra)
    checks.append(rec)
    return rec


def _verify_parabola(params: ParabolaParams, lams: Sequence[float],
                     tol: float, with_bertrand: bool) -> list[dict]:
    checks: list[dict] = []
    cls = potential.classify(params)
    b = params.b

    # Universal parabola ODE 3 Y2 Y4 = 5 Y3^2 on interior points.
    xlo, xhi = potential.domain(params)
    hi_ref = xhi if math.isfinite(xhi) else max(100.0, 100.0 * max(xlo, 1.0))
    xs = [xlo + (hi_ref - xlo) * (10.0 ** (-6.0 + 5.9 * i / 19)) for i in range(20)]
    derivs = [potential.y_derivatives(params, x, 4) for x in xs]
    _check(checks, "parabola_ode_residual",
           (_rel(3.0 * y2 * y4, 5.0 * y3 * y3, 1.0) for _, y2, y3, y4 in derivs),
           1e-10)

    # The feasible grid: each orbit's elements and the three quadratures of
    # its oracle orbit, all solved in one call.  The first refusal is raised
    # in grid order, each orbit's elements before its oracle orbit.
    ocs, els, refusal = [], [], None
    try:
        for lam in lams:
            for frac in (0.35, 0.7):
                oc = OrbitConstants(analytic.feasible_energy(params, lam, frac), lam)
                els.append(analytic.orbit_elements(params, oc))
                ocs.append(oc)
    except Exception as exc:  # raised after the orbits before it
        refusal = exc
    grid = []
    for el, orbit in zip(els, oracle.solve_orbits(params, ocs)):
        if isinstance(orbit, Exception):
            raise orbit
        grid.append((el, orbit.radial_period().value, orbit.apsidal_angle().value,
                     orbit.radial_action().value))
    if refusal is not None:
        raise refusal
    freqs = [analytic.frequencies(params, el.J, el.lam) for el in els]
    _check(checks, "identity_omega_times_T",
           (_rel(el.omega_r * el.T, 2 * math.pi) for el in els), 1e-10)
    _check(checks, "identity_frequency_ratio",
           (_rel(om_l / om_j, el.Theta / (2 * math.pi))
            for el, (om_j, om_l) in zip(els, freqs)), 1e-10)
    _check(checks, "identity_theta_pi_half_apsidal",
           (_rel(analytic.angle_of_E(el, math.pi), el.Theta / 2) for el in els), 1e-10)
    _check(checks, "hamiltonian_roundtrip",
           (_rel(analytic.hamiltonian(params, el.J, el.lam), el.xi, 1.0) for el in els),
           1e-10)
    if b != 0.0:
        rhs = math.sqrt(params.delta / (2.0 * abs(b) ** 3))
        _check(checks, "identity_third_law_alpha",
               (_rel(el.omega_r**2 * abs(el.alpha2) ** 1.5, rhs) for el in els), 1e-10)
    _check(checks, "oracle_radial_period", (_rel(qt, el.T) for el, qt, _, _ in grid), tol)
    _check(checks, "oracle_apsidal_angle",
           (_rel(qh, el.Theta) for el, _, qh, _ in grid), tol)
    _check(checks, "oracle_radial_action",
           (_rel(qj, el.J, 1.0) for el, _, _, qj in grid), tol)

    # Third law via the circular-energy route.
    xi_mids = [analytic.feasible_energy(params, lam, 0.5) for lam in lams]
    _check(checks, "third_law_consistency",
           (_rel(birkhoff.third_law(params, xi), analytic.radial_period(params, xi))
            for xi in xi_mids), 1e-10)

    # Isochrony of the quadrature period at fixed energy.
    lam_mid, xi_fix = lams[len(lams) // 2], xi_mids[len(lams) // 2]
    adm = []
    for lam in lams:
        try:
            analytic.orbit_elements(params, OrbitConstants(xi_fix, lam))
            adm.append(lam)
        except IsochroneError:
            continue
    if len(adm) >= 2:
        _check(checks, "isochrony_spread",
               [oracle.isochrony_spread(params, xi_fix, adm)], tol)
    else:  # the report has no isochrony_spread record
        log.debug("isochrony_spread skipped: %d admissible Lambda at xi_fix = %s",
                  len(adm), fmt(xi_fix))

    # Birkhoff route equality and the theorem residuals.
    routes = [(birkhoff.invariants_from_potential(params, lam),
               birkhoff.invariants_from_period(params, lam)) for lam in lams]
    _check(checks, "birkhoff_route_l", (_rel(i1.l, i2.l, 1.0) for i1, i2 in routes), 1e-10)
    _check(checks, "birkhoff_route_b", (_rel(i1.b_inv, i2.b_inv) for i1, i2 in routes),
           1e-10)
    _check(checks, "birkhoff_route_B",
           (_rel(i1.B_inv, i2.B_inv, 1.0) for i1, i2 in routes), 1e-6)
    thm = birkhoff.isochrone_theorem_check(params, lams)
    _check(checks, "isochrone_theorem_invariant_ode",
           (c.invariant_ode_residual for c in thm), 1e-6)
    _check(checks, "isochrone_theorem_parabola_ode",
           (c.potential_ode_residual for c in thm), 1e-6)

    # Frequency-map wedge invariants at the actions of the orbit at xi_fix.
    j_fix = analytic.radial_action(params, OrbitConstants(xi_fix, lam_mid))
    fi = birkhoff.frequency_invariants(params, j_fix, lam_mid)
    _check(checks, "frequency_invariant_isochrony", [abs(fi.j_inv)], 1e-6,
           g_inv=fi.g_inv, t_inv=fi.t_inv)

    # One eccentric trajectory against the ODE oracle.
    oc = OrbitConstants(analytic.feasible_energy(params, lam_mid, 0.6), lam_mid)
    el = analytic.orbit_elements(params, oc)
    times = np.linspace(0.0, el.T, 101)
    traj = analytic.trajectory(params, el, times)
    states = oracle.integrate_orbit(params, oc, el.T, reltol=1e-11, t_eval=times)
    _check(checks, "trajectory_vs_ode_radius",
           (abs(r - st.r) / el.r_a for r, st in zip(traj.r.tolist(), states)), 1e-6)
    _check(checks, "trajectory_vs_ode_angle",
           (abs(th - st.theta) / el.Theta for th, st in zip(traj.theta.tolist(), states)),
           1e-6)
    if b != 0.0 and params.x_v > 0.0:
        th, im = analytic.angle_of_E_with_residual(el, np.linspace(0.0, math.pi, 41))
        _check(checks, "complex_branch_imaginary_residual",
               (im / np.maximum(np.abs(th), 1e-30)).tolist(), 1e-12)

    if with_bertrand:
        q_fit, q_res = birkhoff.bertrand_check(params, lams)
        # A gauge term lam / (2 r^2) keeps a potential isochrone but not
        # Bertrand: Q is constant only where no 1/r^2 term is left.
        harmonic = cls.family is PotentialFamily.HARMONIC
        bertrand = (params.e == 0.0 if harmonic
                    else cls.kepler_degenerate and params.d == 0.0)
        if bertrand:
            q_expect = 0.5 if harmonic else 1.0
            _check(checks, "bertrand_constant_Q", [abs(q_fit - q_expect), q_res], 1e-6,
                   q_fit=q_fit)
        else:
            # Non-Bertrand isochrones must fail the constant-Q fit.
            rec = _check(checks, "bertrand_non_constant_Q", [q_res], 1e-6, q_fit=q_fit)
            rec["pass"] = bool(q_res > 1e-6)
    return checks


def _verify_generic(gen: oracle.RadialPotential, xi: float,
                    lams: Sequence[float], tol: float) -> list[dict]:
    checks: list[dict] = []
    _check(checks, "isochrony_spread", [oracle.isochrony_spread(gen, xi, lams)], tol)
    orbit = oracle.solve_orbit(gen, OrbitConstants(xi, lams[0]))
    states = orbit.integrate(4.0 * orbit.radial_period().value, reltol=1e-10)
    _check(checks, "ode_energy_drift", (s.energy_drift for s in states), 1e-9)
    return checks


def cmd_verify(args: argparse.Namespace) -> int:
    params, generic, desc = _resolve_potential(args, allow_generic=True)
    tol = 1e-8
    default_grid = "0.3:0.75:10" if generic is not None else "0.6:1.4:5"
    lams = _parse_grid(args.lambda_grid if args.lambda_grid is not None else default_grid)
    if generic is not None:
        if args.bertrand:
            raise InvalidParams("--bertrand applies only to parabola potentials")
        xi = args.xi if args.xi is not None else -0.4
        checks = _verify_generic(generic, xi, lams, tol)
    else:
        checks = _verify_parabola(params, lams, tol, with_bertrand=bool(args.bertrand))
    passed = all(c["pass"] for c in checks)
    report = {"potential": desc, "tolerance": tol, "checks": checks,
              "passed": passed}
    _emit(_json_text(report), args.output)
    return 0 if passed else 1


# ---------------------------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
    level = os.environ.get("ISOCHRONE_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")
    args = _parser().parse_args(argv)
    try:
        _apply_config(args)
        log.debug("dispatch %s", args.command)
        if args.command == "classify":
            return cmd_classify(args)
        if args.command == "elements":
            return cmd_elements(args)
        if args.command == "table":
            return cmd_elements(args, as_table=True)
        if args.command == "orbit":
            return cmd_orbit(args)
        return cmd_verify(args)
    except IsochroneError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        if isinstance(exc, _ORBIT_ERRORS):
            return 3
        return 2 if isinstance(exc, _INPUT_ERRORS) else 1


if __name__ == "__main__":
    sys.exit(main())
