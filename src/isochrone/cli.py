"""Command-line front end: classification, orbit elements, trajectories, verification.

Subcommands
-----------
classify : report the family, discriminant, vertical tangent and domain
elements : per-(xi, Lambda) table of T, Theta, J, Omega, ecc, alpha, turning points
orbit    : sample one trajectory (CSV columns t,E,x,r,theta,zJ,zLambda)
table    : elements rendered as an aligned text table
verify   : JSON report of oracle comparisons and theorem checks

Exit codes: 0 success, 1 verification failure, 2 invalid input, 3 no bound
orbit.  Floats are printed with 17 significant digits so outputs round-trip
binary64 exactly and runs are byte-stable.  The ISOCHRONE_LOG environment
variable sets the logging level.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import re
import sys
from typing import Optional, Sequence

import numpy as np

from . import analytic, birkhoff, oracle, potential
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
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# argument handling


def _number(token: str, what: str, kind: type = float) -> float:
    """kind(token), or InvalidParams naming the token."""
    try:
        return kind(token)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise InvalidParams(f"{what}: {token!r} is not {noun}") from None


def _parse_kv(spec: str, fields: Sequence[str], what: str) -> dict[str, float]:
    """Parse 'mu=1,beta=2' (a bare number is allowed for single-field specs)."""
    out: dict[str, float] = {}
    spec = spec.strip()
    if "=" not in spec and len(fields) == 1:
        return {fields[0]: _number(spec, what)}
    for token in spec.split(","):
        if not token:
            continue
        key, _, val = token.partition("=")
        key = key.strip()
        if key not in fields:
            raise InvalidParams(f"unknown {what} parameter {key!r} "
                                f"(expected {', '.join(fields)})")
        out[key] = _number(val, f"{what} parameter {key}")
    missing = [f for f in fields if f not in out and f != "mu"]
    if missing and what != "plummer" and what != "gauge":
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


_POTENTIAL_FLAGS = ("latin", "kepler", "harmonic", "henon", "bounded",
                    "hollowed", "plummer")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--latin", metavar="a,b,c,d,e")
    p.add_argument("--kepler", metavar="mu=")
    p.add_argument("--harmonic", metavar="omega=")
    p.add_argument("--henon", metavar="mu=,beta=")
    p.add_argument("--bounded", metavar="mu=,beta=")
    p.add_argument("--hollowed", metavar="mu=,beta=")
    p.add_argument("--plummer", metavar="b=[,mu=]")
    p.add_argument("--gauge", metavar="eps=,lam=")
    p.add_argument("--xi", type=float)
    p.add_argument("--lambda", dest="lam", type=float)
    p.add_argument("--xi-grid", metavar="lo:hi:n")
    p.add_argument("--lambda-grid", metavar="lo:hi:n")
    p.add_argument("--samples", type=int)
    p.add_argument("--periods", type=float)
    p.add_argument("--format", choices=("csv", "json"))
    p.add_argument("--config", metavar="PATH")
    p.add_argument("--tol", type=float)
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
    params = None
    generic = None
    if form == "latin":
        vals = [_number(v, "--latin") for v in str(raw).split(",")]
        if len(vals) != 5:
            raise InvalidParams("--latin needs exactly five coefficients")
        params = ParabolaParams(*vals)
    elif form == "kepler":
        kv = _parse_kv(str(raw), ("mu",), "kepler")
        params = potential.from_kepler(kv.get("mu", 1.0))
        desc["greek"] = kv
    elif form == "harmonic":
        kv = _parse_kv(str(raw), ("omega",), "harmonic")
        params = potential.from_harmonic(kv["omega"])
        desc["greek"] = kv
    elif form == "plummer":
        kv = _parse_kv(str(raw), ("b", "mu"), "plummer")
        generic = oracle.plummer_potential(mu=kv.get("mu", 1.0), b=kv.get("b", 1.0))
        desc["greek"] = kv
    else:
        kv = _parse_kv(str(raw), ("mu", "beta"), form)
        ctor = {"henon": potential.from_henon,
                "bounded": potential.from_bounded,
                "hollowed": potential.from_hollowed}[form]
        params = ctor(kv.get("mu", 1.0), kv["beta"])
        desc["greek"] = kv
    if args.gauge is not None:
        if params is None:
            raise InvalidParams("--gauge applies only to parabola potentials")
        kv = _parse_kv(str(args.gauge), ("eps", "lam"), "gauge")
        params = potential.apply_gauge(
            params, GaugeTerm(kv.get("eps", 0.0), kv.get("lam", 0.0)))
        desc["gauge"] = kv
    if generic is not None and not allow_generic:
        raise InvalidParams(f"the {args.command} command needs a parabola potential")
    if params is not None:
        desc["latin"] = list(params.as_tuple())
        desc["class"] = str(potential.classify(params))
    else:
        desc["class"] = generic.name
    return params, generic, desc


def _particle_grids(args: argparse.Namespace) -> tuple[list[float], list[float]]:
    if args.xi_grid is not None:
        xis = _parse_grid(args.xi_grid)
    elif args.xi is not None:
        xis = [args.xi]
    else:
        raise InvalidParams("provide --xi or --xi-grid")
    if args.lambda_grid is not None:
        lams = _parse_grid(args.lambda_grid)
    elif args.lam is not None:
        lams = [args.lam]
    else:
        raise InvalidParams("provide --lambda or --lambda-grid")
    if not xis or not lams:
        raise InvalidParams("grids must be non-empty")
    return xis, lams


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
                  lams: Sequence[float]) -> list[dict]:
    rows = []
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
                row.update(T=None, Theta=None, J=None, Omega=None, ecc=None,
                           alpha=None, x_p=None, x_a=None,
                           error=f"{type(exc).__name__}: {exc}")
            rows.append(row)
    return rows


def _rows_to_csv(rows: list[dict], cols: Sequence[str]) -> str:
    lines = [",".join(cols)]
    for row in rows:
        cells = []
        for c in cols:
            v = row.get(c)
            if v is None:
                cells.append("")
            elif isinstance(v, float):
                cells.append(fmt(v))
            else:
                cells.append(str(v).replace(",", ";"))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _columns_to_csv(cols: Sequence[str], columns: Sequence[np.ndarray]) -> str:
    """CSV of float columns: the bytes of _rows_to_csv with fmt cells."""
    line = ",".join(["%.17g"] * len(cols)) + "\n"
    cells = tuple(np.column_stack(columns).ravel().tolist())
    return (",".join(cols) + "\n" + line * len(columns[0])) % cells


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
    rows = _element_rows(params, xis, lams)
    if as_table:
        _emit(_rows_to_table(rows, _ELEM_COLS), args.output)
    elif (args.format or "csv") == "json":
        _emit(_json_text({"potential": desc, "rows": rows}), args.output)
    else:
        _emit(_rows_to_csv(rows, _ELEM_COLS), args.output)
    if all(r["error"] is not None for r in rows):
        raise NoBoundOrbit("no grid point admits a bound orbit")
    return 0


_ORBIT_COLS = ("t", "E", "x", "r", "theta", "zJ", "zLambda")


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
    times = periods * el.T * np.arange(n) / (n - 1) if n > 1 else np.zeros(1)
    traj = analytic.trajectory(params, oc, times)
    if (args.format or "csv") == "json":
        rows = [{"t": s.t, "E": s.E, "x": s.x, "r": s.r, "theta": s.theta,
                 "zJ": s.z_j, "zLambda": s.z_lam} for s in traj]
        _emit(_json_text({"potential": desc,
                          "constants": {"xi": oc.xi, "lambda": oc.lam},
                          "samples": rows}), args.output)
    else:
        _emit(_columns_to_csv(_ORBIT_COLS, traj.columns()), args.output)
    return 0


# ---------------------------------------------------------------------------
# verification battery


def _check(name: str, residual: float, tolerance: float, **extra) -> dict:
    rec = {"name": name, "residual": residual, "tolerance": tolerance,
           "pass": bool(residual <= tolerance)}
    rec.update(extra)
    return rec


def _verify_parabola(params: ParabolaParams, lams: Sequence[float],
                     tol: float, with_bertrand: bool) -> list[dict]:
    checks: list[dict] = []
    cls = potential.classify(params)
    b = params.b

    # Universal parabola ODE on interior points.
    xlo, xhi = potential.domain(params)
    hi_ref = xhi if math.isfinite(xhi) else max(100.0, 100.0 * max(xlo, 1.0))
    span = hi_ref - xlo
    xs = [xlo + span * (10.0 ** (-6.0 + 5.9 * i / 19)) for i in range(20)]
    worst = 0.0
    for x in xs:
        if b != 0.0:
            _, y2, y3, y4 = potential.y_derivatives(params, x, 4)
            denom = max(1.0, abs(5.0 * y3 * y3))
            worst = max(worst, abs(potential.ode_residual_from_derivatives(
                y2, y3, y4)) / denom)
    checks.append(_check("parabola_ode_residual", worst, 1e-10))

    # Identity suite over a feasible grid.
    res_omega_t = res_ratio = res_half = res_round = res_third = 0.0
    oracle_t = oracle_th = oracle_j = 0.0
    for lam in lams:
        for frac in (0.35, 0.7):
            xi = analytic.feasible_energy(params, lam, frac)
            oc = OrbitConstants(xi, lam)
            el = analytic.orbit_elements(params, oc)
            res_omega_t = max(res_omega_t,
                              abs(el.omega_r * el.T - 2 * math.pi) / (2 * math.pi))
            om_j, om_l = analytic.frequencies(params, el.J, lam)
            ratio_ref = el.Theta / (2 * math.pi)
            res_ratio = max(res_ratio, abs(om_l / om_j - ratio_ref) / ratio_ref)
            th_half = analytic.angle_of_E(params, oc, el, math.pi)
            res_half = max(res_half, abs(th_half - el.Theta / 2) / (el.Theta / 2))
            res_round = max(res_round,
                            abs(analytic.hamiltonian(params, el.J, lam) - xi)
                            / max(abs(xi), 1.0))
            if b != 0.0:
                rhs = math.sqrt(params.delta / (2.0 * abs(b) ** 3))
                lhs = el.omega_r**2 * abs(el.alpha2) ** 1.5
                res_third = max(res_third, abs(lhs - rhs) / rhs)
            qt = oracle.quad_radial_period(params, oc).value
            qh = oracle.quad_apsidal_angle(params, oc).value
            qj = oracle.quad_radial_action(params, oc).value
            oracle_t = max(oracle_t, abs(el.T - qt) / el.T)
            oracle_th = max(oracle_th, abs(el.Theta - qh) / el.Theta)
            oracle_j = max(oracle_j, abs(el.J - qj) / max(el.J, 1.0))
    checks.append(_check("identity_omega_times_T", res_omega_t, 1e-10))
    checks.append(_check("identity_frequency_ratio", res_ratio, 1e-10))
    checks.append(_check("identity_theta_pi_half_apsidal", res_half, 1e-10))
    checks.append(_check("hamiltonian_roundtrip", res_round, 1e-10))
    if b != 0.0:
        checks.append(_check("identity_third_law_alpha", res_third, 1e-10))
    checks.append(_check("oracle_radial_period", oracle_t, tol))
    checks.append(_check("oracle_apsidal_angle", oracle_th, tol))
    checks.append(_check("oracle_radial_action", oracle_j, tol))

    # Third law via the circular-energy route.
    res = 0.0
    for lam in lams:
        xi = analytic.feasible_energy(params, lam, 0.5)
        t_direct = analytic.radial_period(params, xi)
        res = max(res, abs(birkhoff.third_law(params, xi) - t_direct) / t_direct)
    checks.append(_check("third_law_consistency", res, 1e-10))

    # Isochrony of the quadrature period at fixed energy.
    lam_mid = lams[len(lams) // 2]
    xi_fix = analytic.feasible_energy(params, lam_mid, 0.5)
    adm = []
    for lam in lams:
        try:
            analytic.orbit_elements(params, OrbitConstants(xi_fix, lam))
            adm.append(lam)
        except IsochroneError:
            continue
    if len(adm) >= 2:
        checks.append(_check("isochrony_spread",
                             oracle.isochrony_spread(params, xi_fix, adm), tol))

    # Birkhoff route equality and the theorem residuals.
    dl = db = dB = 0.0
    for lam in lams:
        i1 = birkhoff.invariants_from_potential(params, lam)
        i2 = birkhoff.invariants_from_period(params, lam)
        dl = max(dl, abs(i1.l - i2.l) / max(abs(i2.l), 1.0))
        db = max(db, abs(i1.b_inv - i2.b_inv) / i2.b_inv)
        dB = max(dB, abs(i1.B_inv - i2.B_inv) / max(abs(i2.B_inv), 1.0))
    checks.append(_check("birkhoff_route_l", dl, 1e-10))
    checks.append(_check("birkhoff_route_b", db, 1e-10))
    checks.append(_check("birkhoff_route_B", dB, 1e-6))
    thm = birkhoff.isochrone_theorem_check(params, lams)
    checks.append(_check("isochrone_theorem_invariant_ode",
                         max(c.invariant_ode_residual for c in thm), 1e-6))
    checks.append(_check("isochrone_theorem_parabola_ode",
                         max(c.potential_ode_residual for c in thm), 1e-6))

    # Frequency-map wedge invariants.
    fi = birkhoff.frequency_invariants(params, 0.1, lam_mid)
    checks.append(_check("frequency_invariant_isochrony", abs(fi.j_inv), 1e-6,
                         g_inv=fi.g_inv, t_inv=fi.t_inv))

    # One eccentric trajectory against the ODE oracle.
    xi = analytic.feasible_energy(params, lam_mid, 0.6)
    oc = OrbitConstants(xi, lam_mid)
    el = analytic.orbit_elements(params, oc)
    times = np.linspace(0.0, el.T, 101)
    traj = analytic.trajectory(params, oc, times)
    states = oracle.integrate_orbit(params, oc, el.T, reltol=1e-11, t_eval=times)
    dr = max(abs(s.r - st.r) for s, st in zip(traj, states)) / el.r_a
    dth = max(abs(s.theta - st.theta) for s, st in zip(traj, states)) / el.Theta
    checks.append(_check("trajectory_vs_ode_radius", dr, 1e-6))
    checks.append(_check("trajectory_vs_ode_angle", dth, 1e-6))
    if b != 0.0 and params.x_v > 0.0:
        th, im = analytic.angle_of_E_with_residual(params, oc, el,
                                                   np.linspace(0.0, math.pi, 41))
        imres = float(np.max(im / np.maximum(np.abs(th), 1e-30)))
        checks.append(_check("complex_branch_imaginary_residual", imres, 1e-12))

    if with_bertrand:
        q_fit, q_res = birkhoff.bertrand_check(params, lams)
        if cls.family is PotentialFamily.HARMONIC or cls.kepler_degenerate:
            q_expect = 0.5 if cls.family is PotentialFamily.HARMONIC else 1.0
            checks.append(_check("bertrand_constant_Q",
                                 max(abs(q_fit - q_expect), q_res), 1e-6,
                                 q_fit=q_fit))
        else:
            # Non-Bertrand isochrones must fail the constant-Q fit.
            rec = _check("bertrand_non_constant_Q", q_res, 1e-3, q_fit=q_fit)
            rec["pass"] = bool(q_res > 1e-3)
            checks.append(rec)
    return checks


def _verify_generic(gen: oracle.RadialPotential, xi: float,
                    lams: Sequence[float], tol: float) -> list[dict]:
    spread = oracle.isochrony_spread(gen, xi, lams)
    states = oracle.integrate_orbit(
        gen, OrbitConstants(xi, lams[0]),
        4.0 * oracle.quad_radial_period(gen, OrbitConstants(xi, lams[0])).value,
        reltol=1e-10)
    drift = max(s.energy_drift for s in states)
    return [
        _check("isochrony_spread", spread, tol),
        _check("ode_energy_drift", drift, 1e-9),
    ]


def cmd_verify(args: argparse.Namespace) -> int:
    params, generic, desc = _resolve_potential(args, allow_generic=True)
    tol = args.tol if args.tol is not None else 1e-8
    if generic is not None:
        xi = args.xi if args.xi is not None else -0.4
        lams = (_parse_grid(args.lambda_grid) if args.lambda_grid is not None
                else _parse_grid("0.3:0.75:10"))
        checks = _verify_generic(generic, xi, lams, tol)
    else:
        lams = (_parse_grid(args.lambda_grid) if args.lambda_grid is not None
                else _parse_grid("0.6:1.4:5"))
        checks = _verify_parabola(params, lams, tol,
                                  with_bertrand=bool(getattr(args, "bertrand", None)))
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
    parser = build_parser()
    args = parser.parse_args(argv)
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
    except _ORBIT_ERRORS as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except _INPUT_ERRORS as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
