import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import isochrone
from isochrone import _g17, analytic, cli, oracle, potential
from isochrone.analytic import OrbitConstants
from isochrone.cli import (
    _columns_to_csv,
    _columns_to_json,
    _json_text,
    _rows_to_csv,
    main,
)
from isochrone.errors import DomainExit, StepSizeUnderflow


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# classify


def test_classify_kepler_degenerate(capsys):
    code, out, _ = run_cli(["classify", "--latin", "0,1,-2,0,0"], capsys)
    assert code == 0
    assert out.startswith("Henon (Kepler degenerate)")
    assert "delta=2" in out and "x_v=0" in out


def test_classify_henon_greek(capsys):
    code, out, _ = run_cli(["classify", "--henon", "mu=1,beta=1"], capsys)
    assert code == 0
    assert out.startswith("Henon,")
    assert "latin=(0,1,-2,-4,0)" in out


def test_classify_invalid_exit_2(capsys):
    code, _, err = run_cli(["classify", "--latin", "0,1,2,0,0"], capsys)
    assert code == 2
    assert "discriminant" in err


def test_classify_requires_one_potential(capsys):
    code, _, err = run_cli(["classify"], capsys)
    assert code == 2
    code, _, err = run_cli(
        ["classify", "--kepler", "mu=1", "--harmonic", "omega=2"], capsys)
    assert code == 2


@pytest.mark.parametrize("command", ["classify", "elements", "orbit", "table"])
def test_generic_potential_refused_where_a_parabola_is_needed(command, capsys):
    code, out, err = run_cli(
        [command, "--plummer", "b=1", "--xi", "-0.4", "--lambda", "0.5"], capsys)
    assert code == 2
    assert out == ""
    assert f"the {command} command needs a parabola potential" in err


# ---------------------------------------------------------------------------
# orbit


def test_orbit_csv_golden(capsys):
    code, out, _ = run_cli(
        ["orbit", "--kepler", "mu=1", "--xi", "-0.5", "--lambda", "0.8",
         "--samples", "3"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "t,E,x,r,theta,zJ,zLambda"
    assert len(lines) == 4
    assert out.endswith("\n")
    first = [float(v) for v in lines[1].split(",")]
    last = [float(v) for v in lines[3].split(",")]
    assert first[0] == 0.0
    assert first[3] == pytest.approx(0.4, rel=1e-12)   # r at periastron
    assert first[4] == 0.0                             # theta
    assert last[4] == pytest.approx(2 * math.pi, rel=1e-10)


def test_orbit_circular_constant_radius(capsys):
    code, out, _ = run_cli(
        ["orbit", "--kepler", "mu=1", "--xi", "-0.5", "--lambda", "1",
         "--samples", "8"], capsys)
    assert code == 0
    radii = [float(line.split(",")[3]) for line in out.splitlines()[1:]]
    assert all(r == pytest.approx(1.0, rel=1e-12) for r in radii)


def test_orbit_no_bound_orbit_exit_3(capsys):
    code, _, err = run_cli(
        ["orbit", "--henon", "mu=1,beta=1", "--xi", "-0.25", "--lambda", "1"],
        capsys)
    assert code == 3
    assert "NoBoundOrbit" in err


def test_orbit_unbound_exit_3(capsys):
    code, _, _ = run_cli(
        ["orbit", "--kepler", "mu=1", "--xi", "0.2", "--lambda", "1"], capsys)
    assert code == 3


def test_orbit_json_mirrors_fields(capsys):
    code, out, _ = run_cli(
        ["orbit", "--kepler", "mu=1", "--xi", "-0.5", "--lambda", "0.8",
         "--samples", "2", "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert set(doc["samples"][0]) == {"t", "E", "x", "r", "theta",
                                      "zJ", "zLambda"}
    assert doc["constants"]["xi"] == -0.5


@pytest.mark.parametrize("samples", ["0", "-1"])
def test_orbit_samples_below_one_exit_2(samples, capsys):
    code, out, err = run_cli(
        ["orbit", "--kepler", "mu=1", "--xi", "-0.5", "--lambda", "0.8",
         f"--samples={samples}"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: InvalidParams")


def test_column_writer_matches_row_writer():
    cols = ("a", "b", "c")
    columns = (np.array([0.0, -0.0, 1e-300, -1e-300, 1234567890123456.75, 0.1]),
               np.array([1e300, -1e300, math.inf, -math.inf, math.nan, 1e17]),
               np.array([-2.5, 1.0 / 3.0, 5e-324, -123456789.125, 1e-5,
                         np.nextafter(1e17, 0.0)]))
    rng = np.random.default_rng(5)
    for n in (None, _g17.CHUNK - 1, _g17.CHUNK, _g17.CHUNK + 1):
        if n is not None:
            columns = [rng.normal(size=n) * 10.0 ** rng.integers(-10, 20, n)
                       for _ in cols]
        rows = [dict(zip(cols, row)) for row in zip(*(c.tolist() for c in columns))]
        csv = b"".join(_columns_to_csv(cols, [columns])).decode("ascii")
        assert csv == _rows_to_csv(rows, cols)


def test_json_column_writer_matches_json_text():
    # The orbit's JSON, row templates filled from CSV rows, against the dict
    # per sample that _json_text formats, over and across chunk edges.
    cols = cli._ORBIT_COLS
    head = {"potential": {"family": "kepler", "mu": 1.0, "name": "a,b"},
            "constants": {"xi": -0.5, "lambda": 0.8}}
    edge = [0.0, -0.0, 1e-300, 5e-324, math.inf, -math.inf, math.nan]
    rng = np.random.default_rng(7)
    for n in (1, len(edge), _g17.CHUNK, _g17.CHUNK + 1, 2 * _g17.CHUNK + 3):
        columns = [rng.normal(size=n) * 10.0 ** rng.integers(-10, 20, n)
                   for _ in cols]
        columns[n % len(cols)][:len(edge)] = edge[:n]
        blocks = [[c[:n // 2] for c in columns], [c[n // 2:] for c in columns]]
        rows = [dict(zip(cols, row)) for row in zip(*(c.tolist() for c in columns))]
        text = _json_text({**head, "samples": rows}) + "\n"
        assert b"".join(_columns_to_json(head, cols, blocks)).decode() == text, n


def test_orbit_stdout_bytes_equal_file_bytes(tmp_path, capsysbinary):
    argv = ["orbit", "--hollowed", "mu=1,beta=1", "--xi", "-0.2", "--lambda", "1",
            "--periods", "2"]
    path = tmp_path / "orbit.csv"
    for samples in (2 * cli._BLOCK + 3, _g17.CHUNK + 1):  # several blocks, one
        assert main(argv + [f"--samples={samples}", "-o", str(path)]) == 0
        assert main(argv + [f"--samples={samples}"]) == 0
        assert capsysbinary.readouterr().out == path.read_bytes()
    argv.append(f"--samples={_g17.CHUNK + 1}")
    # Text still held in a buffered stdout goes out before the CSV's bytes.
    raw = io.BytesIO()
    stdout = io.TextIOWrapper(raw, encoding="ascii", newline="")
    with contextlib.redirect_stdout(stdout):
        print("before")
        assert main(argv) == 0
    assert raw.getvalue() == b"before\n" + path.read_bytes()
    with contextlib.redirect_stdout(io.StringIO()) as text:
        assert main(argv) == 0
    assert text.getvalue().encode("ascii") == path.read_bytes()


_STREAMED = [  # (flag, spec, params, xi, Lambda): Kepler-class, harmonic, hollowed
    ("--kepler", "mu=1", potential.from_kepler(1.0), -0.5, 0.8),
    ("--harmonic", "omega=1", potential.from_harmonic(1.0), 2.0, 0.7),
    ("--hollowed", "mu=1,beta=1", potential.from_hollowed(1.0, 1.0), -0.2, 1.0),
]


@pytest.mark.parametrize("flag, spec, params, xi, lam", _STREAMED,
                         ids=["kepler", "harmonic", "hollowed"])
def test_orbit_blocks_give_the_whole_array_bytes(flag, spec, params, xi, lam,
                                                  tmp_path, capsysbinary):
    # The CSV is computed in blocks of _BLOCK rows; at and around the block
    # edges its bytes are those of one trajectory over all the times.
    oc = OrbitConstants(xi, lam)
    el = analytic.orbit_elements(params, oc)
    block = cli._BLOCK
    path = tmp_path / "orbit.csv"
    for n in (1, 2, block - 1, block, block + 1, 2 * block + 1):
        times = 1.5 * el.T * np.arange(n) / (n - 1) if n > 1 else np.zeros(1)
        traj = analytic.trajectory(params, oc, times)
        whole = b"".join(_columns_to_csv(cli._ORBIT_COLS, [traj.columns()]))
        argv = ["orbit", flag, spec, f"--xi={xi}", f"--lambda={lam}",
                f"--samples={n}", "--periods=1.5"]
        assert main(argv) == 0
        assert capsysbinary.readouterr().out == whole, n
        assert main(argv + ["-o", str(path)]) == 0
        assert path.read_bytes() == whole, n


def test_orbit_computes_its_elements_once(monkeypatch, tmp_path):
    # 10000 rows are three blocks of the streamed CSV, all from one orbit's elements.
    calls = []
    orbit_elements = analytic.orbit_elements

    def counted(params, oc):
        calls.append(oc)
        return orbit_elements(params, oc)

    monkeypatch.setattr(analytic, "orbit_elements", counted)
    argv = ["orbit", "--kepler", "mu=1", "--xi", "-0.5", "--lambda", "0.8",
            "--samples", "10000", "-o", str(tmp_path / "orbit.csv")]
    assert main(argv) == 0
    assert calls == [OrbitConstants(-0.5, 0.8)]


@pytest.mark.parametrize("periods", ["1e20", "2e9"])
def test_orbit_refusal_comes_before_the_first_byte(periods, tmp_path, capsysbinary):
    # At 2e9 periods only the last block's anomalies exceed the phase
    # tolerance (2^33 rad); the refusal still precedes every byte.
    argv = ["orbit", "--kepler", "mu=1", "--xi", "-0.5", "--lambda", "0.8",
            "--periods", periods, "--samples", str(2 * cli._BLOCK + 1)]
    assert main(argv) == 2
    out = capsysbinary.readouterr()
    assert out.out == b""
    assert out.err.startswith(b"error: InvalidParams")
    path = tmp_path / "orbit.csv"
    assert main(argv + ["-o", str(path)]) == 2
    assert not path.exists()
    path.write_bytes(b"kept\n")
    assert main(argv + ["-o", str(path)]) == 2
    assert path.read_bytes() == b"kept\n"


# The child's own peak RSS.  Linux carries ru_maxrss across fork and exec,
# so it would report the test process's peak; VmHWM starts anew at exec.
_PEAK_RSS_CHILD = """
import sys
from isochrone.cli import main
code = main(["orbit", "--henon", "mu=1,beta=1", "--xi=-0.3", "--lambda=0.5",
             "--periods", "3", "--samples", "500000", "-o", sys.argv[1]])
with open("/proc/self/status") as fh:
    kib = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
print(code, kib / 1024)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc")
def test_orbit_memory_does_not_grow_with_samples():
    # A whole-array orbit of 500 000 samples peaks near 113 MB; the blocks
    # keep a fresh process near 33 MB, whatever --samples.
    src = str(Path(isochrone.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _PEAK_RSS_CHILD, os.devnull],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    code, peak_mb = proc.stdout.split()
    assert code == "0"
    assert float(peak_mb) < 80.0


def test_orbit_byte_determinism(tmp_path):
    argv = ["orbit", "--hollowed", "mu=1,beta=1", "--xi", "-0.2",
            "--lambda", "1", "--samples", "40"]
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(argv + ["-o", str(f1)]) == 0
    assert main(argv + ["-o", str(f2)]) == 0
    assert f1.read_bytes() == f2.read_bytes()


# ---------------------------------------------------------------------------
# elements / table


def test_elements_grid_with_error_rows(capsys):
    code, out, _ = run_cli(
        ["elements", "--henon", "mu=1,beta=1", "--xi-grid", "-0.25:-0.12:2",
         "--lambda-grid", "0.5:1.0:2"], capsys)
    assert code == 0  # some rows succeed
    lines = out.splitlines()
    assert lines[0].split(",")[:2] == ["xi", "lambda"]
    assert lines[0].split(",")[-1] == "error"
    bad = [ln for ln in lines[1:] if "NoBoundOrbit" in ln]
    good = [ln for ln in lines[1:] if ln.endswith(",")]
    assert bad and good


def test_elements_all_rows_fail_exit_3(capsys):
    code, _, _ = run_cli(
        ["elements", "--henon", "mu=1,beta=1", "--xi", "-0.5",
         "--lambda-grid", "0.5:1.0:3"], capsys)
    assert code == 3


def test_elements_all_rows_invalid_exit_2(capsys):
    # Every point is invalid input: the first row's error, not NoBoundOrbit.
    argv = ["elements", "--kepler", "mu=1", "--xi", "-1e-110", "--lambda", "1e54"]
    code, out, err = run_cli(argv, capsys)
    message = "InvalidParams: radial period at xi = -1e-110 is not finite in float64"
    assert (code, err) == (2, f"error: {message}\n")
    assert out.splitlines()[1].endswith(message)
    # One invalid point and one without a bound orbit: exit 3, as before.
    code, _, err = run_cli(argv[:3] + ["--xi-grid=-1e-110:0.5:2", "--lambda", "1e54"],
                           capsys)
    assert (code, err) == (3, "error: NoBoundOrbit: no grid point admits a bound orbit\n")


def test_table_renders(capsys):
    code, out, _ = run_cli(
        ["table", "--harmonic", "omega=2", "--xi-grid", "2:3:2",
         "--lambda-grid", "0.5:1.5:2"], capsys)
    assert code == 0
    assert out.splitlines()[0].split()[:2] == ["xi", "lambda"]
    assert "3.141592654" in out


# ---------------------------------------------------------------------------
# verify


def test_verify_henon_passes(tmp_path):
    out = tmp_path / "report.json"
    assert main(["verify", "--henon", "mu=1,beta=1", "-o", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["passed"] is True
    names = {c["name"] for c in rep["checks"]}
    assert "isochrony_spread" in names
    assert "trajectory_vs_ode_radius" in names
    for c in rep["checks"]:
        assert set(c) >= {"name", "residual", "tolerance", "pass"}


def test_verify_plummer_fails_exit_1(tmp_path):
    out = tmp_path / "report.json"
    assert main(["verify", "--plummer", "b=1", "-o", str(out)]) == 1
    rep = json.loads(out.read_text())
    assert rep["passed"] is False
    spread = next(c for c in rep["checks"] if c["name"] == "isochrony_spread")
    assert spread["pass"] is False
    assert spread["residual"] > 1e-2


@pytest.mark.parametrize("argv", [
    ["--plummer", "b=1", "--lambda-grid", "0.5"],
    ["--henon", "mu=1,beta=1", "--lambda-grid", "1.0", "--bertrand"],
], ids=["plummer", "henon-bertrand"])
def test_verify_one_lambda_grid_exit_2(argv, capsys):
    # Over one Lambda a spread is 0 and a Q fit exact: no verdict either way.
    code, out, err = run_cli(["verify", *argv], capsys)
    assert code == 2
    assert out == ""
    assert "at least two Lambda values" in err


@pytest.mark.parametrize("gauge", [None, "eps=-0.3,lam=0", "eps=0,lam=0.2",
                                   "eps=0.1,lam=-0.1", "eps=0,lam=0.001"],
                         ids=["none", "eps", "lam", "eps-lam", "small-lam"])
@pytest.mark.parametrize("family, q", [(["--kepler", "mu=1"], 1.0),
                                       (["--harmonic", "omega=2"], 0.5)],
                         ids=["kepler", "harmonic"])
def test_verify_kepler_bertrand_q(tmp_path, family, q, gauge):
    # A gauge term lam / (2 r^2) keeps the potential isochrone but makes
    # Theta depend on Lambda: Q is constant only without it.
    out = tmp_path / "report.json"
    argv = ["verify", *family, "--bertrand", "-o", str(out)]
    assert main(argv + (["--gauge", gauge] if gauge else [])) == 0
    rep = json.loads(out.read_text())
    bert = next(c for c in rep["checks"] if c["name"].startswith("bertrand"))
    if gauge is None or gauge.endswith("lam=0"):
        assert bert["name"] == "bertrand_constant_Q"
        assert bert["q_fit"] == pytest.approx(q, abs=1e-6)
    else:
        assert bert["name"] == "bertrand_non_constant_Q"
        assert bert["pass"]
        # The Q residual drifts about as much as lam: under 1e-3 at lam 1e-3.
        assert bert["residual"] > (1e-4 if gauge.endswith("lam=0.001") else 1e-3)


def test_verify_has_no_tolerance_option(tmp_path):
    # The oracle checks' tolerance is fixed: no option loosens it to inf.
    out = tmp_path / "report.json"
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--kepler", "mu=1", "--tol", "inf", "-o", str(out)])
    assert exc.value.code == 2
    assert not out.exists()


def test_verify_byte_determinism(tmp_path):
    f1, f2 = tmp_path / "r1.json", tmp_path / "r2.json"
    argv = ["verify", "--bounded", "mu=1,beta=1"]
    assert main(argv + ["-o", str(f1)]) == 0
    assert main(argv + ["-o", str(f2)]) == 0
    assert f1.read_bytes() == f2.read_bytes()


# No command loads scipy: the closed-form commands, nor verify, whose oracle
# runs its own Brent methods and DOP853, on a parabola and on the generic
# Plummer sphere with its Birkhoff differences.  Importing the CLI builds none
# of the formatter's tables.  One fresh process, since this suite has scipy
# loaded already.
_NO_SCIPY_CHILD = """
import sys
import isochrone, isochrone.cli
from isochrone.cli import main
tables = isochrone._g17._tables.cache_info
assert tables().currsize == 0, "importing the CLI built the formatter's tables"
out = sys.argv[1]
for argv in (
        ["classify", "--kepler", "mu=1"],
        ["elements", "--henon", "mu=1,beta=1", "--xi", "-0.3", "--lambda", "0.5"],
        ["table", "--harmonic", "omega=2", "--xi-grid", "2:3:2",
         "--lambda-grid", "0.5:1.5:2"],
        ["orbit", "--hollowed", "mu=1,beta=1", "--xi", "-0.2", "--lambda", "1",
         "--samples", "40", "-o", out + "/orbit.csv"],
        ["orbit", "--kepler", "mu=1", "--xi", "-0.5", "--lambda", "0.8",
         "--samples", "40", "--format", "json", "-o", out + "/orbit.json"]):
    assert main(argv) == 0, argv
assert "scipy" not in sys.modules, "an analytic command loaded scipy"
assert tables().currsize == 1
assert main(["verify", "--kepler", "mu=1", "-o", out + "/verify.json"]) == 0
assert main(["verify", "--plummer", "b=1", "-o", out + "/plummer.json"]) == 1
assert "scipy" not in sys.modules, "verify loaded scipy"
"""


def test_analytic_commands_never_load_scipy(tmp_path):
    src = str(Path(isochrone.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_CHILD, str(tmp_path)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    here = tmp_path / "here.json"
    assert main(["verify", "--kepler", "mu=1", "-o", str(here)]) == 0
    assert (tmp_path / "verify.json").read_bytes() == here.read_bytes()


# ---------------------------------------------------------------------------
# config and gauge plumbing


def test_config_file_and_flag_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kepler": "mu=1", "xi": -0.5, "lambda": 0.8,
                               "samples": 5}))
    code, out, _ = run_cli(["orbit", "--config", str(cfg)], capsys)
    assert code == 0
    assert len(out.splitlines()) == 6
    code, out, _ = run_cli(
        ["orbit", "--config", str(cfg), "--samples", "3"], capsys)
    assert code == 0
    assert len(out.splitlines()) == 4


def test_gauge_flag(capsys):
    code, out, _ = run_cli(
        ["classify", "--kepler", "mu=1", "--gauge", "eps=0.1,lam=0.2"], capsys)
    assert code == 0
    assert out.startswith("Henon")


def test_gauge_rejected_for_generic(capsys):
    code, _, err = run_cli(
        ["verify", "--plummer", "b=1", "--gauge", "eps=0.1,lam=0"], capsys)
    assert code == 2


def test_elements_json_format(capsys):
    code, out, _ = run_cli(
        ["elements", "--kepler", "mu=1", "--xi", "-0.5", "--lambda", "0.8",
         "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["rows"][0]["T"] == pytest.approx(2 * math.pi)
    assert doc["potential"]["class"] == "Henon (Kepler degenerate)"


def test_one_parser_serves_every_call_and_carries_nothing(tmp_path, capsys):
    # main builds its parser once; an option given to one call must not
    # reach the next, which parses as a fresh build_parser() would.
    assert cli._parser() is cli._parser()
    assert cli._parser() is not cli.build_parser()
    orbit = ["orbit", "--kepler", "mu=1", "--xi", "-0.5", "--lambda", "0.8"]
    verify = ["verify", "--kepler", "mu=1"]
    for first, second in ((orbit + ["--samples", "5"], orbit),
                          (verify + ["--bertrand"], verify)):
        cli._parser().parse_args(first)
        assert cli._parser().parse_args(second) == cli.build_parser().parse_args(second)
    assert main(orbit + ["--samples", "5"]) == 0
    assert main(orbit) == 0
    assert len(capsys.readouterr().out.splitlines()) == 6 + 101
    report = tmp_path / "verify.json"
    assert main(verify + ["--bertrand", "-o", str(report)]) == 0
    assert "bertrand_constant_Q" in report.read_text()
    assert main(verify + ["-o", str(report)]) == 0
    assert "bertrand" not in report.read_text()


def test_log_level_env_var(capsys, monkeypatch):
    monkeypatch.setenv("ISOCHRONE_LOG", "DEBUG")
    code, out, _ = run_cli(["classify", "--kepler", "mu=1"], capsys)
    assert code == 0
    assert out.startswith("Henon")


@pytest.mark.parametrize("argv, token", [
    (["classify", "--henon", "mu=x,beta=1"], "'x'"),
    (["elements", "--kepler", "mu=1", "--lambda", "1",
      "--xi-grid=-0.2:-0.1:two"], "'two'"),
    (["classify", "--latin", "0,1,-2,0,zero"], "'zero'"),
], ids=["kv", "grid", "latin"])
def test_malformed_number_exit_2(argv, token, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: InvalidParams") and token in err


def test_malformed_config_exit_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"kepler": "mu=1", "xi": -0.5,')
    code, out, err = run_cli(["orbit", "--config", str(cfg)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: InvalidParams") and "cfg.json" in err


@pytest.mark.parametrize("key, value, token", [
    ("xi", "abc", "'abc'"),
    ("samples", "five", "'five'"),
    ("samples", 5.5, "'5.5'"),
    ("lambda", [0.8], "'[0.8]'"),
    ("format", "xml", "'xml'"),
], ids=["xi-text", "samples-text", "samples-float", "lambda-list", "format-choice"])
def test_mistyped_config_value_exit_2(key, value, token, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    doc = {"kepler": "mu=1", "xi": -0.5, "lambda": 0.8, "samples": 5}
    cfg.write_text(json.dumps({**doc, key: value}))
    code, out, err = run_cli(["orbit", "--config", str(cfg)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: InvalidParams") and token in err


def test_config_numbers_in_strings_convert_as_flags(tmp_path, capsys):
    # "5" and "-0.5" are what the command line passes too.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kepler": "mu=1", "xi": "-0.5", "lambda": 0.8,
                               "samples": "5"}))
    code, out, _ = run_cli(["orbit", "--config", str(cfg)], capsys)
    assert code == 0
    assert out == run_cli(["orbit", "--kepler", "mu=1", "--xi", "-0.5",
                           "--lambda", "0.8", "--samples", "5"], capsys)[1]
    assert len(out.splitlines()) == 6


def test_internal_value_error_is_not_an_input_error(monkeypatch):
    # A ValueError from inside a command is a bug, not a bad input: it must
    # surface rather than exit 2 as if the user were at fault.
    def broken(params):
        raise ValueError("internal")

    monkeypatch.setattr(cli.potential, "classify", broken)
    with pytest.raises(ValueError, match="internal"):
        main(["classify", "--kepler", "mu=1"])


REFERENCE = json.loads(
    (Path(__file__).resolve().parent.parent / "perfbench" / "verify_reference.json")
    .read_text())["batteries"]


@pytest.mark.parametrize("battery", sorted(REFERENCE))
def test_verify_battery_verdicts_match_reference(battery, tmp_path):
    ref = REFERENCE[battery]
    out = tmp_path / "report.json"
    assert main(["verify", *ref["argv"], "-o", str(out)]) == ref["exit_code"]
    checks = json.loads(out.read_text())["checks"]
    assert [c["name"] for c in checks] == list(ref["checks"])
    assert [c["pass"] for c in checks] == list(ref["checks"].values())


@pytest.mark.parametrize("battery", sorted(REFERENCE))
def test_verify_battery_solves_each_orbit_once(battery, monkeypatch, tmp_path):
    # Each grid orbit is one solved oracle.Orbit that serves its three
    # quadratures: one solve per distinct parabola orbit.  Harmonic's
    # fixed-energy orbit (xi 2, Lambda 0.6) is also a grid orbit, asked for
    # again by the isochrony check, so it is solved twice.  So is Plummer's
    # first orbit, asked for again by the ODE check.
    asked, solves = [], []
    solve_orbit, solve = oracle.solve_orbit, oracle._solve_radii

    def counted_orbit(pot, oc):
        asked.append(oc)
        return solve_orbit(pot, oc)

    def counted_solve(p, oc):
        solves.append(oc)
        return solve(p, oc)

    monkeypatch.setattr(oracle, "solve_orbit", counted_orbit)
    monkeypatch.setattr(oracle, "_solve_radii", counted_solve)
    # The isochrony check and the parabola's ODE check ask the one-orbit
    # wrappers, whose memo may hold an orbit of an earlier test.
    oracle._last_orbit.cache_clear()
    main(["verify", *REFERENCE[battery]["argv"], "-o", str(tmp_path / "r.json")])
    assert len(solves) == len(set(solves)) + (battery in ("harmonic", "plummer"))
    # solve_orbit is asked for a parabola grid's 10 orbits and Plummer's ODE
    # orbit; the isochrony check and a parabola's ODE check solve the rest.
    assert (len(asked), len(solves)) == {
        "henon": (10, 16), "kepler": (10, 16), "bounded": (10, 11),
        "hollowed": (10, 16), "harmonic": (10, 16), "henon-gauged": (10, 16),
        "plummer": (1, 11)}[battery]


def test_oracle_refusal_exits_1(capsys):
    # Lambda near 0 gives near-radial orbits the quadrature refuses.
    code, out, err = run_cli(
        ["verify", "--henon", "mu=1,beta=1", "--lambda-grid", "0.001:0.01:3"], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ToleranceNotMet: ")


@pytest.mark.parametrize("argv, code, error", [
    (["verify", "--kepler", "mu=1", "--lambda-grid", "1e26:2e26:3"], 2, "OutOfDomain"),
    (["orbit", "--kepler", "mu=1", "--xi", "-1e-110", "--lambda", "1e54"], 2,
     "InvalidParams"),
    (["verify", "--henon", "mu=1,beta=1", "--lambda-grid", "nan:1:3"], 2,
     "InvalidParams"),
    (["verify", "--kepler", "mu=1", "--lambda-grid", "1e78:2e78:3"], 2,
     "InvalidParams"),
], ids=["derivative-overflow", "period-overflow", "nan-lambda", "lambda-power-overflow"])
def test_extreme_inputs_exit_with_one_typed_line(argv, code, error, capsys):
    # A traceback (OverflowError, ZeroDivisionError) or NoCircularOrbit, exit 3.
    got, out, err = run_cli(argv, capsys)
    assert (got, out, err.count("\n")) == (code, "", 1)
    assert err.startswith(f"error: {error}: ")


@pytest.mark.parametrize("refusal", [StepSizeUnderflow, DomainExit])
def test_every_isochrone_error_exits_1_with_one_line(refusal, monkeypatch, capsys):
    def refuse(orbit, *args, **kwargs):
        raise refusal("planted")

    monkeypatch.setattr(cli.oracle.Orbit, "apsidal_angle", refuse)
    code, out, err = run_cli(["verify", "--kepler", "mu=1"], capsys)
    assert (code, out, err) == (1, "", f"error: {refusal.__name__}: planted\n")


def test_check_reports_a_nan_residual_as_a_failure():
    checks = []
    rec = cli._check(checks, "planted", [1e-12, math.nan, 0.0], 1e-6, extra=1.0)
    assert checks == [rec]
    assert math.isnan(rec["residual"]) and rec["pass"] is False
    assert list(rec) == ["name", "residual", "tolerance", "pass", "extra"]
    assert cli._check(checks, "empty", [], 1e-6)["residual"] == 0.0
