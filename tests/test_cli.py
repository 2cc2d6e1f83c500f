import json
import math

import numpy as np
import pytest

from isochrone.cli import _columns_to_csv, _rows_to_csv, main


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
    columns = (np.array([0.0, -0.0, 1e-300, -1e-300]),
               np.array([1e300, -1e300, math.inf, -math.inf]),
               np.array([-2.5, 1.0 / 3.0, 5e-324, -123456789.125]))
    rows = [dict(zip(cols, row)) for row in zip(*(c.tolist() for c in columns))]
    assert _columns_to_csv(cols, columns) == _rows_to_csv(rows, cols)


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


def test_verify_kepler_bertrand_q(tmp_path):
    out = tmp_path / "report.json"
    assert main(["verify", "--kepler", "mu=1", "--bertrand",
                 "-o", str(out)]) == 0
    rep = json.loads(out.read_text())
    bert = next(c for c in rep["checks"] if c["name"].startswith("bertrand"))
    assert bert["q_fit"] == pytest.approx(1.0, abs=1e-6)


def test_verify_byte_determinism(tmp_path):
    f1, f2 = tmp_path / "r1.json", tmp_path / "r2.json"
    argv = ["verify", "--bounded", "mu=1,beta=1"]
    assert main(argv + ["-o", str(f1)]) == 0
    assert main(argv + ["-o", str(f2)]) == 0
    assert f1.read_bytes() == f2.read_bytes()


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


def test_log_level_env_var(capsys, monkeypatch):
    monkeypatch.setenv("ISOCHRONE_LOG", "DEBUG")
    code, out, _ = run_cli(["classify", "--kepler", "mu=1"], capsys)
    assert code == 0
    assert out.startswith("Henon")
