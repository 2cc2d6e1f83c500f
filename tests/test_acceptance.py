"""Acceptance suite: one test per criterion, each at its stated tolerance.

Every test prints (and records for the terminal summary) a single
``criterion NN [PASS|FAIL]`` line.  Criteria with runtime budgets measure
wall-clock time and include it in the assertion.
"""

import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import ACCEPTANCE_LINES, grid_orbits, half_action
import isochrone
from isochrone import analytic, birkhoff, oracle
from isochrone.analytic import OrbitConstants, orbit_elements
from isochrone.cli import main as cli_main
from isochrone.potential import y_derivatives

GOLDEN = OrbitConstants(-0.5, 0.8)
LAM_GRID = [0.5, 0.8, 1.0, 1.3, 1.7]


def record(num: int, desc: str, ok: bool, detail: str = "") -> None:
    line = f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}] {desc}"
    if detail:
        line += f"  ({detail})"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


def test_criterion_01_kepler_golden_values(kepler):
    t0 = time.perf_counter()
    el = orbit_elements(kepler, GOLDEN)
    exact = (abs(el.T - 2 * math.pi) <= 1e-12
             and abs(el.Theta - 2 * math.pi) <= 1e-12
             and abs(el.J - 0.2) <= 1e-12
             and abs(el.ecc - 0.6) <= 1e-12
             and abs(math.sqrt(el.alpha2) - 1.0) <= 1e-12)
    qt = oracle.quad_radial_period(kepler, GOLDEN).value
    qh = oracle.quad_apsidal_angle(kepler, GOLDEN).value
    qj = oracle.quad_radial_action(kepler, GOLDEN).value
    quad_ok = (abs(qt - el.T) <= 1e-8 * el.T
               and abs(qh - el.Theta) <= 1e-8 * el.Theta
               and abs(qj - el.J) <= 1e-8 * max(el.J, 1.0))
    times = [el.T / 4, el.T / 2, 3 * el.T / 4, el.T]
    traj = analytic.trajectory(kepler, GOLDEN, times)
    states = oracle.integrate_orbit(kepler, GOLDEN, el.T, reltol=1e-12,
                                    t_eval=times)
    ode_ok = all(abs(s.r - st.r) <= 1e-8 * el.r_a
                 and abs(s.theta - st.theta) <= 1e-8 * el.Theta
                 for s, st in zip(traj, states))
    elapsed = time.perf_counter() - t0
    record(1, "Kepler golden values, oracle agreement <= 1e-8, runtime < 1 s",
           exact and quad_ok and ode_ok and elapsed < 1.0,
           f"runtime {elapsed:.2f} s")


def test_criterion_02_harmonic_grid(harmonic):
    t0 = time.perf_counter()
    worst = 0.0
    for xi in (2.0, 2.5, 3.0, 3.5, 4.0):
        for lam in (0.5, 0.75, 1.0, 1.25, 1.5):
            oc = OrbitConstants(xi, lam)
            el = orbit_elements(harmonic, oc)
            qt = oracle.quad_radial_period(harmonic, oc).value
            qh = oracle.quad_apsidal_angle(harmonic, oc).value
            worst = max(worst,
                        abs(el.T - math.pi) / math.pi,
                        abs(el.Theta - math.pi) / math.pi,
                        abs(qt - math.pi) / math.pi,
                        abs(qh - math.pi) / math.pi)
    elapsed = time.perf_counter() - t0
    record(2, "harmonic 5x5 grid: T = Theta = pi to 1e-9, runtime < 1 s",
           worst <= 1e-9 and elapsed < 1.0,
           f"worst {worst:.2e}, runtime {elapsed:.2f} s")


def test_criterion_03_isochrony_and_negative_control(henon, bounded, hollowed):
    t0 = time.perf_counter()
    spreads = {
        "henon": oracle.isochrony_spread(henon, -0.12,
                                         np.linspace(0.2, 1.2, 10)),
        "bounded": oracle.isochrony_spread(bounded, 0.95,
                                           np.linspace(0.1, 0.6, 10)),
        "hollowed": oracle.isochrony_spread(hollowed, -0.2,
                                            np.linspace(0.3, 1.3, 10)),
    }
    plummer = oracle.isochrony_spread(oracle.plummer_potential(1.0, 1.0),
                                      -0.4, np.linspace(0.3, 0.75, 10))
    elapsed = time.perf_counter() - t0
    ok = (max(spreads.values()) <= 1e-8 and plummer > 1e-2
          and elapsed < 10.0)
    record(3, "quadrature isochrony <= 1e-8 (3 classes); Plummer > 1e-2",
           ok, f"max spread {max(spreads.values()):.1e}, "
               f"plummer {plummer:.1e}, runtime {elapsed:.2f} s")


def test_criterion_04_apsidal_angle_formula(henon):
    target = math.pi * (1.0 + 2.0 / math.sqrt(8.0))
    theta = analytic.apsidal_angle(henon, 2.0)
    oc = OrbitConstants(analytic.feasible_energy(henon, 2.0, 0.5), 2.0)
    quad = oracle.quad_apsidal_angle(henon, oc).value
    ok = (abs(theta - target) <= 1e-12 * target
          and abs(quad - theta) <= 1e-8 * theta)
    record(4, "Henon Lambda=2 apsidal angle pi(1+2/sqrt 8), quadrature 1e-8",
           ok, f"|analytic-quad|/Theta = {abs(quad - theta) / theta:.1e}")


def test_criterion_05_trajectory_equivalence(all_classes):
    t0 = time.perf_counter()
    worst_r = worst_th = worst_im = 0.0
    for name, params, oc in all_classes:
        el = orbit_elements(params, oc)
        times = np.linspace(0.0, el.T, 201)
        traj = analytic.trajectory(params, oc, times)
        states = oracle.integrate_orbit(params, oc, el.T, reltol=1e-11,
                                        t_eval=times)
        worst_r = max(worst_r, max(abs(s.r - st.r) for s, st in
                                   zip(traj, states)) / el.r_a)
        worst_th = max(worst_th, max(abs(s.theta - st.theta) for s, st in
                                     zip(traj, states)) / el.Theta)
        if name in ("bounded", "hollowed"):
            for e_val in np.linspace(0.0, math.pi, 41):
                th, im = analytic.angle_of_E_with_residual(el, float(e_val))
                worst_im = max(worst_im, im / max(abs(th), 1e-30))
    elapsed = time.perf_counter() - t0
    ok = (worst_r <= 1e-6 and worst_th <= 1e-6 and worst_im <= 1e-12
          and elapsed < 30.0)
    record(5, "parametric orbit vs ODE <= 1e-6 (all classes), Im <= 1e-12",
           ok, f"dr {worst_r:.1e}, dth {worst_th:.1e}, im {worst_im:.1e}, "
               f"runtime {elapsed:.2f} s")


def test_criterion_06_kepler_solver():
    rng = np.random.default_rng(20260808)
    eccs = rng.uniform(0.0, 0.99, 1000)
    anomalies = rng.uniform(0.0, 2 * math.pi, 1000)
    worst = 0.0
    for ecc, m in zip(eccs, anomalies):
        e_val = analytic.solve_kepler(float(ecc), float(m))
        worst = max(worst, abs(e_val - ecc * math.sin(e_val) - m))
    ms = np.sort(rng.uniform(0.0, 4 * math.pi, 300))
    es = [analytic.solve_kepler(0.93, float(m)) for m in ms]
    monotone = all(b > a for a, b in zip(es, es[1:]))
    record(6, "Kepler equation: residual <= 1e-13 on 1000 random, monotone",
           worst <= 1e-13 and monotone, f"worst residual {worst:.1e}")


def test_criterion_07_identity_suite(all_classes):
    worst = 0.0
    for name, params, _ in all_classes:
        b = params.b
        for oc, el in grid_orbits(params, LAM_GRID):
            worst = max(worst, abs(el.omega_r * el.T - 2 * math.pi)
                        / (2 * math.pi))
            if b != 0.0:
                rhs = math.sqrt(params.delta / (2.0 * abs(b) ** 3))
                worst = max(worst,
                            abs(el.omega_r**2 * abs(el.alpha2) ** 1.5 - rhs)
                            / rhs)
            om_j, om_l = analytic.frequencies(params, el.J, oc.lam)
            ratio = el.Theta / (2 * math.pi)
            worst = max(worst, abs(om_l / om_j - ratio) / ratio)
            th = analytic.angle_of_E(el, math.pi)
            worst = max(worst, abs(th - el.Theta / 2) / (el.Theta / 2))
    record(7, "identities Omega*T, Omega^2 alpha^3, freq ratio, theta(pi) "
              "<= 1e-10", worst <= 1e-10, f"worst {worst:.1e}")


def test_criterion_08_birkhoff_routes(all_classes):
    worst_l = worst_b = worst_bb = worst_ode = worst_edo = 0.0
    for name, params, _ in all_classes:
        for lam in LAM_GRID:
            i1 = birkhoff.invariants_from_potential(params, lam)
            i2 = birkhoff.invariants_from_period(params, lam)
            worst_l = max(worst_l, abs(i1.l - i2.l))
            worst_b = max(worst_b, abs(i1.b_inv - i2.b_inv) / i2.b_inv)
            worst_bb = max(worst_bb, abs(i1.B_inv - i2.B_inv)
                           / max(1.0, abs(i2.B_inv)))
            if params.b != 0.0:
                x_c = birkhoff.circular_abscissa(params, lam)
                _, y2, y3, y4 = y_derivatives(params, x_c, 4)
                worst_ode = max(worst_ode, abs(3 * y2 * y4 - 5 * y3 * y3)
                                / max(abs(3 * y2 * y4), abs(5 * y3 * y3)))
        for chk in birkhoff.isochrone_theorem_check(params, LAM_GRID):
            worst_edo = max(worst_edo, chk.invariant_ode_residual)
    ok = (worst_l <= 1e-10 and worst_b <= 1e-10 and worst_bb <= 1e-6
          and worst_ode <= 1e-10 and worst_edo <= 1e-6)
    record(8, "Birkhoff route equality (1e-10,1e-10,1e-6); parabola ODE "
              "<= 1e-10; invariant ODE <= 1e-6", ok,
           f"dl {worst_l:.1e}, db {worst_b:.1e}, dB {worst_bb:.1e}, "
           f"ode {worst_ode:.1e}, edo {worst_edo:.1e}")


def test_criterion_09_bertrand_suite(all_classes, kepler, harmonic, henon):
    q_kep, res_kep = birkhoff.bertrand_check(kepler, LAM_GRID)
    q_har, res_har = birkhoff.bertrand_check(harmonic, LAM_GRID)
    _, res_hen = birkhoff.bertrand_check(henon, LAM_GRID)
    bert_ok = (abs(q_kep - 1.0) <= 1e-6 and res_kep <= 1e-6
               and abs(q_har - 0.5) <= 1e-6 and res_har <= 1e-6
               and res_hen > 1e-3)
    iso_ok = True
    tg_ok = True
    for name, params, _ in all_classes:
        fi = birkhoff.frequency_invariants(params, half_action(params, 1.0), 1.0)
        iso_ok = iso_ok and abs(fi.j_inv) <= 1e-6
        if name in ("kepler", "harmonic"):
            tg_ok = tg_ok and abs(fi.t_inv) <= 1e-6 and abs(fi.g_inv) <= 1e-6
        else:
            tg_ok = tg_ok and max(abs(fi.t_inv), abs(fi.g_inv)) > 1e-6
    hen_torsion = abs(birkhoff.frequency_invariants(henon, 0.1, 1.0).t_inv)
    record(9, "Bertrand: Q=1 (Kepler), Q=1/2 (harmonic), Henon non-constant; "
              "wedge invariants", bert_ok and iso_ok and tg_ok
           and hen_torsion > 1e-4,
           f"Q_kep {q_kep:.8f}, Q_har {q_har:.8f}, henon res {res_hen:.1e}, "
           f"|T_henon| {hen_torsion:.1e}")


def test_criterion_10_third_law(all_classes):
    worst = 0.0
    for name, params, _ in all_classes:
        if params.b == 0.0:
            continue
        for frac in (0.1, 0.3, 0.5, 0.7, 0.9):
            xi = analytic.feasible_energy(params, 1.0, frac)
            t_direct = analytic.radial_period(params, xi)
            worst = max(worst, abs(birkhoff.third_law(params, xi) - t_direct)
                        / t_direct)
    record(10, "third law T = pi/sqrt(2 Y''(x_c)) vs closed form <= 1e-10, "
               "5 energies x 4 classes", worst <= 1e-10, f"worst {worst:.1e}")


def test_criterion_11_cli_determinism(tmp_path):
    orbit_args = ["orbit", "--bounded", "mu=1,beta=1", "--xi", "0.95",
                  "--lambda", "0.5", "--samples", "64"]
    verify_args = ["verify", "--henon", "mu=1,beta=1"]
    pairs = []
    for tag, argv in (("orbit", orbit_args), ("verify", verify_args)):
        f1 = tmp_path / f"{tag}1.out"
        f2 = tmp_path / f"{tag}2.out"
        c1 = cli_main(argv + ["-o", str(f1)])
        c2 = cli_main(argv + ["-o", str(f2)])
        pairs.append(c1 == c2 == 0 and f1.read_bytes() == f2.read_bytes())
    codes_ok = (
        cli_main(["classify", "--kepler", "mu=1"]) == 0
        and cli_main(["verify", "--plummer", "b=1",
                      "-o", str(tmp_path / "p.json")]) == 1
        and cli_main(["classify", "--latin", "0,1,2,0,0"]) == 2
        and cli_main(["orbit", "--henon", "mu=1,beta=1", "--xi", "-0.25",
                      "--lambda", "1"]) == 3)
    record(11, "CLI byte-determinism (orbit, verify); exit codes 0/1/2/3",
           all(pairs) and codes_ok)


def test_criterion_11_cli_entry_point_runs():
    # The installed console script must agree with the library path.  The
    # child imports the same package as this suite, installed or not.
    src = str(Path(isochrone.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "isochrone.cli", "classify",
         "--latin", "0,1,-2,0,0"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0
    assert proc.stdout.startswith("Henon (Kepler degenerate)")
