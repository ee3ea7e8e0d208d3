"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  Every tolerance is pinned here; nothing is
calibrated at run time.
"""

import json
import subprocess
import sys
import time

import numpy as np
import pytest

from gmx.bench import bench_timing, default_gamma_grid, default_tau_grid, sweep, write_manifest
from gmx.golden import dicke_norm_closed, dicke_reference, ds_reference
from gmx.heuristic import stationary_check, x_heuristic
from gmx.lugroup import fd_gradient, make_penalty_problem
from gmx.optim import OptimConfig
from gmx.phi_scheme import c_phi_estimate
from gmx.states import (
    DiagSymParams,
    DickeParams,
    dicke_normalization,
    dicke_steady_state,
    diagonal_symmetric,
    random_density_matrix,
    tau_populations,
)
from gmx.wootters import verify_dicke2_equality
from gmx.xform import gm_lower_bound_x
from helpers import circular_distance, pair_seed_witness


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {name}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    assert ok, line


def test_criterion_01_product_state_identity():
    t0 = time.perf_counter()
    worst = 0.0
    count = 0
    for n in (2, 3, 4, 5):
        for k in range(250):
            rank = (k % (2 ** n)) + 1
            rho = random_density_matrix(n, rank, seed=1_000_000 * n + k)
            # The witness itself, at the anti-diagonal pair seeds, against the X formula.
            witness = max(0.0, 2.0 * float(pair_seed_witness(rho).max()))
            worst = max(worst, abs(witness - gm_lower_bound_x(rho)))
            count += 1
    elapsed = time.perf_counter() - t0
    report(1, "product-state witness at the pair seeds equals X-projection bound",
           worst < 1e-12 and count >= 1000 and elapsed < 30.0,
           f"{count} states, max dev {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_golden_matrices():
    rng = np.random.default_rng(2024)
    worst_ds = 0.0
    for n in (2, 3, 4):
        for _ in range(5):
            p = rng.dirichlet(np.ones(n + 1))
            got = diagonal_symmetric(DiagSymParams(n, p))
            worst_ds = max(worst_ds, float(np.abs(got.mat - ds_reference(n, p)).max()))
    worst_dk = 0.0
    worst_norm = 0.0
    for n in (2, 3, 4):
        for g in (0.1, 0.5, 1.0, 1.652, 3.0):
            got = dicke_steady_state(DickeParams(n, g))
            worst_dk = max(worst_dk, float(np.abs(got.mat - dicke_reference(n, g)).max()))
            dn = dicke_norm_closed(n, g)
            worst_norm = max(worst_norm, abs(dicke_normalization(n, g) - dn) / dn)
    report(2, "golden matrices and closed-form normalizations",
           worst_ds < 1e-12 and worst_dk < 1e-12 and worst_norm < 1e-12,
           f"ds {worst_ds:.2e}, steady {worst_dk:.2e}, norm rel {worst_norm:.2e}")


def test_criterion_03_two_qubit_equality():
    t0 = time.perf_counter()
    gammas = np.linspace(0.0, 10.0, 50)
    rep = verify_dicke2_equality(gammas)
    plateau_ok = all(v == 0.0 for v, g in zip(rep.c_wootters, gammas) if g <= 1.0 - 1e-12)
    plateau_ok &= all(v == 0.0 for v, g in zip(rep.c_x_bound, gammas) if g <= 1.0 - 1e-12)
    peak = verify_dicke2_equality([1.65])
    peak_ok = (abs(peak.c_wootters[0] - 7.735e-2) < 1e-4
               and abs(peak.c_x_bound[0] - 7.735e-2) < 1e-4)
    elapsed = time.perf_counter() - t0
    report(3, "two-qubit Wootters equals X bound equals closed form",
           rep.max_deviation < 1e-10 and plateau_ok and peak_ok and elapsed < 5.0,
           f"max dev {rep.max_deviation:.2e}, peak {peak.c_wootters[0]:.6f}, {elapsed:.1f}s")


def test_criterion_04_trivial_bounds_for_driven_states():
    ok = True
    for n in (3, 4):
        for g in np.linspace(0.0, 10.0, 20):
            val = gm_lower_bound_x(dicke_steady_state(DickeParams(n, float(g))))
            ok &= val == 0.0
    report(4, "X-projection bound identically zero for the 3- and 4-qubit steady states", ok)


def test_criterion_05_symmetric_stationarity():
    cfg = OptimConfig(restarts=2, seed=505)
    worst_grad = 0.0
    worst_hess = 0.0
    worst_angle = 0.0
    for n in range(3, 8):
        target = np.concatenate([np.full(n, np.pi / 4), np.zeros(n)])
        for tau in (0.1, 0.5, 0.9):
            rho = diagonal_symmetric(tau_populations(n, tau))
            rep = stationary_check(rho, target)
            worst_grad = max(worst_grad, rep.grad_norm)
            worst_hess = min(worst_hess, rep.hessian_min_eig)
            res = x_heuristic(rho, cfg)
            for th in res.angles[:n]:
                worst_angle = max(worst_angle, circular_distance(th, np.pi / 4, np.pi))
            for ph in res.angles[n:]:
                worst_angle = max(worst_angle, circular_distance(ph, 0.0, 2 * np.pi))
    report(5, "quarter-turn point is a certified minimum and the optimizer lands on it",
           worst_grad < 1e-8 and worst_hess >= -1e-6 and worst_angle < 1e-6,
           f"grad {worst_grad:.2e}, hess min {worst_hess:.2e}, angle dev {worst_angle:.2e}")


def test_criterion_06_scheme_ordering():
    cfg = OptimConfig(restarts=3, seed=606)
    states = []
    for n, count in ((2, 80), (3, 70), (4, 50)):
        for k in range(count):
            rank = (k % (2 ** n)) + 1
            states.append(random_density_matrix(n, rank, seed=60_000 + 100 * n + k))
    for n in (2, 3, 4):
        for tau in (0.05, 0.3, 0.6, 0.9):
            states.append(diagonal_symmetric(tau_populations(n, tau)))
        for g in (0.5, 1.3, 1.65, 3.0):
            states.append(dicke_steady_state(DickeParams(n, g)))
    worst_order = -np.inf
    worst_floor = -np.inf
    for rho in states:
        # .x is the X-heuristic run with this cfg (test_phi_scheme pins it
        # equal to a separate x_heuristic call), so X runs once per state.
        phi = c_phi_estimate(rho, cfg)
        xe, pe = phi.x.estimate, phi.estimate
        floor = gm_lower_bound_x(rho)
        worst_order = max(worst_order, xe - pe)
        worst_floor = max(worst_floor, floor - min(xe, pe))
    report(6, "X-heuristic <= product-state estimate, both above the projection bound",
           worst_order <= 1e-6 and worst_floor <= 1e-12,
           f"{len(states)} states, worst x-phi {worst_order:.2e}, worst floor gap {worst_floor:.2e}")


def test_criterion_07_tau_sweep_agreement():
    cfg = OptimConfig(restarts=4, seed=707)
    rec2 = sweep("ds", 2, default_tau_grid(100), cfg, include_phi=True)
    worst2 = max(abs(r.c_phi - r.c_x) for r in rec2)
    rec4 = sweep("ds", 4, default_tau_grid(100), cfg, include_phi=True)
    worst4 = max((abs(r.c_phi - r.c_x) for r in rec4 if r.parameter > 0.212), default=0.0)
    worst_order = max(r.c_x - r.c_phi for r in rec4)
    report(7, "tau-sweep agreement between the two schemes",
           worst2 < 1e-9 and worst4 < 1e-6 and worst_order <= 1e-9,
           f"N=2 max {worst2:.2e}, N=4 tail max {worst4:.2e}, order {worst_order:.2e}")


def test_criterion_08_dicke_sweep():
    cfg = OptimConfig(restarts=4, seed=808)
    grid = default_gamma_grid()

    t0 = time.perf_counter()
    x_records = {n: sweep("dicke", n, grid, cfg) for n in range(2, 8)}
    x_elapsed = time.perf_counter() - t0

    plateau_ok = all(r.c_x == 0.0 for r in x_records[2] if r.parameter <= 1.0)

    gaps = {}
    for n, g_min in ((3, 7.0), (4, 2.2)):
        recs = sweep("dicke", n, [g for g in grid if g >= g_min], cfg, include_phi=True)
        gaps[n] = max((r.c_phi - r.c_x) / r.c_phi for r in recs)
    report(8, "driven-family sweep: plateau, scheme gaps, X-only runtime",
           plateau_ok and gaps[3] < 0.032 and gaps[4] < 0.032 and x_elapsed < 600.0,
           f"gap N=3 {gaps[3]:.4%}, N=4 {gaps[4]:.4%}, X sweeps {x_elapsed:.0f}s")


def test_criterion_09_gradient_agreement():
    rng = np.random.default_rng(909)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 5))
        rho = random_density_matrix(n, int(rng.integers(1, 2 ** n + 1)), seed=int(rng.integers(2 ** 31)))
        x = np.concatenate([rng.uniform(0, np.pi, n), rng.uniform(0, 2 * np.pi, n)])
        fun, grad = make_penalty_problem(rho.mat, n)
        ga, gf = grad(x), fd_gradient(fun, x)
        worst = max(worst, float(np.abs(ga - gf).max() / max(np.abs(gf).max(), 1e-12)))
    report(9, "analytic and finite-difference penalty gradients agree",
           worst < 1e-6, f"100 points, worst rel dev {worst:.2e}")


def test_criterion_10_timing_medians(tmp_path):
    cfg_threshold = OptimConfig(restarts=6, seed=1010)
    cfg_attempt = OptimConfig(restarts=1, seed=1010)
    medians = {}
    summaries = {}
    for n, gamma in ((4, 1.362), (5, 1.217)):
        threshold = x_heuristic(dicke_steady_state(DickeParams(n, gamma)), cfg_threshold).estimate
        for method in ("x", "phi"):
            s = bench_timing("dicke", n, gamma, method, reps=10, cfg=cfg_attempt,
                             threshold=threshold, budget=90.0)
            summaries[(n, method)] = s
            medians[(n, method)] = s.five_number[2]
    manifest_path = tmp_path / "timing.manifest.json"
    write_manifest(manifest_path, cfg_attempt, extra={
        "command": "acceptance-timing",
        "median_x_n4_s": medians[(4, "x")],
        "median_phi_n4_s": medians[(4, "phi")],
        "median_x_n5_s": medians[(5, "x")],
        "median_phi_n5_s": medians[(5, "phi")],
    })
    recorded = json.loads(manifest_path.read_text())
    ok = (medians[(4, "x")] < medians[(4, "phi")]
          and medians[(5, "x")] < medians[(5, "phi")]
          and "median_x_n4_s" in recorded and "median_phi_n5_s" in recorded)
    report(10, "X-heuristic median time beats the product-state scheme at N=4,5",
           ok,
           f"N=4 {medians[(4, 'x')]:.3f}s vs {medians[(4, 'phi')]:.3f}s; "
           f"N=5 {medians[(5, 'x')]:.3f}s vs {medians[(5, 'phi')]:.3f}s")


def test_criterion_11_cli_determinism(tmp_path):
    outs = []
    for run in (0, 1):
        out = tmp_path / f"run{run}.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "gmx.cli", "sweep-ds", "--n", "3", "--points", "20",
             "--seed", "7", "--out", str(out)],
            capture_output=True, text=True, timeout=600,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(out.read_text().splitlines())
    def estimate_columns(lines):
        return [tuple(line.split(",")[i] for i in (0, 1, 2, 3, 4, 5)) for line in lines[1:]]
    identical = estimate_columns(outs[0]) == estimate_columns(outs[1])
    report(11, "CLI sweep is byte-deterministic in the estimate columns", identical)
