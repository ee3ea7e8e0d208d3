import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gmx import cli
from gmx.bench import (
    CSV_HEADER,
    bench_timing,
    default_tau_grid,
    make_state,
    run_manifest,
    sweep,
    write_csv,
)
from gmx.heuristic import x_heuristic
from gmx.optim import OptimConfig
from gmx.states import save_json, to_json_dict
from gmx.xform import gm_lower_bound_x
from helpers import ghz

CFG = OptimConfig(restarts=2, seed=9)


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "gmx.cli", *args],
        capture_output=True, text=True, timeout=600,
    )


def test_sweep_ds_row_shape_and_determinism(tmp_path):
    records = sweep("ds", 3, default_tau_grid(10), CFG)
    assert len(records) == 10
    for rec in records:
        assert rec.family == "ds"
        assert 0.0 <= rec.parameter <= 1.0
        assert np.isfinite(rec.c_x) and np.isfinite(rec.f_min)
        assert rec.c_x >= 0.0
        assert rec.c_phi is None and rec.time_phi_s is None
    again = sweep("ds", 3, default_tau_grid(10), CFG)
    assert [r.c_x for r in records] == [r.c_x for r in again]
    assert [r.f_min for r in records] == [r.f_min for r in again]

    out = tmp_path / "ds.csv"
    write_csv(records, out)
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 11
    # optional columns serialize as empty strings
    assert lines[1].split(",")[5] == ""


def test_sweep_dicke_with_phi_columns():
    records = sweep("dicke", 2, [0.5, 1.65], CFG, include_phi=True)
    for rec in records:
        assert rec.c_phi is not None and rec.time_phi_s is not None
        assert abs(rec.c_phi - rec.c_x) < 1e-9  # two-qubit saturation
    assert records[0].c_x == 0.0  # below the entanglement threshold


def test_sweep_rejects_out_of_range(monkeypatch):
    with pytest.raises(ValueError):
        sweep("ds", 8, default_tau_grid(5), CFG)
    # A bad parameter anywhere in the grid fails before the first point runs.
    monkeypatch.setattr("gmx.bench.x_heuristic", lambda *a, **k: pytest.fail("a point ran"))
    with pytest.raises(ValueError):
        sweep("dicke", 3, [1.0, -1.0], CFG)
    with pytest.raises(ValueError):
        sweep("ds", 3, [0.5, 1.5], CFG)
    with pytest.raises(ValueError, match="at least one point"):
        sweep("ds", 3, [], CFG)


def test_make_state_families():
    assert make_state("ds", 3, 0.5).n_qubits == 3
    assert make_state("dicke", 2, 1.0).n_qubits == 2
    with pytest.raises(ValueError):
        make_state("ghz", 3, 0.5)


@pytest.mark.parametrize("n", [1, 9, 16])
def test_make_state_rejects_qubit_counts_outside_two_to_eight(n):
    with pytest.raises(ValueError, match="2 to 8 qubits"):
        make_state("ds", n, 0.5)


@pytest.mark.parametrize("call,name", [
    (lambda: make_state("ds", 3.5, 0.5), "qubit count"),
    (lambda: sweep("ds", 3.0, [0.5], CFG), "qubit count"),
    (lambda: bench_timing("ds", 2, 0.3, "x", reps=1.5, cfg=OptimConfig(restarts=1, seed=1)), "reps"),
    (lambda: bench_timing("ds", 2, 0.3, "x", reps=True, cfg=OptimConfig(restarts=1, seed=1)), "reps"),
    (lambda: bench_timing("ds", 2, 0.3, "x", reps=1, cfg=OptimConfig(restarts=1, seed=0.5), threshold=0.5),
     "seed"),
    (lambda: bench_timing("ds", 2, 0.3, "x", reps=1, cfg=OptimConfig(restarts=True, seed=1), threshold=0.5),
     "restarts"),
], ids=["make_state", "sweep", "bench_timing", "bench_timing-bool-reps", "bench_timing-seed",
        "bench_timing-bool-restarts"])
def test_non_integral_counts_fail_at_the_boundary(monkeypatch, call, name):
    monkeypatch.setattr("gmx.bench.x_heuristic", lambda *a, **k: pytest.fail("an estimate ran"))
    monkeypatch.setattr("gmx.bench._run_attempt", lambda *a, **k: pytest.fail("an attempt ran"))
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        call()


def test_bench_timing_two_qubit_mixture():
    threshold = gm_lower_bound_x(make_state("ds", 2, 0.3))
    summary = bench_timing("ds", 2, 0.3, "x", reps=3, cfg=OptimConfig(restarts=1, seed=1),
                           threshold=threshold)
    assert summary.repetitions == 3
    assert summary.total_attempts >= 3
    assert summary.complete
    mn, q1, med, q3, mx = summary.five_number
    assert mn <= q1 <= med <= q3 <= mx
    assert mx < 1.0  # sub-second on any machine for two qubits
    assert len(summary.times) == 3


def test_bench_timing_rejects_zero_restarts(monkeypatch):
    # Attempts carry no warm starts, so zero restarts must fail before the threshold run.
    monkeypatch.setattr("gmx.bench.x_heuristic", lambda *a, **k: pytest.fail("threshold computed"))
    with pytest.raises(ValueError, match="restarts"):
        bench_timing("ds", 2, 0.3, "x", reps=1, cfg=OptimConfig(restarts=0, seed=1))


@pytest.mark.parametrize("threshold,budget", [
    (float("nan"), None), (2.0, None), (-0.1, None),
    (0.5, 0.0), (0.5, -1.0), (0.5, float("nan")), (0.5, float("inf")),
])
def test_bench_timing_rejects_unreachable_targets(monkeypatch, threshold, budget):
    # A threshold no estimate can meet, or a budget that never cuts off, would loop forever.
    monkeypatch.setattr("gmx.bench._run_attempt", lambda *a, **k: pytest.fail("an attempt ran"))
    with pytest.raises(ValueError, match="threshold" if budget is None else "budget"):
        bench_timing("ds", 2, 0.3, "x", reps=1, cfg=OptimConfig(restarts=1, seed=1),
                     threshold=threshold, budget=budget)


def test_bench_timing_budget_marks_incomplete():
    # impossible threshold forces the budget path
    summary = bench_timing("ds", 2, 0.5, "x", reps=1, cfg=OptimConfig(restarts=1, seed=2),
                           threshold=0.999, budget=0.01)
    assert not summary.complete


def test_run_manifest_keys():
    doc = run_manifest(CFG, extra={"command": "test"})
    for key in ("seed", "tol", "max_iters", "restarts", "prng", "line_search", "build", "command"):
        assert key in doc
    assert "tol_x" not in doc and "tol_fun" not in doc


def test_run_manifest_build_ignores_working_directory(monkeypatch, tmp_path):
    monkeypatch.chdir(Path(__file__).resolve().parents[1])
    expected = run_manifest(CFG)["build"]
    monkeypatch.chdir(tmp_path)
    assert run_manifest(CFG)["build"] == expected


@pytest.fixture
def x_calls(monkeypatch):
    """Count X-heuristic runs made through every module that calls it."""
    calls = []

    def counted(*a, **k):
        calls.append(a)
        return x_heuristic(*a, **k)

    for target in ("gmx.phi_scheme.x_heuristic", "gmx.bench.x_heuristic", "gmx.cli.x_heuristic"):
        monkeypatch.setattr(target, counted)
    return calls


def test_phi_sweep_point_runs_x_once(x_calls):
    (rec,) = sweep("dicke", 3, [1.3], CFG, include_phi=True)
    assert len(x_calls) == 1
    alone = x_heuristic(make_state("dicke", 3, 1.3), CFG)
    assert (rec.c_x, rec.f_min) == (alone.estimate, alone.f_min)
    assert 0.0 < rec.time_x_s < rec.time_phi_s


@pytest.mark.parametrize("method", ["x", "phi", "both"])
def test_cli_estimate_runs_x_once(x_calls, tmp_path, capsys, method):
    state_file = tmp_path / "rho.json"
    save_json(make_state("dicke", 2, 1.0), state_file)
    assert cli.main(["estimate", "--state", str(state_file), "--method", method,
                     "--restarts", "1", "--seed", "4"]) == 0
    assert len(x_calls) == 1
    keys = list(json.loads(capsys.readouterr().out))
    expected = {"x": ["x_heuristic"], "phi": ["phi_scheme"], "both": ["x_heuristic", "phi_scheme"]}
    assert keys == ["n_qubits", "gm_lower_bound_x", *expected[method]]


def test_cli_estimate_ghz(tmp_path):
    state_file = tmp_path / "ghz.json"
    save_json(ghz(3), state_file)
    proc = run_cli("estimate", "--state", str(state_file), "--method", "both",
                   "--restarts", "2", "--seed", "4")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["gm_lower_bound_x"] == pytest.approx(1.0, abs=1e-12)
    assert doc["x_heuristic"]["estimate"] == pytest.approx(1.0, abs=1e-9)
    assert doc["phi_scheme"]["estimate"] == pytest.approx(1.0, abs=1e-9)
    # The kink count follows the phi estimate; the optimizer's counts follow
    # the existing keys; no estimate column moves.
    assert list(doc["phi_scheme"])[:2] == ["estimate", "kink_rows"]
    assert doc["phi_scheme"]["kink_rows"] >= 0
    for scheme in ("x_heuristic", "phi_scheme"):
        fields = doc[scheme]
        assert list(fields)[-4:] == ["wall_time_s", "value_rows", "grad_rows", "line_search"]
        assert fields["value_rows"] >= fields["grad_rows"] >= fields["restarts_used"]
        assert fields["line_search"] in ("ok", "flat", "fail", "none")


def test_cli_sweep_writes_csv_and_manifest(tmp_path):
    out = tmp_path / "sweep.csv"
    proc = run_cli("sweep-dicke", "--n", "2", "--gamma-min", "0.5", "--gamma-max", "3.0",
                   "--points", "4", "--seed", "11", "--restarts", "2", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 5
    manifest = json.loads((tmp_path / "sweep.manifest.json").read_text())
    assert manifest["seed"] == 11
    assert manifest["command"] == "sweep-dicke"


def test_cli_bench_outputs_summary(tmp_path):
    manifest = tmp_path / "bench.manifest.json"
    proc = run_cli("bench", "--family", "ds", "--n", "2", "--param", "0.3",
                   "--method", "x", "--reps", "2", "--seed", "3", "--out", str(manifest))
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["repetitions"] == 2
    assert doc["five_number_s"][0] <= doc["median_s"] <= doc["five_number_s"][-1]
    recorded = json.loads(manifest.read_text())
    assert recorded["times_s"] and recorded["median_s"] == doc["median_s"]


def test_cli_verify_passes():
    proc = run_cli("verify")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "[PASS]" in proc.stdout
    assert "[FAIL]" not in proc.stdout


def test_cli_verify_takes_no_optimizer_flags():
    proc = run_cli("verify", "--seed", "3")
    assert proc.returncode == 2
    assert "unrecognized arguments: --seed 3" in proc.stderr


@pytest.mark.parametrize("args", [
    ["bench", "--family", "ds", "--n", "2", "--param", "0.3", "--method", "x", "--restarts", "0"],
    ["bench", "--family", "ds", "--n", "2", "--param", "0.3", "--method", "x", "--reps", "0"],
    ["sweep-ds", "--n", "8"],
    ["sweep-dicke", "--n", "3", "--gamma-min", "0"],
    ["estimate", "--state", "{missing}"],
    ["estimate", "--state", "{no_re}"],
    ["estimate", "--state", "{not_object}"],
    ["estimate", "--state", "{null_n}"],
    ["sweep-ds", "--n", "2", "--points", "0"],
    ["sweep-dicke", "--n", "2", "--points", "0", "--out", "{csv}"],
    ["estimate", "--state", "{null_re}"],
    ["estimate", "--state", "{fractional_n}"],
    ["bench", "--family", "ds", "--n", "16", "--param", "0.5", "--method", "x"],
    ["bench", "--family", "dicke", "--n", "1", "--param", "1.0", "--method", "x"],
    ["bench", "--family", "ds", "--n", "9", "--param", "0.5", "--method", "phi"],
    ["estimate", "--state", "{ragged_re}"],
    ["estimate", "--state", "{string_re}"],
    ["sweep-ds", "--n", "2", "--points", "-1"],
    ["sweep-dicke", "--n", "3", "--gamma-max", "0"],
])
def test_cli_input_errors_end_like_argparse_errors(tmp_path, args):
    doc = to_json_dict(make_state("ds", 2, 0.3))
    paths = {
        "csv": tmp_path / "sweep.csv",
        "missing": tmp_path / "missing.json",
        "no_re": tmp_path / "no_re.json",
        "not_object": tmp_path / "not_object.json",
        "null_n": tmp_path / "null_n.json",
        "null_re": tmp_path / "null_re.json",
        "fractional_n": tmp_path / "fractional_n.json",
        "ragged_re": tmp_path / "ragged_re.json",
        "string_re": tmp_path / "string_re.json",
    }
    paths["no_re"].write_text(json.dumps({k: v for k, v in doc.items() if k != "re"}))
    paths["not_object"].write_text("3")
    paths["null_n"].write_text(json.dumps({**doc, "n_qubits": None}))
    null_re = [row[:] for row in doc["re"]]
    null_re[0][0] = None
    paths["null_re"].write_text(json.dumps({**doc, "re": null_re}))
    paths["fractional_n"].write_text(json.dumps({**doc, "n_qubits": 2.7}))
    paths["ragged_re"].write_text(json.dumps({**doc, "re": [doc["re"][0], doc["re"][1][:2], *doc["re"][2:]]}))
    string_re = [row[:] for row in doc["re"]]
    string_re[0][0] = "a"
    paths["string_re"].write_text(json.dumps({**doc, "re": string_re}))
    proc = run_cli(*(a.format(**paths) for a in args))
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    last = proc.stderr.splitlines()[-1]
    assert last.startswith("gmx: error: ")
    # Where numpy would have had the last word, the message is the library's own.
    for marker, message in (("{ragged_re}", "malformed state JSON: "), ("{string_re}", "malformed state JSON: "),
                            ("-1", "a grid needs a non-negative number of points, got -1"),
                            ("--gamma-min", "gamma grid bounds must be finite and positive"),
                            ("--gamma-max", "gamma grid bounds must be finite and positive")):
        if marker in args:
            assert last.startswith("gmx: error: " + message), last
    # Rejected before any output: no CSV header, no file.
    assert proc.stdout == ""
    assert not paths["csv"].exists()


def test_cli_gmx_tol_env(tmp_path):
    import os

    out = tmp_path / "s.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "gmx.cli", "sweep-ds", "--n", "2", "--points", "3",
         "--restarts", "1", "--out", str(out)],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "GMX_TOL": "1e-9"},
    )
    assert proc.returncode == 0, proc.stderr
    manifest = json.loads((tmp_path / "s.manifest.json").read_text())
    assert manifest["tol"] == 1e-9
    assert manifest["max_iters"] == 10_000

    # Config errors end like argparse errors: one "gmx: error:" line, status 2.
    for tol, extra in (("abc", []), ("-1", []), ("1e-9", ["--restarts", "-1"])):
        proc = subprocess.run(
            [sys.executable, "-m", "gmx.cli", "sweep-ds", "--n", "2", "--points", "3",
             "--restarts", "1", *extra],
            capture_output=True, text=True, timeout=300,
            env={**os.environ, "GMX_TOL": tol},
        )
        assert proc.returncode == 2, (tol, extra, proc.stderr)
        assert "Traceback" not in proc.stderr
        assert proc.stderr.splitlines()[-1].startswith("gmx: error: ")
        assert proc.stdout == ""
