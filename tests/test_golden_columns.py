"""Estimate columns pinned across commits, not only across two runs of one tree.

``data/sweep_ds_n3_seed7.csv`` holds columns 1-6 (family through c_phi) of

    OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1 \\
        gmx sweep-ds --n 3 --points 6 --seed 7 --phi | cut -d, -f1-6

Rerun that command from the repository root, redirecting into
``tests/data/sweep_ds_n3_seed7.csv``, to regenerate the file.  A change
that moves the numerics on purpose must regenerate it and say so in
CHANGES.md; any other change must leave this test passing untouched.
"""

import subprocess
import sys
from pathlib import Path

from gmx.bench import CSV_HEADER, default_tau_grid, sweep
from gmx.optim import OptimConfig

GOLDEN = Path(__file__).parent / "data" / "sweep_ds_n3_seed7.csv"


def estimate_columns(line: str) -> str:
    return ",".join(line.split(",")[:6])


def test_sweep_ds_estimate_columns_match_golden_file():
    # The CLI's sweep-ds configuration: 8 restarts.
    cfg = OptimConfig(restarts=8, seed=7)
    records = sweep("ds", 3, default_tau_grid(6), cfg, include_phi=True)
    got = [estimate_columns(CSV_HEADER)] + [estimate_columns(r.csv_row()) for r in records]
    assert got == GOLDEN.read_text().splitlines()


def test_cli_sweep_ds_estimate_columns_match_golden_file():
    # The command the file was made with, through the CLI's own configuration path.
    proc = subprocess.run(
        [sys.executable, "-m", "gmx.cli", "sweep-ds", "--n", "3", "--points", "6", "--seed", "7", "--phi"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert [estimate_columns(line) for line in proc.stdout.splitlines()] == GOLDEN.read_text().splitlines()
