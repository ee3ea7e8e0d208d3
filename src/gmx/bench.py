"""Parameter sweeps and the threshold-timing benchmark.

Sweeps produce one CSV row per grid point with the exact header
``family,n_qubits,parameter,c_x,f_min,c_phi,time_x_s,time_phi_s`` (optional
fields empty when the product-state scheme is not requested).  The timing
benchmark repeatedly runs a scheme from fresh random starts until it
reaches a threshold, charging failed attempts to the clock, and reports a
five-number summary of the per-repetition wall times.  Sweep points are
independent; timing runs are kept strictly serial so the clock is honest.
"""

from __future__ import annotations

import dataclasses
import json
import numbers
import subprocess
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .heuristic import x_heuristic
from .optim import MAX_ITERS, TOL, OptimConfig
from .phi_scheme import c_phi_estimate
from .states import PRNG_NAME, DensityMatrix, DickeParams, dicke_steady_state, diagonal_symmetric, tau_populations

CSV_HEADER = "family,n_qubits,parameter,c_x,f_min,c_phi,time_x_s,time_phi_s"

# Slack applied when comparing an estimate against the timing threshold.
THRESHOLD_SLACK = 1e-9


@dataclass(frozen=True)
class SweepRecord:
    family: str
    n_qubits: int
    parameter: float
    c_x: float
    f_min: float
    c_phi: float | None
    time_x_s: float
    time_phi_s: float | None

    def csv_row(self) -> str:
        cphi = "" if self.c_phi is None else repr(self.c_phi)
        tphi = "" if self.time_phi_s is None else repr(self.time_phi_s)
        return (
            f"{self.family},{self.n_qubits},{self.parameter!r},{self.c_x!r},"
            f"{self.f_min!r},{cphi},{self.time_x_s!r},{tphi}"
        )


@dataclass(frozen=True)
class TimingSummary:
    method: str
    n_qubits: int
    five_number: tuple[float, float, float, float, float]
    repetitions: int
    total_attempts: int
    threshold: float
    complete: bool
    times: tuple[float, ...]


def make_state(family: str, n: int, parameter: float) -> DensityMatrix:
    if not isinstance(n, numbers.Integral):
        raise ValueError(f"the qubit count must be an integer, got {n!r}")
    if not 2 <= n <= 8:
        raise ValueError(f"states cover 2 to 8 qubits, got {n}")
    if family == "ds":
        return diagonal_symmetric(tau_populations(n, parameter))
    if family == "dicke":
        return dicke_steady_state(DickeParams(n_qubits=n, gamma=parameter))
    raise ValueError(f"unknown family {family!r} (expected 'ds' or 'dicke')")


def _sweep_point(family, n, parameter, rho, cfg, include_phi) -> SweepRecord:
    """One row; a phi row reads its X columns from the run that seeded phi."""
    c_phi = None
    t_phi = None
    if include_phi:
        t0 = time.perf_counter()
        res = c_phi_estimate(rho, cfg)
        t_phi = time.perf_counter() - t0
        c_phi, xres = res.estimate, res.x
    else:
        xres = x_heuristic(rho, cfg)
    return SweepRecord(
        family=family,
        n_qubits=n,
        parameter=parameter,
        c_x=xres.estimate,
        f_min=xres.f_min,
        c_phi=c_phi,
        time_x_s=xres.optim.wall_time,
        time_phi_s=t_phi,
    )


def sweep(family: str, n: int, grid, cfg: OptimConfig, include_phi: bool = False) -> list[SweepRecord]:
    """One record per grid value (tau for 'ds', gamma for 'dicke').

    Point ``i`` runs with seed ``cfg.seed + i``.  Every state is built
    before the first point runs, so a bad parameter or an empty grid fails
    up front.
    """
    if not 2 <= n <= 7:
        raise ValueError("sweeps cover 2 to 7 qubits")
    grid = [float(v) for v in grid]
    if not grid:
        raise ValueError("a sweep needs at least one point")
    rhos = [make_state(family, n, v) for v in grid]
    return [
        _sweep_point(family, n, v, rho, dataclasses.replace(cfg, seed=cfg.seed + i), include_phi)
        for i, (v, rho) in enumerate(zip(grid, rhos))
    ]


def _check_points(n_points: int) -> None:
    if n_points < 0:
        raise ValueError(f"a grid needs a non-negative number of points, got {n_points}")


def default_tau_grid(n_points: int) -> np.ndarray:
    _check_points(n_points)
    return np.linspace(0.0, 1.0, n_points)


def default_gamma_grid(lo: float = 0.1, hi: float = 20.0, n_points: int = 60) -> np.ndarray:
    if not all(np.isfinite(v) and v > 0 for v in (lo, hi)):
        raise ValueError(f"gamma grid bounds must be finite and positive, got {lo!r} and {hi!r} "
                         "(gamma = 0 is a valid state, but a log grid cannot hold it)")
    _check_points(n_points)
    return np.geomspace(lo, hi, n_points)


def write_csv(records: list[SweepRecord], path) -> None:
    with open(path, "w") as fh:
        fh.write(CSV_HEADER + "\n")
        for rec in records:
            fh.write(rec.csv_row() + "\n")


def _run_attempt(method: str, rho: DensityMatrix, cfg: OptimConfig) -> float:
    scheme = x_heuristic if method == "x" else c_phi_estimate
    return scheme(rho, cfg, include_warm_starts=False).estimate


def bench_timing(
    family: str,
    n: int,
    parameter: float,
    method: str,
    reps: int,
    cfg: OptimConfig,
    threshold: float | None = None,
    budget: float | None = None,
) -> TimingSummary:
    """Time how long a scheme takes to reach ``threshold`` from random starts.

    Each repetition keeps drawing fresh random starts (no deterministic
    warm starts, zero-knowledge protocol) until the resulting estimate
    reaches ``threshold - 1e-9``; the repetition's wall time includes every
    unsuccessful attempt.  When ``threshold`` is omitted it is set to the
    warm-started X-heuristic estimate for the same state.  A repetition
    that exceeds ``budget`` seconds is cut off and flags the summary as
    incomplete; without a budget, a threshold the scheme cannot reach
    never returns.  Every argument is checked before the first estimate.
    """
    if isinstance(reps, bool) or not isinstance(reps, numbers.Integral) or reps < 1:
        raise ValueError(f"reps must be an integer >= 1, got {reps!r}")
    if method not in ("x", "phi"):
        raise ValueError(f"unknown method {method!r} (expected 'x' or 'phi')")
    if cfg.validate().restarts < 1:
        raise ValueError("bench_timing needs restarts >= 1: its attempts have no warm starts")
    for name, value in (("threshold", threshold), ("budget", budget)):
        # A bool is a Real, and True would pass the range checks below as 1.
        if value is not None and (isinstance(value, bool) or not isinstance(value, numbers.Real)):
            raise ValueError(f"{name} must be a number, got {value!r}")
    if budget is not None and not 0.0 < budget < np.inf:
        raise ValueError(f"budget must be a positive finite number of seconds, got {budget!r}")
    rho = make_state(family, n, parameter)
    if threshold is None:
        threshold = x_heuristic(rho, cfg).estimate
    # No estimate exceeds 1, so a larger (or NaN) threshold would never be met.
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold must lie in [0, 1], got {threshold!r}")

    times = []
    total_attempts = 0
    complete = True
    for rep in range(reps):
        rep_rng = np.random.default_rng([cfg.seed, rep])
        elapsed = 0.0
        while True:
            attempt_cfg = dataclasses.replace(cfg, seed=int(rep_rng.integers(2 ** 63)))
            t0 = time.perf_counter()
            estimate = _run_attempt(method, rho, attempt_cfg)
            elapsed += time.perf_counter() - t0
            total_attempts += 1
            if estimate >= threshold - THRESHOLD_SLACK:
                break
            if budget is not None and elapsed > budget:
                complete = False
                break
        times.append(elapsed)

    q = np.quantile(np.asarray(times), [0.0, 0.25, 0.5, 0.75, 1.0])
    return TimingSummary(
        method=method,
        n_qubits=n,
        five_number=tuple(float(v) for v in q),
        repetitions=reps,
        total_attempts=total_attempts,
        threshold=float(threshold),
        complete=complete,
        times=tuple(times),
    )


def _git_describe() -> str:
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True, text=True, timeout=5, cwd=Path(__file__).resolve().parent,
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return f"gmx-{__version__}"


def run_manifest(cfg: OptimConfig, extra: dict | None = None) -> dict:
    """Reproducibility record written next to every CSV artifact."""
    doc = {
        "seed": cfg.seed,
        "tol": TOL,
        "max_iters": MAX_ITERS,
        "restarts": cfg.restarts,
        "prng": PRNG_NAME,
        "line_search": "strong Wolfe, c1=1e-4, c2=0.9",
        "start_sampling": "theta ~ U[0, pi), phi ~ U[0, 2*pi)",
        "build": _git_describe(),
    }
    if extra:
        doc.update(extra)
    return doc


def write_manifest(path, cfg: OptimConfig, extra: dict | None = None) -> None:
    with open(path, "w") as fh:
        json.dump(run_manifest(cfg, extra), fh, indent=2)
        fh.write("\n")
