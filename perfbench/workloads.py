"""The three gmx benchmark workloads: inputs, closed-loop runs and checks.

Every workload is one caller in a closed loop: each estimate starts only
after the previous one has returned.  Inputs and optimizer seeds come from
the workload seed alone; the library sees only the generated density
matrices and ``OptimConfig``s.  A sweep's inputs are one pass of fixed
states (a gamma grid, or random states from a fixed family seed); the run
seed sets every optimizer seed, hence every random restart, and the order.
A run repeats the pass while time remains, so every pass does identical
work and the median over passes drops a pass slowed by other load on the
machine.  States drawn from the run seed made the spread across seeds far
wider than any usable bound, because a pass holds only a few dozen states.

- ``x_dicke_sweep``: ``x_heuristic`` alone with warm starts on driven steady
  states, N=2..7.  Penalty kernels do nearly all the work; ``phi_scheme``
  none.
- ``phi_random_mixed``: one "both" estimate per random state, N=2..4, pure
  and mixed: ``x_heuristic`` then ``c_phi_estimate``.  The nonsmooth
  witness and its finite-difference gradient dominate.
- ``threshold_race``: the zero-knowledge protocol, ``bench_timing`` from
  cold random starts at the paper's points.  Success per attempt decides
  the time.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from gmx import bench, heuristic, phi_scheme, states
from gmx.optim import OptimConfig

import oracles

# Estimates per pass, by qubit count.  As many N=2 points as N>=4 ones put
# p50 in the middle of the N=3 points (the Python-overhead regime) and p90
# among the N=6 points (dense products); N=7 carries a third of the time.
# N=8 (about 5 s per estimate) is left to the kernel-scaling pass: one or
# two such points would decide a run's throughput on their own.
X_SWEEP_PASS = {2: 16, 3: 10, 4: 6, 5: 4, 6: 4, 7: 2}
X_SWEEP_RESTARTS = 4
GAMMA_RANGE = (0.1, 20.0)

# Ranks of the random states of a pass, by qubit count.  Ranks are fixed,
# not drawn, because rank sets both the cost and the size of the bound:
# rank-1 states are the slowest and the most entangled, and they exercise
# the pure-state oracle.  Five states, each repeated once per pass, put
# p50 on the repeats of the median-cost state (the N=3 rank-2 one) and p90
# on those of the costliest, instead of on the edge between two states,
# where it would jump with the optimizer seeds and with the number of
# passes a run completes.
PHI_MIX_RANKS = {2: (1,), 3: (1, 2, 6), 4: (2,)}
PHI_MIX_FAMILY_SEED = 6060
PHI_MIX_RESTARTS = 3

# The paper's timing points and the protocol's configuration.
RACE_POINTS = ((4, 1.362), (5, 1.217))
RACE_THRESHOLD_RESTARTS = 6
RACE_ATTEMPT_RESTARTS = 1
RACE_BUDGET_S = 90.0
# X protocol rounds per block of the median rate.
RACE_RATE_BLOCK = 16

# Recorded with every run.
CONFIGS = {
    "x_dicke_sweep": {"restarts": X_SWEEP_RESTARTS, "seed": "per point, from seed",
                      "pass": X_SWEEP_PASS, "gamma_range": GAMMA_RANGE},
    "phi_random_mixed": {"restarts": PHI_MIX_RESTARTS, "seed": "per point, from seed",
                         "ranks": PHI_MIX_RANKS},
    "threshold_race": {"threshold_restarts": RACE_THRESHOLD_RESTARTS, "attempt_restarts": RACE_ATTEMPT_RESTARTS,
                       "budget_s": RACE_BUDGET_S, "points": RACE_POINTS,
                       "seed": "per repetition, from (seed, phase, index)"},
}


def _sub_seed(seed: int, *path: int) -> int:
    return int(np.random.default_rng([seed, *path]).integers(2 ** 31))


@dataclass
class Point:
    """One estimate request of a sweep workload."""

    kind: str  # "x" or "both"
    rho: object
    cfg: OptimConfig
    gamma: float | None = None
    rank: int | None = None


@dataclass
class Outcome:
    point: Point
    seconds: float
    x_seconds: float = 0.0
    c_x: float = math.nan
    c_phi: float | None = None
    errors: list[str] = field(default_factory=list)


@dataclass
class RaceCall:
    """One ``bench_timing`` repetition of the threshold race."""

    method: str
    n: int
    gamma: float
    cfg_seed: int


@dataclass
class RaceOutcome:
    call: RaceCall
    seconds: float
    ttt_s: float = math.nan
    attempts: int = 0
    errors: list[str] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def build_x_sweep(seed: int) -> list[Point]:
    lo, hi = GAMMA_RANGE
    rng = np.random.default_rng(seed)
    points = []
    for n, count in X_SWEEP_PASS.items():
        for gamma in np.geomspace(lo, hi, count):
            rho = states.dicke_steady_state(states.DickeParams(n, float(gamma)))
            cfg = OptimConfig(restarts=X_SWEEP_RESTARTS, seed=int(rng.integers(2 ** 31)))
            points.append(Point("x", rho, cfg, gamma=float(gamma)))
    rng.shuffle(points)
    return points


def build_phi_mix(seed: int) -> list[Point]:
    rng = np.random.default_rng(seed)
    family = np.random.default_rng(PHI_MIX_FAMILY_SEED)
    points = []
    for n, ranks in PHI_MIX_RANKS.items():
        for rank in ranks:
            rho = states.random_density_matrix(n, rank, seed=int(family.integers(2 ** 31)))
            cfg = OptimConfig(restarts=PHI_MIX_RESTARTS, seed=int(rng.integers(2 ** 31)))
            points.append(Point("both", rho, cfg, rank=rank))
    rng.shuffle(points)
    return points


@dataclass
class Race:
    seed: int
    thresholds: dict[int, float]
    threshold_s: float


def build_race(seed: int) -> Race:
    """Thresholds are the warm-started X estimates with ``restarts=6``."""
    t0 = time.perf_counter()
    thresholds = {}
    for i, (n, gamma) in enumerate(RACE_POINTS):
        rho = bench.make_state("dicke", n, gamma)
        cfg = OptimConfig(restarts=RACE_THRESHOLD_RESTARTS, seed=_sub_seed(seed, 0, i))
        thresholds[n] = heuristic.x_heuristic(rho, cfg).estimate
    return Race(seed, thresholds, time.perf_counter() - t0)


def build(workload: str, seed: int):
    if workload == "x_dicke_sweep":
        return build_x_sweep(seed)
    if workload == "phi_random_mixed":
        return build_phi_mix(seed)
    if workload == "threshold_race":
        return build_race(seed)
    raise ValueError(f"unknown workload {workload!r}")


def warm_up(workload: str, inputs) -> None:
    """One untimed estimate so lazy imports and caches are in place."""
    if workload == "threshold_race":
        n, gamma = RACE_POINTS[0]
        for method in ("x", "phi"):
            bench.bench_timing("dicke", n, gamma, method, 1, OptimConfig(restarts=1, seed=1),
                               threshold=0.0, budget=RACE_BUDGET_S)
        return
    # A fixed two-qubit input, so the warm-up costs the same for every seed.
    kind = inputs[0].kind
    rho = states.random_density_matrix(2, 2, seed=0)
    estimate(Point(kind, rho, OptimConfig(restarts=1, seed=0)))


# ---------------------------------------------------------------------------
# Closed-loop runs
# ---------------------------------------------------------------------------

def estimate(p: Point) -> Outcome:
    t0 = time.perf_counter()
    out = Outcome(p, 0.0)
    try:
        out.c_x = heuristic.x_heuristic(p.rho, p.cfg).estimate
        out.x_seconds = time.perf_counter() - t0
        if p.kind == "both":
            out.c_phi = phi_scheme.c_phi_estimate(p.rho, p.cfg).estimate
    except Exception as exc:  # a failed operation is counted, the run goes on
        out.errors.append(f"raised {exc!r}")
    out.seconds = time.perf_counter() - t0
    return out


def run_sweep(points: list[Point], seconds: float, tracer=None, n_passes: int | None = None):
    """Run whole passes over ``points`` while the next is expected to end within ``seconds``.

    With ``n_passes`` given, run exactly that many (the traced replay).
    Returns the outcomes, the number of passes and the wall time.
    """
    outcomes: list[Outcome] = []
    call = estimate if tracer is None else tracer.spanned("run.estimate", estimate)
    t0 = time.perf_counter()
    passes = 0
    while True:
        tp = time.perf_counter()
        for p in points:
            if tracer is not None:
                tracer.estimate_id += 1
            outcomes.append(call(p))
        passes += 1
        now = time.perf_counter()
        if n_passes is not None:
            if passes >= n_passes:
                break
        elif now - t0 + (now - tp) > seconds:
            break
    return outcomes, passes, time.perf_counter() - t0


def race_call(race: Race, c: RaceCall) -> RaceOutcome:
    t0 = time.perf_counter()
    out = RaceOutcome(c, 0.0)
    try:
        s = bench.bench_timing("dicke", c.n, c.gamma, c.method, 1,
                               OptimConfig(restarts=RACE_ATTEMPT_RESTARTS, seed=c.cfg_seed),
                               threshold=race.thresholds[c.n], budget=RACE_BUDGET_S)
        out.ttt_s = s.times[0]
        out.attempts = s.total_attempts
        if not s.complete:
            out.errors.append(f"{c.method} at N={c.n} hit the {RACE_BUDGET_S:.0f} s budget")
        if not math.isfinite(out.ttt_s):
            out.errors.append(f"time to threshold not finite: {out.ttt_s!r}")
    except Exception as exc:  # a failed operation is counted, the run goes on
        out.errors.append(f"raised {exc!r}")
    out.seconds = time.perf_counter() - t0
    return out


def race_schedule(race: Race, seconds: float):
    """Yield the race's calls: X rounds for half the time, then phi rounds.

    A round is one repetition at each paper point.  The split keeps the
    number of X rounds independent of how lucky the phi starts are.
    """
    k = 0
    for phase, method in enumerate(("x", "phi")):
        t0 = time.perf_counter()
        while True:
            tc = time.perf_counter()
            for n, gamma in RACE_POINTS:
                yield RaceCall(method, n, gamma, _sub_seed(race.seed, 1, phase, k))
                k += 1
            now = time.perf_counter()
            if now - t0 + (now - tc) > seconds / 2:
                break


def run_race(race: Race, seconds: float, tracer=None, schedule=None):
    """Returns the outcomes, the calls made and the wall time."""
    call = race_call if tracer is None else tracer.spanned("run.estimate", race_call)
    calls = race_schedule(race, seconds) if schedule is None else schedule
    outcomes, made = [], []
    t0 = time.perf_counter()
    for c in calls:
        if tracer is not None:
            tracer.estimate_id += 1
        made.append(c)
        outcomes.append(call(race, c))
    return outcomes, made, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# Checks and end-to-end figures
# ---------------------------------------------------------------------------

def check_sweep(outcomes: list[Outcome], pass_len: int) -> None:
    for i, o in enumerate(outcomes):
        if o.errors:
            continue
        p = o.point
        first = outcomes[i % pass_len]
        if (o.c_x, o.c_phi) != (first.c_x, first.c_phi):
            o.errors.append(f"repeated estimate differs: {(o.c_x, o.c_phi)} vs {(first.c_x, first.c_phi)}")
            continue
        o.errors += oracles.check_estimate("c_x", o.c_x, p.rho, p.rank)
        if o.c_phi is not None:
            o.errors += oracles.check_estimate("c_phi", o.c_phi, p.rho, p.rank)
            o.errors += oracles.check_order(o.c_x, o.c_phi)
        if p.gamma is not None and p.rho.n_qubits == 2:
            o.errors += oracles.check_driven_two_qubit(o.c_x, p.gamma)


def check_race(race: Race) -> list[str]:
    """Each threshold is itself an X estimate and passes the same checks."""
    bad = []
    for n, gamma in RACE_POINTS:
        rho = bench.make_state("dicke", n, gamma)
        bad += oracles.check_estimate(f"threshold N={n}", race.thresholds[n], rho, None)
    return bad


def quantile(values, q: float) -> float:
    return float(np.quantile(np.asarray(values, dtype=float), q))


def block_rates(seconds: list[float], block: int) -> list[float]:
    """Operations per second in each consecutive block of ``block`` operations.

    Their median discards a block slowed by other load on the machine,
    which a rate over the whole run would absorb.
    """
    block = min(block, len(seconds))
    return [block / sum(seconds[i:i + block]) for i in range(0, len(seconds) - block + 1, block)]


def sweep_figures(outcomes: list[Outcome], pass_len: int) -> tuple[dict, dict]:
    """End-to-end figures of a sweep run, plus informational ones.

    The rate is the median over passes; the bound mean is over one pass,
    since every pass repeats the same estimates.
    """
    ok = [o for o in outcomes[:pass_len] if not o.errors]
    times = [o.seconds for o in outcomes]
    p90 = quantile(times, 0.9)
    bounds = [o.c_phi if o.c_phi is not None else o.c_x for o in ok]
    rates = block_rates(times, pass_len)
    figures = {
        "estimates_per_s": statistics.median(rates),
        "estimate_s_p50": quantile(times, 0.5),
        "estimate_s_p90": p90,
        "bound_mean": statistics.fmean(bounds) if bounds else math.nan,
    }
    info = {
        "block_rates": rates,
        "samples": len(times),
        "samples_beyond_p90": sum(t > p90 for t in times),
    }
    phi = [o for o in ok if o.c_phi is not None]
    if phi:
        x_s = sum(o.x_seconds for o in phi)
        info["phi_x_time_ratio"] = sum(o.seconds - o.x_seconds for o in phi) / x_s
    return figures, info


def race_figures(race: Race, outcomes: list[RaceOutcome]) -> tuple[dict, dict]:
    """The X protocol rounds are the gated figures; phi is reported only.

    An X "estimate" here is one protocol round: one repetition at each
    paper point, each from cold random starts until it reaches the
    threshold, failed attempts included.
    """
    by_method = {m: [o for o in outcomes if o.call.method == m] for m in ("x", "phi")}
    x = by_method["x"]
    per_round = len(RACE_POINTS)
    rounds = [sum(o.ttt_s for o in x[i:i + per_round]) for i in range(0, len(x) - per_round + 1, per_round)]
    round_walls = [sum(o.seconds for o in x[i:i + per_round]) for i in range(0, len(rounds) * per_round, per_round)]
    p90 = quantile(rounds, 0.9)
    rates = block_rates(round_walls, RACE_RATE_BLOCK)
    figures = {
        "estimates_per_s": statistics.median(rates),
        "estimate_s_p50": quantile(rounds, 0.5),
        "estimate_s_p90": p90,
        "bound_mean": statistics.fmean(race.thresholds.values()),
    }
    info = {
        "block_rates": rates,
        "samples": len(rounds),
        "samples_beyond_p90": sum(t > p90 for t in rounds),
    }
    for m, outs in by_method.items():
        if outs:
            info[f"ttt_{m}_s_p50"] = quantile([o.ttt_s for o in outs], 0.5)
            info[f"ttt_{m}_reps"] = len(outs)
            info[f"attempts_per_success_{m}"] = sum(o.attempts for o in outs) / len(outs)
    if by_method["phi"] and x:
        info["phi_x_ttt_ratio"] = info["ttt_phi_s_p50"] / info["ttt_x_s_p50"]
    return figures, info
