"""Span tracing of gmx from the outside, by rebinding module attributes.

The library is treated as a black box: each hook replaces the attribute a
caller looks up at call time (``gmx.heuristic.multi_start``,
``gmx.phi_scheme.i_phi_from_vector``, ...) with a wrapper that records a
span, and ``restore`` puts the originals back.  A hook whose target no
longer exists is reported as absent and its metrics are left out; the run
goes on.

Spans live in flat in-memory arrays (name, start, end, parent, estimate
id) and are written out once, at the end of the run.  A span's self time
is its duration minus the durations of its direct children; summed over
all spans this equals the summed duration of the top-level spans, so the
per-layer self times plus ``trace.unaccounted_s`` add up to the traced
wall time.
"""

from __future__ import annotations

import importlib
import statistics
import time
from array import array

import numpy as np

# (module, attribute, span name, wrapper kind).  Several modules import the
# same function by name; every one of those bindings is hooked, because
# that is the name the calling code resolves.
HOOKS = [
    ("gmx.heuristic", "make_penalty_problem", "lugroup.penalty", "penalty_problem"),
    ("gmx.lugroup", "make_penalty_problem", "lugroup.penalty", "penalty_problem"),
    ("gmx.phi_scheme", "i_phi_from_vector", "phi_scheme.i_phi", "span"),
    ("gmx.phi_scheme", "fd_gradient", "phi_scheme.fd_gradient", "span"),
    ("gmx.optim", "bfgs_minimize", "optim.bfgs", "bfgs"),
    ("gmx.optim", "multi_start", "optim.multi_start", "multi_start"),
    ("gmx.heuristic", "multi_start", "optim.multi_start", "multi_start"),
    ("gmx.phi_scheme", "multi_start", "optim.multi_start", "multi_start"),
    ("gmx.heuristic", "x_heuristic", "heuristic.x_heuristic", "span"),
    ("gmx.phi_scheme", "x_heuristic", "heuristic.x_heuristic", "span"),
    ("gmx.bench", "x_heuristic", "heuristic.x_heuristic", "span"),
    ("gmx.phi_scheme", "c_phi_estimate", "phi_scheme.c_phi_estimate", "span"),
    ("gmx.bench", "c_phi_estimate", "phi_scheme.c_phi_estimate", "span"),
    ("gmx.bench", "bench_timing", "bench.bench_timing", "bench_timing"),
    ("gmx.states", "dicke_steady_state", "states.factory", "span"),
    ("gmx.bench", "dicke_steady_state", "states.factory", "span"),
    ("gmx.states", "random_density_matrix", "states.factory", "span"),
]

# Spans whose self time is reported; together with ``run.estimate`` (the
# benchmark's own per-operation span) they cover every recorded span.
SELF_TIMED = [
    "lugroup.penalty_value", "lugroup.penalty_grad",
    "optim.bfgs", "optim.multi_start",
    "phi_scheme.i_phi", "phi_scheme.fd_gradient", "phi_scheme.c_phi_estimate",
    "heuristic.x_heuristic", "bench.bench_timing", "states.factory", "run.estimate",
]

# Per-layer metrics and the hooked spans they are measured from.  A metric
# whose hooks found no target (a renamed function, say) is left out.
NEEDS = {
    "lugroup.penalty_": ("lugroup.penalty",),
    "optim.bfgs.": ("optim.bfgs",),
    "optim.evals_per_iteration": ("optim.bfgs", "optim.multi_start"),
    "optim.multi_start.": ("optim.multi_start",),
    "optim.grad_at_value_point": ("optim.multi_start",),
    "phi_scheme.i_phi.": ("phi_scheme.i_phi",),
    "phi_scheme.fd_gradient.": ("phi_scheme.fd_gradient",),
    "phi_scheme.c_phi_estimate.": ("phi_scheme.c_phi_estimate",),
    "phi_scheme.nested_x.": ("heuristic.x_heuristic", "phi_scheme.c_phi_estimate"),
    "heuristic.x_heuristic.": ("heuristic.x_heuristic",),
    "bench.": ("bench.bench_timing",),
    "states.": ("states.factory",),
}

# Runs ending this close to the multi-start winner count as useful.
USEFUL_TOL = 1e-9


class Tracer:
    """In-memory span recorder plus the counters measured at the hooks."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ix: dict[str, int] = {}
        self._originals: list[tuple[object, str, object]] = []
        self._wrapped: dict[int, object] = {}
        self.absent: set[str] = set()
        self.installed: set[str] = set()
        self.reset()

    def reset(self) -> None:
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.eid = array("i")
        self._stack = [-1]
        self.estimate_id = -1
        self.counts = dict.fromkeys([
            "value_calls", "grad_calls", "grad_at_value_point",
            "bfgs_iterations", "bfgs_unconverged",
            "ms_calls", "ms_runs", "ms_useful", "ms_warm_wins",
        ], 0)
        self.bench = {m: {"attempts": 0, "successes": 0} for m in ("x", "phi")}
        self._ms_frames: list[list[float]] = []

    # -- spans -------------------------------------------------------------

    def _ix(self, name: str) -> int:
        if name not in self._name_ix:
            self._name_ix[name] = len(self.names)
            self.names.append(name)
        return self._name_ix[name]

    def spanned(self, name: str, fn):
        """Return ``fn`` wrapped so that every call records one span."""
        ix = self._ix(name)
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            sid = len(self.start)
            self.name.append(ix)
            self.parent.append(self._stack[-1])
            self.eid.append(self.estimate_id)
            self.start.append(0.0)
            self.end.append(0.0)
            self._stack.append(sid)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf()
                self._stack.pop()
                self.start[sid] = t0
                self.end[sid] = t1

        return wrapper

    # -- hooks -------------------------------------------------------------

    def _make_wrapper(self, span: str, kind: str, orig):
        if kind == "span":
            return self.spanned(span, orig)
        if kind == "penalty_problem":
            return self._wrap_penalty_problem(span, orig)
        if kind == "bfgs":
            return self._wrap_bfgs(span, orig)
        if kind == "multi_start":
            return self._wrap_multi_start(span, orig)
        if kind == "bench_timing":
            return self._wrap_bench_timing(span, orig)
        raise ValueError(kind)

    def install(self) -> None:
        for mod_name, attr, span, kind in HOOKS:
            try:
                module = importlib.import_module(mod_name)
                orig = getattr(module, attr)
            except (ImportError, AttributeError):
                self.absent.add(f"{mod_name}.{attr}")
                continue
            wrapper = self._wrapped.get(id(orig))
            if wrapper is None:
                wrapper = self._make_wrapper(span, kind, orig)
                self._wrapped[id(orig)] = wrapper
            self._originals.append((module, attr, orig))
            setattr(module, attr, wrapper)
            self.installed.add(span)

    def restore(self) -> None:
        for module, attr, orig in reversed(self._originals):
            setattr(module, attr, orig)
        self._originals.clear()
        self._wrapped.clear()

    def _wrap_penalty_problem(self, span, orig):
        def make_penalty_problem(mat, n_qubits):
            fun, grad = orig(mat, n_qubits)
            return self.spanned(f"{span}_value", fun), self.spanned(f"{span}_grad", grad)

        return make_penalty_problem

    def _wrap_bfgs(self, span, orig):
        timed = self.spanned(span, orig)

        def bfgs_minimize(*args, **kwargs):
            res = timed(*args, **kwargs)
            self.counts["bfgs_iterations"] += res.iterations
            self.counts["bfgs_unconverged"] += not res.converged
            if self._ms_frames:
                self._ms_frames[-1].append(res.best_value)
            return res

        return bfgs_minimize

    def _wrap_multi_start(self, span, orig):
        timed = self.spanned(span, orig)

        def multi_start(fun, grad, sampler, cfg, starts=(), callback=None):
            starts = list(starts)
            last = [None]

            # Counting wrappers: value and gradient calls as the optimizer
            # sees them, and whether a gradient is asked for at exactly
            # the point of the preceding value call.
            def value(x):
                self.counts["value_calls"] += 1
                last[0] = np.array(x, dtype=float)
                return fun(x)

            def gradient(x):
                self.counts["grad_calls"] += 1
                if last[0] is not None and np.array_equal(last[0], x):
                    self.counts["grad_at_value_point"] += 1
                return grad(x)

            values: list[float] = []
            self._ms_frames.append(values)
            try:
                res = timed(value, gradient, sampler, cfg, starts=starts, callback=callback)
            finally:
                self._ms_frames.pop()
            self.counts["ms_calls"] += 1
            self.counts["ms_runs"] += len(values)
            self.counts["ms_useful"] += sum(abs(v - res.best_value) <= USEFUL_TOL for v in values)
            if values:
                winner = values.index(min(values))  # ties keep the earliest run
                self.counts["ms_warm_wins"] += winner < len(starts)
            return res

        return multi_start

    def _wrap_bench_timing(self, span, orig):
        timed = self.spanned(span, orig)

        def bench_timing(family, n, parameter, method, reps, cfg, threshold=None, budget=None):
            summary = timed(family, n, parameter, method, reps, cfg, threshold=threshold, budget=budget)
            rec = self.bench[method]
            rec["attempts"] += summary.total_attempts
            rec["successes"] += summary.repetitions - (not summary.complete)
            return summary

        return bench_timing

    # -- results -----------------------------------------------------------

    def span_table(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "estimate_id": np.frombuffer(self.eid, dtype=np.int32).copy(),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.span_table())

    def total_s(self, name: str) -> float:
        """Summed duration of the spans called ``name`` recorded since ``reset``."""
        if name not in self._name_ix:
            return 0.0
        t = self.span_table()
        sel = t["name"] == self._name_ix[name]
        return float((t["end"][sel] - t["start"][sel]).sum())

    def layer_metrics(self, traced_wall: float) -> dict[str, float]:
        """Per-layer counts and self times of the spans recorded since ``reset``."""
        t = self.span_table()
        dur = t["end"] - t["start"]
        child = t["parent"] >= 0
        child_sum = np.bincount(t["parent"][child], weights=dur[child], minlength=dur.size)
        self_s = dur - child_sum[: dur.size]
        ix = {name: i for i, name in enumerate(self.names)}
        out: dict[str, float] = {}

        def select(name):
            return t["name"] == ix[name] if name in ix else np.zeros(dur.size, dtype=bool)

        for name in SELF_TIMED:
            sel = select(name)
            count = "runs" if name == "optim.bfgs" else "calls"
            out[f"{name}.{count}"] = int(sel.sum())
            out[f"{name}.self_s"] = float(self_s[sel].sum())

        x_sel = select("heuristic.x_heuristic")
        parents = t["parent"][x_sel]
        phi_ix = ix.get("phi_scheme.c_phi_estimate", -1)
        nested = np.zeros(parents.size, dtype=bool)
        has_parent = parents >= 0
        nested[has_parent] = t["name"][parents[has_parent]] == phi_ix
        out["phi_scheme.nested_x.calls"] = int(nested.sum())
        out["phi_scheme.nested_x.s"] = float(dur[x_sel][nested].sum())

        c = self.counts
        out["optim.grad_at_value_point.share"] = _ratio(c["grad_at_value_point"], c["grad_calls"])
        out["optim.bfgs.iterations"] = c["bfgs_iterations"]
        out["optim.evals_per_iteration"] = _ratio(c["value_calls"] + c["grad_calls"], c["bfgs_iterations"])
        out["optim.bfgs.unconverged_share"] = _ratio(c["bfgs_unconverged"], out["optim.bfgs.runs"])
        out["optim.multi_start.useful_ratio"] = _ratio(c["ms_useful"], c["ms_runs"])
        out["optim.multi_start.warm_win_share"] = _ratio(c["ms_warm_wins"], c["ms_calls"])

        for m, rec in self.bench.items():
            out[f"bench.attempts.{m}"] = rec["attempts"]
            out[f"bench.attempts_per_success.{m}"] = _ratio(rec["attempts"], rec["successes"])

        top = t["parent"] < 0
        out["trace.unaccounted_s"] = float(traced_wall - dur[top].sum())
        return {k: v for k, v in out.items() if self.measured(k)}

    def measured(self, metric: str) -> bool:
        """False when every hook the metric depends on found no target."""
        for prefix, spans in NEEDS.items():
            if metric.startswith(prefix):
                return all(span in self.installed for span in spans)
        return True


def layer_unit(name: str) -> str:
    if ".us.n" in name:
        return "us"
    if name.endswith(("_s", ".s")) or "_s_p" in name:
        return "s"
    if name.endswith((".calls", ".runs", ".iterations", ".x", ".phi")) and "per_success" not in name:
        return "count"
    return "1"


def _ratio(num: float, den: float) -> float:
    """num / den, or 0 where the layer did no such work."""
    return float(num) / den if den else 0.0


KERNEL_SIZES = range(2, 9)
KERNEL_LOOPS = 5
KERNEL_LOOP_S = 0.02


def kernel_scaling(seed: int) -> dict[str, float]:
    """Per-call microseconds of the objective kernels at fixed seeded inputs.

    Calls the untraced penalty ``fun``/``grad`` from ``make_penalty_problem``
    and ``i_phi_from_vector`` for every qubit count, including sizes no
    workload reaches.  Each figure is the median over ``KERNEL_LOOPS`` timed
    loops of at least ``KERNEL_LOOP_S`` seconds each.
    """
    from gmx import lugroup, phi_scheme, states

    out: dict[str, float] = {}
    for n in KERNEL_SIZES:
        rng = np.random.default_rng([seed, n])
        rho = states.random_density_matrix(n, min(4, 2 ** n), seed=int(rng.integers(2 ** 31)))
        x_lu = rng.uniform(0.0, np.pi, 2 * n)
        x_phi = rng.uniform(0.0, np.pi, 4 * n)
        kernels = {}
        if hasattr(lugroup, "make_penalty_problem"):
            fun, grad = lugroup.make_penalty_problem(rho.mat, n)
            kernels["lugroup.penalty_value"] = lambda: fun(x_lu)
            kernels["lugroup.penalty_grad"] = lambda: grad(x_lu)
        if hasattr(phi_scheme, "i_phi_from_vector"):
            kernels["phi_scheme.i_phi"] = lambda: phi_scheme.i_phi_from_vector(rho.mat, x_phi, n)
        for name, call in kernels.items():
            call()
            t0 = time.perf_counter()
            call()
            reps = max(1, int(KERNEL_LOOP_S / max(time.perf_counter() - t0, 1e-9)))
            per_call = []
            for _ in range(KERNEL_LOOPS):
                t0 = time.perf_counter()
                for _ in range(reps):
                    call()
                per_call.append((time.perf_counter() - t0) / reps)
            out[f"{name}.us.n{n}"] = 1e6 * statistics.median(per_call)
    return out
