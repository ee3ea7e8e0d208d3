"""Quasi-Newton minimization shared by both estimation schemes.

``bfgs_minimize`` is a dense inverse-Hessian BFGS with a strong-Wolfe line
search (c1 = 1e-4, c2 = 0.9).  It terminates when the accepted step norm
drops below ``tol_x``, the objective decrease drops below ``tol_fun``, or
the iteration cap is reached; a failed line search returns the best point
found with ``converged = False`` instead of raising.

A run is a generator that yields ``("f", x)`` / ``("g", x)`` requests and
is sent the answers.  ``bfgs_minimize`` drives one run; ``multi_start``
drives runs from caller-supplied starts plus ``restarts`` points sampled
from independent ``(seed, index)`` substreams in lockstep, answering the
requests of one kind from several runs with one stacked call on a
``(k, p)`` array.  Each run does exactly the arithmetic it would alone.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

WOLFE_C1 = 1e-4
WOLFE_C2 = 0.9
_MAX_BRACKET = 20
_MAX_ZOOM = 30


@dataclass(frozen=True)
class OptimConfig:
    tol_x: float = 1e-11
    tol_fun: float = 1e-11
    max_iters: int = 10_000
    restarts: int = 20
    seed: int = 0

    def validate(self) -> "OptimConfig":
        if not all(math.isfinite(t) and t > 0 for t in (self.tol_x, self.tol_fun)):
            raise ValueError(f"tolerances must be finite and positive, got {self.tol_x!r}, {self.tol_fun!r}")
        if self.restarts < 0:
            raise ValueError("restarts must be >= 0")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        return self


@dataclass(frozen=True)
class OptimResult:
    best_value: float
    best_point: np.ndarray
    iterations: int
    converged: bool
    restarts_used: int
    wall_time: float
    value_rows: int  # points fun was evaluated at, stacked or single
    grad_rows: int  # points grad was evaluated at
    line_search: str  # how the last line search ended: "ok", "flat", "fail", or "none" if none ran


class _LineSearchResult(NamedTuple):
    status: str  # "ok" | "flat" | "fail"
    alpha: float = 0.0
    f: float = np.inf
    g: np.ndarray | None = None


def _interp_step(lo, f_lo, g_lo, hi, f_hi):
    # Minimizer of the quadratic through (lo, f_lo) with slope g_lo and
    # (hi, f_hi); falls back to bisection when degenerate or outside a
    # safeguard band of the bracket.
    denom = 2.0 * (f_hi - f_lo - g_lo * (hi - lo))
    if denom == 0.0 or not np.isfinite(denom):
        return 0.5 * (lo + hi)
    cand = lo - g_lo * (hi - lo) ** 2 / denom
    a, b = (lo, hi) if lo < hi else (hi, lo)
    pad = 0.1 * (b - a)
    if not (a + pad <= cand <= b - pad):
        return 0.5 * (lo + hi)
    return cand


def _strong_wolfe(x, d, f0, g0d, tol_fun):
    """Strong-Wolfe search along d from x; g0d = grad(x) . d < 0.

    A generator: it yields ``("f", point)`` and ``("g", point)`` requests,
    is sent each answer and returns a ``_LineSearchResult``.  On failure
    the result carries the best point evaluated during the search, so the
    caller can still report "best found".
    """
    evals_dev = 0.0  # largest |f - f0| observed, used to classify flat failures
    best_a, best_f = 0.0, f0

    # Requests are yielded inline: a sub-generator per evaluation costs more than the driver.
    def seen(alpha, fa):
        nonlocal evals_dev, best_a, best_f
        evals_dev = max(evals_dev, abs(fa - f0))
        if fa < best_f:
            best_a, best_f = alpha, fa

    def slope(g):
        g = np.asarray(g)
        return g, float(g @ d)

    def failure():
        status = "flat" if evals_dev < tol_fun else "fail"
        return _LineSearchResult(status, best_a, best_f)

    def zoom(a_lo, f_lo, g_lo, a_hi, f_hi):
        for _ in range(_MAX_ZOOM):
            if abs(a_hi - a_lo) < 1e-18 * max(1.0, abs(a_lo)):
                break
            a = _interp_step(a_lo, f_lo, g_lo, a_hi, f_hi)
            fa = yield "f", x + a * d
            seen(a, fa)
            if fa > f0 + WOLFE_C1 * a * g0d or fa >= f_lo:
                a_hi, f_hi = a, fa
                continue
            ga_vec, ga = slope((yield "g", x + a * d))
            if abs(ga) <= -WOLFE_C2 * g0d:
                return _LineSearchResult("ok", a, fa, ga_vec)
            if ga * (a_hi - a_lo) >= 0:
                a_hi, f_hi = a_lo, f_lo
            a_lo, f_lo, g_lo = a, fa, ga
        return failure()

    a_prev, f_prev, g_prev = 0.0, f0, g0d
    a = 1.0
    for i in range(_MAX_BRACKET):
        fa = yield "f", x + a * d
        seen(a, fa)
        if fa > f0 + WOLFE_C1 * a * g0d or (i > 0 and fa >= f_prev):
            return (yield from zoom(a_prev, f_prev, g_prev, a, fa))
        ga_vec, ga = slope((yield "g", x + a * d))
        if abs(ga) <= -WOLFE_C2 * g0d:
            return _LineSearchResult("ok", a, fa, ga_vec)
        if ga >= 0:
            return (yield from zoom(a, fa, ga, a_prev, f_prev))
        a_prev, f_prev, g_prev = a, fa, ga
        a *= 2.0
    return failure()


def _bfgs(x0, cfg: OptimConfig, history: list | None = None):
    """One BFGS run from ``x0``, a generator of requests like ``_strong_wolfe``;
    returns the ``OptimResult`` fields that the driver does not fill in."""
    x = np.array(x0, dtype=float)
    fx = float((yield "f", x))
    if not np.isfinite(fx):
        raise ValueError("objective not finite at the starting point")
    g = np.asarray((yield "g", x), dtype=float)
    if history is not None:
        history.append(fx)

    n = x.size
    eye = np.eye(n)
    h_inv = eye.copy()
    iterations = 0
    converged = False
    first_step = True
    status = "none"

    for iterations in range(1, cfg.max_iters + 1):
        d = -(h_inv @ g)
        gd = float(g @ d)
        if gd >= 0.0:
            # Corrupted curvature (possible on nonsmooth objectives): fall
            # back to steepest descent.
            h_inv = eye.copy()
            d = -g
            gd = -float(g @ g)
            if gd == 0.0:
                converged = True  # exactly stationary; step norm is 0 < tol_x
                break
        ls = yield from _strong_wolfe(x, d, fx, gd, cfg.tol_fun)
        status = ls.status
        if ls.status != "ok":
            if ls.status == "fail" and np.isfinite(ls.f) and ls.f < fx:
                x = x + ls.alpha * d
                fx = float(ls.f)
                if history is not None:
                    history.append(fx)
            converged = ls.status == "flat"
            break
        s = ls.alpha * d
        y = ls.g - g
        step_norm = float(np.linalg.norm(s))
        decrease = fx - ls.f

        if first_step:
            yy = float(y @ y)
            if yy > 0.0:
                h_inv *= float(s @ y) / yy
            first_step = False
        sy = float(s @ y)
        if sy > 1e-14 * step_norm * np.linalg.norm(y):
            rho = 1.0 / sy
            hy = h_inv @ y
            h_inv += (rho ** 2 * float(y @ hy) + rho) * np.outer(s, s)
            h_inv -= rho * (np.outer(hy, s) + np.outer(s, hy))

        x = x + s
        fx = float(ls.f)
        g = np.asarray(ls.g, dtype=float)
        if history is not None:
            history.append(fx)
        if step_norm < cfg.tol_x or decrease < cfg.tol_fun:
            converged = True
            break

    return dict(best_value=fx, best_point=x, iterations=iterations, converged=converged, line_search=status)


def _lockstep(fun, grad, runs: list, t0: float) -> list[OptimResult]:
    """Drive the ``_bfgs`` generators ``runs`` to their ends; results in run order.

    Each round answers all pending gradient requests, then all value
    requests, so a gradient at a point of the previous value call finds it
    in that call's cache (``lugroup.make_penalty_problem``).  A kind asked
    by several runs goes to one call on their stacked points, shape
    ``(k, p)``, which the penalty and phi kernels evaluate in one batched
    pass; a kind asked by one run, to a call on its single point.  A run's
    ``wall_time`` runs from ``t0`` to its end.
    """
    results: list = [None] * len(runs)
    rows = {"f": [0] * len(runs), "g": [0] * len(runs)}
    asks: dict = {"f": [], "g": []}  # (run, point) per kind, in the order asked
    for i, run in enumerate(runs):
        kind, x = next(run)
        asks[kind].append((i, x))
    calls = (("g", grad), ("f", fun))
    while asks["f"] or asks["g"]:
        for kind, call in calls:
            batch, asks[kind] = asks[kind], []
            if len(batch) > 1:
                answers = call(np.stack([x for _, x in batch]))
            elif batch:
                answers = (call(batch[0][1]),)
            else:
                continue
            for (i, _), answer in zip(batch, answers):
                rows[kind][i] += 1
                try:
                    next_kind, x = runs[i].send(answer)
                    asks[next_kind].append((i, x))
                except StopIteration as stop:
                    results[i] = OptimResult(**stop.value, restarts_used=1, wall_time=time.perf_counter() - t0,
                                             value_rows=rows["f"][i], grad_rows=rows["g"][i])
    return results


def bfgs_minimize(
    fun: Callable[[np.ndarray], float],
    grad: Callable[[np.ndarray], np.ndarray],
    x0: np.ndarray,
    cfg: OptimConfig,
    history: list | None = None,
) -> OptimResult:
    """Minimize ``fun`` from ``x0``; never raises on line-search failure."""
    t0 = time.perf_counter()
    cfg.validate()
    return _lockstep(fun, grad, [_bfgs(x0, cfg, history)], t0)[0]


Sampler = Callable[[np.random.Generator], np.ndarray]


def multi_start(
    fun: Callable[[np.ndarray], float],
    grad: Callable[[np.ndarray], np.ndarray],
    sampler: Sampler,
    cfg: OptimConfig,
    starts: Sequence[np.ndarray] | Iterable[np.ndarray] = (),
    callback: Callable[[OptimResult], None] | None = None,
) -> OptimResult:
    """Best of ``starts`` plus ``cfg.restarts`` sampled runs (ties keep the earliest).

    All runs advance in lockstep (``_lockstep``), so ``fun`` and ``grad``
    must accept a stack of points as well as a single one.  ``callback``
    sees every run's result in start order once all runs have ended; a
    run's ``wall_time`` counts from the start of ``multi_start``.
    """
    t0 = time.perf_counter()
    cfg.validate()
    x0s = list(starts) + [sampler(np.random.default_rng([cfg.seed, k])) for k in range(cfg.restarts)]
    if not x0s:
        raise ValueError("multi_start needs at least one start or restart")
    runs = _lockstep(fun, grad, [_bfgs(x0, cfg) for x0 in x0s], t0)
    best = runs[0]
    for run in runs:
        if callback is not None:
            callback(run)
        if run.best_value < best.best_value:
            best = run
    return replace(best, iterations=sum(r.iterations for r in runs), restarts_used=len(runs),
                   wall_time=time.perf_counter() - t0, value_rows=sum(r.value_rows for r in runs),
                   grad_rows=sum(r.grad_rows for r in runs))
