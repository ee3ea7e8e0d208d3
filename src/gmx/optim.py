"""Quasi-Newton minimization shared by both estimation schemes.

``bfgs_minimize`` is a dense inverse-Hessian BFGS with a strong-Wolfe line
search (c1 = 1e-4, c2 = 0.9).  It terminates when the accepted step norm
drops below ``tol_x``, the objective decrease drops below ``tol_fun``, or
the iteration cap is reached; a failed line search returns the best point
found with ``converged = False`` instead of raising.  ``multi_start`` runs
it from caller-supplied deterministic starts plus ``restarts`` sampled
points, each drawn from an independent substream of ``(seed, index)`` so
results do not depend on scheduling order.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

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


class _LineSearchResult:
    __slots__ = ("status", "alpha", "f", "g")

    def __init__(self, status, alpha=0.0, f=np.inf, g=None):
        self.status = status  # "ok" | "flat" | "fail"
        self.alpha = alpha
        self.f = f
        self.g = g


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


def _strong_wolfe(fun, grad, x, d, f0, g0d, tol_fun):
    """Strong-Wolfe search along d from x; g0d = grad(x) . d < 0.

    On failure the result carries the best point evaluated during the
    search, so the caller can still report "best found".
    """
    evals_dev = 0.0  # largest |f - f0| observed, used to classify flat failures
    best_a, best_f = 0.0, f0

    def phi(alpha):
        nonlocal evals_dev, best_a, best_f
        fa = fun(x + alpha * d)
        evals_dev = max(evals_dev, abs(fa - f0))
        if fa < best_f:
            best_a, best_f = alpha, fa
        return fa

    def dphi(alpha):
        g = np.asarray(grad(x + alpha * d))
        return g, float(g @ d)

    def failure():
        status = "flat" if evals_dev < tol_fun else "fail"
        return _LineSearchResult(status, best_a, best_f)

    def zoom(a_lo, f_lo, g_lo, a_hi, f_hi):
        for _ in range(_MAX_ZOOM):
            if abs(a_hi - a_lo) < 1e-18 * max(1.0, abs(a_lo)):
                break
            a = _interp_step(a_lo, f_lo, g_lo, a_hi, f_hi)
            fa = phi(a)
            if fa > f0 + WOLFE_C1 * a * g0d or fa >= f_lo:
                a_hi, f_hi = a, fa
                continue
            ga_vec, ga = dphi(a)
            if abs(ga) <= -WOLFE_C2 * g0d:
                return _LineSearchResult("ok", a, fa, ga_vec)
            if ga * (a_hi - a_lo) >= 0:
                a_hi, f_hi = a_lo, f_lo
            a_lo, f_lo, g_lo = a, fa, ga
        return failure()

    a_prev, f_prev, g_prev = 0.0, f0, g0d
    a = 1.0
    for i in range(_MAX_BRACKET):
        fa = phi(a)
        if fa > f0 + WOLFE_C1 * a * g0d or (i > 0 and fa >= f_prev):
            return zoom(a_prev, f_prev, g_prev, a, fa)
        ga_vec, ga = dphi(a)
        if abs(ga) <= -WOLFE_C2 * g0d:
            return _LineSearchResult("ok", a, fa, ga_vec)
        if ga >= 0:
            return zoom(a, fa, ga, a_prev, f_prev)
        a_prev, f_prev, g_prev = a, fa, ga
        a *= 2.0
    return failure()


def bfgs_minimize(
    fun: Callable[[np.ndarray], float],
    grad: Callable[[np.ndarray], np.ndarray],
    x0: np.ndarray,
    cfg: OptimConfig,
    history: list | None = None,
) -> OptimResult:
    """Minimize ``fun`` from ``x0``; never raises on line-search failure."""
    cfg.validate()
    t0 = time.perf_counter()
    x = np.array(x0, dtype=float)
    fx = float(fun(x))
    if not np.isfinite(fx):
        raise ValueError("objective not finite at the starting point")
    g = np.asarray(grad(x), dtype=float)
    if history is not None:
        history.append(fx)

    n = x.size
    eye = np.eye(n)
    h_inv = eye.copy()
    iterations = 0
    converged = False
    first_step = True

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
        ls = _strong_wolfe(fun, grad, x, d, fx, gd, cfg.tol_fun)
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

    return OptimResult(
        best_value=fx,
        best_point=x,
        iterations=iterations,
        converged=converged,
        restarts_used=1,
        wall_time=time.perf_counter() - t0,
    )


Sampler = Callable[[np.random.Generator], np.ndarray]


def multi_start(
    fun: Callable[[np.ndarray], float],
    grad: Callable[[np.ndarray], np.ndarray],
    sampler: Sampler,
    cfg: OptimConfig,
    starts: Sequence[np.ndarray] | Iterable[np.ndarray] = (),
    callback: Callable[[OptimResult], None] | None = None,
) -> OptimResult:
    """Best of ``starts`` plus ``cfg.restarts`` sampled runs (ties keep the earliest)."""
    cfg.validate()
    t0 = time.perf_counter()
    best: OptimResult | None = None
    total_iters = 0
    runs = 0

    def consume(run: OptimResult) -> None:
        nonlocal best, total_iters, runs
        runs += 1
        total_iters += run.iterations
        if callback is not None:
            callback(run)
        if best is None or run.best_value < best.best_value:
            best = run

    for x0 in starts:
        consume(bfgs_minimize(fun, grad, x0, cfg))
    for k in range(cfg.restarts):
        rng = np.random.default_rng([cfg.seed, k])
        consume(bfgs_minimize(fun, grad, sampler(rng), cfg))

    if best is None:
        raise ValueError("multi_start needs at least one start or restart")
    return OptimResult(
        best_value=best.best_value,
        best_point=best.best_point,
        iterations=total_iters,
        converged=best.converged,
        restarts_used=runs,
        wall_time=time.perf_counter() - t0,
    )
