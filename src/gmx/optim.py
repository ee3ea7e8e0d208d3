"""Quasi-Newton minimization shared by both estimation schemes.

``bfgs_minimize`` is a dense inverse-Hessian BFGS with a strong-Wolfe line
search (c1 = 1e-4, c2 = 0.9).  It terminates when the accepted step norm
or the objective decrease drops below ``tol``, or after ``MAX_ITERS``
iterations; a failed line search returns the best point found with
``converged = False`` instead of raising.  ``multi_start`` runs
it from caller-supplied starts plus ``restarts`` points sampled from
independent ``(seed, index)`` substreams as one stack of runs (``_Runs``);
``bfgs_minimize`` is the stack of one.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Sequence

import numpy as np

WOLFE_C1 = 1e-4
WOLFE_C2 = 0.9
_MAX_BRACKET = 20
_MAX_ZOOM = 30
MAX_ITERS = 10_000


@dataclass(frozen=True)
class OptimConfig:
    tol: float = 1e-11  # on the step norm, the decrease and a flat line search alike
    restarts: int = 20
    seed: int = 0

    def validate(self) -> "OptimConfig":
        # A bool is an Integral, and a Real.
        for name in ("restarts", "seed"):
            if isinstance(getattr(self, name), bool) or not isinstance(getattr(self, name), numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if isinstance(self.tol, bool) or not isinstance(self.tol, numbers.Real):
            raise ValueError(f"tol must be a real number, got {self.tol!r}")
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ValueError(f"tol must be finite and positive, got {self.tol!r}")
        if self.restarts < 0:
            raise ValueError("restarts must be >= 0")
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


_VALUE, _GRAD, _OK, _END, _DONE = range(5)  # a run's wants, its line search's verdicts, its end


def _interp_step(lo, f_lo, g_lo, hi, f_hi):
    # Minimizer of the quadratic through (lo, f_lo) with slope g_lo and
    # (hi, f_hi); falls back to bisection when degenerate or outside a
    # safeguard band of the bracket.
    denom = 2.0 * (f_hi - f_lo - g_lo * (hi - lo))
    if denom == 0.0 or not math.isfinite(denom):
        return 0.5 * (lo + hi)
    cand = lo - g_lo * (hi - lo) ** 2 / denom
    a, b = (lo, hi) if lo < hi else (hi, lo)
    pad = 0.1 * (b - a)
    if not (a + pad <= cand <= b - pad):
        return 0.5 * (lo + hi)
    return cand


class _Run:
    """One run's scalars, and its strong-Wolfe search along a direction of slope ``g0d``.

    ``want`` holds what the run waits for at the trial step ``a``.  While the bracket grows, ``lo``
    is the previous step; once it zooms, [lo, hi] brackets a Wolfe step, ``lo`` with the lower
    value.  ``count`` counts the tries of a stage; ``dev`` is the largest |f(a) - f| seen.
    """

    def __init__(self):
        self.rows, self.iters, self.first, self.status, self.converged = [0, 0], 1, True, "none", False

    def search(self, g0d: float) -> None:
        self.g0d, self.a, self.lo, self.f_lo, self.g_lo = g0d, 1.0, 0.0, self.f, g0d
        self.want, self.zoom, self.count = _VALUE, False, 0
        self.dev, self.best_a, self.best_f = 0.0, 0.0, self.f

    def took_value(self, fa: float) -> None:
        self.dev = max(self.dev, abs(fa - self.f))
        if fa < self.best_f:
            self.best_a, self.best_f = self.a, fa
        if fa > self.f + WOLFE_C1 * self.a * self.g0d or ((self.zoom or self.count > 0) and fa >= self.f_lo):
            self.hi, self.f_hi = self.a, fa
            self.zoom_step()
        else:
            self.fa, self.want = fa, _GRAD

    def took_slope(self, ga: float) -> None:
        if abs(ga) <= -WOLFE_C2 * self.g0d:
            self.want = _OK
            return
        swap = ga * (self.hi - self.lo) >= 0 if self.zoom else ga >= 0
        if swap:
            self.hi, self.f_hi = self.lo, self.f_lo
        self.lo, self.f_lo, self.g_lo = self.a, self.fa, ga
        if self.zoom or swap:
            self.zoom_step()
        else:
            self.count, self.a = self.count + 1, 2.0 * self.a
            self.want = _END if self.count == _MAX_BRACKET else _VALUE

    def zoom_step(self) -> None:
        self.zoom, self.count = True, self.count + 1 if self.zoom else 0
        if self.count == _MAX_ZOOM or abs(self.hi - self.lo) < 1e-18 * max(1.0, abs(self.lo)):
            self.want = _END
        else:
            self.a, self.want = _interp_step(self.lo, self.f_lo, self.g_lo, self.hi, self.f_hi), _VALUE


class _Runs:
    """BFGS runs as a stack, a row per live run: points ``x``, gradients ``g``, directions ``d``, inverse
    Hessians ``h``.  Each round makes one ``fun`` call at every live run's trial point, then one ``grad``
    call at those whose step passed the sufficient-decrease test, and advances the stack by whole-stack
    steps, masked unless every row steps (masks alone made lone X runs take 1.05x as long); a run that
    ends leaves it.  ``vecdot`` and ``matvec`` give each row a lone ``@``'s BLAS calls.
    """

    def __init__(self, x0s, cfg: OptimConfig, t0: float, history: list | None):
        self.x = np.array(x0s, dtype=float)
        k, p = self.x.shape
        self.cfg, self.t0, self.history, self.eye = cfg, t0, [] if history is None else history, np.eye(p)
        self.h, self.d = np.broadcast_to(self.eye, (k, p, p)).copy(), np.zeros((k, p))
        self.live = self.runs = [_Run() for _ in range(k)]  # `live` is rebound, never changed in place

    def ask(self, call, kind: int, rows: list, points: np.ndarray) -> np.ndarray:
        """``call`` at the ``points`` of ``rows``: a lone point by itself, several stacked."""
        for j in rows:
            self.live[j].rows[kind] += 1
        if len(rows) == 1:
            return np.asarray(call(points[rows[0]]), dtype=float)[None]
        return np.asarray(call(points[rows]), dtype=float)

    def run(self, fun, grad) -> list[OptimResult]:
        every = list(range(len(self.runs)))
        values = self.ask(fun, _VALUE, every, self.x)
        if not np.isfinite(values).all():
            raise ValueError("objective not finite at the starting point")
        for run, value in zip(self.runs, values.tolist()):
            run.f = value
            self.history.append(value)
        self.g = self.ask(grad, _GRAD, every, self.x).copy()
        self.begin([True] * len(every))
        while self.settle():
            steps = np.array([run.a for run in self.live])[:, None] * self.d
            points = self.x + steps
            for run, value in zip(self.live, self.ask(fun, _VALUE, list(range(len(self.live))), points).tolist()):
                run.took_value(value)
            rows = [j for j, run in enumerate(self.live) if run.want == _GRAD]
            if rows:
                g_new = self.g.copy()
                g_new[rows if len(rows) < len(self.live) else slice(None)] = self.ask(grad, _GRAD, rows, points)
                slopes = np.vecdot(g_new, self.d).tolist()
                for j in rows:
                    self.live[j].took_slope(slopes[j])
                ok = [run.want == _OK for run in self.live]
                if any(ok):
                    self.accept(ok, g_new, steps)
        return [OptimResult(r.f, r.x, r.iters, r.converged, 1, r.wall, r.rows[_VALUE], r.rows[_GRAD], r.status)
                for r in self.runs]

    def settle(self) -> bool:
        """Finish the runs that stopped and drop their rows; True while any run is live."""
        for j, run in enumerate(self.live):
            if run.want == _END:
                # No Wolfe step: end at the best step seen if it descends.
                run.converged, run.want = run.dev < self.cfg.tol, _DONE
                run.status = "flat" if run.converged else "fail"
                if not run.converged and math.isfinite(run.best_f) and run.best_f < run.f:
                    self.x[j], run.f = self.x[j] + run.best_a * self.d[j], run.best_f
                    self.history.append(run.f)
            if run.want == _DONE:
                run.x, run.wall = self.x[j].copy(), time.perf_counter() - self.t0
        keep = [j for j, run in enumerate(self.live) if run.want != _DONE]
        if len(keep) < len(self.live):
            self.live = [self.live[j] for j in keep]
            self.x, self.g, self.d, self.h = self.x[keep], self.g[keep], self.d[keep], self.h[keep]
        return bool(self.live)

    def accept(self, ok: list, g_new: np.ndarray, s: np.ndarray) -> None:
        """Take the steps ``s`` of the rows marked in ``ok``, update their inverse Hessians, then go on or stop."""
        y = g_new - self.g
        sy, yy = np.vecdot(s, y).tolist(), np.vecdot(y, y).tolist()
        for j, run in enumerate(self.live):
            if ok[j] and run.first and yy[j] > 0.0:
                self.h[j] *= sy[j] / yy[j]
        hy = np.matvec(self.h, y)
        yhy, step = np.vecdot(y, hy).tolist(), np.sqrt(np.vecdot(s, s)).tolist()
        update = [ok[j] and sy[j] > 1e-14 * step[j] * math.sqrt(yy[j]) for j in range(len(self.live))]
        rho = [1.0 / sy[j] if update[j] else 0.0 for j in range(len(self.live))]
        coef = np.array([r ** 2 * yhy[j] + r for j, r in enumerate(rho)])[:, None, None]
        hys = hy[:, :, None] * s[:, None, :]  # its transpose is s (Hy)^T, term by term
        new = self.h + coef * (s[:, :, None] * s[:, None, :])
        new -= np.array(rho)[:, None, None] * (hys + hys.swapaxes(1, 2))
        if all(update):  # every row takes its step and its update, as a lone run's does
            self.h, self.x, self.g = new, self.x + s, g_new
        else:  # the other rows keep theirs
            np.copyto(self.h, new, where=np.array(update)[:, None, None])
            taken = np.array(ok)[:, None]
            self.x, self.g = np.where(taken, self.x + s, self.x), np.where(taken, g_new, self.g)
        for j, run in enumerate(self.live):
            if ok[j]:
                decrease, run.f, run.status, run.first = run.f - run.fa, run.fa, "ok", False
                self.history.append(run.f)
                done = step[j] < self.cfg.tol or decrease < self.cfg.tol
                if done or run.iters == MAX_ITERS:
                    run.converged, run.want = done, _DONE
                else:
                    run.iters += 1
        self.begin([run.want == _OK for run in self.live])  # the runs that took a step and go on

    def begin(self, go: list) -> None:
        """Start an iteration of the rows marked in ``go``: a direction and a line search along it."""
        d = -np.matvec(self.h, self.g)
        for j, slope in enumerate(np.vecdot(self.g, d).tolist()):
            if go[j] and slope >= 0.0:
                # Corrupted curvature (possible on nonsmooth objectives): fall back to steepest descent.
                self.h[j], d[j], slope = self.eye, -self.g[j], -float(self.g[j] @ self.g[j])
            if go[j] and slope == 0.0:  # exactly stationary; step norm is 0 < tol
                self.live[j].converged, self.live[j].want = True, _DONE
            elif go[j]:
                self.live[j].search(slope)
        self.d = d if all(go) else np.where(np.array(go)[:, None], d, self.d)


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
    return _Runs([x0], cfg, t0, history).run(fun, grad)[0]


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

    All runs advance in lockstep (``_Runs``), so ``fun`` and ``grad`` must take a stack of
    points as well as a lone one, and every gradient asked for is at points of the last value
    call: the contract of ``objective``.  ``callback`` sees every run's result in start order
    once all runs have ended; a run's ``wall_time`` counts from the start of ``multi_start``.
    """
    t0 = time.perf_counter()
    cfg.validate()
    x0s = list(starts) + [sampler(np.random.default_rng([cfg.seed, k])) for k in range(cfg.restarts)]
    if not x0s:
        raise ValueError("multi_start needs at least one start or restart")
    runs = _Runs(x0s, cfg, t0, None).run(fun, grad)
    for run in runs if callback is not None else ():
        callback(run)
    best = min(runs, key=lambda r: r.best_value)  # min keeps the earliest of ties
    return replace(best, iterations=sum(r.iterations for r in runs), restarts_used=len(runs),
                   wall_time=time.perf_counter() - t0, value_rows=sum(r.value_rows for r in runs),
                   grad_rows=sum(r.grad_rows for r in runs))


def as_points(x, width: int) -> np.ndarray:
    """``x`` as float64, if it is a point ``(width,)`` or a stack ``(k, width)``; else ValueError."""
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2) or x.shape[-1] != width:
        raise ValueError(f"expected a point ({width},) or a stack (k, {width}), got shape {x.shape}")
    return x


def objective(width: int, values, gradients):
    """``(fun, grad)`` for ``multi_start`` from an objective's value pass and gradient assembly.

    Both take a point ``(width,)`` or a stack ``(k, width)`` (``as_points``).  ``values(x)`` gives
    the value (a float, or one per row) and its pass, which ``fun`` keeps under the bytes of ``x``.
    ``gradients(x, kept, rows)`` assembles the gradient at ``x`` from ``kept``, or from its rows
    ``rows`` (one per row of ``x``) unless None.  A gradient at a point the last value call did not
    see (only direct callers ask for one) gets a value pass of its own, which is then kept."""
    key, kept, size = b"", None, 8 * width  # size: the bytes of a row of float64

    def fun(x):
        nonlocal key, kept
        x = as_points(x, width)
        key = b""  # a pass may write over the kept one's buffers
        value, kept = values(x)
        key = x.tobytes()
        return value

    def grad(x):
        x = as_points(x, width)
        this = x.tobytes()
        if this != key:
            index = {key[i:i + size]: j for j, i in enumerate(range(0, len(key), size))}
            rows = [index.get(this[i:i + size]) for i in range(0, len(this), size)]
            if None not in rows:
                return gradients(x, kept, rows)
            fun(x)
        return gradients(x, kept, None)

    return fun, grad
