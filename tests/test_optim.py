import numpy as np
import pytest

from gmx.lugroup import make_penalty_problem
from gmx.optim import OptimConfig, bfgs_minimize, multi_start
from gmx.states import diagonal_symmetric, tau_populations

CFG = OptimConfig(restarts=20, seed=0)


def quadratic(center):
    # Like every multi-start objective here, it takes a stack of points too.
    c = np.asarray(center, dtype=float)
    return (lambda x: np.sum((x - c) ** 2, axis=-1), lambda x: 2.0 * (x - c))


def rosenbrock(x):
    return float(sum(100.0 * (x[i + 1] - x[i] ** 2) ** 2 + (1 - x[i]) ** 2 for i in range(len(x) - 1)))


def rosenbrock_grad(x):
    g = np.zeros_like(x)
    for i in range(len(x) - 1):
        g[i] += -400.0 * x[i] * (x[i + 1] - x[i] ** 2) - 2.0 * (1 - x[i])
        g[i + 1] += 200.0 * (x[i + 1] - x[i] ** 2)
    return g


def test_bfgs_quadratic_exact():
    f, g = quadratic([1.0, -2.0, 3.0])
    res = bfgs_minimize(f, g, np.array([5.0, 5.0, 5.0]), CFG)
    assert res.converged
    assert np.abs(res.best_point - [1.0, -2.0, 3.0]).max() < 1e-9


def test_bfgs_rosenbrock_four_variables():
    res = bfgs_minimize(rosenbrock, rosenbrock_grad, np.array([-1.2, 1.0, -1.2, 1.0]), CFG)
    assert res.best_value < 1e-12
    assert res.converged


def test_bfgs_penalty_near_symmetric_optimum():
    # the optimum is a valley: theta = pi/4 with a flat common-phi direction
    rho = diagonal_symmetric(tau_populations(4, 0.35))
    fun, grad = make_penalty_problem(rho.mat, 4)
    target = np.concatenate([np.full(4, np.pi / 4), np.zeros(4)])
    x0 = target + 0.05 * np.sin(np.arange(8.0))
    res = bfgs_minimize(fun, grad, x0, CFG)
    assert res.converged
    assert np.abs(res.best_point[:4] - np.pi / 4).max() < 1e-7
    assert res.best_value == pytest.approx(fun(target), abs=1e-12)


def test_bfgs_monotone_accepted_values():
    history = []
    res = bfgs_minimize(rosenbrock, rosenbrock_grad, np.array([-1.2, 1.0, -1.2, 1.0]), CFG, history=history)
    assert len(history) == res.iterations + 1 or len(history) == res.iterations  # early termination may skip
    assert all(b <= a + 1e-15 for a, b in zip(history, history[1:]))


def test_bfgs_line_search_failure_is_graceful():
    # unbounded linear objective: the curvature condition can never hold
    f = lambda x: float(-x[0])
    g = lambda x: np.array([-1.0])
    res = bfgs_minimize(f, g, np.array([0.0]), CFG)
    assert not res.converged
    assert np.isfinite(res.best_value)


def test_bfgs_starts_at_stationary_point():
    f, g = quadratic([2.0])
    res = bfgs_minimize(f, g, np.array([2.0]), CFG)
    assert res.converged
    assert res.best_point[0] == 2.0


def test_bfgs_requires_finite_start():
    f = lambda x: float("nan")
    g = lambda x: np.zeros(1)
    with pytest.raises(ValueError):
        bfgs_minimize(f, g, np.zeros(1), CFG)


def test_bfgs_iteration_cap():
    cfg = OptimConfig(max_iters=3, restarts=1, seed=0)
    res = bfgs_minimize(rosenbrock, rosenbrock_grad, np.array([-1.2, 1.0, -1.2, 1.0]), cfg)
    assert res.iterations == 3


def sampler_1d(lo, hi):
    return lambda rng: rng.uniform(lo, hi, 1)


def test_multi_start_single_basin_matches_single_run():
    f, g = quadratic([0.7])
    single = bfgs_minimize(f, g, np.array([0.0]), CFG)
    multi = multi_start(f, g, sampler_1d(-2, 2), OptimConfig(restarts=5, seed=1))
    assert multi.best_value == pytest.approx(single.best_value, abs=1e-12)
    assert multi.restarts_used == 5
    assert multi.iterations <= CFG.max_iters * multi.restarts_used


def double_well(x):
    # two unequal wells; global minimum on the negative side
    return (x[..., 0] ** 2 - 1.0) ** 2 + 0.3 * x[..., 0]


def double_well_grad(x):
    return 4.0 * x[..., :1] * (x[..., :1] ** 2 - 1.0) + 0.3


def test_multi_start_finds_global_basin():
    # grid-search oracle for the global minimum
    grid = np.linspace(-2.0, 2.0, 200001)
    vals = (grid ** 2 - 1.0) ** 2 + 0.3 * grid
    x_star = grid[np.argmin(vals)]
    hits = 0
    for seed in range(100):
        cfg = OptimConfig(restarts=20, seed=seed)
        res = multi_start(double_well, double_well_grad, sampler_1d(-2, 2), cfg)
        hits += abs(res.best_point[0] - x_star) < 1e-3
    assert hits >= 99


def test_multi_start_deterministic():
    cfg = OptimConfig(restarts=8, seed=42)
    a = multi_start(double_well, double_well_grad, sampler_1d(-2, 2), cfg)
    b = multi_start(double_well, double_well_grad, sampler_1d(-2, 2), cfg)
    assert a.best_value == b.best_value
    assert np.array_equal(a.best_point, b.best_point)
    assert a.iterations == b.iterations
    assert a.converged == b.converged
    assert a.restarts_used == b.restarts_used


def test_multi_start_never_worse_than_deterministic_seeds():
    f, g = quadratic([0.5])
    seeds = [np.array([0.5]), np.array([-1.0])]
    res = multi_start(f, g, sampler_1d(-2, 2), OptimConfig(restarts=2, seed=3), starts=seeds)
    assert res.best_value <= f(seeds[0]) + 1e-15
    assert res.restarts_used == 4


def test_multi_start_callback_sees_every_run():
    runs = []
    multi_start(double_well, double_well_grad, sampler_1d(-2, 2),
                OptimConfig(restarts=3, seed=5), starts=[np.array([0.0])],
                callback=runs.append)
    assert len(runs) == 4
    best = min(r.best_value for r in runs)
    res = multi_start(double_well, double_well_grad, sampler_1d(-2, 2),
                      OptimConfig(restarts=3, seed=5), starts=[np.array([0.0])])
    assert res.best_value == best


def test_config_validation():
    with pytest.raises(ValueError):
        OptimConfig(tol_x=0.0).validate()
    with pytest.raises(ValueError):
        OptimConfig(max_iters=0).validate()
    with pytest.raises(ValueError):
        OptimConfig(seed=-1).validate()
    # A NaN tolerance would switch off both stopping tests.
    for bad in ({"restarts": -5}, {"tol_x": float("nan")}, {"tol_x": float("inf")},
                {"tol_fun": float("nan")}):
        with pytest.raises(ValueError):
            OptimConfig(**bad).validate()
    # Counts that are not integers would fail later, inside range() or numpy's seeding.
    for name, bad in (("max_iters", 2.5), ("restarts", 1.5), ("seed", 0.5), ("restarts", 2.0)):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            OptimConfig(**{name: bad}).validate()
    OptimConfig(max_iters=np.int64(5), restarts=np.int32(1), seed=np.uint8(3)).validate()
