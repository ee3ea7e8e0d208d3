"""Lockstep multi-start: stacked calls change no run, and stacked kernel rows equal single points."""

import numpy as np
import pytest

from gmx import lugroup, phi_scheme
from gmx.heuristic import warm_starts
from gmx.lugroup import angle_sampler, fd_gradient, make_penalty_problem
from gmx.optim import OptimConfig, bfgs_minimize, multi_start
from gmx.phi_scheme import (
    c_phi_estimate,
    i_phi_from_vector,
    i_phi_gradient,
    make_phi_problem,
    pair_seeds,
)
from gmx.states import random_density_matrix
from helpers import ghz
from test_optim import double_well, double_well_grad, sampler_1d


def _double_well():
    return double_well, double_well_grad, sampler_1d(-2, 2), [np.array([0.0])]


def _penalty_n3():
    rho = random_density_matrix(3, 2, seed=31)
    return (*make_penalty_problem(rho.mat, 3), angle_sampler(3), warm_starts(3))


def _phi_ghz3():
    # The pair points of GHZ(3) are kinks, so some gradient rows fall back
    # to finite differences inside a stacked call.
    starts = list(pair_seeds(np.zeros(6)))
    return (*make_phi_problem(ghz(3).mat, 3), angle_sampler(3, 2), starts)


@pytest.mark.parametrize("problem", [_double_well, _penalty_n3, _phi_ghz3],
                         ids=["double-well", "penalty-n3", "phi-ghz3"])
def test_lockstep_matches_one_run_per_start(problem):
    fun, grad, sampler, starts = problem()
    cfg = OptimConfig(restarts=6, seed=3)
    runs = []
    res = multi_start(fun, grad, sampler, cfg, starts=starts, callback=runs.append)

    x0s = starts + [sampler(np.random.default_rng([cfg.seed, k])) for k in range(cfg.restarts)]
    alone = [bfgs_minimize(fun, grad, x0, cfg) for x0 in x0s]
    best = min(alone, key=lambda r: r.best_value)  # min keeps the earliest of ties
    assert res.best_value == best.best_value
    assert np.array_equal(res.best_point, best.best_point)
    assert res.iterations == sum(r.iterations for r in alone)
    assert res.converged == best.converged
    assert res.restarts_used == len(alone)
    # The callback sees the runs in start order, each as it would run alone.
    assert [r.best_value for r in runs] == [r.best_value for r in alone]
    assert [r.value_rows for r in runs] == [r.value_rows for r in alone]
    assert [r.grad_rows for r in runs] == [r.grad_rows for r in alone]
    assert [r.line_search for r in runs] == [r.line_search for r in alone]
    assert res.value_rows == sum(r.value_rows for r in alone)
    assert res.grad_rows == sum(r.grad_rows for r in alone)
    assert res.line_search == best.line_search
    # A run's wall time runs from the start of multi_start to the run's end.
    assert all(0.0 <= r.wall_time <= res.wall_time for r in runs)


def _recording(fun, grad, log):
    def f(x):
        log.append(("f", np.array(x)))
        return fun(x)

    def g(x):
        log.append(("g", np.array(x)))
        return grad(x)

    return f, g


def test_one_start_makes_the_single_point_calls_of_bfgs_minimize():
    rho = random_density_matrix(3, 4, seed=8)
    fun, grad = make_penalty_problem(rho.mat, 3)
    x0 = warm_starts(3)[1] + 0.1
    solo, multi = [], []
    bfgs_minimize(*_recording(fun, grad, solo), x0, OptimConfig())
    multi_start(*_recording(fun, grad, multi), angle_sampler(3), OptimConfig(restarts=0), starts=[x0])
    assert len(solo) > 2
    assert all(x.ndim == 1 for _, x in solo + multi)
    assert [k for k, _ in solo] == [k for k, _ in multi]
    assert all(np.array_equal(a, b) for (_, a), (_, b) in zip(solo, multi))


def test_value_and_gradient_rows_count_every_request():
    log = []
    f, g = _recording(double_well, double_well_grad, log)
    res = multi_start(f, g, sampler_1d(-2, 2), OptimConfig(restarts=5, seed=2))
    rows = {kind: sum(1 if x.ndim == 1 else len(x) for k, x in log if k == kind) for kind in "fg"}
    assert (res.value_rows, res.grad_rows) == (rows["f"], rows["g"])
    assert any(x.ndim == 2 for _, x in log)  # five runs do share calls


@pytest.mark.parametrize("n", range(2, 8))
def test_stacked_penalty_rows_equal_single_points(n):
    rng = np.random.default_rng(n)
    rho = random_density_matrix(n, 3, seed=40 + n)
    fun, grad = make_penalty_problem(rho.mat, n)
    xs = rng.uniform(0.0, 2 * np.pi, (5, 2 * n))
    values, grads = fun(xs), grad(xs)
    fresh_fun, fresh_grad = make_penalty_problem(rho.mat, n)
    for i, x in enumerate(xs):
        assert values[i] == fresh_fun(x)
        assert np.array_equal(grads[i], fresh_grad(x))


@pytest.mark.parametrize("n", range(2, 9))
def test_penalty_rows_do_not_depend_on_their_stack(n):
    rng = np.random.default_rng([70, n])
    rho = random_density_matrix(n, 3, seed=70 + n)
    x = rng.uniform(0.0, 2 * np.pi, 2 * n)
    fun, grad = make_penalty_problem(rho.mat, n)
    value, gradient = fun(x), grad(x)
    for k in (1, 2, 3, 6):
        for pos in range(k):
            xs = rng.uniform(0.0, 2 * np.pi, (k, 2 * n))
            xs[pos] = x
            fun, grad = make_penalty_problem(rho.mat, n)
            assert fun(xs)[pos] == value
            assert np.array_equal(grad(xs)[pos], gradient)  # sigma kept by the value call
            assert np.array_equal(make_penalty_problem(rho.mat, n)[1](xs)[pos], gradient)  # sigma built by grad


@pytest.mark.parametrize("n", range(2, 9))
def test_gradient_stack_mixing_kept_and_new_sigmas_equals_fresh_rows(n):
    rng = np.random.default_rng([80, n])
    rho = random_density_matrix(n, 3, seed=80 + n)
    xs = rng.uniform(0.0, 2 * np.pi, (6, 2 * n))
    fun, grad = make_penalty_problem(rho.mat, n)
    fun(xs[[4, 0, 2]])  # rows 0, 2 and 4 keep their sigma, in another order
    grads = grad(xs)
    fresh_fun, fresh_grad = make_penalty_problem(rho.mat, n)
    for g, x in zip(grads, xs):
        assert np.array_equal(g, fresh_grad(x))
    assert np.array_equal(grad(xs[[2, 4]]), grads[[2, 4]])  # from the pass that grad(xs) kept


@pytest.mark.parametrize("n", [2, 3, 5])
def test_optimizer_gradients_reuse_the_value_calls_sigma(monkeypatch, n):
    # Every gradient the optimizers ask for sits among the points of the last
    # value call, so sigma is built once per value call and never by grad.
    calls = {"fun": 0, "_sandwich": 0, "apply_local": 0}

    def counted(name, f):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return f(*args, **kwargs)
        return wrapper

    for name in ("_sandwich", "apply_local"):
        monkeypatch.setattr(lugroup, name, counted(name, getattr(lugroup, name)))
    rho = random_density_matrix(n, 3, seed=90 + n)
    runs = [
        lambda f, g: multi_start(f, g, angle_sampler(n), OptimConfig(restarts=4, seed=n), starts=warm_starts(n)),
        lambda f, g: bfgs_minimize(f, g, warm_starts(n)[1] + 0.1, OptimConfig()),
    ]
    for run in runs:
        calls.update(dict.fromkeys(calls, 0))
        fun, grad = make_penalty_problem(rho.mat, n)
        run(counted("fun", fun), grad)
        assert calls["fun"] > 2
        assert calls == {"fun": calls["fun"], "_sandwich": calls["fun"], "apply_local": 0}


@pytest.mark.parametrize("n", range(2, 6))
def test_stacked_phi_rows_equal_single_points(n):
    rng = np.random.default_rng(60 + n)
    for rho, kink in ((random_density_matrix(n, 2, seed=50 + n), False), (ghz(n), True)):
        xs = rng.uniform(0.0, 2 * np.pi, (9, 4 * n))
        xs[4] = pair_seeds(np.zeros(2 * n))[0]  # a kink of GHZ(n) only
        values, grads = i_phi_from_vector(rho.mat, xs, n), i_phi_gradient(rho.mat, xs, n)
        fun, grad = make_phi_problem(rho.mat, n)
        problem_grads = grad(xs)
        for i, x in enumerate(xs):
            assert values[i] == i_phi_from_vector(rho.mat, x, n)
            single = i_phi_gradient(rho.mat, x, n)
            if single is None:
                assert np.isnan(grads[i]).all()
            else:
                assert np.array_equal(grads[i], single)
            assert np.array_equal(problem_grads[i], grad(x))
        assert np.isnan(grads[4]).all() == kink


def _fresh_phi_grad(mat, x, n):
    # The problem's gradient row at x, from a problem that has kept nothing.
    return make_phi_problem(mat, n)[1](x)


@pytest.mark.parametrize("n", range(2, 6))
def test_phi_gradient_stack_mixing_kept_and_new_passes_equals_fresh_rows(n):
    rng = np.random.default_rng([85, n])
    for rho in (random_density_matrix(n, 3, seed=85 + n), ghz(n)):
        xs = rng.uniform(0.0, 2 * np.pi, (6, 4 * n))
        xs[2] = pair_seeds(np.zeros(2 * n))[0]  # a kink of GHZ(n) only
        fun, grad = make_phi_problem(rho.mat, n)
        fun(xs[[4, 0, 2]])  # rows 0, 2 and 4 keep their pass, in another order
        grads = grad(xs)
        for g, x in zip(grads, xs):
            single = i_phi_gradient(rho.mat, x, n)
            assert np.array_equal(g, _fresh_phi_grad(rho.mat, x, n))
            if single is not None:
                assert np.array_equal(g, -single)
        assert np.array_equal(grad(xs[[2, 4]]), grads[[2, 4]])  # from the pass that grad(xs) kept
        fun(xs)
        assert np.array_equal(grad(xs), grads)  # every row from the kept pass


def _counting(monkeypatch, module, name, calls):
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def test_kink_fallback_between_value_and_gradient_keeps_the_pass(monkeypatch):
    n = 3
    xs = np.random.default_rng(86).uniform(0.0, 2 * np.pi, (4, 4 * n))
    xs[1] = pair_seeds(np.zeros(2 * n))[0]  # a kink of GHZ(3)
    kinks = []
    fun, grad = make_phi_problem(ghz(n).mat, n, kinks)
    fun(xs)
    kink = grad(xs[1])  # central differences of the witness: 24 more points
    assert len(kinks) == 1 and np.array_equal(kinks[0], xs[1])
    calls = {}
    _counting(monkeypatch, phi_scheme, "_value_pass", calls)
    rest = grad(xs[[0, 2, 3]])
    assert calls == {}  # the value call's pass served every row
    for g, x in zip(rest, xs[[0, 2, 3]]):
        assert np.array_equal(g, _fresh_phi_grad(ghz(n).mat, x, n))
    assert np.array_equal(kink, _fresh_phi_grad(ghz(n).mat, xs[1], n))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_optimizer_gradients_reuse_the_value_calls_phi_pass(monkeypatch, n):
    # Every gradient c_phi_estimate asks for sits among the points of the last
    # value call, so the witness's value pass (and its choice table) runs once
    # per value call, once per kink row's central differences and never for
    # the gradient itself.
    calls = {"fun": 0}
    real_multi_start = phi_scheme.multi_start

    def counted_multi_start(fun, grad, *args, **kwargs):
        def counted_fun(x):
            calls["fun"] += 1
            return fun(x)
        return real_multi_start(counted_fun, grad, *args, **kwargs)

    monkeypatch.setattr(phi_scheme, "multi_start", counted_multi_start)
    for name in ("_value_pass", "fd_gradient"):
        calls[name] = 0
        _counting(monkeypatch, phi_scheme, name, calls)
    tables = []
    real_table = phi_scheme._choice_table
    monkeypatch.setattr(phi_scheme, "_choice_table", lambda cols: tables.append(cols.ndim) or real_table(cols))
    res = c_phi_estimate(random_density_matrix(n, 3, seed=95 + n), OptimConfig(restarts=3, seed=n))
    assert res.optim.grad_rows > res.kink_rows == calls["fd_gradient"]
    assert calls["fun"] > 2
    assert calls["_value_pass"] == calls["fun"] + calls["fd_gradient"]
    assert tables.count(4) == calls["_value_pass"]  # the gradients built only derivative tables
    assert tables.count(5) > 0


def test_kink_count_survives_a_wrapped_problem(monkeypatch):
    # A caller that wraps the problem's functions (a timing hook, say) still
    # leaves c_phi_estimate its count of the kink rows.
    real = phi_scheme.make_phi_problem

    def wrapped(*args):
        fun, grad = real(*args)
        return (lambda x: fun(x)), (lambda x: grad(x))

    res = c_phi_estimate(ghz(3), OptimConfig(restarts=2, seed=1))
    monkeypatch.setattr(phi_scheme, "make_phi_problem", wrapped)
    again = c_phi_estimate(ghz(3), OptimConfig(restarts=2, seed=1))
    assert again.kink_rows == res.kink_rows > 0
    assert again.estimate == res.estimate


def test_fd_gradient_makes_one_stacked_call():
    calls = []
    fun, _ = make_phi_problem(ghz(3).mat, 3)

    def counted(x):
        calls.append(x.shape)
        return fun(x)

    x = pair_seeds(np.zeros(6))[0]
    g = fd_gradient(counted, x)
    assert calls == [(24, 12)]
    h = 1e-6
    assert np.array_equal(g, [(fun(x + d) - fun(x - d)) / (2.0 * h) for d in h * np.eye(12)])
