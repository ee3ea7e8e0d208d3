import numpy as np
import pytest

from gmx.heuristic import stationary_check, warm_starts, x_heuristic
from gmx.optim import OptimConfig
from gmx.phi_scheme import c_phi_estimate
from gmx.states import DickeParams, dicke_steady_state, diagonal_symmetric, random_density_matrix, tau_populations
from gmx.xform import gm_lower_bound_x
from helpers import circular_distance, ghz

CFG = OptimConfig(restarts=4, seed=13)


def eq23_params(n):
    return np.concatenate([np.full(n, np.pi / 4), np.zeros(n)])


def test_two_qubit_mixture_needs_no_rotation():
    for tau in (0.1, 0.5, 0.9):
        rho = diagonal_symmetric(tau_populations(2, tau))
        res = x_heuristic(rho, CFG)
        assert res.f_min == 0.0
        assert np.abs(res.angles).max() == 0.0
        assert res.estimate == pytest.approx(gm_lower_bound_x(rho), abs=1e-15)


def test_symmetric_family_minimizer_at_quarter_turn():
    for n, tau in ((3, 0.2), (4, 0.6), (5, 0.5)):
        rho = diagonal_symmetric(tau_populations(n, tau))
        res = x_heuristic(rho, OptimConfig(restarts=2, seed=2))
        for th in res.angles[:n]:
            assert circular_distance(th, np.pi / 4, np.pi) < 1e-6
        for ph in res.angles[n:]:
            assert circular_distance(ph, 0.0, 2 * np.pi) < 1e-6


def test_driven_three_qubit_peak_detected_only_after_rotation():
    rho = dicke_steady_state(DickeParams(3, 1.623))
    assert gm_lower_bound_x(rho) == 0.0
    res = x_heuristic(rho, CFG)
    assert res.estimate > 1e-3


def test_estimate_never_below_projection_bound():
    for seed in range(10):
        rho = random_density_matrix(3, (seed % 8) + 1, seed=seed)
        res = x_heuristic(rho, OptimConfig(restarts=2, seed=seed))
        assert res.estimate >= gm_lower_bound_x(rho) - 1e-12
        assert res.f_min >= 0.0


def test_estimate_below_phi_estimate():
    cfg = OptimConfig(restarts=3, seed=5)
    states = [
        dicke_steady_state(DickeParams(3, 1.3)),
        diagonal_symmetric(tau_populations(4, 0.1)),
        random_density_matrix(2, 2, seed=8),
    ]
    for rho in states:
        xe = x_heuristic(rho, cfg).estimate
        pe = c_phi_estimate(rho, cfg).estimate
        assert xe <= pe + 1e-6


def test_f_min_positive_for_non_x_families():
    for n in (3, 4):
        for tau in (0.0, 0.5, 1.0):
            res = x_heuristic(diagonal_symmetric(tau_populations(n, tau)), CFG)
            assert res.f_min > 1e-6


def test_f_min_monotone_in_gamma():
    values = []
    for gamma in (1.0, 2.0, 3.5, 5.0, 7.0, 10.0):
        res = x_heuristic(dicke_steady_state(DickeParams(3, gamma)), CFG)
        values.append(res.f_min)
    for a, b in zip(values, values[1:]):
        assert b <= a + 1e-9


def test_warm_start_list():
    ws = warm_starts(3)
    assert np.array_equal(ws[0], np.zeros(6))
    assert np.allclose(ws[1], [np.pi / 4] * 3 + [0] * 3)


def test_stationary_check_at_symmetric_optimum():
    rho = diagonal_symmetric(tau_populations(4, 0.5))
    rep = stationary_check(rho, eq23_params(4))
    assert rep.grad_norm < 1e-8
    assert rep.hessian_psd
    assert rep.hessian_min_eig >= -1e-6


def test_stationary_check_x_state_identity():
    rep = stationary_check(ghz(3), np.zeros(6))
    assert rep.grad_norm < 1e-8


def test_stationary_check_generic_point_not_stationary():
    rng = np.random.default_rng(3)
    rho = random_density_matrix(3, 4, seed=14)
    x = np.concatenate([rng.uniform(0.2, 1.2, 3), rng.uniform(0.5, 2.0, 3)])
    rep = stationary_check(rho, x)
    assert rep.grad_norm > 1e-3


def test_without_warm_starts_uses_only_random_points():
    rho = diagonal_symmetric(tau_populations(3, 0.4))
    res = x_heuristic(rho, OptimConfig(restarts=3, seed=1), include_warm_starts=False)
    assert res.optim.restarts_used == 3
    res_warm = x_heuristic(rho, OptimConfig(restarts=3, seed=1))
    assert res_warm.optim.restarts_used == 5
