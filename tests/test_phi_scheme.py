import functools

import numpy as np
import pytest

from gmx.lugroup import conjugate, fd_gradient
from gmx.optim import OptimConfig
from gmx.phi_scheme import (
    c_phi_estimate,
    i_phi_from_vector,
    make_phi_problem,
    pair_seeds,
)
from gmx.heuristic import x_heuristic
from gmx.states import (
    DensityMatrix,
    DickeParams,
    dicke_steady_state,
    diagonal_symmetric,
    pure_state,
    random_density_matrix,
    tau_populations,
)
from gmx.xform import gm_lower_bound_x, x_concurrence, x_projection
from helpers import ghz, pair_seed_witness, random_states, reference_witness

CFG = OptimConfig(restarts=4, seed=7)


def maximally_mixed(n):
    from gmx.states import _wrap

    return _wrap(n, np.eye(2 ** n, dtype=complex) / 2 ** n)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_witness_matches_the_reference_at_random_points(n):
    # The reference enumerates the bipartitions with itertools and builds every product
    # vector with np.kron; the kernel reads them as table rows m and 2**n - 1 - m.
    rng = np.random.default_rng(1800 + n)
    for rank in (1, 2, 2 ** n):
        rho = random_density_matrix(n, rank, seed=180 + 10 * n + rank)
        xs = rng.uniform(-2 * np.pi, 2 * np.pi, (20, 4 * n))
        got = i_phi_from_vector(rho.mat, xs, n)
        want = [reference_witness(rho.mat, x, n) for x in xs]
        assert np.abs(got - want).max() <= 1e-14


def test_i_phi_identity_params_maximally_mixed():
    # every expectation equals 1/4, so the criterion value is zero for N=2
    assert i_phi_from_vector(maximally_mixed(2).mat, np.zeros(8), 2) == pytest.approx(0.0, abs=1e-15)


def test_i_phi_ghz_pair_zero():
    val = i_phi_from_vector(ghz(3).mat, pair_seeds(np.zeros(6))[0], 3)
    assert val == pytest.approx(0.5, abs=1e-14)


def test_pair_seeds_reproduce_projection_scores():
    rho = random_density_matrix(3, 6, seed=21)
    best = max(i_phi_from_vector(rho.mat, pair_seeds(np.zeros(6)), 3))
    assert max(0.0, 2 * best) == pytest.approx(gm_lower_bound_x(rho), abs=1e-14)


def test_witness_at_pair_seeds_equals_x_bound_on_random_states():
    worst = 0.0
    for rho in random_states({2: 50, 3: 50, 4: 50, 5: 50}, seed0=100):
        witness = max(0.0, 2.0 * float(pair_seed_witness(rho).max()))
        worst = max(worst, abs(witness - gm_lower_bound_x(rho)))
    assert worst < 1e-12


def test_witness_at_pair_seeds_ds2_pair_one_is_largest():
    # The (01,10) coherence of the two-qubit Dicke mixture lives on pair 1.
    rho = diagonal_symmetric(tau_populations(2, 0.05))
    scores = pair_seed_witness(rho)
    assert int(np.argmax(scores)) == 1
    assert 2.0 * scores[1] == pytest.approx(gm_lower_bound_x(rho), abs=1e-15)


def test_frame_params_transfer_rotated_frame_scores():
    # 400 draws: a numerical inverse of the frame's factor rows misses some scores by 1.2e-14.
    rng = np.random.default_rng(23)
    for trial in range(400):
        n = int(rng.integers(2, 6))
        rho = random_density_matrix(n, int(rng.integers(1, 2 ** n + 1)), seed=trial + 50)
        frame = np.concatenate([rng.uniform(0, np.pi, n), rng.uniform(0, 2 * np.pi, n)])
        xp = x_projection(conjugate(rho, frame))
        s = np.sqrt(np.clip(xp.a * xp.b, 0.0, None))
        scores = xp.r - (s.sum() - s)
        got = i_phi_from_vector(rho.mat, pair_seeds(frame), n)
        assert list(got) == pytest.approx(scores, abs=1e-15)


@pytest.mark.parametrize("n", range(2, 9))
def test_pair_params_are_the_identity_frame_seeds(n):
    # V sends |0..0> to |mu> and W to its complement: quarter turns on the flipped qubits only.
    seeds = pair_seeds(np.zeros(2 * n))
    assert seeds.shape == (2 ** (n - 1), 4 * n)
    for mu, row in enumerate(seeds):
        bits = np.array([(mu >> (n - j)) & 1 for j in range(1, n + 1)], dtype=float)
        expected = np.concatenate([bits * (np.pi / 2), np.zeros(n), (1.0 - bits) * (np.pi / 2), np.zeros(n)])
        assert row.tobytes() == expected.tobytes()


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_pair_seeds_send_the_products_to_the_pair_basis_states(n):
    # Each V and W enters through its first column (cos theta, -sin theta e^{-i phi}); the
    # product vectors are np.kron chains of those columns, as in helpers.reference_witness.
    def product(block):
        columns = [np.array([np.cos(t), -np.sin(t) * np.exp(-1j * f)]) for t, f in zip(block[:n], block[n:])]
        return functools.reduce(np.kron, columns)

    basis = np.eye(2 ** n)
    for mu, row in enumerate(pair_seeds(np.zeros(2 * n))):
        v, w = product(row[:2 * n]), product(row[2 * n:])
        for vec, target in ((v, basis[mu]), (w, basis[2 ** n - 1 - mu])):
            # Equal up to a phase: the overlap has modulus 1 and nothing is left off the target.
            assert abs(abs(np.vdot(target, vec)) - 1.0) <= 1e-15
            assert np.abs(vec - np.vdot(target, vec) * target).max() <= 1e-15


def test_exact_gradient_matches_central_differences():
    # 32 points per qubit count cover every rank for N = 2..5.
    rng = np.random.default_rng(55)
    worst = 0.0
    for rho in random_states({2: 32, 3: 32, 4: 32, 5: 32}, seed0=300):
        n = rho.n_qubits
        x = np.concatenate([rng.uniform(0, period, n) for period in (np.pi, 2 * np.pi) * 2])
        kinks = []
        fun, grad = make_phi_problem(rho.mat, n, kinks)
        exact = -grad(x)
        assert not kinks  # a generic point is smooth
        fd = -fd_gradient(fun, x)
        worst = max(worst, float(np.linalg.norm(exact - fd) / np.linalg.norm(fd)))
    assert worst <= 1e-6


def _zero_diagonal_state():
    # A pure state with no weight on |011>: d_3 = 0 at the pair-0 point.
    v = np.random.default_rng(66).standard_normal(8) + 0j
    v[3] = 0.0
    return pure_state(3, v / np.linalg.norm(v))


@pytest.mark.parametrize("rho", [ghz(3), _zero_diagonal_state()], ids=["ghz", "zero-diagonal"])
def test_kinks_fall_back_to_central_differences(rho):
    x, kinks = pair_seeds(np.zeros(6))[0], []
    fun, grad = make_phi_problem(rho.mat, 3, kinks)
    assert np.array_equal(grad(x), fd_gradient(fun, x))
    assert len(kinks) == 1 and np.array_equal(kinks[0], x)


def test_estimate_uses_central_differences_only_at_kinks(monkeypatch):
    points = []

    def counted(fun, x, *args):
        points.append(x.copy())
        return fd_gradient(fun, x, *args)

    monkeypatch.setattr("gmx.phi_scheme.fd_gradient", counted)
    res = c_phi_estimate(ghz(3), OptimConfig(restarts=2, seed=1))
    monkeypatch.undo()
    # A fresh problem records a kink at each of them.
    kinks = []
    grad = make_phi_problem(ghz(3).mat, 3, kinks)[1]
    for x in points:
        grad(x)
    assert points and len(kinks) == len(points)
    assert res.kink_rows == len(points) > 0


def test_c_phi_saturates_on_x_states():
    # GM-concurrence bound is tight for X states
    for rho in (ghz(3), diagonal_symmetric(tau_populations(2, 0.3))):
        res = c_phi_estimate(rho, CFG)
        assert res.estimate == pytest.approx(x_concurrence(x_projection(rho)), abs=1e-9)


def test_c_phi_dicke2_peak_value():
    rho = dicke_steady_state(DickeParams(2, 1.65))
    res = c_phi_estimate(rho, CFG)
    assert res.estimate == pytest.approx(7.735e-2, abs=1e-4)


def test_c_phi_matches_x_on_two_qubit_mixture_family():
    for tau in (0.0, 0.25, 0.5, 0.75, 1.0):
        rho = diagonal_symmetric(tau_populations(2, tau))
        res = c_phi_estimate(rho, OptimConfig(restarts=2, seed=3))
        assert res.estimate == pytest.approx(gm_lower_bound_x(rho), abs=1e-9)


def test_c_phi_never_below_projection_bound():
    for seed in range(8):
        rho = random_density_matrix(3, (seed % 8) + 1, seed=seed)
        res = c_phi_estimate(rho, OptimConfig(restarts=2, seed=seed))
        assert res.estimate >= gm_lower_bound_x(rho) - 1e-12
        assert 0.0 <= res.estimate <= 1.0 + 1e-9


def test_c_phi_invariant_under_local_unitaries():
    rng = np.random.default_rng(33)
    cfg = OptimConfig(restarts=6, seed=5)
    for n, gamma in ((2, 1.5), (3, 1.623)):
        rho = dicke_steady_state(DickeParams(n, gamma))
        base = c_phi_estimate(rho, cfg).estimate
        x = np.concatenate([rng.uniform(0, np.pi, n), rng.uniform(0, 2 * np.pi, n)])
        rotated = c_phi_estimate(conjugate(rho, x), cfg).estimate
        assert rotated == pytest.approx(base, abs=1e-6)


def test_rotated_frame_bound_never_exceeds_phi_estimate():
    # the X bound of any locally rotated frame is one member of the
    # product-state family, so the maximized estimate must dominate it
    rng = np.random.default_rng(44)
    for rho in (dicke_steady_state(DickeParams(2, 2.0)),
                diagonal_symmetric(tau_populations(3, 0.15))):
        cap = c_phi_estimate(rho, OptimConfig(restarts=4, seed=1)).estimate
        for _ in range(5):
            n = rho.n_qubits
            x = np.concatenate([rng.uniform(0, np.pi, n), rng.uniform(0, 2 * np.pi, n)])
            val = x_concurrence(x_projection(conjugate(rho, x)))
            assert val <= cap + 1e-6


def test_first_term_bounded_at_orthogonal_pair_params():
    # with orthogonal product vectors the first term is an off-diagonal
    # element of a density matrix, bounded by 1/2
    for seed in range(20):
        rho = random_density_matrix(3, (seed % 8) + 1, seed=100 + seed)
        for mu in range(4):
            idx = mu
            first = abs(rho.mat[idx, 7 - idx])
            assert first <= 0.5 + 1e-12


def test_estimate_result_fields():
    rho = diagonal_symmetric(tau_populations(2, 0.4))
    res = c_phi_estimate(rho, OptimConfig(restarts=1, seed=0))
    # two pair seeds, two frame seeds, one random restart
    assert res.optim.restarts_used == 5
    assert res.angles.shape == (8,)
    assert res.optim.wall_time >= 0.0


def test_estimate_returns_the_x_run_it_seeds_from():
    cfg = OptimConfig(restarts=1, seed=3)
    for rho in (dicke_steady_state(DickeParams(3, 1.3)), random_density_matrix(2, 2, seed=8)):
        res = c_phi_estimate(rho, cfg)
        alone = x_heuristic(rho, cfg)
        assert res.x.estimate == alone.estimate
        assert res.x.f_min == alone.f_min
        assert np.array_equal(res.x.optim.best_point, alone.optim.best_point)
        assert res.estimate >= res.x.estimate - 1e-9
    cold = c_phi_estimate(random_density_matrix(2, 2, seed=8), cfg, include_warm_starts=False)
    assert cold.x is None


def _nan_state():
    mat = np.eye(8, dtype=complex) / 8
    mat[0, 7] = np.nan
    return DensityMatrix(3, mat)


@pytest.mark.parametrize("scheme", [x_heuristic, c_phi_estimate], ids=["x", "phi"])
@pytest.mark.parametrize("make_rho, message", [
    pytest.param(lambda: DensityMatrix(1, np.eye(2, dtype=complex) / 2), "two qubits", id="one-qubit"),
    pytest.param(lambda: DensityMatrix(3, np.eye(4, dtype=complex) / 4), "shape", id="wrong-shape"),
    pytest.param(_nan_state, "non-finite", id="nan-entry"),
])
def test_schemes_reject_malformed_input(monkeypatch, scheme, make_rho, message):
    for module in ("gmx.heuristic", "gmx.phi_scheme"):
        monkeypatch.setattr(f"{module}.multi_start", lambda *a, **k: pytest.fail("optimizer ran"))
    with pytest.raises(ValueError, match=message):
        scheme(make_rho(), CFG)
