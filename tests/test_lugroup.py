import numpy as np
import pytest

from gmx.heuristic import stationary_check
from gmx.lugroup import (
    _factors,
    apply_local,
    assemble,
    canonicalize,
    conjugate,
    fd_gradient,
    make_penalty_problem,
    su2,
)
from gmx.phi_scheme import i_phi_from_vector, i_phi_gradient, make_phi_problem, pair_seeds
from gmx.states import DickeParams, dicke_steady_state, diagonal_symmetric, random_density_matrix, tau_populations
from gmx.xform import penalty_f
from helpers import ghz, loop_kron

# Penalty of the symmetric four-qubit mixture at the quarter-turn optimum,
# computed with 40-digit arithmetic in an independent script.
F_EQ23_DS4 = {0.3: 0.053155208333333333333, 0.7: 0.081071875}
F_EQ23_DS3_HALF = 0.041666666666666666667


def eq23_params(n):
    return np.concatenate([np.full(n, np.pi / 4), np.zeros(n)])


def penalty_gradients(rho, x):
    """The analytic penalty gradient at ``x`` and its central differences."""
    fun, grad = make_penalty_problem(rho.mat, rho.n_qubits)
    return grad(x), fd_gradient(fun, x)


def test_su2_identity():
    assert np.abs(su2(0.0, 1.23) - np.eye(2)).max() < 1e-15


def test_su2_quarter_turn():
    expected = np.array([[1, 1], [-1, 1]]) / np.sqrt(2)
    assert np.abs(su2(np.pi / 4, 0.0) - expected).max() < 1e-15


def test_su2_unitary_det_one():
    rng = np.random.default_rng(0)
    for _ in range(20):
        u = su2(rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi))
        assert np.abs(u @ u.conj().T - np.eye(2)).max() < 1e-14
        assert abs(np.linalg.det(u) - 1.0) < 1e-14


def test_assemble_identity():
    assert np.abs(assemble(np.zeros(6), 3) - np.eye(8)).max() < 1e-15


def test_assemble_matches_kron_oracle():
    u = assemble(eq23_params(2), 2)
    oracle = loop_kron(su2(np.pi / 4, 0), su2(np.pi / 4, 0))
    assert np.abs(u - oracle).max() < 1e-15


def test_assemble_unitary():
    rng = np.random.default_rng(1)
    u = assemble(random_point(rng, 3), 3)
    assert np.abs(u @ u.conj().T - np.eye(8)).max() < 1e-12


def test_conjugate_identity_params():
    rho = random_density_matrix(2, 3, seed=2)
    out = conjugate(rho, np.zeros(4))
    assert np.abs(out.mat - rho.mat).max() < 1e-15


def test_conjugate_preserves_trace_and_spectrum():
    rng = np.random.default_rng(3)
    for _ in range(5):
        rho = random_density_matrix(3, int(rng.integers(1, 9)), seed=int(rng.integers(1e6)))
        out = conjugate(rho, random_point(rng, 3))
        out.validate()
        a = np.sort(np.linalg.eigvalsh(rho.mat))
        b = np.sort(np.linalg.eigvalsh(out.mat))
        assert np.abs(a - b).max() < 1e-10


def test_conjugate_single_qubit_equals_u_rho_u_dagger():
    rho = random_density_matrix(1, 2, seed=12)
    u = su2(0.7, 2.1)
    assert np.abs(conjugate(rho, [0.7, 2.1]).mat - u @ rho.mat @ u.conj().T).max() <= 1e-15


def test_conjugate_dimension_mismatch():
    rho = random_density_matrix(2, 2, seed=4)
    with pytest.raises(ValueError, match=r"conjugate takes packed angles \(4,\) for 2 qubits, got shape \(6,\)"):
        conjugate(rho, np.zeros(6))


@pytest.mark.parametrize("tau", [0.3, 0.7])
def test_penalty_at_symmetric_minimum_matches_high_precision_value(tau):
    rho = diagonal_symmetric(tau_populations(4, tau))
    got = penalty_f(conjugate(rho, eq23_params(4)))
    assert got == pytest.approx(F_EQ23_DS4[tau], abs=1e-13)


def test_penalty_at_symmetric_minimum_three_qubits():
    rho = diagonal_symmetric(tau_populations(3, 0.5))
    got = penalty_f(conjugate(rho, eq23_params(3)))
    assert got == pytest.approx(F_EQ23_DS3_HALF, abs=1e-13)


def test_gradient_vanishes_at_symmetric_minimum():
    for n in (3, 4, 5):
        rho = diagonal_symmetric(tau_populations(n, 0.4))
        fun, _ = make_penalty_problem(rho.mat, n)
        assert np.linalg.norm(fd_gradient(fun, eq23_params(n))) < 1e-8


def test_gradient_vanishes_on_x_state_at_identity():
    rho = ghz(3)
    assert penalty_f(rho) == 0.0
    ga, gf = penalty_gradients(rho, np.zeros(6))
    assert np.linalg.norm(gf) < 1e-8
    # the analytic gradient is exactly zero there
    assert np.linalg.norm(ga) == 0.0


def test_analytic_gradient_matches_finite_differences():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(30):
        n = int(rng.integers(2, 5))
        rho = random_density_matrix(n, int(rng.integers(1, 2 ** n + 1)), seed=int(rng.integers(1e6)))
        ga, gf = penalty_gradients(rho, random_point(rng, n))
        worst = max(worst, np.abs(ga - gf).max() / max(np.abs(gf).max(), 1e-12))
    assert worst < 1e-6


def random_point(rng, n):
    return np.concatenate([rng.uniform(0, np.pi, n), rng.uniform(0, 2 * np.pi, n)])


@pytest.mark.parametrize("n", range(2, 9))
def test_apply_local_matches_dense_conjugation(n):
    rng = np.random.default_rng([7, n])
    rho = random_density_matrix(n, min(4, 2 ** n), seed=n)
    x = random_point(rng, n)
    u = assemble(x, n)
    dense = u @ rho.mat @ u.conj().T
    factors = [su2(t, f) for t, f in zip(x[:n], x[n:])]
    assert np.abs(apply_local(rho.mat, factors) - dense).max() <= 1e-14
    assert np.abs(conjugate(rho, x).mat - dense).max() <= 1e-14


@pytest.mark.parametrize("n", range(2, 9))
def test_apply_local_on_a_stack_matches_dense_conjugation_row_by_row(n):
    rng = np.random.default_rng([17, n])
    rho = random_density_matrix(n, min(4, 2 ** n), seed=n)
    points = [random_point(rng, n) for _ in range(3)]
    stack = np.array([[su2(t, f) for t, f in zip(x[:n], x[n:])] for x in points])
    got = apply_local(rho.mat, stack)
    assert got.shape == (3, 2 ** n, 2 ** n)
    for row, x in zip(got, points):
        u = assemble(x, n)
        assert np.abs(row - u @ rho.mat @ u.conj().T).max() <= 1e-14


def bad_shapes(width):
    # A stack of stacks, a point one angle short, a stack of rows too wide and two points in one row.
    return np.zeros((2, 2, width)), np.zeros(width - 1), np.zeros((4, width + 2)), np.zeros(2 * width)


def test_kernels_reject_shapes_they_do_not_take():
    rho = random_density_matrix(3, 2, seed=4)
    for kernel in make_penalty_problem(rho.mat, 3):
        for bad in bad_shapes(6):
            with pytest.raises(ValueError, match=r"expected a point \(6,\) or a stack \(k, 6\)"):
                kernel(bad)
    with pytest.raises(ValueError, match="factors"):
        apply_local(rho.mat, np.zeros((2, 2, 3, 2, 2)))
    for kernel in (make_penalty_problem, lambda mat, n: apply_local(mat, np.tile(np.eye(2), (n, 1, 1)))):
        with pytest.raises(ValueError, match=r"matrix shape \(8, 8\) does not match n_qubits=2"):
            kernel(rho.mat, 2)
    # The angle functions take one packed point (2N,) and name themselves when given anything else.
    takers = {"conjugate": lambda x: conjugate(rho, x), "assemble": lambda x: assemble(x, 3),
              "stationary_check": lambda x: stationary_check(rho, x)}
    for name, taker in takers.items():
        for bad in bad_shapes(6):
            with pytest.raises(ValueError, match=rf"{name} takes packed angles \(6,\) for 3 qubits, got shape"):
                taker(bad)
    # These two read the qubit count off the length, so they reject odd lengths and stacks.
    for bad in (np.zeros(5), np.zeros((2, 6))):
        for name, taker in (("canonicalize", canonicalize), ("pair_seeds", pair_seeds)):
            with pytest.raises(ValueError, match=rf"{name} takes packed angles \(\d+,\) for \d+ qubits"):
                taker(bad)
    with pytest.raises(ValueError, match=r"pair_seeds takes packed angles \(4,\) for 2 qubits, got shape \(2,\)"):
        pair_seeds(np.zeros(2))  # one qubit has no pair


def test_phi_kernels_reject_shapes_they_do_not_take():
    # The phi kernels share the penalty's check of a point (4N,) or a stack (k, 4N).
    rho = random_density_matrix(3, 2, seed=4)
    kernels = [lambda x: i_phi_from_vector(rho.mat, x, 3), lambda x: i_phi_gradient(rho.mat, x, 3),
               *make_phi_problem(rho.mat, 3)]
    for kernel in kernels:
        for bad in bad_shapes(12):
            with pytest.raises(ValueError, match=r"expected a point \(12,\) or a stack \(k, 12\)"):
                kernel(bad)
    # An 8x8 matrix given as two qubits: the check names both before numpy fails to reshape.
    for kernel in (make_phi_problem, lambda mat, n: i_phi_from_vector(mat, np.zeros(4 * n), n),
                   lambda mat, n: i_phi_gradient(mat, np.zeros(4 * n), n)):
        with pytest.raises(ValueError, match=r"matrix shape \(8, 8\) does not match n_qubits=2"):
            kernel(rho.mat, 2)
        # One qubit has no bipartition, so no witness.
        with pytest.raises(ValueError, match="needs at least two qubits, got n_qubits=1"):
            kernel(np.eye(2) / 2, 1)


def test_factors_match_the_per_qubit_formula_bit_for_bit():
    rng = np.random.default_rng(13)
    for _ in range(200):
        n = int(rng.integers(1, 9))
        x = rng.uniform(-10.0, 10.0, 2 * n)
        c, s, e = trig = np.cos(x[:n]), np.sin(x[:n]), np.exp(1j * x[n:])
        expected = np.stack([c, s * e, -s * np.conj(e), c], axis=-1).reshape(n, 2, 2)
        got_trig, factors = _factors(x, n)
        assert factors.tobytes() == expected.tobytes()
        assert [t.tobytes() for t in got_trig] == [t.tobytes() for t in trig]
    xs = rng.uniform(-10.0, 10.0, (4, 6))
    assert all(row.tobytes() == _factors(x, 3)[1].tobytes() for row, x in zip(_factors(xs, 3)[1], xs))


@pytest.mark.parametrize("n", range(2, 9))
def test_gradient_matches_finite_differences_up_to_eight_qubits(n):
    rng = np.random.default_rng([8, n])
    worst = 0.0
    for k in range(10):
        rho = random_density_matrix(n, int(rng.integers(1, 2 ** n + 1)), seed=100 * n + k)
        ga, gf = penalty_gradients(rho, random_point(rng, n))
        worst = max(worst, np.abs(ga - gf).max() / max(np.abs(gf).max(), 1e-12))
    assert worst < 1e-6


@pytest.mark.parametrize("problem", ["penalty", "phi"])
def test_shared_sigma_is_never_stale(problem):
    # The kept pass (sigma for the penalty) never serves a gradient at other points.
    rng = np.random.default_rng(9)
    rho = random_density_matrix(4, 5, seed=9)
    make, products = {"penalty": (make_penalty_problem, 1), "phi": (make_phi_problem, 2)}[problem]

    def point():
        return np.concatenate([random_point(rng, 4) for _ in range(products)])

    def fresh(which, x):
        return make(rho.mat, 4)[which](x.copy())

    fun, grad = make(rho.mat, 4)
    x = point()
    fun(x)
    x[2] += 0.3  # mutated in place after the value call
    assert np.array_equal(grad(x), fresh(1, x))

    a, b = point(), point()
    kernels = make(rho.mat, 4)
    for which, x in ((0, a), (1, b), (0, b), (1, a), (1, b), (0, a), (1, a), (0, b)):
        assert np.array_equal(kernels[which](x), fresh(which, x))


def test_objective_periodic_in_theta():
    rng = np.random.default_rng(6)
    rho = dicke_steady_state(DickeParams(3, 1.2))
    fun, _ = make_penalty_problem(rho.mat, 3)
    x = np.concatenate([rng.uniform(0, np.pi, 3), rng.uniform(0, 2 * np.pi, 3)])
    base = fun(x)
    for j in range(3):
        shifted = x.copy()
        shifted[j] += np.pi
        assert fun(shifted) == pytest.approx(base, abs=1e-12)


def test_canonicalize_ranges():
    c = canonicalize([np.pi / 4 + np.pi, -0.3, 2 * np.pi + 0.1, -0.2])
    assert np.all((c[:2] >= 0) & (c[:2] < np.pi))
    assert np.all((c[2:] >= 0) & (c[2:] < 2 * np.pi))
    assert c[0] == pytest.approx(np.pi / 4)
