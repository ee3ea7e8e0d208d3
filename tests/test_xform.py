import numpy as np
import pytest

from gmx.states import (
    DickeParams,
    dicke_steady_state,
    diagonal_symmetric,
    random_density_matrix,
    tau_populations,
)
from gmx.xform import (
    gm_lower_bound_x,
    penalty_f,
    x_concurrence,
    x_matrix,
    x_projection,
    XParams,
)
from helpers import ghz, random_states


def maximally_mixed(n):
    from gmx.states import _wrap

    return _wrap(n, np.eye(2 ** n, dtype=complex) / 2 ** n)


def test_x_projection_ghz():
    xp = x_projection(ghz(3))
    assert xp.a[0] == pytest.approx(0.5, abs=1e-15)
    assert xp.b[0] == pytest.approx(0.5, abs=1e-15)
    assert xp.r[0] == pytest.approx(0.5, abs=1e-15)
    assert np.abs(xp.a[1:]).max() < 1e-15
    assert np.abs(xp.b[1:]).max() < 1e-15
    assert np.abs(xp.r[1:]).max() < 1e-15


def test_x_projection_maximally_mixed():
    xp = x_projection(maximally_mixed(2))
    assert np.allclose(xp.a, [0.25, 0.25])
    assert np.allclose(xp.b, [0.25, 0.25])
    assert np.allclose(xp.r, [0.0, 0.0])
    assert np.allclose(xp.phi, [0.0, 0.0])  # zero entries carry zero phase


def test_x_projection_dicke2_fractions():
    xp = x_projection(dicke_steady_state(DickeParams(2, 1.0)))
    assert np.allclose(xp.a, [1 / 12, 2 / 12], atol=1e-14)
    assert np.allclose(xp.b, [7 / 12, 2 / 12], atol=1e-14)
    assert np.allclose(xp.r, [2 / 12, 1 / 12], atol=1e-14)


def test_x_projection_is_valid_for_x_inputs():
    # principal 2x2 minors of a PSD matrix keep r <= sqrt(a b), so the
    # projection of a bona fide density matrix is always a valid X state
    assert x_projection(ghz(3)).is_valid_x_state()
    assert x_projection(maximally_mixed(3)).is_valid_x_state()
    assert x_projection(dicke_steady_state(DickeParams(2, 1.0))).is_valid_x_state()
    # hand-built parameters can violate the coherence cap; the formula
    # still accepts them (relaxed preconditions for projected inputs)
    bad = XParams(n_qubits=2, a=np.array([0.3, 0.2]), b=np.array([0.3, 0.2]),
                  r=np.array([0.4, 0.0]), phi=np.zeros(2))
    assert not bad.is_valid_x_state()
    assert x_concurrence(bad) == pytest.approx(2 * (0.4 - 0.2), abs=1e-15)


def test_x_matrix_round_trip_iff_penalty_zero():
    for rho in [ghz(3), maximally_mixed(2), diagonal_symmetric(tau_populations(2, 0.4))]:
        assert penalty_f(rho) == 0.0
        assert np.abs(x_matrix(x_projection(rho)) - rho.mat).max() < 1e-12
    rho = dicke_steady_state(DickeParams(2, 1.0))
    assert penalty_f(rho) > 0.0
    assert np.abs(x_matrix(x_projection(rho)) - rho.mat).max() > 1e-3


def test_x_concurrence_ghz():
    assert x_concurrence(x_projection(ghz(3))) == 1.0


def test_x_concurrence_maximally_mixed():
    assert x_concurrence(x_projection(maximally_mixed(3))) == 0.0


def test_x_concurrence_dicke2_closed_form():
    gamma = 2.0
    rho = dicke_steady_state(DickeParams(2, gamma))
    d2 = 4 * (1 + gamma ** 2 + gamma ** 4)
    assert x_concurrence(x_projection(rho)) == pytest.approx(2 * (gamma ** 2 - 1) / d2, abs=1e-14)
    assert 2 * (gamma ** 2 - 1) / d2 == pytest.approx(1 / 14)


def test_x_concurrence_pair_relabeling_invariance():
    rng = np.random.default_rng(0)
    xp = x_projection(random_density_matrix(3, 8, seed=1))
    perm = rng.permutation(xp.n_pairs)
    shuffled = XParams(
        n_qubits=xp.n_qubits, a=xp.a[perm], b=xp.b[perm], r=xp.r[perm], phi=xp.phi[perm]
    )
    assert x_concurrence(shuffled) == pytest.approx(x_concurrence(xp), abs=1e-15)


def test_x_concurrence_in_unit_interval_for_valid_x_states():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = 2 ** int(rng.integers(1, 4))
        a = rng.random(n)
        b = rng.random(n)
        scale = a.sum() + b.sum()
        a, b = a / scale, b / scale
        r = rng.random(n) * np.sqrt(a * b)
        xp = XParams(n_qubits=int(np.log2(n)) + 1, a=a, b=b, r=r, phi=np.zeros(n))
        assert xp.is_valid_x_state()
        assert 0.0 <= x_concurrence(xp) <= 1.0


def test_penalty_diagonal_symmetric_three_qubits():
    params = tau_populations(3, 0.3)
    p = params.populations
    assert penalty_f(diagonal_symmetric(params)) == pytest.approx((p[1] ** 2 + p[2] ** 2) / 3, abs=1e-14)


def test_penalty_dicke2():
    gamma = 1.0
    rho = dicke_steady_state(DickeParams(2, gamma))
    d2 = 4 * (1 + gamma ** 2 + gamma ** 4)
    expected = (2 * gamma ** 2 + 2 * gamma ** 2 * (1 + 2 * gamma ** 2) ** 2) / d2 ** 2
    assert penalty_f(rho) == pytest.approx(expected, abs=1e-14)
    assert expected == pytest.approx(20 / 144)


def test_penalty_nonnegative_and_diagonal_phase_invariant():
    rng = np.random.default_rng(4)
    for rho in random_states({2: 5, 3: 5}, seed0=40):
        base = penalty_f(rho)
        assert base >= 0.0
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, rho.dim))
        conjugated = (phases[:, None] * rho.mat) * phases.conj()[None, :]
        from gmx.xform import penalty_from_matrix

        assert penalty_from_matrix(conjugated) == pytest.approx(base, abs=1e-14)


def test_gm_lower_bound_trivial_for_driven_states():
    for n in (3, 4):
        for gamma in np.linspace(0.0, 10.0, 20):
            rho = dicke_steady_state(DickeParams(n, float(gamma)))
            assert gm_lower_bound_x(rho) == 0.0


def test_gm_lower_bound_ghz4():
    assert gm_lower_bound_x(ghz(4)) == 1.0
