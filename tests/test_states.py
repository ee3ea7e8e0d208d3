import itertools
import json
import math

import numpy as np
import pytest

from gmx.golden import dicke_norm_closed, dicke_reference, ds_reference
from gmx.states import (
    DensityMatrix,
    DiagSymParams,
    DickeParams,
    collective_ops,
    dicke_normalization,
    dicke_state,
    dicke_steady_state,
    diagonal_symmetric,
    from_json_dict,
    random_density_matrix,
    tau_populations,
    to_json_dict,
)
from helpers import qubit_permutation_matrix


def test_dicke_state_two_qubits():
    v = dicke_state(2, 1)
    assert np.allclose(v, [0, 1 / np.sqrt(2), 1 / np.sqrt(2), 0], atol=1e-15)


def test_dicke_state_w_state():
    v = dicke_state(3, 1)
    expected = np.zeros(8)
    expected[[1, 2, 4]] = 1 / np.sqrt(3)
    assert np.allclose(v, expected, atol=1e-15)


def test_dicke_state_weight_two():
    v = dicke_state(4, 2)
    support = np.flatnonzero(np.abs(v) > 0)
    assert [bin(i).count("1") for i in support] == [2] * 6
    assert np.allclose(np.abs(v[support]), 1 / np.sqrt(6), atol=1e-15)


def test_dicke_state_range_check():
    with pytest.raises(ValueError):
        dicke_state(3, 4)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_diagonal_symmetric_matches_reference_tables(n):
    rng = np.random.default_rng(10 + n)
    for _ in range(5):
        p = rng.dirichlet(np.ones(n + 1))
        rho = diagonal_symmetric(DiagSymParams(n, p))
        rho.validate()
        assert np.abs(rho.mat - ds_reference(n, p)).max() < 1e-12


def test_diagonal_symmetric_rejects_bad_populations():
    with pytest.raises(ValueError, match="sum"):
        diagonal_symmetric(DiagSymParams(2, np.array([0.5, 0.4, 0.2])))
    # Every comparison with NaN is False: unchecked, this built an all-NaN matrix.
    with pytest.raises(ValueError, match="finite"):
        diagonal_symmetric(DiagSymParams(2, np.array([np.nan, 0.5, 0.5])))


def test_diagonal_symmetric_permutation_symmetry():
    rho = diagonal_symmetric(tau_populations(3, 0.37)).mat
    for perm in itertools.permutations(range(3)):
        p = qubit_permutation_matrix(3, perm)
        assert np.abs(p @ rho - rho @ p).max() < 1e-12


def test_tau_populations_endpoints():
    p0 = tau_populations(4, 0.0).populations
    assert p0[2] == 1.0 and p0.sum() == 1.0 and np.count_nonzero(p0) == 1
    p1 = tau_populations(4, 1.0).populations
    assert p1[3] == 1.0 and np.count_nonzero(p1) == 1


def test_tau_populations_two_qubits_algebra():
    for tau in (0.0, 0.2, 0.5, 0.8, 1.0):
        p = tau_populations(2, tau).populations
        assert abs(p[1] - (tau - 1) ** 2) < 1e-15
        assert abs(p[2] - tau ** 2) < 1e-15
        assert abs(p[0] - 2 * tau * (1 - tau)) < 1e-15
        assert abs(p.sum() - 1.0) < 1e-12


def test_tau_populations_range_checks():
    with pytest.raises(ValueError):
        tau_populations(4, 1.2)
    with pytest.raises(ValueError):
        tau_populations(1, 0.5)


def test_collective_ops_single_qubit():
    jp, jm = collective_ops(1)
    assert np.array_equal(jp, np.array([[0, 1], [0, 0]], dtype=complex))
    assert np.array_equal(jm, jp.conj().T)


def test_collective_ops_two_qubits():
    # |0> is the excited level (sigma_+ = |0><1|), fixed by the golden
    # steady-state matrices and by [J_+, J_-] = 2 J_z; raising the
    # all-ground state |11> populates |01> and |10> with coefficient 1.
    jp, jm = collective_ops(2)
    assert np.allclose(jp @ np.eye(4)[:, 3], [0, 1, 1, 0], atol=1e-15)
    assert np.allclose(jm @ np.eye(4)[:, 0], [0, 1, 1, 0], atol=1e-15)
    assert jp @ np.eye(4)[:, 0] == pytest.approx(np.zeros(4))


def test_collective_ops_commutator():
    n = 3
    jp, jm = collective_ops(n)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    jz = np.zeros((8, 8), dtype=complex)
    for ell in range(1, n + 1):
        jz += np.kron(np.kron(np.eye(2 ** (ell - 1)), sz / 2), np.eye(2 ** (n - ell)))
    comm = jp @ jm - jm @ jp
    assert np.abs(comm - 2 * jz).max() < 1e-12


def test_dicke_steady_state_two_qubit_explicit():
    rho = dicke_steady_state(DickeParams(2, 1.0))
    lower = np.array([
        [1, 0, 0, 0],
        [1j, 2, 0, 0],
        [1j, 1, 2, 0],
        [-2, 3j, 3j, 7],
    ], dtype=complex) / 12.0
    full = np.tril(lower) + np.tril(lower, -1).conj().T
    assert np.abs(rho.mat - full).max() < 1e-14


def test_dicke_steady_state_gamma_zero_is_maximally_mixed():
    rho = dicke_steady_state(DickeParams(2, 0.0))
    assert np.abs(rho.mat - np.eye(4) / 4).max() < 1e-15


@pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
def test_dicke_steady_state_three_qubits_matches_reference(gamma):
    rho = dicke_steady_state(DickeParams(3, gamma))
    assert np.abs(rho.mat - dicke_reference(3, gamma)).max() < 1e-12


@pytest.mark.parametrize("n", [2, 3, 4])
def test_dicke_normalization_closed_forms(n):
    for gamma in (0.1, 0.5, 1.0, 1.652, 3.0):
        dn = dicke_norm_closed(n, gamma)
        assert abs(dicke_normalization(n, gamma) - dn) / dn < 1e-12


def test_dicke_steady_state_symbolic_entries():
    for gamma in (0.1, 0.7, 1.0, 1.652, 3.0):
        rho = dicke_steady_state(DickeParams(2, gamma)).mat
        d2 = dicke_norm_closed(2, gamma)
        assert abs(rho[1, 0] - 1j * gamma / d2) < 1e-14
        assert abs(rho[3, 0] - (-2 * gamma ** 2) / d2) < 1e-14
        assert abs(rho[3, 3] - (1 + 2 * gamma ** 2 + 4 * gamma ** 4) / d2) < 1e-14


def test_dicke_steady_state_rejects_negative_gamma():
    with pytest.raises(ValueError):
        dicke_steady_state(DickeParams(2, -0.5))


def test_random_density_matrix_invariants():
    rho = random_density_matrix(2, 4, seed=11)
    rho.validate()
    assert np.linalg.matrix_rank(rho.mat) == 4


def test_random_density_matrix_rank_one_is_pure():
    rho = random_density_matrix(3, 1, seed=12)
    assert abs(np.trace(rho.mat @ rho.mat).real - 1.0) < 1e-12


def test_random_density_matrix_deterministic():
    a = random_density_matrix(3, 5, seed=99)
    b = random_density_matrix(3, 5, seed=99)
    assert np.array_equal(a.mat, b.mat)


def test_random_density_matrix_rank_check():
    with pytest.raises(ValueError):
        random_density_matrix(2, 5, seed=0)


def test_factories_satisfy_density_matrix_invariants():
    states = [
        diagonal_symmetric(tau_populations(4, 0.3)),
        dicke_steady_state(DickeParams(3, 1.3)),
        random_density_matrix(4, 7, seed=5),
    ]
    for rho in states:
        rho.validate()


def test_json_round_trip():
    rho = dicke_steady_state(DickeParams(2, 1.4))
    doc = json.loads(json.dumps(to_json_dict(rho)))
    back = from_json_dict(doc)
    assert back.n_qubits == 2
    assert np.abs(back.mat - rho.mat).max() < 1e-15


def test_json_rejects_bad_shape_and_non_hermitian():
    with pytest.raises(ValueError, match="shape"):
        from_json_dict({"n_qubits": 2, "re": [[1.0]], "im": [[0.0]]})
    # Broadcast together, either imaginary part would load the maximally mixed state.
    mixed = (np.eye(4) / 4).tolist()
    for im, shape in (([[0, 0, 0, 0]], r"\(1, 4\)"), (0, r"\(\)")):
        with pytest.raises(ValueError, match=rf"re has shape \(4, 4\) but im has shape {shape}"):
            from_json_dict({"n_qubits": 2, "re": mixed, "im": im})
    bad = {
        "n_qubits": 1,
        "re": [[1.0, 0.5], [0.0, 0.0]],
        "im": [[0.0, 0.0], [0.0, 0.0]],
    }
    with pytest.raises(ValueError, match="Hermitian"):
        from_json_dict(bad)


def test_json_rejects_missing_keys():
    doc = to_json_dict(dicke_steady_state(DickeParams(2, 1.4)))
    for key in ("n_qubits", "re", "im"):
        partial = {k: v for k, v in doc.items() if k != key}
        with pytest.raises(ValueError, match=key):
            from_json_dict(partial)


def test_json_rejects_malformed_documents():
    doc = to_json_dict(dicke_steady_state(DickeParams(2, 1.4)))
    for bad in (3, [doc], "state", None):
        with pytest.raises(ValueError, match="must be an object"):
            from_json_dict(bad)
    for key, value in (("n_qubits", None), ("n_qubits", [2]), ("re", {"a": 1})):
        with pytest.raises(ValueError, match="malformed"):
            from_json_dict({**doc, key: value})


def test_json_accepts_only_integral_qubit_counts():
    doc = to_json_dict(dicke_steady_state(DickeParams(2, 1.4)))
    # A JSON true is a Python bool, which is an Integral equal to 1.
    for value in (2.7, 2.5, float("nan"), float("inf"), "2", True, False):
        with pytest.raises(ValueError, match="n_qubits must be an integer"):
            from_json_dict({**doc, "n_qubits": value})
    for value in (2, 2.0, np.int64(2)):
        assert from_json_dict({**doc, "n_qubits": value}).n_qubits == 2


def test_validate_rejects_non_finite_entries():
    doc = to_json_dict(dicke_steady_state(DickeParams(2, 1.4)))
    for bad in (float("nan"), float("inf")):
        re = [row[:] for row in doc["re"]]
        re[1][2] = re[2][1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            from_json_dict({**doc, "re": re})
        with pytest.raises(ValueError, match="non-finite"):
            DensityMatrix(2, np.array(re) + 1j * np.array(doc["im"])).validate()


def test_dicke_state_normalization_constant():
    for n, k in [(5, 2), (6, 3)]:
        v = dicke_state(n, k)
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12
        assert np.count_nonzero(v) == math.comb(n, k)
