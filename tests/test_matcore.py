from functools import reduce

import numpy as np
import pytest

from gmx.matcore import HERM_TOL, hermitize, kron, kron_all, psd_sqrt
from helpers import loop_kron

I2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_hermitian(rng, dim):
    return hermitize(random_complex(rng, (dim, dim)))


def test_kron_identity():
    assert np.array_equal(kron(I2, I2), np.eye(4))


def test_kron_diagonal():
    assert np.array_equal(kron(SZ, SZ), np.diag([1, -1, -1, 1]).astype(complex))


def test_kron_matches_entrywise_oracle():
    rng = np.random.default_rng(1)
    for _ in range(5):
        a = random_complex(rng, (2, 2))
        b = random_complex(rng, (2, 2))
        assert np.abs(kron(a, b) - loop_kron(a, b)).max() < 1e-15


def test_kron_associativity():
    rng = np.random.default_rng(2)
    for _ in range(5):
        a, b, c = (random_complex(rng, (2, 2)) for _ in range(3))
        left = kron(kron(a, b), c)
        right = kron(a, kron(b, c))
        assert np.abs(left - right).max() < 1e-12


def test_kron_all_order():
    rng = np.random.default_rng(3)
    a, b, c = (random_complex(rng, (2, 2)) for _ in range(3))
    assert np.abs(kron_all([a, b, c]) - kron(a, kron(b, c))).max() < 1e-14


@pytest.mark.parametrize("count", range(1, 9))
def test_kron_all_equals_np_kron_chain_bit_for_bit(count):
    rng = np.random.default_rng([10, count])
    factors = [random_complex(rng, (2, 2)) for _ in range(count)]
    expected = reduce(np.kron, factors)
    got = kron_all(factors)
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


def test_kron_all_empty_product_is_one_by_one_identity():
    assert np.array_equal(kron_all([]), np.eye(1))
    assert np.array_equal(kron_all(np.empty((0, 3, 2, 2))), np.eye(1))


@pytest.mark.parametrize("count", range(1, 9))
def test_kron_all_of_stacked_factors_equals_each_np_kron_chain_bit_for_bit(count):
    rng = np.random.default_rng([11, count])
    stack = random_complex(rng, (5, count, 2, 2))  # five sequences of `count` factors
    got = kron_all(stack.swapaxes(0, 1))  # factor j of every sequence at once
    assert got.shape == (5, 2 ** count, 2 ** count)
    for product, factors in zip(got, stack):
        assert product.tobytes() == reduce(np.kron, factors).tobytes()


def test_psd_sqrt_rejects_non_hermitian():
    bad = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(ValueError, match="not Hermitian"):
        psd_sqrt(bad)
    # Within HERM_TOL it is accepted, and the root is that of the Hermitian part.
    almost = np.eye(2) + 0.5 * HERM_TOL * np.array([[0, 1j], [0, 0]])
    s = psd_sqrt(almost)
    assert np.abs(s @ s - hermitize(almost)).max() < 1e-15


def test_psd_sqrt_identity_and_diagonal():
    assert np.abs(psd_sqrt(np.eye(4, dtype=complex)) - np.eye(4)).max() < 1e-14
    assert np.abs(psd_sqrt(np.diag([4.0, 9.0]).astype(complex)) - np.diag([2.0, 3.0])).max() < 1e-12


def test_psd_sqrt_squares_back_and_commutes():
    rng = np.random.default_rng(5)
    g = random_complex(rng, (8, 8))
    a = g @ g.conj().T
    s = psd_sqrt(a)
    assert np.abs(s @ s - a).max() < 1e-9
    assert np.abs(s @ a - a @ s).max() < 1e-9
    assert np.abs(s - s.conj().T).max() < 1e-12


def test_psd_sqrt_clamps_small_negative():
    a = np.diag([1.0, -5e-11]).astype(complex)
    s = psd_sqrt(a)
    assert s[1, 1].real == 0.0


def test_psd_sqrt_rejects_indefinite():
    with pytest.raises(ValueError, match="not PSD"):
        psd_sqrt(np.diag([1.0, -1e-6]).astype(complex))
