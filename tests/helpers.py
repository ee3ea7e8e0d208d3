"""Shared helpers for the test suite."""

from __future__ import annotations

import itertools

import numpy as np

from gmx.phi_scheme import i_phi_from_vector, pair_seeds
from gmx.states import DensityMatrix, random_density_matrix


def ghz(n: int) -> DensityMatrix:
    from gmx.states import _wrap

    mat = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for i in (0, -1):
        for j in (0, -1):
            mat[i, j] = 0.5
    return _wrap(n, mat)


def random_states(counts: dict[int, int], seed0: int = 0):
    """Yield random density matrices of mixed ranks, deterministically."""
    for n, count in counts.items():
        for k in range(count):
            rank = (k % (2 ** n)) + 1
            yield random_density_matrix(n, rank, seed=seed0 + 7919 * n + k)


def pair_seed_witness(rho: DensityMatrix) -> np.ndarray:
    """The product-state witness at each anti-diagonal pair seed of the zero frame, row mu < 2**(n-1)."""
    n = rho.n_qubits
    return i_phi_from_vector(rho.mat, pair_seeds(np.zeros(2 * n)), n)


def circular_distance(angle: float, target: float, period: float) -> float:
    """Distance between two angles on a circle of the given period."""
    d = (angle - target) % period
    return min(d, period - d)


def loop_kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Four-index definition of the Kronecker product, used as an oracle."""
    ra, ca = a.shape
    rb, cb = b.shape
    out = np.zeros((ra * rb, ca * cb), dtype=complex)
    for i in range(ra):
        for j in range(ca):
            for k in range(rb):
                for l in range(cb):
                    out[i * rb + k, j * cb + l] = a[i, j] * b[k, l]
    return out


def qubit_permutation_matrix(n: int, perm: tuple[int, ...]) -> np.ndarray:
    """Permutation matrix sending qubit j to position perm[j] (0-based tuples)."""
    dim = 2 ** n
    p = np.zeros((dim, dim))
    for idx in range(dim):
        bits = [(idx >> (n - 1 - j)) & 1 for j in range(n)]
        new_bits = [0] * n
        for j in range(n):
            new_bits[perm[j]] = bits[j]
        new_idx = sum(b << (n - 1 - j) for j, b in enumerate(new_bits))
        p[new_idx, idx] = 1.0
    return p


def reference_witness(mat: np.ndarray, x: np.ndarray, n: int) -> float:
    """The product-state witness at packed angles ``x``, written out as the phi_scheme docstring defines it.

    Each V and W enters through its first column (cos theta, -sin theta e^{-i phi}), every
    product vector is an ``np.kron`` chain, and the bipartitions come from
    ``itertools.combinations``, with qubit 1 on side A and side B never empty.
    """
    x = np.asarray(x, dtype=float)

    def column(theta, phi):
        return np.array([np.cos(theta), -np.sin(theta) * np.exp(-1j * phi)])

    v = [column(x[q], x[n + q]) for q in range(n)]
    w = [column(x[2 * n + q], x[3 * n + q]) for q in range(n)]

    def product(side_w):
        """kron over qubits of W's column on ``side_w`` and V's elsewhere."""
        vec = np.ones(1, dtype=complex)
        for q in range(n):
            vec = np.kron(vec, w[q] if q in side_w else v[q])
        return vec

    def expectation(vec):
        return np.vdot(vec, mat @ vec).real

    value = abs(np.vdot(product(range(n)), mat @ product(())))
    for size in range(n - 1):
        for rest in itertools.combinations(range(1, n), size):
            side_a = (0, *rest)
            side_b = tuple(q for q in range(n) if q not in side_a)
            # Rounding can leave a zero product a hair below zero.
            value -= np.sqrt(max(expectation(product(side_a)) * expectation(product(side_b)), 0.0))
    return float(value)
