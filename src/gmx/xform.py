"""X-structure extraction and the exact X-state GM-concurrence formula.

An N-qubit X-density matrix has nonzero entries only on the main and
anti-diagonals.  Pair ``k`` (1-based, k = 1..2**(N-1)) couples row ``k``
with row ``2**N + 1 - k``; in 0-based indices the pair is
``(k-1, 2**N - k)``.  Applying the X formulas to the projection of a
general density matrix yields a certified lower bound on its
GM-concurrence.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .states import DensityMatrix

# Phase of an anti-diagonal entry is reported as 0 below this magnitude.
PHASE_EPS = 1e-14


@dataclass(frozen=True)
class XParams:
    """The (a_k, b_k, r_k, phi_k) quadruples of an X-form matrix."""

    n_qubits: int
    a: np.ndarray
    b: np.ndarray
    r: np.ndarray
    phi: np.ndarray

    @property
    def n_pairs(self) -> int:
        return 2 ** (self.n_qubits - 1)

    def is_valid_x_state(self) -> bool:
        """True when the parameters define a bona fide X-density matrix, to within 1e-10."""
        tol = 1e-10
        if np.any(self.a < -tol) or np.any(self.b < -tol) or np.any(self.r < -tol):
            return False
        if abs(self.a.sum() + self.b.sum() - 1.0) > tol:
            return False
        return bool(np.all(self.r <= np.sqrt(np.clip(self.a * self.b, 0.0, None)) + tol))


def x_projection(rho: DensityMatrix) -> XParams:
    """Read the main- and anti-diagonal data off a density matrix.

    No renormalization is performed and no X-validity is enforced: for a
    non-X input the result may violate ``r_k <= sqrt(a_k b_k)``; the
    concurrence formula below accepts that on purpose.
    """
    m = rho.mat
    dim = m.shape[0]
    n = dim // 2
    idx = np.arange(n)
    a = m[idx, idx].real.copy()
    b = m[dim - 1 - idx, dim - 1 - idx].real.copy()
    corner = m[idx, dim - 1 - idx]
    r = np.abs(corner)
    phi = np.where(r < PHASE_EPS, 0.0, np.angle(corner)) % (2 * np.pi)
    return XParams(n_qubits=rho.n_qubits, a=a, b=b, r=r, phi=phi)


def x_matrix(x: XParams) -> np.ndarray:
    """Rebuild the X-form matrix described by ``x``."""
    dim = 2 * x.n_pairs
    m = np.zeros((dim, dim), dtype=complex)
    idx = np.arange(x.n_pairs)
    m[idx, idx] = x.a
    m[dim - 1 - idx, dim - 1 - idx] = x.b
    corner = x.r * np.exp(1j * x.phi)
    m[idx, dim - 1 - idx] = corner
    m[dim - 1 - idx, idx] = corner.conj()
    return m


def x_concurrence(x: XParams) -> float:
    """Exact GM-concurrence of an X-state.

    Returns ``max[0, 2 max_k (r_k - sum_{j != k} sqrt(a_j b_j))]``.  The
    formula is evaluated verbatim for projected non-X inputs as well, in
    which case it is a lower bound rather than an exact value.
    """
    s = np.sqrt(np.clip(x.a * x.b, 0.0, None))
    total = s.sum()
    best = float(np.max(x.r - (total - s)))
    return max(0.0, 2.0 * best)


@lru_cache(maxsize=None)
def _upper_off_x_mask(dim: int) -> np.ndarray:
    i, j = np.indices((dim, dim))
    mask = (j > i) & (i + j != dim - 1)
    mask.flags.writeable = False
    return mask


@lru_cache(maxsize=None)
def off_x_mask(dim: int) -> np.ndarray:
    """Symmetric 0/1 mask selecting every off-X entry (both triangles)."""
    upper = _upper_off_x_mask(dim)
    mask = (upper | upper.T).astype(float)
    mask.flags.writeable = False
    return mask


def penalty_from_matrix(mat: np.ndarray) -> float:
    """Sum of |entry|^2 over the strict upper triangle excluding the anti-diagonal."""
    return float(np.sum(np.abs(mat[_upper_off_x_mask(mat.shape[0])]) ** 2))


def penalty_f(rho: DensityMatrix) -> float:
    """Squared off-X weight of a density matrix; zero iff it is X-form."""
    return penalty_from_matrix(rho.mat)


def gm_lower_bound_x(rho: DensityMatrix) -> float:
    """Certified GM-concurrence lower bound from the X projection of ``rho``."""
    return x_concurrence(x_projection(rho))
