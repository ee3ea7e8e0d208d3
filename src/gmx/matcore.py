"""Dense complex linear algebra for multiqubit operators.

All matrices are plain ``numpy.ndarray`` objects with dtype ``complex128``
and row-major layout.  The routines here are sized for ``2**N x 2**N``
operators with N <= 8, where dense storage and full eigendecompositions
are cheap; nothing in this module tries to exploit sparsity.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

# Tolerance for accepting a matrix as Hermitian (entrywise deviation).
HERM_TOL = 1e-10
# Most negative eigenvalue tolerated before an operator is rejected as
# non-positive-semidefinite.
PSD_TOL = 1e-8


def hermitize(a: np.ndarray) -> np.ndarray:
    """Return the Hermitian part (a + a^dag)/2."""
    return 0.5 * (a + a.conj().T)


def herm_deviation(a: np.ndarray) -> float:
    """Largest entrywise deviation of ``a`` from its conjugate transpose."""
    return float(np.abs(a - a.conj().T).max())


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product ``a (x) b``; output dimensions multiply."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def _kron_pair(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (a.shape[-2] * b.shape[-2], a.shape[-1] * b.shape[-1]))


def kron_all(factors) -> np.ndarray:
    """Left-to-right Kronecker product of a sequence of matrices.

    Each factor may also be a stack ``(..., r, c)`` of matrices; the
    products then come out as a stack too, one per entry, broadcast over
    the leading axes.  Each step is one broadcast product, entry for entry
    what ``np.kron`` computes but without its per-call overhead.  The empty
    product is the 1 x 1 identity.
    """
    return reduce(_kron_pair, factors) if len(factors) else np.eye(1, dtype=complex)


def psd_sqrt(a: np.ndarray) -> np.ndarray:
    """Hermitian square root of a positive-semidefinite matrix.

    ``a`` must be Hermitian to within ``HERM_TOL`` entrywise.  Eigenvalues in
    ``[-PSD_TOL, 0)`` are clamped to zero; anything below raises.  The output
    ``s`` is Hermitian, PSD and satisfies ``s @ s == a`` to about 1e-9.
    """
    a = np.asarray(a, dtype=complex)
    dev = herm_deviation(a)
    if dev > HERM_TOL:
        raise ValueError(f"matrix is not Hermitian: max |a - a^dag| = {dev:.3e} > {HERM_TOL:.1e}")
    w, v = np.linalg.eigh(hermitize(a))
    lo = float(w.min())
    if lo < -PSD_TOL:
        raise ValueError(f"matrix is not PSD: min eigenvalue {lo:.3e} < -{PSD_TOL:.1e}")
    s = np.sqrt(np.clip(w, 0.0, None))
    return hermitize((v * s) @ v.conj().T)
