"""Products of single-qubit unitaries and derivatives of the penalty objective.

Each qubit carries the two-parameter special unitary

    [[cos(theta), sin(theta) e^{i phi}], [-sin(theta) e^{-i phi}, cos(theta)]]

and a full transformation is their Kronecker product with qubit 1 leftmost.
Optimization works on the packed coordinate vector
``x = (theta_1..theta_N, phi_1..phi_N)``; angles are canonicalized only for
reporting.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .matcore import kron_all
from .states import DensityMatrix, _wrap
from .xform import off_x_mask, penalty_from_matrix

FD_STEP = 1e-6


@dataclass(frozen=True)
class LUParams:
    """Angles of a product of single-qubit unitaries, one (theta, phi) per qubit."""

    n_qubits: int
    thetas: np.ndarray
    phis: np.ndarray


def params_to_vector(p: LUParams) -> np.ndarray:
    return np.concatenate([p.thetas, p.phis]).astype(float)


def vector_to_params(n_qubits: int, x: np.ndarray) -> LUParams:
    x = np.asarray(x, dtype=float)
    return LUParams(n_qubits=n_qubits, thetas=x[:n_qubits].copy(), phis=x[n_qubits:].copy())


def angle_sampler(n_qubits: int, n_products: int = 1):
    """Uniform start sampler over ``n_products`` blocks of packed angles.

    Each block draws its thetas on [0, pi), then its phis on [0, 2*pi).
    """

    def sample(rng: np.random.Generator) -> np.ndarray:
        return np.concatenate([
            rng.uniform(0.0, period, n_qubits)
            for _ in range(n_products)
            for period in (np.pi, 2 * np.pi)
        ])

    return sample


def canonicalize(p: LUParams) -> LUParams:
    """Reduce angles to theta in [0, pi), phi in [0, 2*pi).

    Shifting any theta by pi only flips the sign of one factor, which
    cancels in rho -> U rho U^dag, so this is an exact symmetry of the
    penalty objective.
    """
    return LUParams(
        n_qubits=p.n_qubits,
        thetas=np.mod(p.thetas, np.pi),
        phis=np.mod(p.phis, 2 * np.pi),
    )


def su2(theta: float, phi: float) -> np.ndarray:
    """Two-parameter single-qubit special unitary (determinant 1)."""
    return _factors(np.array([theta, phi], dtype=float), 1)[0]


def _factors(x: np.ndarray, n: int) -> np.ndarray:
    """(n, 2, 2) array of the per-qubit ``su2`` factors of packed angles."""
    c, s, e = np.cos(x[:n]), np.sin(x[:n]), np.exp(1j * x[n:])
    return np.stack([c, s * e, -s * np.conj(e), c], axis=-1).reshape(n, 2, 2)


def assemble(p: LUParams) -> np.ndarray:
    """Kronecker product of the per-qubit unitaries, qubit 1 leftmost."""
    return kron_all(_factors(params_to_vector(p), p.n_qubits))


def _halves(n: int) -> tuple[int, int]:
    """Qubit counts of the two halves U = U_A (x) U_B: the first ceil(n/2) and the rest."""
    a = (n + 1) // 2
    return a, n - a


def apply_local(mat: np.ndarray, factors) -> np.ndarray:
    """U mat U^dag for U the Kronecker product of 2x2 ``factors``, qubit 1 leftmost.

    U splits as U_A (x) U_B over the first ceil(N/2) qubits and the rest.
    The rows take two matrix products, U_A on the leading index and U_B,
    batched over U_A's rows, on the next; the columns go the same way
    through the conjugate transpose, which beats contracting them in place.
    """
    dim = mat.shape[0]
    a, _ = _halves(len(factors))
    u_a, u_b = kron_all(factors[:a]), kron_all(factors[a:])
    out = mat
    for _ in range(2):
        out = u_a @ out.reshape(u_a.shape[0], -1)
        out = (u_b @ out.reshape(u_a.shape[0], u_b.shape[0], dim)).reshape(dim, dim)
        out = out.conj().T
    return np.ascontiguousarray(out)


@lru_cache(maxsize=None)
def _trace_table(m: int) -> np.ndarray:
    """Flat indices into a 2**m x 2**m matrix K whose sums are its qubit reductions.

    ``K.ravel()[table].sum(-1)[j, b, c]`` is the sum of ``K[r, s]`` over the
    index pairs in which qubit j reads b in ``r`` and c in ``s`` and every
    other qubit agrees; shape ``(m, 2, 2, 2**(m-1))``.
    """
    d = 2 ** m
    idx = np.arange(d).reshape((2,) * m)
    table = np.empty((m, 2, 2, d // 2), dtype=np.intp)
    for j in range(m):
        rows = np.moveaxis(idx, j, 0).reshape(2, -1)  # rows[b]: qubit j reads b
        table[j] = rows[:, None, :] * d + rows[None, :, :]
    table.flags.writeable = False
    return table


def conjugate(rho: DensityMatrix, p: LUParams) -> DensityMatrix:
    """U rho U^dag for the product unitary described by ``p``."""
    if p.n_qubits != rho.n_qubits:
        raise ValueError(f"parameter count for {p.n_qubits} qubits, state has {rho.n_qubits}")
    return _wrap(rho.n_qubits, apply_local(rho.mat, _factors(params_to_vector(p), p.n_qubits)))


def make_penalty_problem(mat: np.ndarray, n_qubits: int):
    """Return (fun, grad) closures for the penalty objective on packed angles.

    ``fun(x)`` is the off-X squared weight of ``sigma = U(x) mat U(x)^dag``;
    ``grad(x)`` its exact gradient ``2 Re tr(B_j red_j)``, with
    ``B_j = (d u_j) u_j^dag`` and ``red_j`` the 2x2 reduction onto qubit j
    of ``sigma G``, ``G = mask o sigma``.  The N reductions come from two
    matrix products, the reductions of ``sigma G`` onto the halves of
    ``apply_local``'s split, and one index gather per half.  Both accept a
    stack of points, shape ``(k, 2N)``, and loop over its rows.  The
    problem keeps sigma for every point of its last value call, so a
    gradient at any of those points reuses it.
    """
    n = n_qubits
    a, b = _halves(n)
    da, db = 2 ** a, 2 ** b
    mask = off_x_mask(mat.shape[0])
    cache: dict[bytes, np.ndarray] = {}

    def sigma(x: np.ndarray) -> np.ndarray:
        s = cache.get(x.tobytes())
        return apply_local(mat, _factors(x, n)) if s is None else s

    def fun(x: np.ndarray):
        x = np.asarray(x, dtype=float)
        rows = x.reshape(-1, 2 * n)
        sigmas = {r.tobytes(): sigma(r) for r in rows}
        cache.clear()
        cache.update(sigmas)
        values = [penalty_from_matrix(sigmas[r.tobytes()]) for r in rows]
        return values[0] if x.ndim == 1 else np.array(values)

    def grad(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim > 1:
            return np.array([grad(r) for r in x])
        s = sigma(x)
        gc = mask * s.conj()
        # red[j, b, a] = sum over the other qubits of (sigma G)[(..b..), (..a..)],
        # gathered from k_a = tr_B(sigma G) and k_b = tr_A(sigma G).
        k_a = s.reshape(da, -1) @ gc.reshape(da, -1).T
        k_b = (s.reshape(da, db, -1) @ gc.reshape(da, db, -1).transpose(0, 2, 1)).sum(0)
        red = np.concatenate([
            k_a.ravel()[_trace_table(a)].sum(-1),
            k_b.ravel()[_trace_table(b)].sum(-1),
        ])
        c, sn, e = np.cos(x[:n]), np.sin(x[:n]), np.exp(1j * x[n:])
        lo, up = e * red[:, 1, 0], np.conj(e) * red[:, 0, 1]
        # B_theta = [[0, e], [-e*, 0]];  B_phi = i sin [[sin, cos e], [cos e*, -sin]]
        dth = lo - up
        dph = 1j * sn * (sn * (red[:, 0, 0] - red[:, 1, 1]) + c * (lo + up))
        return 2.0 * np.concatenate([dth, dph]).real

    return fun, grad


def grad_penalty(rho: DensityMatrix, p: LUParams) -> np.ndarray:
    """Gradient of the penalty objective at ``p`` (analytic, 2N components)."""
    _, grad = make_penalty_problem(rho.mat, rho.n_qubits)
    return grad(params_to_vector(p))


def grad_penalty_fd(rho: DensityMatrix, p: LUParams, h: float = FD_STEP) -> np.ndarray:
    """Central finite-difference gradient of the penalty objective."""
    fun, _ = make_penalty_problem(rho.mat, rho.n_qubits)
    return fd_gradient(fun, params_to_vector(p), h)


def fd_gradient(fun, x: np.ndarray, h: float = FD_STEP) -> np.ndarray:
    """Central finite differences of ``fun`` at ``x``.

    ``fun`` takes a stack of points, shape ``(k, p)``, and returns one value
    per row; all 2p shifted points go to it in one call.
    """
    x = np.asarray(x, dtype=float)
    shifts = h * np.eye(x.size)
    values = np.asarray(fun(np.concatenate([x + shifts, x - shifts])))
    return (values[: x.size] - values[x.size:]) / (2.0 * h)
