"""Products of single-qubit unitaries and derivatives of the penalty objective.

Each qubit carries the two-parameter special unitary

    [[cos(theta), sin(theta) e^{i phi}], [-sin(theta) e^{-i phi}, cos(theta)]]

and a full transformation is their Kronecker product with qubit 1 leftmost.
Optimization works on the packed coordinate vector
``x = (theta_1..theta_N, phi_1..phi_N)``; angles are canonicalized only for
reporting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .matcore import kron_all
from .states import DensityMatrix, _wrap
from .xform import off_x_mask

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
    """``(..., n, 2, 2)`` array of the per-qubit ``su2`` factors of packed angles ``(..., 2n)``."""
    c, s, e = np.cos(x[..., :n]), np.sin(x[..., :n]), np.exp(1j * x[..., n:])
    out = np.empty(c.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = out[..., 1, 1] = c
    out[..., 0, 1] = s * e
    out[..., 1, 0] = -s * np.conj(e)
    return out


def assemble(p: LUParams) -> np.ndarray:
    """Kronecker product of the per-qubit unitaries, qubit 1 leftmost."""
    return kron_all(_factors(params_to_vector(p), p.n_qubits))


def _halves(n: int) -> tuple[int, int]:
    """Qubit counts of the two halves U = U_A (x) U_B: the first ceil(n/2) and the rest."""
    a = (n + 1) // 2
    return a, n - a


def apply_local(mat: np.ndarray, factors) -> np.ndarray:
    """U mat U^dag for U the Kronecker product of 2x2 ``factors``, qubit 1 leftmost.

    ``factors`` is ``(N, 2, 2)``, or a stack ``(k, N, 2, 2)`` whose rows
    give one product each, ``(k, D, D)`` out.
    """
    factors = np.asarray(factors)
    if factors.ndim not in (3, 4) or factors.shape[-2:] != (2, 2):
        raise ValueError(f"factors must be (N, 2, 2) or (k, N, 2, 2), got shape {factors.shape}")
    shape = factors.shape[:-3] + mat.shape
    mat_h = np.conjugate(mat.T, out=np.empty_like(mat))
    return _sandwich(mat_h, factors, np.empty(shape, dtype=complex), np.empty(shape, dtype=complex))


def _sandwich(mat_h: np.ndarray, factors: np.ndarray, one: np.ndarray, two: np.ndarray) -> np.ndarray:
    """``apply_local`` from ``mat_h = mat^dag``, written into ``one``; ``two`` is scratch.

    U splits as U_A (x) U_B over the first ceil(N/2) qubits and the rest.
    Applying U to the rows of a matrix takes two products, U_A on the
    leading index and U_B, batched over U_A's rows, on the next.  That
    gives U mat^dag, whose conjugate transpose is mat U^dag, and U applied
    to its rows is U mat U^dag.  Every product is batched over the stack,
    one matrix per row, and the two C-contiguous buffers ``one`` and
    ``two``, shaped like the result, take turns holding the steps.
    """
    qubits = factors.swapaxes(0, -3)  # (N, k, 2, 2) for a stack
    dim = mat_h.shape[0]
    lead = qubits.shape[1:-2]
    a, _ = _halves(len(qubits))
    u_a, u_b = kron_all(qubits[:a]), kron_all(qubits[a:])[..., None, :, :]
    da, db = u_a.shape[-1], u_b.shape[-1]
    rows_a, rows_b = lead + (da, db * dim), lead + (da, db, dim)
    np.matmul(u_a, mat_h.reshape(da, db * dim), out=one.reshape(rows_a))
    np.matmul(u_b, one.reshape(rows_b), out=two.reshape(rows_b))
    np.conjugate(two.swapaxes(-1, -2), out=one)
    np.matmul(u_a, one.reshape(rows_a), out=two.reshape(rows_a))
    np.matmul(u_b, two.reshape(rows_b), out=one.reshape(rows_b))
    return one


@lru_cache(maxsize=None)
def _trace_table(m: int) -> np.ndarray:
    """Flat indices into a 2**m x 2**m matrix K whose sums are its qubit reductions.

    ``K.ravel()[table].sum(0)[j, b, c]`` is the sum of ``K[r, s]`` over the
    index pairs in which qubit j reads b in ``r`` and c in ``s`` and every
    other qubit agrees; shape ``(2**(m-1), m, 2, 2)``.
    """
    d = 2 ** m
    idx = np.arange(d).reshape((2,) * m)
    table = np.empty((m, 2, 2, d // 2), dtype=np.intp)
    for j in range(m):
        rows = np.moveaxis(idx, j, 0).reshape(2, -1)  # rows[b]: qubit j reads b
        table[j] = rows[:, None, :] * d + rows[None, :, :]
    table = np.ascontiguousarray(np.moveaxis(table, -1, 0))
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
    point ``(2N,)`` or a stack ``(k, 2N)`` and work on the whole stack at
    once; every step treats the rows alike and sums in a fixed order, so a
    row's bits do not depend on the stack it sits in.  The problem keeps
    sigma for every row of its last value call.  A gradient gathers its
    rows from there; if any is missing (only direct callers send such
    stacks), ``apply_local`` builds every row's sigma.  Sigma and the
    stack-sized work arrays live in three buffers that the problem keeps
    and grows to the largest stack it has seen: at N >= 7, fresh arrays of
    that size on every call made stacks slower than a loop over their rows
    (page faults).
    """
    n = n_qubits
    dim = mat.shape[0]
    a, b = _halves(n)
    da, db = 2 ** a, 2 ** b
    mat_h = np.conjugate(mat.T, out=np.empty_like(mat))
    mask = off_x_mask(dim)
    upper = np.flatnonzero(np.triu(mask))  # the strict upper triangle off the X
    table_a, table_b = _trace_table(a), _trace_table(b)
    width = 16 * n  # bytes of one row of float64 angles
    buffers = [np.empty((0, dim, dim), dtype=complex)] * 3  # sigma, work, gc
    spaces: dict[tuple, tuple] = {}  # stack shape -> views of the buffers and of `off` in work
    kept_key, kept_sigma = b"", buffers[0]  # the last value call's points and their sigmas

    def space(lead: tuple) -> tuple:
        views = spaces.get(lead)
        if views is None:
            count = math.prod(lead)
            if len(buffers[0]) < count:
                buffers[:] = [np.empty((count, dim, dim), dtype=complex) for _ in range(3)]
                spaces.clear()
            sig, work, gc = (buf[:count].reshape(lead + (dim, dim)) for buf in buffers)
            off = work.reshape(-1)[:count * upper.size].reshape(lead + upper.shape)
            views = spaces[lead] = sig, work, gc, off
        return views

    def points(x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim not in (1, 2) or x.shape[-1] != 2 * n:
            raise ValueError(f"expected a point ({2 * n},) or a stack (k, {2 * n}), got shape {x.shape}")
        return x

    def fun(x: np.ndarray):
        nonlocal kept_key, kept_sigma
        x = points(x)
        lead = x.shape[:-1]
        sig, work, _, off = space(lead)
        kept_key = b""  # sig is rewritten below
        s = _sandwich(mat_h, _factors(x, n), sig, work)
        kept_key, kept_sigma = x.tobytes(), s
        np.take(s.reshape(lead + (-1,)), upper, axis=-1, out=off, mode="clip")  # "raise" would buffer out
        values = np.square(off.view(float), out=off.view(float)).sum(-1)
        return float(values) if x.ndim == 1 else values

    def sigma(x: np.ndarray, lead: tuple) -> np.ndarray:
        key = x.tobytes()
        if key == kept_key:
            return kept_sigma.reshape(lead + (dim, dim))
        index = {kept_key[i:i + width]: j for j, i in enumerate(range(0, len(kept_key), width))}
        pos = [index.get(key[i:i + width], -1) for i in range(0, len(key), width)]
        if -1 in pos:  # only direct callers send points the value call did not see
            return apply_local(mat, _factors(x, n))
        s = space((len(pos),))[1]
        np.take(kept_sigma.reshape(-1, dim, dim), pos, axis=0, out=s, mode="clip")
        return s.reshape(lead + (dim, dim))

    def grad(x: np.ndarray) -> np.ndarray:
        x = points(x)
        lead = x.shape[:-1]
        s = sigma(x, lead)
        gc = np.conjugate(s, out=space(lead)[2])
        gc *= mask
        # red[..., j, b, a] = sum over the other qubits of (sigma G)[(..b..), (..a..)],
        # gathered from k_a = tr_B(sigma G) and k_b = tr_A(sigma G).
        k_a = s.reshape(lead + (da, -1)) @ gc.reshape(lead + (da, -1)).swapaxes(-1, -2)
        k_b = (s.reshape(lead + (da, db, dim)) @ gc.reshape(lead + (da, db, dim)).swapaxes(-1, -2)).sum(-3)
        red = np.concatenate([
            np.take(k_a.reshape(lead + (-1,)), table_a, axis=-1).sum(-4),
            np.take(k_b.reshape(lead + (-1,)), table_b, axis=-1).sum(-4),
        ], axis=-3)
        c, sn, e = np.cos(x[..., :n]), np.sin(x[..., :n]), np.exp(1j * x[..., n:])
        lo, up = e * red[..., 1, 0], np.conj(e) * red[..., 0, 1]
        # B_theta = [[0, e], [-e*, 0]];  B_phi = i sin [[sin, cos e], [cos e*, -sin]]
        dth = lo - up
        dph = 1j * sn * (sn * (red[..., 0, 0] - red[..., 1, 1]) + c * (lo + up))
        return 2.0 * np.concatenate([dth, dph], axis=-1).real

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

    ``fun`` takes a stack ``(k, p)`` and returns one value or one vector per
    row; all 2p shifted points go to it in one call.  Row j is d/dx_j.
    """
    x = np.asarray(x, dtype=float)
    shifts = h * np.eye(x.size)
    values = np.asarray(fun(np.concatenate([x + shifts, x - shifts])))
    return (values[: x.size] - values[x.size:]) / (2.0 * h)
