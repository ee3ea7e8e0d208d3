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
from functools import lru_cache

import numpy as np

from .matcore import kron_all
from .optim import objective
from .states import DensityMatrix, _wrap, check_shape
from .xform import off_x_mask

FD_STEP = 1e-6


def as_angles(x, n_qubits: int, name: str) -> np.ndarray:
    """``x`` as float64 if it is one packed point ``(2N,)`` for ``n_qubits``; else a ValueError naming ``name``."""
    x = np.asarray(x, dtype=float)
    if x.shape != (2 * n_qubits,):
        raise ValueError(f"{name} takes packed angles ({2 * n_qubits},) for {n_qubits} qubits, got shape {x.shape}")
    return x


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


def canonicalize(x) -> np.ndarray:
    """Packed angles ``x`` reduced to theta in [0, pi), phi in [0, 2*pi).

    Shifting any theta by pi only flips the sign of one factor, which
    cancels in rho -> U rho U^dag, so this is an exact symmetry of the
    penalty objective.
    """
    n = np.size(x) // 2
    x = as_angles(x, n, "canonicalize")
    return np.concatenate([np.mod(x[:n], np.pi), np.mod(x[n:], 2 * np.pi)])


def su2(theta: float, phi: float) -> np.ndarray:
    """Two-parameter single-qubit special unitary (determinant 1)."""
    return _factors(np.array([theta, phi], dtype=float), 1)[1][0]


def _factors(x: np.ndarray, n: int) -> tuple[tuple, np.ndarray]:
    """``(cos theta, sin theta, e^{i phi})`` of packed angles ``(..., 2n)``, each ``(..., n)``, and
    the ``(..., n, 2, 2)`` array of the per-qubit ``su2`` factors built from them."""
    c, s, e = np.cos(x[..., :n]), np.sin(x[..., :n]), np.exp(1j * x[..., n:])
    out = np.empty(c.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = out[..., 1, 1] = c
    out[..., 0, 1] = s * e
    out[..., 1, 0] = -s * np.conj(e)
    return (c, s, e), out


def assemble(x, n_qubits: int) -> np.ndarray:
    """Kronecker product of the per-qubit unitaries at packed angles ``x``, qubit 1 leftmost."""
    return kron_all(_factors(as_angles(x, n_qubits, "assemble"), n_qubits)[1])


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
    check_shape(mat, factors.shape[-3])
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


def conjugate(rho: DensityMatrix, x) -> DensityMatrix:
    """U rho U^dag for the product unitary at packed angles ``x``."""
    n = rho.n_qubits
    return _wrap(n, apply_local(rho.mat, _factors(as_angles(x, n, "conjugate"), n)[1]))


def make_penalty_problem(mat: np.ndarray, n_qubits: int):
    """``(fun, grad)`` of the penalty objective on packed angles, through ``optim.objective``.

    ``fun(x)`` is the off-X squared weight of ``sigma = U(x) mat U(x)^dag``; its pass keeps sigma and trig.
    ``grad(x)`` is the exact gradient ``2 Re tr(B_j red_j)``, with ``B_j = (d u_j) u_j^dag`` and
    ``red_j`` the 2x2 reduction onto qubit j of ``sigma G``, ``G = mask o sigma``: two matrix
    products reduce ``sigma G`` onto the halves of ``apply_local``'s split, and one index gather per
    half gives the N reductions.  Every step treats the rows alike and sums in a fixed order, so a
    row's bits do not depend on its stack.  Sigma and the work arrays live in three buffers grown to
    the largest stack seen: at N >= 7, fresh arrays per call made stacks slower than a loop (page faults).
    """
    check_shape(mat, n_qubits)
    n = n_qubits
    dim = mat.shape[0]
    a, b = _halves(n)
    da, db = 2 ** a, 2 ** b
    mat_h = np.conjugate(mat.T, out=np.empty_like(mat))
    mask = off_x_mask(dim)
    upper = np.flatnonzero(np.triu(mask))  # the strict upper triangle off the X
    table_a, table_b = _trace_table(a), _trace_table(b)
    buffers = [np.empty((0, dim, dim), dtype=complex)] * 3  # sigma, work, gc
    spaces: dict[tuple, tuple] = {}  # stack shape -> buffer views; uncached, lone X runs took 1.04x as long

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

    # A lone point keeps its own shapes: as a stack of one, value+gradient pairs took 1.09-1.13x as long.
    def values(x: np.ndarray):
        lead = x.shape[:-1]
        sig, work, _, off = space(lead)
        trig, factors = _factors(x, n)
        s = _sandwich(mat_h, factors, sig, work)
        np.take(s.reshape(lead + (-1,)), upper, axis=-1, out=off, mode="clip")  # "raise" would buffer out
        penalty = np.square(off.view(float), out=off.view(float)).sum(-1)
        return (float(penalty) if x.ndim == 1 else penalty), (s, trig)

    def gradients(x: np.ndarray, kept: tuple, rows) -> np.ndarray:
        lead = x.shape[:-1]
        s, (c, sn, e) = kept
        if rows is not None:
            s = s.reshape(-1, dim, dim)[rows].reshape(lead + (dim, dim))
            c, sn, e = (t.reshape(-1, n)[rows].reshape(lead + (n,)) for t in (c, sn, e))
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
        lo, up = e * red[..., 1, 0], np.conj(e) * red[..., 0, 1]
        # B_theta = [[0, e], [-e*, 0]];  B_phi = i sin [[sin, cos e], [cos e*, -sin]]
        dth = lo - up
        dph = 1j * sn * (sn * (red[..., 0, 0] - red[..., 1, 1]) + c * (lo + up))
        return 2.0 * np.concatenate([dth, dph], axis=-1).real

    return objective(2 * n, values, gradients)


def fd_gradient(fun, x: np.ndarray, h: float = FD_STEP) -> np.ndarray:
    """Central finite differences of ``fun`` at ``x``.

    ``fun`` takes a stack ``(k, p)`` and returns one value or one vector per
    row; all 2p shifted points go to it in one call.  Row j is d/dx_j.
    """
    x = np.asarray(x, dtype=float)
    shifts = h * np.eye(x.size)
    values = np.asarray(fun(np.concatenate([x + shifts, x - shifts])))
    return (values[: x.size] - values[x.size:]) / (2.0 * h)
