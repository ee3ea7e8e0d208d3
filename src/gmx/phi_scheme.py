"""GM-concurrence lower bound maximized over product states.

The witnessed quantity for a product state defined by single-qubit
unitaries ``V_1..V_N, W_1..W_N`` is

    I(rho) = |<0| Ubar_0^dag rho U_0 |0>|
             - sum_i sqrt(<0| U_i^dag rho U_i |0> <0| Ubar_i^dag rho Ubar_i |0>)

with ``U_0 = kron(V_n)``, ``Ubar_0 = kron(W_n)`` and, for bipartition i,
``U_i`` using ``W_n`` on the qubits of side A and ``V_n`` elsewhere
(``Ubar_i`` the opposite).  Only the first columns of the product unitaries
ever enter, so everything reduces to matrix-vector work in dimension 2**N.
``max[0, 2 max I]`` lower-bounds the GM-concurrence for every parameter
choice; the maximization is the estimate reported here.

Bipartitions are row indices of the product-vector table (``_choice_table``):
side A of bipartition m holds the qubits whose bit of m is 1 (qubit 1 the
most significant bit), keeping qubit 1 on side A puts m in 2**(N-1) ..
2**N - 2, and m's partner, the row using ``V_n`` on side A, is 2**N - 1 - m.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .heuristic import XHeuristicResult, x_heuristic
from .lugroup import angle_sampler, as_angles, fd_gradient
from .optim import OptimConfig, OptimResult, as_points, multi_start, objective
from .states import DensityMatrix, check_shape


def pair_seeds(frame) -> np.ndarray:
    """Product-state angles reproducing every anti-diagonal pair of the rotated ``frame``, ``(2**(N-1), 4N)``.

    ``frame`` holds the packed angles ``(theta_1..theta_N, phi_1..phi_N)`` of ``U = kron(su2(theta_q,
    phi_q))``.  At row ``mu`` the witnessed quantity equals the X-projection score of pair ``mu`` on
    ``U rho U^dag``, so seeding from these rows transfers any lower bound found by the penalty
    minimization to this scheme exactly; at the zero frame, V sends |0..0> to the basis state ``mu``
    and W to its bitwise complement.  Qubit q's V and W columns are the conjugates of rows ``b_q``
    (its bit of ``mu``) and ``1 - b_q`` of its factor; row r's is the first column of
    ``su2(r pi/2 - theta_q, phi_q)`` up to a phase, which the witness ignores.  The map is affine in
    the frame angles.
    """
    n = np.size(frame) // 2
    thetas, phis = np.split(as_angles(frame, max(n, 2), "pair_seeds"), 2)  # one qubit has no pair
    bits = ((np.arange(2 ** (n - 1))[:, None] >> np.arange(n - 1, -1, -1)) & 1).astype(float)
    phis = np.broadcast_to(phis, bits.shape)
    return np.concatenate([bits * (np.pi / 2) - thetas, phis, (1.0 - bits) * (np.pi / 2) - thetas, phis], axis=1)


def _choice_table(cols: np.ndarray) -> np.ndarray:
    """Row ``m``: kron over qubits of (V column if the qubit's bit of ``m`` is 0 else W column).

    ``cols`` has the shape ``(..., n, 2, 2)`` of the first columns in ``_value_pass``; any leading
    axes are batched.  Bits follow the basis convention (qubit 1 most significant), so row ``m``
    uses W exactly on side A of bipartition ``m`` and row ``2**n - 1 - m`` on side B, the pairs
    being ``m`` in ``2**(n-1) .. 2**n - 2`` (module docstring).  ``matcore.kron_all`` builds
    the same table, but ``c_phi_estimate`` took 1.09x as long with it at N=5 and 1.18x at N=6.
    """
    batch = cols.shape[:-3]
    # The chain starts at 1 times qubit 1's columns: a product by 1 can flip a zero's sign.
    table = cols[..., 0, :, :] * (1 + 0j)
    for j in range(1, cols.shape[-3]):
        # One multiply per value of the new column bit, so that numpy loops along whole rows.
        out = np.empty(batch + (table.shape[-2], 2, table.shape[-1], 2), dtype=complex)
        for e in (0, 1):
            np.multiply(table[..., :, None, :], cols[..., j, None, :, None, e], out=out[..., e])
        table = out.reshape(batch + (2 * table.shape[-2], 2 * table.shape[-1]))
    return table


def _value_pass(mat: np.ndarray, x: np.ndarray, n: int):
    """``i_phi_from_vector`` at ``x``, and per point the terms its gradient reuses: the first
    columns of each qubit's V (row 0) and W (row 1), ``(k, n, 2, 2)``, with the sin, cos and
    ``e^{-i phi}`` they come from, ``T = table^* rho``, the diagonal terms ``d_m``, ``f`` and ``|f|``."""
    # A single point goes through as a stack of one, so that its value is
    # bit for bit the row it would be in any stack.
    angles = x.reshape(-1, 2, 2, n).transpose(0, 3, 1, 2)  # (point, qubit, V or W, theta or phi)
    sin, cos, phase = np.sin(angles[..., 0]), np.cos(angles[..., 0]), np.exp(-1j * angles[..., 1])
    cols = np.stack([cos, -sin * phase], axis=-1)
    table = _choice_table(cols)
    t = table.conj() @ mat
    diag_exp = (t * table).sum(axis=-1).real
    f = (t[..., -1, None, :] @ table[..., 0, :, None])[..., 0, 0]
    # hypot is the modulus Python's abs() takes of one complex number;
    # numpy's vectorized complex abs can round the last bit differently.
    first = np.hypot(f.real, f.imag)
    half = 2 ** (n - 1)
    # Bipartition rows half .. 2**n - 2 times their partners half - 1 .. 1.  The product of
    # the two strided views is a new contiguous array, so each row of it adds up in the
    # order a lone point's does.
    cross = np.sqrt(np.maximum(diag_exp[..., half:-1] * diag_exp[..., half - 1:0:-1], 0.0))
    value = first - cross.sum(axis=-1)
    terms = (cols, sin, cos, phase, t, diag_exp, f, first)
    return (float(value[0]) if x.ndim == 1 else value), terms


def _check_problem(mat: np.ndarray, n: int) -> None:
    """Raise ValueError unless ``mat`` is 2**n x 2**n with ``n >= 2``: one qubit has no bipartition."""
    if n < 2:
        raise ValueError(f"the phi witness needs at least two qubits, got n_qubits={n}")
    check_shape(mat, n)


def i_phi_from_vector(mat: np.ndarray, x: np.ndarray, n: int):
    """The witness at packed angles ``x``; a float, or one per row of a stack ``(k, 4n)``."""
    _check_problem(mat, n)
    return _value_pass(mat, as_points(x, 4 * n), n)[0]


@lru_cache(maxsize=None)
def _row_bits(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(2n, 2**n) arrays: row ``b`` holds qubit ``b mod n``'s bit of every row index, and its complement."""
    bits = np.tile((np.arange(2 ** n) >> (n - 1 - np.arange(n))[:, None]) & 1, (2, 1)).astype(float)
    return bits, 1.0 - bits


def _kink_level(mat: np.ndarray, n: int) -> float:  # see i_phi_gradient
    return 2 ** n * np.finfo(float).eps * abs(np.trace(mat))


def _gradient(terms, n: int, zero: float) -> np.ndarray:
    """``i_phi_gradient``'s rows from the value pass's ``terms``; a row of NaN at each kink.

    One batched ``_choice_table`` pass builds 2n derivative tables: table ``b`` has qubit
    ``b mod n``'s columns replaced by their theta (``b < n``) or phi (``b >= n``) derivatives,
    so its row ``m`` is the derivative of row ``m`` by that angle of V where the qubit's bit of
    ``m`` is 0, else of W.
    """
    cols, sin, cos, phase, t, diag_exp, f, first = terms
    smooth = (first > zero) & (diag_exp[:, 1:-1] > zero).all(axis=-1)
    if not smooth.all():
        # Rare: assemble the smooth rows alone, which leaves them bit for bit as they are.
        g = np.full((len(t), 4 * n), np.nan)
        g[smooth] = _gradient(tuple(a[smooth] for a in terms), n, zero)
        return g
    k = len(t)
    d_cols = np.zeros((k, 2, n, 2, 2), dtype=complex)  # (point, theta or phi, qubit, V or W, entry)
    d_cols[:, 0, ..., 0] = -sin
    d_cols[:, 0, ..., 1] = -cos * phase
    d_cols[:, 1, ..., 1] = -1j * cols[..., 1]
    q = np.arange(n)
    cols_b = np.repeat(cols[:, None], 2 * n, axis=1)
    cols_b.reshape(k, 2, n, n, 2, 2)[:, :, q, q] = d_cols
    dtables = _choice_table(cols_b)
    # d sqrt(d_m d_c) / d d_m = d_c / (2 sqrt(d_m d_c)); rows 0 and 2**n - 1
    # enter no square root.
    half = 2 ** (n - 1)
    d_m, d_c = diag_exp[:, half:-1], diag_exp[:, half - 1:0:-1]
    two_roots = 2.0 * np.sqrt(d_m * d_c)
    weight = np.zeros(diag_exp.shape)
    weight[:, half:-1] = d_c / two_roots
    weight[:, half - 1:0:-1] = d_m / two_roots
    # d d_m = 2 Re sum_j dt_m[j] T[m, j], with T = table^* rho.
    d_cross = 2.0 * np.real(np.einsum("kbmj,kmj->kbm", dtables, t)) * weight[:, None]
    bits, flipped = _row_bits(n)
    # first = |f| with f = t_last^dag rho t_0, and d|f| = Re(conj(f) df) / |f|.
    # V angles move t_0 (row 0): df = T[-1] . dt_0.  W angles move t_last:
    # df = conj(dt_last . T[0]), since rho t_0 = conj(T[0]) for Hermitian rho.
    d_first_v = np.real(np.conj(f)[:, None] * (dtables[:, :, 0] @ t[:, -1, :, None])[..., 0]) / first[:, None]
    d_first_w = np.real(f[:, None] * (dtables[:, :, -1] @ t[:, 0, :, None])[..., 0]) / first[:, None]
    return np.concatenate([d_first_v - np.sum(flipped * d_cross, axis=-1),
                           d_first_w - np.sum(bits * d_cross, axis=-1)], axis=-1)


def i_phi_gradient(mat: np.ndarray, x: np.ndarray, n: int) -> np.ndarray | None:
    """Exact gradient of ``i_phi_from_vector`` in ``x``, or None at a kink.

    For a stack ``(k, 4n)`` of points it returns the stacked gradients,
    with a row of NaN at each kink.  The witness is smooth where
    ``|first| > 0`` and every product ``d_m d_c`` under a square root is
    positive, ``d_m`` being the diagonal term of table row ``m`` (never
    negative for a PSD ``rho``).  Values below the rounding level
    ``2**n * eps * |tr rho|`` count as zero: at an angle of pi/2 the table
    holds cos(pi/2) ~ 6e-17, and a zero term comes out near 1e-33.
    """
    _check_problem(mat, n)
    x = as_points(x, 4 * n)
    g = _gradient(_value_pass(mat, x, n)[1], n, _kink_level(mat, n))
    return (None if np.isnan(g[0, 0]) else g[0]) if x.ndim == 1 else g


def make_phi_problem(mat: np.ndarray, n: int, kinks: list | None = None):
    """``(fun, grad)`` of the negated witness that ``c_phi_estimate`` minimizes, through ``optim.objective``.

    The value pass keeps ``_value_pass``'s terms; ``grad`` is exact where the witness is smooth
    (``i_phi_gradient``).  At a kink, where no gradient exists, the row falls back to central
    differences of the witness (``fd_gradient``), which average the one-sided slopes within
    ``lugroup.FD_STEP``; ``kinks``, if given, receives each such point.
    """
    _check_problem(mat, n)
    zero, kinks = _kink_level(mat, n), [] if kinks is None else kinks

    def values(x: np.ndarray):
        value, terms = _value_pass(mat, x, n)
        return -value, terms

    def gradients(x: np.ndarray, terms: tuple, rows) -> np.ndarray:
        g = -_gradient(terms if rows is None else tuple(a[rows] for a in terms), n, zero)
        for i in np.flatnonzero(np.isnan(g[:, 0])):
            kinks.append(x.reshape(-1, 4 * n)[i].copy())
            g[i] = fd_gradient(lambda xs: -i_phi_from_vector(mat, xs, n), kinks[-1])  # leaves the kept pass
        return g[0] if x.ndim == 1 else g

    return objective(4 * n, values, gradients)


@dataclass(frozen=True)
class EstimateResult:
    """A GM-concurrence estimate with its optimizer trace."""

    estimate: float
    angles: np.ndarray  # the best point's packed angles, V then W
    optim: OptimResult
    x: XHeuristicResult | None  # the X run that seeded the frame; None without warm starts
    kink_rows: int  # gradient rows that fell back to central differences


def c_phi_estimate(
    rho: DensityMatrix,
    cfg: OptimConfig,
    include_warm_starts: bool = True,
) -> EstimateResult:
    """Maximize the witnessed quantity over all 4N angles.

    The deterministic start set holds every anti-diagonal pair twice, in
    closed form (``pair_seeds``): in the identity frame, which pins
    the estimate at or above the plain X-projection bound, and in the
    frame ``x.angles`` of a penalty minimization with the identical
    configuration, which pins it at or above the X-heuristic estimate
    (that run is returned as ``x``); ``cfg.restarts`` random starts come
    on top.  The objective is not everywhere differentiable: its gradient
    is exact where it is smooth and central finite differences at a kink
    (``make_phi_problem``), and a failed line search simply ends that
    restart.
    """
    rho.check_structure()
    n = rho.n_qubits
    kinks: list = []
    neg, grad = make_phi_problem(rho.mat, n, kinks)
    starts, xres = [], None
    if include_warm_starts:
        xres = x_heuristic(rho, cfg)
        starts = np.concatenate([pair_seeds(np.zeros(2 * n)), pair_seeds(xres.angles)])
    best = multi_start(neg, grad, angle_sampler(n, 2), cfg, starts=starts)
    return EstimateResult(
        estimate=max(0.0, -2.0 * best.best_value),
        angles=best.best_point,
        optim=best,
        x=xres,
        kink_rows=len(kinks),
    )
