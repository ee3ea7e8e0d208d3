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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .heuristic import XHeuristicResult, x_heuristic
from .lugroup import _factors, angle_sampler, fd_gradient
from .optim import OptimConfig, OptimResult, multi_start
from .states import DensityMatrix


@dataclass(frozen=True)
class Bipartition:
    """One split of the qubit labels; ``a_side`` always contains qubit 1."""

    a_side: tuple[int, ...]
    b_side: tuple[int, ...]

    def mask(self, n_qubits: int) -> int:
        """Basis-index bitmask of ``a_side`` (qubit 1 = most significant bit)."""
        m = 0
        for q in self.a_side:
            m |= 1 << (n_qubits - q)
        return m


def enumerate_bipartitions(n: int) -> list[Bipartition]:
    """All 2**(n-1) - 1 bipartitions, canonicalized by keeping qubit 1 on side A."""
    if n < 2:
        raise ValueError("bipartitions need at least two qubits")
    out = []
    for rest in range(2 ** (n - 1) - 1):
        a = [1] + [q for q in range(2, n + 1) if rest >> (n - q) & 1]
        b = [q for q in range(2, n + 1) if q not in a]
        out.append(Bipartition(a_side=tuple(a), b_side=tuple(b)))
    return out


@lru_cache(maxsize=None)
def _bipartition_masks(n: int) -> tuple[np.ndarray, np.ndarray]:
    full = 2 ** n - 1
    masks = np.array([bp.mask(n) for bp in enumerate_bipartitions(n)], dtype=np.intp)
    return masks, full ^ masks


@dataclass(frozen=True)
class PhiParams:
    """Angles of the 2N single-qubit unitaries (theta block then phi block)."""

    n_qubits: int
    v_angles: np.ndarray  # (theta_1..theta_N, phi_1..phi_N) for the V_n
    w_angles: np.ndarray  # same layout for the W_n


def params_to_vector(p: PhiParams) -> np.ndarray:
    return np.concatenate([p.v_angles, p.w_angles]).astype(float)


def vector_to_params(n_qubits: int, x: np.ndarray) -> PhiParams:
    x = np.asarray(x, dtype=float)
    return PhiParams(n_qubits=n_qubits, v_angles=x[: 2 * n_qubits].copy(), w_angles=x[2 * n_qubits:].copy())


def phi_mu_params(n_qubits: int, mu: int) -> PhiParams:
    """Parameters whose product state realizes the anti-diagonal pair ``mu``.

    The V-product sends |0..0> to the basis state ``mu`` and the W-product
    to its bitwise complement, reproducing the closed-form bound of the
    X projection before any optimization.
    """
    if not 0 <= mu < 2 ** (n_qubits - 1):
        raise ValueError(f"mu={mu} out of range")
    bits = np.array([(mu >> (n_qubits - j)) & 1 for j in range(1, n_qubits + 1)], dtype=float)
    v = np.concatenate([bits * (np.pi / 2), np.zeros(n_qubits)])
    w = np.concatenate([(1.0 - bits) * (np.pi / 2), np.zeros(n_qubits)])
    return PhiParams(n_qubits=n_qubits, v_angles=v, w_angles=w)


def _unit_vector_angles(z0: complex, z1: complex) -> tuple[float, float]:
    """Angles whose su2 first column is the unit vector (z0, z1) up to a phase.

    Every objective term is invariant under a global phase of each
    single-qubit column, so the two-angle family reaches any unit vector.
    """
    m = min(1.0, abs(z0))
    theta = float(np.arccos(m))
    s = np.sin(theta)
    if s < 1e-15:
        return theta, 0.0
    xi = np.conj(z0) / m if m > 1e-15 else 1.0
    return theta, float(-np.angle(-xi * z1 / s))


def frame_phi_params(n_qubits: int, frame_factors, mu: int) -> PhiParams:
    """Product-state parameters reproducing anti-diagonal pair ``mu`` of a rotated frame.

    For a local rotation ``U = kron(u_n)`` the witnessed quantity at these
    parameters equals the X-projection score of pair ``mu`` evaluated on
    ``U rho U^dag``; seeding from them transfers any lower bound found by
    the penalty minimization to this scheme exactly.
    """
    v = np.zeros(2 * n_qubits)
    w = np.zeros(2 * n_qubits)
    for j in range(n_qubits):
        bit = (mu >> (n_qubits - 1 - j)) & 1
        u = frame_factors[j]
        v[j], v[n_qubits + j] = _unit_vector_angles(*np.conj(u[bit, :]))
        w[j], w[n_qubits + j] = _unit_vector_angles(*np.conj(u[1 - bit, :]))
    return PhiParams(n_qubits=n_qubits, v_angles=v, w_angles=w)


def _first_columns(rows: np.ndarray, n: int):
    """Per point of a stack ``(k, 4n)`` and qubit, first columns of V (row 0) and W (row 1), shape
    ``(k, n, 2, 2)``, and the sin, cos and ``e^{-i phi}`` they are built from, each ``(k, n, 2)``."""
    angles = rows.reshape(-1, 2, 2, n).transpose(0, 3, 1, 2)  # (point, qubit, V or W, theta or phi)
    sin, cos, phase = np.sin(angles[..., 0]), np.cos(angles[..., 0]), np.exp(-1j * angles[..., 1])
    return np.stack([cos, -sin * phase], axis=-1), sin, cos, phase


def _choice_table(cols: np.ndarray) -> np.ndarray:
    """Row ``m``: kron over qubits of (V column if mask bit 0 else W column).

    ``cols`` has the shape ``(..., n, 2, 2)`` of ``_first_columns``; any
    leading axes are batched.  Mask bits follow the basis convention
    (qubit 1 most significant), so a bipartition mask indexes the vector
    that uses W exactly on side A.
    """
    batch = cols.shape[:-3]
    table = np.ones(batch + (1, 1), dtype=complex)
    for j in range(cols.shape[-3]):
        table = (table[..., :, None, :, None] * cols[..., j, None, :, None, :]).reshape(
            batch + (2 * table.shape[-2], 2 * table.shape[-1])
        )
    return table


def _witness_terms(mat: np.ndarray, table: np.ndarray):
    """``T = table^* rho``, the diagonal terms ``d_m``, ``f = T_last . table_0`` and ``|f|``, batched."""
    t = table.conj() @ mat
    diag_exp = (t * table).sum(axis=-1).real
    f = (t[..., -1, None, :] @ table[..., 0, :, None])[..., 0, 0]
    # hypot is the modulus Python's abs() takes of one complex number;
    # numpy's vectorized complex abs can round the last bit differently.
    return t, diag_exp, f, np.hypot(f.real, f.imag)


def i_phi_from_vector(mat: np.ndarray, x: np.ndarray, n: int):
    """The witness at packed angles ``x``; a float, or one per row of a stack ``(..., 4n)``."""
    x = np.asarray(x, dtype=float)
    # A single point goes through as a stack of one, so that its value is
    # bit for bit the row it would be in any stack.
    _, diag_exp, _, first = _witness_terms(mat, _choice_table(_first_columns(x.reshape(-1, 4 * n), n)[0]))
    masks, comps = _bipartition_masks(n)
    # ``take`` keeps the rows contiguous: summed over a strided axis, a row
    # would add up in another order than a lone point's.
    cross = np.sqrt(np.maximum(diag_exp.take(masks, axis=-1) * diag_exp.take(comps, axis=-1), 0.0))
    value = first - cross.sum(axis=-1)
    return float(value[0]) if x.ndim == 1 else value.reshape(x.shape[:-1])


@lru_cache(maxsize=None)
def _row_bits(n: int) -> np.ndarray:
    """(2n, 2**n) array: row ``b`` holds qubit ``b mod n``'s bit of every row index."""
    bits = (np.arange(2 ** n) >> (n - 1 - np.arange(n))[:, None]) & 1
    return np.tile(bits, (2, 1)).astype(float)


def i_phi_gradient(mat: np.ndarray, x: np.ndarray, n: int) -> np.ndarray | None:
    """Exact gradient of ``i_phi_from_vector`` in ``x``, or None at a kink.

    For a stack ``(..., 4n)`` of points it returns the stacked gradients,
    with a row of NaN at each kink.  The witness is smooth where
    ``|first| > 0`` and every product ``d_m d_c`` under a square root is
    positive, ``d_m`` being the diagonal term of table row ``m`` (never
    negative for a PSD ``rho``).  Values below the rounding level
    ``2**n * eps * |tr rho|`` count as zero: at an angle of pi/2 the table
    holds cos(pi/2) ~ 6e-17, and a term that is zero in exact arithmetic
    comes out near 1e-33.

    The derivative tables come from the same batched ``_choice_table``
    pass as the plain one: table ``1 + b`` has qubit ``b mod n``'s columns
    replaced by their theta (``b < n``) or phi (``b >= n``) derivatives,
    so its row ``m`` is the derivative of row ``m`` by that angle of V
    where the qubit's bit of ``m`` is 0, and of W where it is 1.
    """
    x = np.asarray(x, dtype=float)
    rows = x.reshape(-1, 4 * n)
    k = rows.shape[0]
    cols, sin, cos, phase = _first_columns(rows, n)
    d_cols = np.zeros((k, 2, n, 2, 2), dtype=complex)  # (point, theta or phi, qubit, V or W, entry)
    d_cols[:, 0, ..., 0] = -sin
    d_cols[:, 0, ..., 1] = -cos * phase
    d_cols[:, 1, ..., 1] = -1j * cols[..., 1]
    q = np.arange(n)
    cols_b = np.repeat(cols[:, None], 2 * n + 1, axis=1)
    cols_b[:, 1:].reshape(k, 2, n, n, 2, 2)[:, :, q, q] = d_cols
    tables = _choice_table(cols_b)
    table, dtables = tables[:, 0], tables[:, 1:]

    t, diag_exp, f, first = _witness_terms(mat, table)
    masks, comps = _bipartition_masks(n)
    zero = 2 ** n * np.finfo(float).eps * abs(np.trace(mat))
    smooth = (first > zero) & (diag_exp[:, 1:-1] > zero).all(axis=-1)
    if not smooth.all():
        if x.ndim == 1:
            return None
        # Rare: redo the smooth rows alone, which leaves them bit for bit as they are.
        g = np.full(rows.shape, np.nan)
        g[smooth] = i_phi_gradient(mat, rows[smooth], n)
        return g.reshape(x.shape)

    # d sqrt(d_m d_c) / d d_m = d_c / (2 sqrt(d_m d_c)); rows 0 and 2**n - 1
    # enter no square root.
    d_m, d_c = diag_exp.take(masks, axis=1), diag_exp.take(comps, axis=1)
    roots = np.sqrt(d_m * d_c)
    weight = np.zeros(diag_exp.shape)
    weight[:, masks] = d_c / (2.0 * roots)
    weight[:, comps] = d_m / (2.0 * roots)
    # d d_m = 2 Re sum_j dt_m[j] T[m, j], with T = table^* rho.
    d_cross = 2.0 * np.real(np.einsum("kbmj,kmj->kbm", dtables, t)) * weight[:, None]
    bits = _row_bits(n)
    # first = |f| with f = t_last^dag rho t_0, and d|f| = Re(conj(f) df) / |f|.
    # V angles move t_0 (row 0): df = T[-1] . dt_0.  W angles move t_last:
    # df = conj(dt_last . T[0]), since rho t_0 = conj(T[0]) for Hermitian rho.
    d_first_v = np.real(np.conj(f)[:, None] * (dtables[:, :, 0] @ t[:, -1, :, None])[..., 0]) / first[:, None]
    d_first_w = np.real(f[:, None] * (dtables[:, :, -1] @ t[:, 0, :, None])[..., 0]) / first[:, None]
    g = np.concatenate([
        d_first_v - np.sum((1.0 - bits) * d_cross, axis=-1),
        d_first_w - np.sum(bits * d_cross, axis=-1),
    ], axis=-1)
    return g[0] if x.ndim == 1 else g.reshape(x.shape)


def make_phi_problem(mat: np.ndarray, n: int):
    """``(fun, grad)``: the negated witness ``c_phi_estimate`` minimizes, and its gradient.

    Both accept one point or a stack ``(k, 4n)`` of them.  ``grad`` is
    exact wherever the witness is smooth (``i_phi_gradient``).  At a kink,
    where no gradient exists, that row falls back to central finite
    differences of ``fun`` (``fd_gradient``), which average the one-sided
    slopes within ``lugroup.FD_STEP`` of the point; a line search that
    cannot descend along that direction ends the restart.
    """

    def fun(x: np.ndarray):
        return -i_phi_from_vector(mat, x, n)

    def grad(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        g = i_phi_gradient(mat, x, n)
        if x.ndim == 1:
            return fd_gradient(fun, x) if g is None else -g
        g = -g
        for i in np.flatnonzero(np.isnan(g[:, 0])):
            g[i] = fd_gradient(fun, x[i])
        return g

    return fun, grad


def i_phi(rho: DensityMatrix, p: PhiParams) -> float:
    """Witnessed quantity for one product-state parameter choice."""
    if p.n_qubits != rho.n_qubits:
        raise ValueError("parameter/state qubit count mismatch")
    return i_phi_from_vector(rho.mat, params_to_vector(p), rho.n_qubits)


@dataclass(frozen=True)
class EstimateResult:
    """A GM-concurrence estimate with its optimizer trace."""

    estimate: float
    params: PhiParams
    optim: OptimResult
    x: XHeuristicResult | None  # the X run that seeded the frame; None without warm starts


def c_phi_estimate(
    rho: DensityMatrix,
    cfg: OptimConfig,
    include_warm_starts: bool = True,
) -> EstimateResult:
    """Maximize the witnessed quantity over all 4N angles.

    The deterministic start set contains the parameter point of every
    anti-diagonal pair, which pins the estimate at or above the plain
    X-projection bound, plus the same pairs expressed in the frame found
    by a penalty minimization with the identical configuration, which pins
    it at or above the X-heuristic estimate (that run is returned as
    ``x``); ``cfg.restarts`` random starts come on top.  The objective is
    not everywhere differentiable: its gradient is exact where it is
    smooth and central finite differences at a kink (``make_phi_problem``),
    and a failed line search simply ends that restart.
    """
    rho.check_structure()
    n = rho.n_qubits
    neg, grad = make_phi_problem(rho.mat, n)
    starts = []
    xres = None
    if include_warm_starts:
        starts += [params_to_vector(phi_mu_params(n, mu)) for mu in range(2 ** (n - 1))]
        xres = x_heuristic(rho, cfg)
        frame = _factors(xres.optim.best_point, n)
        starts += [params_to_vector(frame_phi_params(n, frame, mu)) for mu in range(2 ** (n - 1))]
    best = multi_start(neg, grad, angle_sampler(n, 2), cfg, starts=starts)
    return EstimateResult(
        estimate=max(0.0, -2.0 * best.best_value),
        params=vector_to_params(n, best.best_point),
        optim=best,
        x=xres,
    )
