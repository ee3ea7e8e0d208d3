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


def _first_columns(x: np.ndarray, n: int) -> np.ndarray:
    """(n, 2, 2) array: per qubit, first columns of V (row 0) and W (row 1)."""
    vt, vp = x[:n], x[n: 2 * n]
    wt, wp = x[2 * n: 3 * n], x[3 * n:]
    cols = np.empty((n, 2, 2), dtype=complex)
    cols[:, 0, 0] = np.cos(vt)
    cols[:, 0, 1] = -np.sin(vt) * np.exp(-1j * vp)
    cols[:, 1, 0] = np.cos(wt)
    cols[:, 1, 1] = -np.sin(wt) * np.exp(-1j * wp)
    return cols


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


def i_phi_from_vector(mat: np.ndarray, x: np.ndarray, n: int) -> float:
    table = _choice_table(_first_columns(x, n))
    t = table.conj() @ mat
    diag_exp = np.real(np.sum(t * table, axis=1))
    first = abs(t[-1] @ table[0])
    masks, comps = _bipartition_masks(n)
    cross = np.sqrt(np.clip(diag_exp[masks] * diag_exp[comps], 0.0, None))
    return float(first - cross.sum())


@lru_cache(maxsize=None)
def _row_bits(n: int) -> np.ndarray:
    """(2n, 2**n) array: row ``b`` holds qubit ``b mod n``'s bit of every row index."""
    bits = (np.arange(2 ** n) >> (n - 1 - np.arange(n))[:, None]) & 1
    return np.tile(bits, (2, 1)).astype(float)


def i_phi_gradient(mat: np.ndarray, x: np.ndarray, n: int) -> np.ndarray | None:
    """Exact gradient of ``i_phi_from_vector`` in ``x``, or None at a kink.

    The witness is smooth where ``|first| > 0`` and every product
    ``d_m d_c`` under a square root is positive, ``d_m`` being the
    diagonal term of table row ``m`` (never negative for a PSD ``rho``).
    Values below the rounding level ``2**n * eps * |tr rho|`` count as
    zero: at an angle of pi/2 the table holds cos(pi/2) ~ 6e-17, and a
    term that is zero in exact arithmetic comes out near 1e-33.

    The derivative tables come from the same batched ``_choice_table``
    pass as the plain one: table ``1 + b`` has qubit ``b mod n``'s columns
    replaced by their theta (``b < n``) or phi (``b >= n``) derivatives,
    so its row ``m`` is the derivative of row ``m`` by that angle of V
    where the qubit's bit of ``m`` is 0, and of W where it is 1.
    """
    cols = _first_columns(x, n)
    angles = x.reshape(2, 2, n)  # (V or W, theta or phi, qubit)
    theta, phase = angles[:, 0].T, angles[:, 1].T
    d_cols = np.zeros((2, n, 2, 2), dtype=complex)
    d_cols[0, ..., 0] = -np.sin(theta)
    d_cols[0, ..., 1] = -np.cos(theta) * np.exp(-1j * phase)
    d_cols[1, ..., 1] = -1j * cols[..., 1]
    q = np.arange(n)
    cols_b = np.repeat(cols[None], 2 * n + 1, axis=0)
    cols_b[1:].reshape(2, n, n, 2, 2)[:, q, q] = d_cols
    tables = _choice_table(cols_b)
    table, dtables = tables[0], tables[1:]

    t = table.conj() @ mat
    diag_exp = np.real(np.sum(t * table, axis=1))
    f = t[-1] @ table[0]
    first = abs(f)
    masks, comps = _bipartition_masks(n)
    zero = 2 ** n * np.finfo(float).eps * abs(np.trace(mat))
    if not (first > zero and np.all(diag_exp[1:-1] > zero)):
        return None

    # d sqrt(d_m d_c) / d d_m = d_c / (2 sqrt(d_m d_c)); rows 0 and 2**n - 1
    # enter no square root.
    roots = np.sqrt(diag_exp[masks] * diag_exp[comps])
    weight = np.zeros(2 ** n)
    weight[masks] = diag_exp[comps] / (2.0 * roots)
    weight[comps] = diag_exp[masks] / (2.0 * roots)
    # d d_m = 2 Re sum_k dt_m[k] T[m, k], with T = table^* rho.
    d_cross = 2.0 * np.real(np.einsum("bmk,mk->bm", dtables, t)) * weight
    bits = _row_bits(n)
    # first = |f| with f = t_last^dag rho t_0, and d|f| = Re(conj(f) df) / |f|.
    # V angles move t_0 (row 0): df = T[-1] . dt_0.  W angles move t_last:
    # df = conj(dt_last . T[0]), since rho t_0 = conj(T[0]) for Hermitian rho.
    d_first_v = np.real(np.conj(f) * (dtables[:, 0] @ t[-1])) / first
    d_first_w = np.real(f * (dtables[:, -1] @ t[0])) / first
    return np.concatenate([
        d_first_v - np.sum((1.0 - bits) * d_cross, axis=1),
        d_first_w - np.sum(bits * d_cross, axis=1),
    ])


def make_phi_problem(mat: np.ndarray, n: int):
    """``(fun, grad)``: the negated witness ``c_phi_estimate`` minimizes, and its gradient.

    ``grad`` is exact wherever the witness is smooth (``i_phi_gradient``).
    At a kink, where no gradient exists, it falls back to central finite
    differences of ``fun`` (``fd_gradient``), which average the one-sided
    slopes within ``lugroup.FD_STEP`` of the point; a line search that cannot
    descend along that direction ends the restart.
    """

    def fun(x: np.ndarray) -> float:
        return -i_phi_from_vector(mat, x, n)

    def grad(x: np.ndarray) -> np.ndarray:
        g = i_phi_gradient(mat, x, n)
        return fd_gradient(fun, x) if g is None else -g

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
