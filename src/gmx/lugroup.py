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
    c, s, e = np.cos(theta), np.sin(theta), np.exp(1j * phi)
    return np.array([[c, s * e], [-s * np.conj(e), c]])


def su2_dtheta(theta: float, phi: float) -> np.ndarray:
    c, s, e = np.cos(theta), np.sin(theta), np.exp(1j * phi)
    return np.array([[-s, c * e], [-c * np.conj(e), -s]])


def su2_dphi(theta: float, phi: float) -> np.ndarray:
    s, e = np.sin(theta), np.exp(1j * phi)
    return np.array([[0.0, 1j * s * e], [1j * s * np.conj(e), 0.0]])


def _factors(x: np.ndarray, n: int) -> list[np.ndarray]:
    return [su2(x[j], x[n + j]) for j in range(n)]


def assemble(p: LUParams) -> np.ndarray:
    """Kronecker product of the per-qubit unitaries, qubit 1 leftmost."""
    return kron_all(_factors(params_to_vector(p), p.n_qubits))


def conjugate(rho: DensityMatrix, p: LUParams) -> DensityMatrix:
    """U rho U^dag for the product unitary described by ``p``."""
    if p.n_qubits != rho.n_qubits:
        raise ValueError(f"parameter count for {p.n_qubits} qubits, state has {rho.n_qubits}")
    u = assemble(p)
    return _wrap(rho.n_qubits, u @ rho.mat @ u.conj().T)


def make_penalty_problem(mat: np.ndarray, n_qubits: int):
    """Return (fun, grad) closures for the penalty objective on packed angles.

    ``fun(x)`` is the off-X squared weight of ``U(x) mat U(x)^dag``;
    ``grad(x)`` is its exact gradient, obtained by differentiating each
    unitary factor (product rule) rather than by finite differences.
    """
    dim = mat.shape[0]
    mask = off_x_mask(dim)

    def fun(x: np.ndarray) -> float:
        u = kron_all(_factors(x, n_qubits))
        return penalty_from_matrix(u @ mat @ u.conj().T)

    def grad(x: np.ndarray) -> np.ndarray:
        factors = _factors(x, n_qubits)
        u = kron_all(factors)
        rho_t = u @ mat @ u.conj().T
        # d f = 2 Re tr(K dU) with K = mat U^dag (mask o rho_t); the mask
        # selects the off-X entries whose squared moduli make up f.
        k = mat @ u.conj().T @ (mask * rho_t)

        # Prefix/suffix Kronecker products shared by the theta and phi
        # derivatives of each factor.
        one = np.array([[1.0 + 0.0j]])
        prefix = [one]
        for f in factors[:-1]:
            prefix.append(np.kron(prefix[-1], f))
        suffix = [one]
        for f in reversed(factors[1:]):
            suffix.append(np.kron(f, suffix[-1]))
        suffix.reverse()

        out = np.empty(2 * n_qubits)
        for j in range(n_qubits):
            dth = np.kron(prefix[j], np.kron(su2_dtheta(x[j], x[n_qubits + j]), suffix[j]))
            dph = np.kron(prefix[j], np.kron(su2_dphi(x[j], x[n_qubits + j]), suffix[j]))
            out[j] = 2.0 * np.einsum("ij,ji->", k, dth).real
            out[n_qubits + j] = 2.0 * np.einsum("ij,ji->", k, dph).real
        return out

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
    """Central finite differences of an arbitrary scalar function."""
    x = np.asarray(x, dtype=float)
    out = np.empty(x.size)
    for i in range(x.size):
        xp = x.copy()
        xp[i] += h
        xm = x.copy()
        xm[i] -= h
        out[i] = (fun(xp) - fun(xm)) / (2.0 * h)
    return out
