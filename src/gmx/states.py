"""Factories for the N-qubit state families used throughout the package.

Basis convention: computational basis states are indexed by the integer
whose binary digits are the qubit values with qubit 1 as the most
significant bit, so ``|idx> = |b_1 b_2 ... b_N>`` with
``idx = sum_j b_j 2**(N-j)``.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .matcore import HERM_TOL, hermitize, herm_deviation, kron

# Name recorded in run manifests so random-state draws are reproducible.
PRNG_NAME = "numpy PCG64 (numpy.random.default_rng)"

SIGMA_PLUS = np.array([[0, 1], [0, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)


@dataclass(frozen=True)
class DensityMatrix:
    """An N-qubit density matrix: Hermitian, unit trace, PSD."""

    n_qubits: int
    mat: np.ndarray

    @property
    def dim(self) -> int:
        return 2 ** self.n_qubits

    def check_structure(self) -> "DensityMatrix":
        """Cheap scheme-input check: N >= 2, a 2**N x 2**N shape, finite entries.

        Unlike :meth:`validate` it does not test Hermiticity, trace or
        positivity, so slightly unnormalized inputs still estimate.
        """
        if self.n_qubits < 2:
            raise ValueError(f"GM-concurrence needs at least two qubits, got n_qubits={self.n_qubits}")
        self.check_entries()
        return self

    def check_entries(self) -> None:
        """Raise ValueError unless the matrix is 2**N x 2**N with finite entries."""
        check_shape(self.mat, self.n_qubits)
        if not np.isfinite(self.mat).all():
            raise ValueError("density matrix has non-finite entries")

    def validate(self) -> "DensityMatrix":
        """Raise ValueError unless Hermitian/trace-one/PSD within tolerance."""
        self.check_entries()
        dev = herm_deviation(self.mat)
        if dev > 1e-12:
            raise ValueError(f"density matrix not Hermitian: deviation {dev:.3e}")
        tr = complex(np.trace(self.mat))
        if abs(tr - 1.0) > 1e-12:
            raise ValueError(f"density matrix trace {tr} != 1")
        lo = float(np.linalg.eigvalsh(hermitize(self.mat)).min())
        if lo < -1e-10:
            raise ValueError(f"density matrix not PSD: min eigenvalue {lo:.3e}")
        return self


def check_shape(mat: np.ndarray, n_qubits: int) -> None:
    """Raise ValueError unless ``mat`` is 2**N x 2**N: the one check the objective kernels make."""
    if mat.shape != (2 ** n_qubits, 2 ** n_qubits):
        raise ValueError(f"matrix shape {mat.shape} does not match n_qubits={n_qubits}")


@dataclass(frozen=True)
class DiagSymParams:
    """Populations p_0..p_N of a mixture of Dicke-state projectors."""

    n_qubits: int
    populations: np.ndarray

    def validate(self) -> "DiagSymParams":
        p = np.asarray(self.populations, dtype=float)
        if p.shape != (self.n_qubits + 1,):
            raise ValueError(f"expected {self.n_qubits + 1} populations, got {p.shape}")
        if not np.isfinite(p).all():
            raise ValueError(f"populations must be finite, got {p}")
        if np.any(p < -1e-12) or np.any(p > 1 + 1e-12):
            raise ValueError("populations must lie in [0, 1]")
        if abs(p.sum() - 1.0) > 1e-12:
            raise ValueError(f"populations sum to {p.sum()!r}, expected 1")
        return self


@dataclass(frozen=True)
class DickeParams:
    """Drive/decay ratio of the collectively driven two-level ensemble."""

    n_qubits: int
    gamma: float

    def validate(self) -> "DickeParams":
        if not math.isfinite(self.gamma) or self.gamma < 0:
            raise ValueError(f"gamma must be finite and >= 0, got {self.gamma}")
        return self


def _wrap(n_qubits: int, mat: np.ndarray) -> DensityMatrix:
    mat = hermitize(np.ascontiguousarray(mat, dtype=complex))
    mat.flags.writeable = False
    return DensityMatrix(n_qubits=n_qubits, mat=mat)


def pure_state(n_qubits: int, vec: np.ndarray) -> DensityMatrix:
    """Density matrix |v><v| of a normalized state vector."""
    v = np.asarray(vec, dtype=complex)
    v = v / np.linalg.norm(v)
    return _wrap(n_qubits, np.outer(v, v.conj()))


def dicke_state(n: int, k: int) -> np.ndarray:
    """Symmetric N-qubit state with k excitations.

    Equal amplitude ``1/sqrt(C(n,k))`` on every basis label of Hamming
    weight k, zero elsewhere.
    """
    if not 0 <= k <= n:
        raise ValueError(f"excitation number k={k} out of range [0, {n}]")
    v = np.zeros(2 ** n, dtype=complex)
    for idx in range(2 ** n):
        if idx.bit_count() == k:
            v[idx] = 1.0
    return v / math.sqrt(math.comb(n, k))


def diagonal_symmetric(p: DiagSymParams) -> DensityMatrix:
    """Mixture of Dicke projectors: rho = sum_k p_k |D_k><D_k|."""
    p.validate()
    n = p.n_qubits
    rho = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for k in range(n + 1):
        d = dicke_state(n, k)
        rho += p.populations[k] * np.outer(d, d.conj())
    return _wrap(n, rho)


def tau_populations(n: int, tau: float) -> DiagSymParams:
    """One-parameter population family concentrated on the central Dicke levels.

    The two levels floor(N/2) and floor(N/2)+1 carry ``(tau-1)**2`` and
    ``tau**2``; the remaining N-1 levels share ``2 tau (1-tau)`` equally.
    """
    if n < 2:
        raise ValueError("family requires n >= 2")
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau={tau} out of range [0, 1]")
    pops = np.full(n + 1, 2.0 * tau * (1.0 - tau) / (n - 1))
    pops[n // 2] = (tau - 1.0) ** 2
    pops[n // 2 + 1] = tau ** 2
    return DiagSymParams(n_qubits=n, populations=pops)


def collective_ops(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Collective raising/lowering operators J_+ and J_- = J_+^dag."""
    if n < 1:
        raise ValueError("need at least one qubit")
    jp = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for ell in range(1, n + 1):
        jp += kron(kron(np.eye(2 ** (ell - 1)), SIGMA_PLUS), np.eye(2 ** (n - ell)))
    return jp, jp.conj().T


@lru_cache(maxsize=None)
def _lowering(n: int) -> np.ndarray:
    """J_- of ``collective_ops(n)``, built once per n and read-only."""
    jm = collective_ops(n)[1]
    jm.flags.writeable = False
    return jm


def _dicke_unnormalized(n: int, gamma: float) -> np.ndarray:
    # rho ~ sum_{m,n} (i*gamma*J_-)^m (-i*gamma*J_+)^n = L @ L^dag with
    # L = sum_m (i*gamma*J_-)^m; the sum truncates exactly at m = N.
    jm = _lowering(n)
    left = np.zeros((2 ** n, 2 ** n), dtype=complex)
    power = np.eye(2 ** n, dtype=complex)
    for _ in range(n + 1):
        left += power
        power = (1j * gamma) * (jm @ power)
    return left @ left.conj().T


def dicke_steady_state(p: DickeParams) -> DensityMatrix:
    """Zero-temperature steady state of the collectively driven ensemble.

    Regular at gamma = 0 (reduces to the maximally mixed state); the
    normalization is the computed trace, which for N <= 4 coincides with
    the closed forms checked in the test suite.
    """
    p.validate()
    rho = _dicke_unnormalized(p.n_qubits, p.gamma)
    return _wrap(p.n_qubits, rho / np.trace(rho).real)


def dicke_normalization(n: int, gamma: float) -> float:
    """Trace of the unnormalized steady state (the D_N constant)."""
    return float(np.trace(_dicke_unnormalized(n, gamma)).real)


def random_density_matrix(n: int, rank: int, seed: int) -> DensityMatrix:
    """Random density matrix G G^dag / tr(G G^dag) of the given rank.

    G is ``2**n x rank`` with independent standard complex normal entries
    drawn deterministically from ``seed``.
    """
    if not 1 <= rank <= 2 ** n:
        raise ValueError(f"rank={rank} out of range [1, {2 ** n}]")
    rng = np.random.default_rng(seed)
    g = (rng.standard_normal((2 ** n, rank)) + 1j * rng.standard_normal((2 ** n, rank))) / math.sqrt(2)
    rho = g @ g.conj().T
    return _wrap(n, rho / np.trace(rho).real)


# ---------------------------------------------------------------------------
# JSON interchange: {"n_qubits": N, "re": [[...]], "im": [[...]]}, row-major.
# ---------------------------------------------------------------------------

def to_json_dict(rho: DensityMatrix) -> dict:
    return {
        "n_qubits": rho.n_qubits,
        "re": rho.mat.real.tolist(),
        "im": rho.mat.imag.tolist(),
    }


def from_json_dict(doc: dict) -> DensityMatrix:
    if not isinstance(doc, dict):
        raise ValueError(f"state JSON must be an object, got {type(doc).__name__}")
    missing = [key for key in ("n_qubits", "re", "im") if key not in doc]
    if missing:
        raise ValueError(f"state JSON lacks the key(s) {', '.join(missing)}")
    n = doc["n_qubits"]
    # A JSON true is a bool, and a bool an Integral.
    if isinstance(n, bool) or not (isinstance(n, numbers.Integral) or isinstance(n, float) and n.is_integer()):
        raise ValueError(f"malformed state JSON: n_qubits must be an integer, got {n!r}")
    n = int(n)
    try:
        real, imag = np.asarray(doc["re"], dtype=float), np.asarray(doc["im"], dtype=float)
    except (TypeError, ValueError) as exc:  # a None, a string or a ragged row
        raise ValueError(f"malformed state JSON: {exc}") from None
    if real.shape != imag.shape:
        raise ValueError(f"malformed state JSON: re has shape {real.shape} but im has shape {imag.shape}")
    mat = real + 1j * imag
    DensityMatrix(n, mat).check_entries()
    if herm_deviation(mat) > HERM_TOL:
        raise ValueError("JSON density matrix is not Hermitian")
    return _wrap(n, mat).validate()


def save_json(rho: DensityMatrix, path) -> None:
    with open(path, "w") as fh:
        json.dump(to_json_dict(rho), fh)


def load_json(path) -> DensityMatrix:
    with open(path) as fh:
        return from_json_dict(json.load(fh))
