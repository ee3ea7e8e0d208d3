"""Exact two-qubit concurrence via the spin-flip spectrum."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matcore import kron, psd_sqrt
from .states import SIGMA_Y, DensityMatrix, DickeParams, dicke_steady_state
from .xform import gm_lower_bound_x

_YY = kron(SIGMA_Y, SIGMA_Y)


def spin_flip_spectrum(rho: DensityMatrix) -> np.ndarray:
    """Descending square roots of the eigenvalues of rho (YY) rho* (YY).

    With s = sqrt(rho) and M = s (YY) s*, the defining product is similar
    to M M^dag, so its eigenvalue square roots are exactly the singular
    values of M.  Reading them off an SVD keeps full precision even for
    rank-deficient states, where squaring-then-rooting the Hermitian
    sandwich s (YY) rho* (YY) s would lose half the significant digits.
    """
    if rho.n_qubits != 2:
        raise ValueError("spin-flip spectrum is defined for two qubits")
    s = psd_sqrt(rho.mat)
    return np.linalg.svd(s @ _YY @ s.conj(), compute_uv=False)


def wootters_concurrence(rho: DensityMatrix) -> float:
    """max[0, lambda_1 - lambda_2 - lambda_3 - lambda_4]."""
    lam = spin_flip_spectrum(rho)
    return max(0.0, float(lam[0] - lam[1] - lam[2] - lam[3]))


def dicke2_closed_form(gamma: float) -> float:
    """Concurrence of the two-qubit driven steady state, max[0, 2(g^2-1)/D_2]."""
    d2 = 4.0 * (1.0 + gamma ** 2 + gamma ** 4)
    return max(0.0, 2.0 * (gamma ** 2 - 1.0) / d2)


@dataclass(frozen=True)
class Dicke2EqualityReport:
    gammas: np.ndarray
    c_wootters: np.ndarray
    c_x_bound: np.ndarray
    closed_form: np.ndarray
    max_deviation: float


def verify_dicke2_equality(gammas) -> Dicke2EqualityReport:
    """Check C_W = C_X = closed form on the two-qubit driven steady states.

    The reported deviation is the worst of |C_W - C_X| and of either
    value's distance from the closed form, over all requested gammas.
    """
    gammas = np.asarray(list(gammas), dtype=float)
    if gammas.size == 0:
        raise ValueError("verify_dicke2_equality needs at least one gamma")
    cw = np.empty_like(gammas)
    cx = np.empty_like(gammas)
    ref = np.empty_like(gammas)
    for i, g in enumerate(gammas):
        rho = dicke_steady_state(DickeParams(n_qubits=2, gamma=float(g)))
        cw[i] = wootters_concurrence(rho)
        cx[i] = gm_lower_bound_x(rho)
        ref[i] = dicke2_closed_form(float(g))
    dev = max(
        np.abs(cw - cx).max(),
        np.abs(cw - ref).max(),
        np.abs(cx - ref).max(),
    )
    return Dicke2EqualityReport(
        gammas=gammas, c_wootters=cw, c_x_bound=cx, closed_form=ref, max_deviation=float(dev)
    )
