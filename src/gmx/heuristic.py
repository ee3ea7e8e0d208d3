"""The X-heuristic: push a state toward X form, then read off its concurrence.

The penalty (sum of squared off-X moduli) is minimized over products of
single-qubit unitaries; the reported estimate is the X-formula value of
the transformed state at the best penalty minimizer, floored by the
raw-projection bound of the untouched frame.  Whatever frame the optimizer
lands in, the output is a certified GM-concurrence lower bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .lugroup import angle_sampler, as_angles, canonicalize, conjugate, fd_gradient, make_penalty_problem
from .optim import OptimConfig, OptimResult, multi_start
from .states import DensityMatrix
from .xform import gm_lower_bound_x

HESSIAN_STEP = 1e-4


@dataclass(frozen=True)
class XHeuristicResult:
    estimate: float
    f_min: float
    angles: np.ndarray  # the best frame's packed angles, canonicalized
    optim: OptimResult


def warm_starts(n_qubits: int) -> list[np.ndarray]:
    """Identity angles plus the symmetric quarter-turn point.

    The symmetric point (theta = pi/4, phi = 0 on every qubit) is the
    analytic penalty minimizer for the permutation-symmetric families, so
    including it makes those results independent of random-seed luck; the
    identity start guarantees the estimate never falls below the plain
    X-projection bound.
    """
    return [
        np.zeros(2 * n_qubits),
        np.concatenate([np.full(n_qubits, np.pi / 4), np.zeros(n_qubits)]),
    ]


def x_heuristic(
    rho: DensityMatrix,
    cfg: OptimConfig,
    include_warm_starts: bool = True,
) -> XHeuristicResult:
    """Minimize the off-X penalty over local unitaries and evaluate the X formula."""
    rho.check_structure()
    n = rho.n_qubits
    fun, grad = make_penalty_problem(rho.mat, n)
    starts = warm_starts(n) if include_warm_starts else []
    best = multi_start(fun, grad, angle_sampler(n), cfg, starts=starts)
    # The best-penalty frame can carry a smaller X value than the untouched
    # input frame; both are certified bounds, so report at least the latter.
    floor = gm_lower_bound_x(rho) if include_warm_starts else 0.0
    return XHeuristicResult(
        estimate=max(gm_lower_bound_x(conjugate(rho, best.best_point)), floor),
        f_min=best.best_value,
        angles=canonicalize(best.best_point),
        optim=best,
    )


class StationaryReport(NamedTuple):
    grad_norm: float
    hessian_min_eig: float
    hessian_psd: bool


def stationary_check(rho: DensityMatrix, x) -> StationaryReport:
    """Finite-difference stationarity certificate for the penalty objective at packed angles ``x``.

    Gradient by central differences; Hessian by central differences of the
    analytic gradient with a wider step (second derivatives amplify
    roundoff).  ``hessian_psd`` is true when the smallest Hessian
    eigenvalue is above -1e-6.
    """
    x = as_angles(x, rho.n_qubits, "stationary_check")
    fun, grad = make_penalty_problem(rho.mat, rho.n_qubits)
    gnorm = float(np.linalg.norm(fd_gradient(fun, x)))
    # Row j of the quotient is the derivative of the gradient along x_j.
    hess = fd_gradient(grad, x, HESSIAN_STEP).T
    hess = 0.5 * (hess + hess.T)
    min_eig = float(np.linalg.eigvalsh(hess).min())
    return StationaryReport(grad_norm=gnorm, hessian_min_eig=min_eig, hessian_psd=min_eig >= -1e-6)
