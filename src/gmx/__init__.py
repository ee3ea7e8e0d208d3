"""Numerical estimation of genuine multipartite concurrence for N-qubit states."""

__version__ = "0.1.0"

from .matcore import kron, psd_sqrt
from .optim import OptimConfig, OptimResult, bfgs_minimize, multi_start
from .states import (
    DensityMatrix,
    DiagSymParams,
    DickeParams,
    collective_ops,
    dicke_state,
    dicke_steady_state,
    diagonal_symmetric,
    random_density_matrix,
    tau_populations,
)
from .xform import XParams, gm_lower_bound_x, penalty_f, x_concurrence, x_projection
from .lugroup import assemble, conjugate, su2
from .phi_scheme import EstimateResult, c_phi_estimate, i_phi_from_vector, pair_seeds
from .wootters import wootters_concurrence, verify_dicke2_equality
from .heuristic import XHeuristicResult, stationary_check, x_heuristic
from .bench import SweepRecord, TimingSummary, bench_timing, sweep

__all__ = [
    "__version__",
    "kron", "psd_sqrt",
    "OptimConfig", "OptimResult", "bfgs_minimize", "multi_start",
    "DensityMatrix", "DiagSymParams", "DickeParams",
    "collective_ops", "dicke_state", "dicke_steady_state", "diagonal_symmetric",
    "random_density_matrix", "tau_populations",
    "XParams", "gm_lower_bound_x", "penalty_f", "x_concurrence", "x_projection",
    "assemble", "conjugate", "su2",
    "EstimateResult", "c_phi_estimate", "i_phi_from_vector", "pair_seeds",
    "wootters_concurrence", "verify_dicke2_equality",
    "XHeuristicResult", "stationary_check", "x_heuristic",
    "SweepRecord", "TimingSummary", "bench_timing", "sweep",
]
