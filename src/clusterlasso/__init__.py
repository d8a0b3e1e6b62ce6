"""Clustered lasso: least squares with an l1 penalty plus an all-pairs
absolute-difference penalty that pulls coefficients into groups.

Solvers: augmented-Lagrangian methods with semismooth-Newton inner loops on
the dual (`solve_dual`) and the primal (`solve_primal`), plus ADMM and
accelerated proximal-gradient baselines.  The key primitive everywhere is
the O(n log n) proximal mapping `prox_clustered`.
"""

from .common import (CONVERGED, MAX_ITERS, MAX_TIME, Solution, SolverConfig,
                     SsnControls)
from .data import (LibsvmParseError, ScenarioSpec, SyntheticProblem,
                   generate_scenario, penalties_from_alphas, read_libsvm,
                   true_coefficients, write_libsvm)
from .first_order import (FirstOrderConfig, apg_solve, d_admm_solve,
                          p_admm_solve)
from .jacobian import ProxJacobian, build_jacobian, design_factors
from .linalg import (DesignMatrix, MaxItersExceeded, cg_solve,
                     estimate_lipschitz)
from .metrics import duality_metrics, eta_kkt, eta_rel, gnnz, nnz
from .problem import ProblemData
from .prox import (Penalties, ProxResult, ordered_weights, penalty_value,
                   project_nonincreasing, prox_clustered, prox_conjugate,
                   soft_threshold)
from .ssnal_dual import solve as solve_dual
from .ssnal_primal import solve_primal

__version__ = "0.1.0"

__all__ = [
    "CONVERGED", "DesignMatrix",
    "FirstOrderConfig", "LibsvmParseError", "MAX_ITERS", "MAX_TIME",
    "MaxItersExceeded", "Penalties", "ProblemData", "ProxJacobian",
    "ProxResult", "ScenarioSpec", "Solution", "SolverConfig", "SsnControls",
    "SyntheticProblem", "apg_solve", "build_jacobian", "cg_solve",
    "d_admm_solve", "design_factors", "duality_metrics", "estimate_lipschitz",
    "eta_kkt", "eta_rel", "generate_scenario", "gnnz", "nnz",
    "ordered_weights", "p_admm_solve", "penalties_from_alphas",
    "penalty_value", "project_nonincreasing", "prox_clustered",
    "prox_conjugate", "read_libsvm",
    "soft_threshold", "solve_dual", "solve_primal", "true_coefficients",
    "write_libsvm",
]
