"""Dual augmented-Lagrangian solver with semismooth-Newton inner loops.

Works on the dual formulation

    min_{xi, u}  1/2 ||xi||^2 + <b, xi> + p*(u)   s.t.  A^T xi + u = 0,

driving xi with an inexact Newton method on the (smooth, strongly convex)
augmented-Lagrangian subproblem and recovering the primal iterate through
the prox.  The Newton systems live in R^m, and their curvature part
A M A^T = W W^T has a thin factor W = AP.  On a tall design it runs on
the n x n problem (R, c) of `SquareRootForm`, where W = RP.

The solve has two phases, as in SDPNAL+ (Yang, Sun & Toh, Math. Prog.
Comput. 7, 2015).  Phase I runs PHASE1_ITERS iterations of d-ADMM (the
loop of `first_order.d_admm_solve`) at its fixed, scale-free sigma on the
same problem; its x, xi and u are where the semismooth-Newton
augmented Lagrangian (phase II) starts, instead of zero.  Cold, the dual
spent most of its Newton steps far from the solution at large sigma.
"""

import time
from typing import Optional

import numpy as np

from . import common
from .common import (NEWTON_CG_ITERS, SolverConfig, Solution, SquareRootForm,
                     augmented_lagrangian, newton, newton_cg_target,
                     tolerances)
from .first_order import FirstOrderConfig, _d_admm
from .jacobian import ProxJacobian, build_jacobian, design_factors
from .linalg import cg_solve, cho_solve, cholesky, estimate_lipschitz
from .metrics import duality_metrics, eta_kkt
from .problem import ProblemData
from .prox import prox_clustered

# sigma_0 lambda_max(A A^T) at the start of the dual's outer loop; the
# product is unchanged when A or b is rescaled
SIGMA0_CURVATURE = 100.0
# d-ADMM iterations at fixed sigma (phase I) before the Newton
# phase, sigma from `first_order.DUAL_SIGMA0_CURVATURE`.  Of 50 to 300,
# measured on the benchmark's three instance families and the acceptance
# grid: past 100, phase I cost more than the Newton steps it saved on every
# family; 50 was level with 100 in total, faster on tall designs and the
# grid but slower on n >> m ones
PHASE1_ITERS = 100


def solve_newton_system(jac: ProxJacobian, A, sigma: float, rhs: np.ndarray):
    """Solve (I + sigma A M A^T) h = rhs to the inexact-Newton tolerance;
    returns (h, cg_calls), cg_calls the CG operator applications (0 on a
    direct route).

    With M = P P^T the matrix is I + sigma W W^T for the m x k thin factor
    W = AP from `design_factors` (k = |free| + pools; h = rhs when k = 0).
    When min(k, m) <= DENSE_CAP it is solved by a Cholesky factor of the
    smaller side: by SMW through W^T W + I/sigma when k < m (cost m k^2),
    else of the m x m matrix itself.  Otherwise by CG on v + sigma W (W^T v)
    to `newton_cg_target(rhs)` in at most NEWTON_CG_ITERS iterations.
    """
    if jac.free_idx.shape[0] + jac.npools == 0:
        return rhs.copy(), 0
    W = design_factors(jac, A)
    m, k = W.shape
    if min(k, m) > common.DENSE_CAP:
        return cg_solve(lambda v: v + sigma * (W @ (W.T @ v)), rhs,
                        newton_cg_target(rhs), NEWTON_CG_ITERS)
    if k < m:
        L = cholesky(W.T @ W, 1.0 / sigma)
        return rhs - W @ cho_solve(L, W.T @ rhs), 0
    return cho_solve(cholesky(sigma * (W @ W.T), 1.0), rhs), 0


class DualSubproblem:
    """The dual augmented-Lagrangian subproblem in xi at (x_tilde, sigma):

    psi(xi) = 1/2||xi||^2 + <b,xi> + sigma/2 ||prox_p(y)||^2
              - ||x_tilde||^2 / (2 sigma),

    with y = x_tilde/sigma - A^T xi (the aux vector `newton` carries) and
    gradient xi + b - sigma A prox_p(y); the conjugate-penalty term
    vanishes on its domain.  A Newton step makes one product with A for
    the gradient and one with A^T in `lift`.
    """

    def __init__(self, data: ProblemData, x_tilde: np.ndarray, sigma: float):
        self.data = data
        self.pen = data.require_penalties()
        self.sigma = sigma
        self.x_over_sigma = x_tilde / sigma
        self.const = -float(x_tilde @ x_tilde) / (2.0 * sigma)

    def aux(self, xi):
        return self.x_over_sigma - self.data.A.tmatvec(xi)

    def prox(self, xi, y):
        return prox_clustered(y, self.pen)

    def grad(self, xi, y, pr):
        return xi + self.data.b - self.sigma * self.data.A.matvec(pr.prox)

    def value(self, xi, y, pr):
        return (0.5 * float(xi @ xi) + float(self.data.b @ xi)
                + 0.5 * self.sigma * float(pr.prox @ pr.prox) + self.const)

    def direction(self, pr, g):
        jac = build_jacobian(pr, self.pen)
        return solve_newton_system(jac, self.data.A, self.sigma, -g)

    def lift(self, h):
        return -self.data.A.tmatvec(h)


class DualStep:
    """One outer iteration of the dual augmented Lagrangian.

    inner: inexactly minimize the subproblem in xi (the summable eps_k rule
    combined with the two relative rules), then u <- y - prox_p(y) and
    x <- sigma * prox_p(y) with y = x/sigma - A^T xi.  When the Newton cap
    runs out first, xi is kept but the multiplier update is skipped and
    the step rejected, so the outer loop backs sigma off.

    The step works on form.data (`SquareRootForm`); the gradient floor
    1e-13 (1 + ||b||) comes from data as given.
    sigma0 = SIGMA0_CURVATURE / L, L a 10-step power estimate of
    lambda_max(A^T A) (1 for a zero A), fixes the first subproblem's
    curvature sigma A M A^T whatever the scale of A and b.
    The iterates x, xi and u start at phase I's: PHASE1_ITERS iterations
    of d-ADMM with adaptive_sigma off on form.data, made here, so inside
    the solve's timed window; phase1_iters records the count.  It is
    `d_admm_solve`'s loop from the same power estimate as sigma0, with no
    stopping measure (check_every past the last iteration) and no
    `Solution`: only the deadline ends it early.  Like every Newton route,
    it factors no matrix of order above `DENSE_CAP` (`d_admm_solve`).
    """

    z = None

    def __init__(self, data: ProblemData, cfg: SolverConfig,
                 form: SquareRootForm):
        self.floor = 1e-13 * (1.0 + float(np.linalg.norm(data.b)))
        self.data = data = form.data
        self.cfg = cfg
        lip = estimate_lipschitz(data.A, iters=10)
        self.sigma0 = SIGMA0_CURVATURE / lip if lip > 0.0 else 1.0
        self.x, self.xi, self.u, self.phase1_iters, *_ = _d_admm(
            data, FirstOrderConfig(max_iters=PHASE1_ITERS,
                                   adaptive_sigma=False,
                                   check_every=PHASE1_ITERS + 1),
            time.perf_counter() + cfg.max_time, lip=lip)

    def inner(self, sigma, k, deadline):
        eps_k, delta_k, deltap_k = tolerances(k)
        sqrt_sigma = np.sqrt(sigma)
        sub = DualSubproblem(self.data, self.x, sigma)

        def stop(gn, _xi, pr):
            if gn <= self.floor:
                return True
            if gn > eps_k / sqrt_sigma:
                return False
            feas = float(np.linalg.norm(sub.x_over_sigma - pr.prox))
            return gn <= min(delta_k * sqrt_sigma, deltap_k) * feas

        self.xi, y, pr, residuals, ncg, hit_cap = newton(
            sub, self.xi, stop, self.cfg.ssn.max_newton, deadline)
        if not hit_cap:
            self.u = y - pr.prox
            self.x = sigma * pr.prox
        return residuals, ncg, not hit_cap

    def measures(self):
        return (*duality_metrics(self.x, self.xi, self.u, self.data),
                eta_kkt(self.x, self.data))


def solve(data: ProblemData, cfg: Optional[SolverConfig] = None) -> Solution:
    """Dual SSNAL: the shared outer loop over `DualStep`; terminates when
    max(eta_gap, eta_d, eta_kkt) <= cfg.tol."""
    return augmented_lagrangian(DualStep, data, cfg or SolverConfig())
