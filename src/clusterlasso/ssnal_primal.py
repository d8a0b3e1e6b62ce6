"""Primal augmented-Lagrangian solver with semismooth-Newton inner loops.

Splits the problem as min 1/2||Ax - b||^2 + p(z) s.t. x - z = 0 and runs the
augmented Lagrangian in x, solving each subproblem by Newton on

    grad(x) = A^T(Ax - b) + (sigma + 1/sigma) x - (y_t + x_t/sigma)
              - prox_p(sigma x - y_t).

The Newton matrix A^T A + sigma (I - M) + I/sigma lives in R^n, so this
route is preferred when m >> n.  Its smallest eigenvalue is at least
1/sigma, so the dense factorization never meets a singular matrix.  On a
tall design it runs on the n x n problem (R, c) of `SquareRootForm` and
forms the Newton matrix from the cached A^T A.
"""

from typing import Optional

import numpy as np

from .common import (NEWTON_CG_ITERS, SolverConfig, Solution,
                     SquareRootForm, augmented_lagrangian, newton,
                     newton_cg_target, tolerances)
from .jacobian import ProxJacobian, build_jacobian
from .linalg import cg_solve, cho_solve, cholesky
from .metrics import dual_pair, duality_metrics, eta_kkt, lsq_residual
from .problem import ProblemData
from .prox import penalty_value, prox_clustered

EPS = np.finfo(np.float64).eps


def solve_newton_system_primal(jac: ProxJacobian, A, sigma: float,
                               rhs: np.ndarray,
                               gram: Optional[np.ndarray] = None):
    """Solve (A^T A + sigma (I - M) + I/sigma) h = rhs; returns (h,
    cg_calls), cg_calls the CG operator applications (0 on the dense
    route).

    With a cached Gram matrix (`tall_gram`, so n <= DENSE_CAP): dense
    Cholesky of the matrix assembled from the mask/run structure.
    Otherwise CG with the structured matvec to the residual target
    `newton_cg_target(rhs)`, at most NEWTON_CG_ITERS iterations.
    """
    if gram is not None:
        U = np.array(gram, dtype=np.float64)
        # sigma (I - M) without cancellation: pools subtract sigma/size,
        # the diagonal adds sigma off the free coordinates
        for t in range(jac.npools):
            lo = jac.pool_offsets[t]
            idx = jac.pool_idx[lo:lo + jac.pool_sizes[t]]
            U[np.ix_(idx, idx)] -= sigma / jac.pool_sizes[t]
        diag_add = np.full(jac.n, sigma + 1.0 / sigma)
        diag_add[jac.free_idx] = 1.0 / sigma
        return cho_solve(cholesky(U, diag_add), rhs), 0

    def apply(v):
        return A.tmatvec(A.matvec(v)) + sigma * (v - jac.apply(v)) + v / sigma

    return cg_solve(apply, rhs, newton_cg_target(rhs), NEWTON_CG_ITERS)


class PrimalSubproblem:
    """The primal augmented-Lagrangian subproblem in x at
    (x_tilde, y_tilde, sigma), with z = prox_p(sigma x - y_tilde) / sigma
    eliminated:

    phi(x) = 1/2||Ax - b||^2 + p(z) - <y_tilde, x - z> + sigma/2 ||x - z||^2
             + ||x - x_tilde||^2 / (2 sigma).

    Its gradient is the one in the module docstring.  The least-squares
    part expands about x_tilde, with d = x - x_tilde and G = A^T A:

        1/2||Ax - b||^2 = q + <g, d> + <d, G d>/2,   A^T(Ax - b) = g + G d,

    with q = 1/2||r||^2 and g = A^T r, r = A x_tilde - b (`lsq_residual`).
    Centred at x_tilde, its terms shrink with the step instead of
    cancelling at the scale of A^T b.  The aux vector `newton` carries is
    G d; `lift` applies G, as gram (A^T A or None, which also picks the
    Newton-system route) or by two products.
    """

    def __init__(self, data: ProblemData, x_tilde: np.ndarray,
                 y_tilde: np.ndarray, sigma: float,
                 gram: Optional[np.ndarray]):
        self.data = data
        self.pen = data.require_penalties()
        self.x_tilde = x_tilde
        self.y_tilde = y_tilde
        self.sigma = sigma
        self.gram = gram
        self.shift = y_tilde + x_tilde / sigma
        self.coef = sigma + 1.0 / sigma
        r, self.g_tilde = lsq_residual(x_tilde, data)
        self.q_tilde = 0.5 * float(r @ r)

    def aux(self, x):
        return self.lift(x - self.x_tilde)

    def prox(self, x, aux):
        return prox_clustered(self.sigma * x - self.y_tilde, self.pen)

    def grad(self, x, aux, pr):
        return self.g_tilde + aux + self.coef * x - self.shift - pr.prox

    def value(self, x, aux, pr):
        sigma = self.sigma
        z = pr.prox / sigma
        d = x - z
        dx = x - self.x_tilde
        lsq = (self.q_tilde + float(self.g_tilde @ dx)
               + 0.5 * float(dx @ aux))
        return (lsq + penalty_value(z, self.pen)
                - float(self.y_tilde @ d) + 0.5 * sigma * float(d @ d)
                + float(dx @ dx) / (2.0 * sigma))

    def direction(self, pr, g):
        jac = build_jacobian(pr, self.pen)
        return solve_newton_system_primal(jac, self.data.A, self.sigma, -g,
                                          self.gram)

    def lift(self, h):
        if self.gram is None:
            return self.data.A.tmatvec(self.data.A.matvec(h))
        return self.gram @ h


class PrimalStep:
    """One outer iteration of the primal augmented Lagrangian on form.data
    (`SquareRootForm`), whose gram picks the dense Newton route.
    sigma0 = max(1, ||b|| / sqrt(m)) and the gradient floor
    1e-13 (1 + ||b||) come from data as given.

    inner: Newton-solve for x, then z <- prox_{p/sigma}(x - y/sigma) and
    y <- y - sigma (x - z), also after a capped inner solve.  The inner
    tolerance is eps_k / sigma times the step size, but never below
    EPS sigma ||x||, the rounding level of the gradient's sigma x term.
    """

    phase1_iters = 0

    def __init__(self, data: ProblemData, cfg: SolverConfig,
                 form: SquareRootForm):
        b_norm = float(np.linalg.norm(data.b))
        self.floor = 1e-13 * (1.0 + b_norm)
        self.sigma0 = max(1.0, b_norm / np.sqrt(data.m))
        self.data, self.gram, self.cfg = form.data, form.gram, cfg
        # every iterate is replaced, never updated in place
        self.x = self.z = self.y = self.u = np.zeros(data.n)
        self.xi = np.zeros(self.data.m)

    def inner(self, sigma, k, deadline):
        eps_k = tolerances(k)[0]
        x0, z0, y0 = self.x, self.z, self.y

        def stop(gn, x_c, pr):
            if gn <= max(self.floor, EPS * sigma * float(np.linalg.norm(x_c))):
                return True
            z_c = pr.prox / sigma
            y_c = y0 - sigma * (x_c - z_c)
            step = np.sqrt(float((x_c - x0) @ (x_c - x0))
                           + float((z_c - z0) @ (z_c - z0))
                           + float((y_c - y0) @ (y_c - y0)))
            return gn <= (eps_k / sigma) * min(1.0, step)

        sub = PrimalSubproblem(self.data, x0, y0, sigma, self.gram)
        self.x, _, pr, residuals, ncg, _ = newton(
            sub, x0, stop, self.cfg.ssn.max_newton, deadline)
        self.z = pr.prox / sigma
        self.y = y0 - sigma * (self.x - self.z)
        return residuals, ncg, True

    def measures(self):
        self.xi, self.u = dual_pair(self.z, self.data)
        return (*duality_metrics(self.x, self.xi, self.u, self.data),
                eta_kkt(self.x, self.data))


def solve_primal(data: ProblemData,
                 cfg: Optional[SolverConfig] = None) -> Solution:
    """Primal SSNAL: the shared outer loop over `PrimalStep`; terminates
    when max(eta_gap, eta_d, eta_kkt) <= cfg.tol."""
    return augmented_lagrangian(PrimalStep, data, cfg or SolverConfig())
