"""Primal augmented-Lagrangian solver with semismooth-Newton inner loops.

Splits the problem as min 1/2||Ax - b||^2 + p(z) s.t. x - z = 0 and runs the
augmented Lagrangian in x, solving each subproblem by Newton on

    grad(x) = A^T(Ax - b) + (sigma + 1/sigma) x - (y_t + x_t/sigma)
              - prox_p(sigma x - y_t).

The Newton matrix A^T A + sigma (I - M) + I/sigma lives in R^n, so this
route is preferred when m >> n.  Its smallest eigenvalue is at least
1/sigma, so the dense factorization never meets a singular matrix.
"""

from typing import Optional

import numpy as np
import scipy.linalg as sla

from .common import (NEWTON_CG_ITERS, SolverConfig, Solution,
                     augmented_lagrangian, newton, tall_gram, tolerances)
from .jacobian import ProxJacobian, build_jacobian
from .linalg import cg_solve
from .metrics import duality_metrics, eta_kkt
from .problem import ProblemData
from .prox import penalty_value, prox_clustered, prox_conjugate

EPS = np.finfo(np.float64).eps


def solve_newton_system_primal(jac: ProxJacobian, A, sigma: float,
                               rhs: np.ndarray, cfg: SolverConfig,
                               gram: Optional[np.ndarray] = None,
                               counter=None) -> np.ndarray:
    """Solve (A^T A + sigma (I - M) + I/sigma) h = rhs.

    With a cached Gram matrix (`tall_gram`, so n <= DENSE_CAP): dense
    Cholesky of the matrix assembled from the mask/run structure.
    Otherwise CG with the structured matvec to the residual target
    min(eta_bar, ||rhs||^{1+tau}), at most NEWTON_CG_ITERS iterations.
    """
    n = jac.n
    if gram is not None:
        U = np.array(gram, dtype=np.float64)
        # add sigma (I - M) diagonally without cancellation: free
        # coordinates get 0, everything else sigma, pools then subtract
        # their sigma/size share
        diag_add = np.full(n, sigma)
        diag_add[jac.free_idx] = 0.0
        U[np.diag_indices_from(U)] += diag_add + 1.0 / sigma
        for t in range(jac.npools):
            lo = jac.pool_offsets[t]
            idx = jac.pool_idx[lo:lo + jac.pool_sizes[t]]
            U[np.ix_(idx, idx)] -= sigma / jac.pool_sizes[t]
        c, low = sla.cho_factor(U, lower=True)
        return sla.cho_solve((c, low), rhs)

    target = min(cfg.ssn.eta_bar, float(np.linalg.norm(rhs)) ** (1.0 + cfg.ssn.tau))

    def apply(v):
        if counter is not None:
            counter[0] += 1
        return A.tmatvec(A.matvec(v)) + sigma * (v - jac.apply(v)) + v / sigma

    return cg_solve(apply, rhs, target, NEWTON_CG_ITERS)


class PrimalSubproblem:
    """The primal augmented-Lagrangian subproblem in x at
    (x_tilde, y_tilde, sigma), with z = prox_p(sigma x - y_tilde) / sigma
    eliminated:

    phi(x) = 1/2||Ax - b||^2 + p(z) - <y_tilde, x - z> + sigma/2 ||x - z||^2
             + ||x - x_tilde||^2 / (2 sigma).

    Its gradient is the one in the module docstring.  gram (A^T A or None)
    picks the Newton-system route and the aux vector `newton` carries.
    Without it aux is Ax.  With it aux is G d, d = x - x_tilde, and the
    least-squares part expands about x_tilde:

        1/2||Ax - b||^2 = q + <g, d> + <d, G d>/2,   A^T(Ax - b) = g + G d,

    with q = 1/2||A x_tilde - b||^2 and g = A^T(A x_tilde - b) from one
    product with A and one with A^T per subproblem; a Newton step then
    touches only n-vectors.  The expansion is centred at x_tilde so that
    its terms shrink with the step instead of cancelling at the scale of
    A^T b.
    """

    def __init__(self, data: ProblemData, x_tilde: np.ndarray,
                 y_tilde: np.ndarray, sigma: float, cfg: SolverConfig,
                 gram: Optional[np.ndarray]):
        self.data = data
        self.pen = data.require_penalties()
        self.x_tilde = x_tilde
        self.y_tilde = y_tilde
        self.sigma = sigma
        self.cfg = cfg
        self.gram = gram
        self.shift = y_tilde + x_tilde / sigma
        self.coef = sigma + 1.0 / sigma
        if gram is not None:
            r = data.A.matvec(x_tilde) - data.b
            self.q_tilde = 0.5 * float(r @ r)
            self.g_tilde = data.A.tmatvec(r)

    def aux(self, x):
        if self.gram is None:
            return self.data.A.matvec(x)
        return self.gram @ (x - self.x_tilde)

    def prox(self, x, aux):
        return prox_clustered(self.sigma * x - self.y_tilde, self.pen)

    def grad(self, x, aux, pr):
        if self.gram is None:
            lsq = self.data.A.tmatvec(aux - self.data.b)
        else:
            lsq = self.g_tilde + aux
        return lsq + self.coef * x - self.shift - pr.prox

    def value(self, x, aux, pr):
        sigma = self.sigma
        z = pr.prox / sigma
        d = x - z
        dx = x - self.x_tilde
        if self.gram is None:
            r = aux - self.data.b
            lsq = 0.5 * float(r @ r)
        else:
            lsq = (self.q_tilde + float(self.g_tilde @ dx)
                   + 0.5 * float(dx @ aux))
        return (lsq + penalty_value(z, self.pen)
                - float(self.y_tilde @ d) + 0.5 * sigma * float(d @ d)
                + float(dx @ dx) / (2.0 * sigma))

    def direction(self, aux, pr, g, counter):
        jac = build_jacobian(pr, self.pen)
        h = solve_newton_system_primal(jac, self.data.A, self.sigma, -g,
                                       self.cfg, self.gram, counter=counter)
        return h, self.lift(h)

    def lift(self, h):
        if self.gram is None:
            return self.data.A.matvec(h)
        return self.gram @ h


class PrimalStep:
    """One outer iteration of the primal augmented Lagrangian.

    inner: Newton-solve for x, then z <- prox_{p/sigma}(x - y/sigma) and
    y <- y - sigma (x - z).  The inner tolerance is proportional to the
    step size, scaled by eps_k / sigma, but never below EPS sigma ||x||:
    the rounding level of the gradient's sigma x term, which no step can
    get under.  The multiplier step is taken even after a capped inner
    solve, so every step is accepted.  For the optimality
    measures the dual pair is xi = A z - b and u = proj_{dom p*}(-A^T xi).
    sigma0 = max(1, ||b|| / sqrt(m)).
    """

    def __init__(self, data: ProblemData, cfg: SolverConfig):
        A = data.A
        self.data = data
        self.cfg = cfg
        self.pen = data.require_penalties()
        self.floor = 1e-13 * (1.0 + float(np.linalg.norm(data.b)))
        self.sigma0 = max(1.0, float(np.linalg.norm(data.b)) / np.sqrt(A.m))
        self.gram = tall_gram(A)
        # every iterate is replaced, never updated in place
        self.x = self.z = self.y = self.u = np.zeros(A.n)
        self.xi = np.zeros(A.m)

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

        sub = PrimalSubproblem(self.data, x0, y0, sigma, self.cfg, self.gram)
        self.x, _, pr, residuals, ncg, _ = newton(sub, x0, stop, self.cfg.ssn,
                                                 deadline)
        self.z = pr.prox / sigma
        self.y = y0 - sigma * (self.x - self.z)
        return residuals, ncg, True

    def measures(self):
        A = self.data.A
        self.xi = A.matvec(self.z) - self.data.b
        self.u = prox_conjugate(-A.tmatvec(self.xi), 1.0, self.pen)
        return (*duality_metrics(self.x, self.xi, self.u, self.data),
                eta_kkt(self.x, self.data))


def solve_primal(data: ProblemData,
                 cfg: Optional[SolverConfig] = None) -> Solution:
    """Primal SSNAL: the shared outer loop over `PrimalStep`; terminates
    when max(eta_gap, eta_d, eta_kkt) <= cfg.tol."""
    return augmented_lagrangian(PrimalStep, data, cfg or SolverConfig())
