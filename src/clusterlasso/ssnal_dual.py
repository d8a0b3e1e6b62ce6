"""Dual augmented-Lagrangian solver with semismooth-Newton inner loops.

Works on the dual formulation

    min_{xi, u}  1/2 ||xi||^2 + <b, xi> + p*(u)   s.t.  A^T xi + u = 0,

driving xi with an inexact Newton method on the (smooth, strongly convex)
augmented-Lagrangian subproblem and recovering the primal iterate through
the prox.  Preferred when m <= n: the Newton systems live in R^m and their
curvature part A M A^T collapses to two thin factors.  On tall designs
the same systems are solved through the n-side with a cached A^T A.
"""

from typing import Optional

import numpy as np
import scipy.linalg as sla

from .common import (DENSE_CAP, NEWTON_CG_ITERS, SolverConfig, Solution,
                     augmented_lagrangian, newton, tall_gram, tolerances)
from .jacobian import ProxJacobian, build_jacobian, design_factors
from .linalg import cg_solve, estimate_lipschitz
from .metrics import duality_metrics, eta_kkt
from .problem import ProblemData
from .prox import prox_clustered

# sigma_0 lambda_max(A A^T) at the start of the dual's outer loop; the
# product is unchanged when A or b is rescaled
SIGMA0_CURVATURE = 100.0


def solve_newton_system(jac: ProxJacobian, A, sigma: float, rhs: np.ndarray,
                        cfg: SolverConfig, counter=None,
                        gram: Optional[np.ndarray] = None,
                        at_rhs: Optional[np.ndarray] = None):
    """Solve (I + sigma A M A^T) h = rhs to the inexact-Newton tolerance.

    Returns (h, -A^T h): the step and the change of y = x/sigma - A^T xi
    along it.  With M = P P^T (`ProxJacobian.restrict` applies P^T) the
    matrix is I + sigma (AP)(AP)^T, k = |free| + pools columns.  Routing:
    - gram = A^T A given (tall designs), with at_rhs = A^T rhs, which
      the caller forms on the n-side: Woodbury through the k-side,
      h = rhs - A P q with q = (I/sigma + P^T G P)^{-1} P^T A^T rhs, so
      A^T h = A^T rhs - G P q.  One product with A around a k x k
      Cholesky; no m x k array is formed;
    - otherwise `_solve_thin` by cost, and -A^T h by one product with A^T.
    """
    if jac.free_idx.shape[0] + jac.npools == 0:
        return rhs.copy(), -(A.tmatvec(rhs) if gram is None else at_rhs)
    if gram is None:
        h = _solve_thin(jac, A, sigma, rhs, cfg, counter)
        return h, -A.tmatvec(h)
    S = jac.restrict(jac.restrict(gram).T)
    S[np.diag_indices_from(S)] += 1.0 / sigma
    c, low = sla.cho_factor(S, lower=True)
    pq = jac.extend(sla.cho_solve((c, low), jac.restrict(at_rhs)))
    return rhs - A.matvec(pq), gram @ pq - at_rhs


def _solve_thin(jac: ProxJacobian, A, sigma: float, rhs: np.ndarray,
                cfg: SolverConfig, counter) -> np.ndarray:
    """h with (I + sigma A M A^T) h = rhs through the thin factors
    W = [A_free, A_pooled] = AP:
    - SMW when k < m and k <= DENSE_CAP (exact, cost m k^2);
    - dense assembly when m <= DENSE_CAP;
    - CG with the structured matvec otherwise (residual target
      min(eta_bar, ||rhs||^{1+tau}), at most NEWTON_CG_ITERS iterations).
    """
    kdim = jac.free_idx.shape[0] + jac.npools
    m = A.m
    A_free, A_pooled = design_factors(jac, A)

    if kdim <= DENSE_CAP and kdim < m:
        W = np.hstack([A_free.toarray(), A_pooled])
        S = W.T @ W
        S[np.diag_indices_from(S)] += 1.0 / sigma
        c, low = sla.cho_factor(S, lower=True)
        q = sla.cho_solve((c, low), W.T @ rhs)
        return rhs - W @ q
    if m <= DENSE_CAP:
        Af = A_free.toarray()
        V = sigma * (Af @ Af.T)
        if A_pooled.size:
            V += sigma * (A_pooled @ A_pooled.T)
        V[np.diag_indices_from(V)] += 1.0
        c, low = sla.cho_factor(V, lower=True)
        return sla.cho_solve((c, low), rhs)

    target = min(cfg.ssn.eta_bar, float(np.linalg.norm(rhs)) ** (1.0 + cfg.ssn.tau))
    nf = A_free.n

    def apply(v):
        if counter is not None:
            counter[0] += 1
        q = np.concatenate([A_free.tmatvec(v), A_pooled.T @ v])
        return v + sigma * (A_free.matvec(q[:nf]) + A_pooled @ q[nf:])

    return cg_solve(apply, rhs, target, NEWTON_CG_ITERS)


class DualSubproblem:
    """The dual augmented-Lagrangian subproblem in xi at (x_tilde, sigma):

    psi(xi) = 1/2||xi||^2 + <b,xi> + sigma/2 ||prox_p(y)||^2
              - ||x_tilde||^2 / (2 sigma),

    with y = x_tilde/sigma - A^T xi (the aux vector `newton` carries) and
    gradient xi + b - sigma A prox_p(y); the conjugate-penalty term
    vanishes on its domain.  gram (A^T A or None) picks the Newton-system
    route.  With it, atb = A^T b and the route's right-hand side comes
    from the n-side: A^T xi = x_tilde/sigma - y, so

        A^T grad = (x_tilde/sigma - y) + A^T b - sigma G prox_p(y),

    and a Newton step does one product with A for the gradient and one
    in `solve_newton_system`.
    """

    def __init__(self, data: ProblemData, x_tilde: np.ndarray, sigma: float,
                 cfg: SolverConfig, gram: Optional[np.ndarray] = None,
                 atb: Optional[np.ndarray] = None):
        self.data = data
        self.pen = data.require_penalties()
        self.sigma = sigma
        self.cfg = cfg
        self.gram = gram
        self.atb = atb
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

    def direction(self, y, pr, g, counter):
        jac = build_jacobian(pr, self.pen)
        at_rhs = None
        if self.gram is not None:
            at_rhs = ((y - self.x_over_sigma) - self.atb
                      + self.sigma * (self.gram @ pr.prox))
        return solve_newton_system(jac, self.data.A, self.sigma, -g, self.cfg,
                                   counter=counter, gram=self.gram,
                                   at_rhs=at_rhs)

    def lift(self, h):
        return -self.data.A.tmatvec(h)


class DualStep:
    """One outer iteration of the dual augmented Lagrangian.

    inner: inexactly minimize the subproblem in xi (the summable eps_k rule
    combined with the two relative rules), then u <- y - prox_p(y) and
    x <- sigma * prox_p(y) with y = x/sigma - A^T xi.  When the Newton cap
    runs out first, the xi progress is kept but the multiplier update is
    skipped and the step reported as rejected, so the outer loop backs
    sigma off; this keeps the subproblems solvable on badly scaled designs.

    sigma0 = SIGMA0_CURVATURE / L with L a 10-step power estimate of
    lambda_max(A^T A) (1 when A is zero), so the first subproblem's
    curvature sigma A M A^T has the same size whatever the scale of A and
    b.  gram is `tall_gram`'s A^T A or None, and atb = A^T b goes with it.
    """

    z = None

    def __init__(self, data: ProblemData, cfg: SolverConfig):
        self.data = data
        self.cfg = cfg
        self.floor = 1e-13 * (1.0 + float(np.linalg.norm(data.b)))
        lip = estimate_lipschitz(data.A, iters=10)
        self.sigma0 = SIGMA0_CURVATURE / lip if lip > 0.0 else 1.0
        self.gram = tall_gram(data.A)
        self.atb = None if self.gram is None else data.A.tmatvec(data.b)
        self.xi = np.zeros(data.A.m)
        self.u = self.x = np.zeros(data.A.n)  # replaced, never updated

    def inner(self, sigma, k, deadline):
        eps_k, delta_k, deltap_k = tolerances(k)
        sqrt_sigma = np.sqrt(sigma)
        sub = DualSubproblem(self.data, self.x, sigma, self.cfg, self.gram,
                             self.atb)

        def stop(gn, _xi, pr):
            if gn <= self.floor:
                return True
            if gn > eps_k / sqrt_sigma:
                return False
            feas = float(np.linalg.norm(sub.x_over_sigma - pr.prox))
            return gn <= min(delta_k * sqrt_sigma, deltap_k) * feas

        self.xi, y, pr, residuals, ncg, hit_cap = newton(
            sub, self.xi, stop, self.cfg.ssn, deadline)
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
