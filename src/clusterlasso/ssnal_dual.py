"""Dual augmented-Lagrangian solver with semismooth-Newton inner loops.

Works on the dual formulation

    min_{xi, u}  1/2 ||xi||^2 + <b, xi> + p*(u)   s.t.  A^T xi + u = 0,

driving xi with an inexact Newton method on the (smooth, strongly convex)
augmented-Lagrangian subproblem and recovering the primal iterate through
the prox.  Preferred when m <= n: the Newton systems live in R^m and their
curvature part A M A^T collapses to two thin factors.
"""

import time
from typing import Optional

import numpy as np
import scipy.linalg as sla

from .common import (CONVERGED, MAX_ITERS, MAX_TIME, DualState, SolverConfig,
                     Solution, newton)
from .jacobian import ProxJacobian, build_jacobian, design_factors
from .linalg import CgControls, cg_solve
from .metrics import duality_metrics, eta_kkt
from .problem import ProblemData
from .prox import prox_clustered


def solve_newton_system(jac: ProxJacobian, A, sigma: float, rhs: np.ndarray,
                        cfg: SolverConfig, counter=None) -> np.ndarray:
    """Solve (I + sigma A M A^T) h = rhs to the inexact-Newton tolerance.

    With the thin factors W = [A_free, A_pooled] the matrix is
    I + sigma W W^T.  Routing: SMW through the k = |free| + pools side when
    k < m (exact, cost m k^2), dense assembly when m is small, CG with the
    structured matvec otherwise (residual target min(eta_bar, ||rhs||^{1+tau})).
    """
    kdim = jac.free_idx.shape[0] + jac.npools
    m = A.m
    if kdim == 0:
        return rhs.copy()
    A_free, A_pooled = design_factors(jac, A)

    if kdim <= cfg.dense_cap and kdim < m:
        W = np.hstack([A_free.toarray(), A_pooled])
        S = W.T @ W
        S[np.diag_indices_from(S)] += 1.0 / sigma
        c, low = sla.cho_factor(S, lower=True)
        q = sla.cho_solve((c, low), W.T @ rhs)
        return rhs - W @ q
    if m <= cfg.dense_cap:
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

    ctrl = CgControls(max_iters=cfg.cg.max_iters, rel_tol=0.0, abs_tol=target)
    return cg_solve(apply, rhs, ctrl)


class DualSubproblem:
    """The dual augmented-Lagrangian subproblem in xi at (x_tilde, sigma):

    psi(xi) = 1/2||xi||^2 + <b,xi> + sigma/2 ||prox_p(y)||^2
              - ||x_tilde||^2 / (2 sigma),

    with y = x_tilde/sigma - A^T xi (the aux vector `newton` carries) and
    gradient xi + b - sigma A prox_p(y); the conjugate-penalty term
    vanishes on its domain.
    """

    def __init__(self, data: ProblemData, x_tilde: np.ndarray, sigma: float,
                 cfg: SolverConfig):
        self.data = data
        self.pen = data.require_penalties()
        self.sigma = sigma
        self.cfg = cfg
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

    def direction(self, pr, g, counter):
        jac = build_jacobian(pr, self.pen, self.cfg.ties_tol)
        return solve_newton_system(jac, self.data.A, self.sigma, -g, self.cfg,
                                   counter=counter)

    def lift(self, h):
        return -self.data.A.tmatvec(h)


def solve(data: ProblemData, cfg: Optional[SolverConfig] = None,
          warm: Optional[DualState] = None) -> Solution:
    """Outer augmented-Lagrangian loop on the dual; returns a Solution.

    Per outer iteration k: inexactly minimize the subproblem in xi (inner
    tolerance combining the summable eps_k rule with the two relative
    rules), then u <- y - prox_p(y) and x <- sigma * prox_p(y) with
    y = x/sigma - A^T xi, then grow sigma.  When the inner loop cannot meet
    its tolerance within the Newton cap, the multiplier update is skipped
    and sigma is shrunk instead of grown (growth stays capped below the
    failed level until the inner loop is comfortable again); this keeps the
    subproblems solvable on badly scaled designs.  Terminates when
    max(eta_gap, eta_d, eta_kkt) <= cfg.tol.
    """
    cfg = cfg or SolverConfig()
    A, b = data.A, data.b
    t0 = time.perf_counter()
    deadline = t0 + cfg.max_time
    norm_b = float(np.linalg.norm(b))
    floor = 1e-13 * (1.0 + norm_b)

    if warm is not None:
        xi = np.array(warm.xi, dtype=np.float64)
        u = np.array(warm.u, dtype=np.float64)
        x = np.array(warm.x, dtype=np.float64)
        sigma = warm.sigma
    else:
        xi = np.zeros(A.m)
        u = np.zeros(A.n)
        x = np.zeros(A.n)
        sigma = cfg.sigma0 if cfg.sigma0 is not None else max(
            1.0, norm_b / np.sqrt(A.m))

    status = MAX_ITERS
    total_newton = 0
    total_cg = 0
    newton_residuals = []
    pobj = dobj = e_gap = e_d = e_kkt = np.inf
    outer = 0
    k = 0  # successful multiplier updates; drives the tolerance sequences
    sigma_ceiling = cfg.sigma_max
    for attempt in range(cfg.max_outer):
        outer = attempt + 1
        eps_k = cfg.eps_k(k)
        delta_k = cfg.delta_k(k)
        deltap_k = cfg.delta_prime_k(k)
        sqrt_sigma = np.sqrt(sigma)
        sub = DualSubproblem(data, x, sigma, cfg)

        def stop(gn, _xi, pr):
            if gn <= floor:
                return True
            if gn > eps_k / sqrt_sigma:
                return False
            feas = float(np.linalg.norm(sub.x_over_sigma - pr.prox))
            return gn <= min(delta_k * sqrt_sigma, deltap_k) * feas

        xi, y, pr, residuals, ncg, hit_cap = newton(sub, xi, stop, cfg.ssn,
                                                    deadline)
        newton_residuals.append(residuals)
        total_newton += len(residuals) - 1
        total_cg += ncg

        if not hit_cap:
            u = y - pr.prox
            x = sigma * pr.prox
            k += 1

        pobj, dobj, e_gap, e_d = duality_metrics(x, xi, u, data)
        e_kkt = eta_kkt(x, data)
        if max(e_gap, e_d, e_kkt) <= cfg.tol:
            status = CONVERGED
            break
        if time.perf_counter() > deadline:
            status = MAX_TIME
            break

        if hit_cap:
            # The subproblem was too hard at this penalty level: keep the
            # xi progress but drop the multiplier update, cap future growth
            # below the level that failed, and retry with a gentler sigma.
            sigma_ceiling = sigma / 2.0
            sigma = max(cfg.sigma_min, sigma / cfg.sigma_shrink)
            continue
        if len(residuals) - 1 <= 3 and cfg.sigma_growth * sigma > sigma_ceiling:
            # Inner Newton is cruising while pinned at the ceiling; probe a
            # higher penalty level again.
            sigma_ceiling = min(2.0 * sigma_ceiling, cfg.sigma_max)
        sigma = min(cfg.sigma_growth * sigma, sigma_ceiling, cfg.sigma_max)

    return Solution(
        x=x, xi=xi, u=u, pobj=pobj, dobj=dobj, eta_gap=e_gap, eta_d=e_d,
        eta_kkt=e_kkt, status=status, outer_iters=outer,
        total_newton_iters=total_newton, total_cg_iters=total_cg,
        wall_time=time.perf_counter() - t0,
        newton_residuals=newton_residuals)
