"""First-order baselines: ADMM on either formulation and accelerated
proximal gradient.  These are the reference points the Newton solvers are
benchmarked against; each one touches the prox, products with A and A^T, and
at most one n x n or m x m matrix, on whichever side is smaller.  Dual ADMM
at fixed sigma is also the dual SSNAL's phase I.
"""

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import common
from .common import CONVERGED, MAX_ITERS, MAX_TIME, Solution
from .linalg import cg_solve, cho_solve, cholesky, estimate_lipschitz
from .metrics import (dual_pair, duality_metrics, eta_kkt, eta_rel,
                      primal_objective)
from .problem import ProblemData
from .prox import prox_clustered

# ADMM multiplier step length; convergence needs kappa < (1 + sqrt 5) / 2,
# the golden ratio, and 1.618 sits just below it
KAPPA = 1.618
# primal ADMM's penalty parameter at the first iteration (adaptive_sigma
# moves it by _sigma_scale every SIGMA_EVERY iterations)
SIGMA0 = 1.0
# dual ADMM's first penalty parameter is DUAL_SIGMA0_CURVATURE / L, L a
# 10-step power estimate of lambda_max(A A^T) (1 for a zero A), so that
# I + sigma A A^T, and with it every iteration count, is the same whatever
# the scale of A and b.  Measured over 3e2 to 1e4 as the dual SSNAL's
# fixed-sigma phase I (`ssnal_dual.PHASE1_ITERS`) on the benchmark's three
# instance families and the acceptance grid: 3e3 was faster on n >> m
# designs, but it raised adaptive d-ADMM on the seed-47 first_order pool
# from 4290 to 4780 iterations, where 2e3 lowered it to 3700
DUAL_SIGMA0_CURVATURE = 2e3
# Iterations between two sigma-balancing steps.  Of 1, 2, 5 and 10, 2 took
# the fewest ADMM iterations on the seed-1 first_order benchmark pool (dual
# 4630, primal 1470, against 9050 and 4700 at 100) with sigma changing about
# as often as at 100; at 1, sigma oscillates and changes far more often
SIGMA_EVERY = 2
# CG iteration cap of d-ADMM's solve past DENSE_CAP
CG_MAX_ITERS = 1000


@dataclass
class FirstOrderConfig:
    """Shared controls for the baselines.

    The stopping rule checks the signed relative objective gap against
    ref_pobj when one is given, else the scaled natural-map residual,
    each against tol (0 runs to max_iters).  The dual ADMM's linear
    solve is no setting: it factors while min(m, n) <= `DENSE_CAP`, as
    the Newton routes do, and runs CG past it (see `d_admm_solve`).
    adaptive_sigma (on by default) rebalances sigma every SIGMA_EVERY
    iterations; off, sigma stays where it started: at SIGMA0 for the
    primal ADMM, at DUAL_SIGMA0_CURVATURE / L for the dual one (L the
    power estimate of lambda_max(A A^T)).  The ADMM step length, starting
    sigmas, balancing cadence and CG cap are the module constants KAPPA,
    SIGMA0, DUAL_SIGMA0_CURVATURE, SIGMA_EVERY and CG_MAX_ITERS.
    """

    tol: float = 1e-6
    ref_pobj: Optional[float] = None
    max_iters: int = 20000
    max_time: float = 10800.0
    adaptive_sigma: bool = True
    check_every: int = 1

    def __post_init__(self):
        if not self.tol >= 0.0 or not self.max_time >= 0.0:
            raise ValueError("tol must be >= 0 and max_time >= 0")
        if self.max_iters < 1 or self.check_every < 1:
            raise ValueError("max_iters and check_every must be >= 1")


def _finish(x, xi, u, data, status, iters, t0, z=None, cg_iters=0):
    """The baselines' Solution, its measures taken at the returned x."""
    pobj, dobj, e_gap, e_d = duality_metrics(x, xi, u, data)
    return Solution(
        x=x, xi=xi, u=u, pobj=pobj, dobj=dobj, eta_gap=e_gap, eta_d=e_d,
        eta_kkt=eta_kkt(x, data), status=status or MAX_ITERS,
        outer_iters=iters, total_cg_iters=cg_iters,
        wall_time=time.perf_counter() - t0, z=z)


def _check(cfg, data, x, it, deadline, gram=None, atb=None):
    """Loop tail shared by the baselines: the configured stopping rule
    every check_every iterations, then the deadline.  A solver holding
    gram = A^T A and atb = A^T b passes them for eta_kkt.

    Returns the status, None while the loop goes on.
    """
    if it % cfg.check_every == 0:
        if cfg.ref_pobj is not None:
            if eta_rel(primal_objective(x, data), cfg.ref_pobj) <= cfg.tol:
                return CONVERGED
        elif eta_kkt(x, data,
                     None if gram is None else gram @ x - atb) <= cfg.tol:
            return CONVERGED
    if time.perf_counter() > deadline:
        return MAX_TIME
    return None


def _sigma_scale(r_feas, s_feas):
    """Adaptive-penalty factor: double sigma while primal infeasibility
    leads dual infeasibility tenfold, halve it in the opposite case."""
    return 2.0 if r_feas > 10.0 * s_feas else (
        0.5 if s_feas > 10.0 * r_feas else 1.0)


def d_admm_solve(data: ProblemData,
                 cfg: Optional[FirstOrderConfig] = None) -> Solution:
    """ADMM on the dual formulation, from x = u = xi = 0.

    Iterates: solve (I + sigma A A^T) xi = -b + A(x - sigma u), then
    u <- proj_{dom p*}(x/sigma - A^T xi), then the multiplier step
    x <- x - kappa sigma (A^T xi + u), from sigma = DUAL_SIGMA0_CURVATURE /
    L; L is `estimate_lipschitz` in 10 steps, from A^T A when the loop
    holds it.

    The xi-step is a Cholesky solve while min(m, n) <= `DENSE_CAP`,
    refactored whenever adaptive_sigma moves sigma; past the cap it is
    warm-started CG to the summable tolerance min(0.9^k, 0.1 ||rhs||).
    Only A^T xi enters the loop, so a factored tall design (n < m) takes
    it from the n x n side: with w = x - sigma u and G = A^T A, the
    push-through identity A^T (I + sigma A A^T)^{-1} = (I + sigma G)^{-1}
    A^T gives A^T xi = (I + sigma G)^{-1} (G w - A^T b), and
    xi = A(w - sigma A^T xi) - b is formed once, after the loop.
    """
    cfg = cfg or FirstOrderConfig()
    t0 = time.perf_counter()
    x, xi, u, it, status, cg_iters = _d_admm(data, cfg, t0 + cfg.max_time)
    return _finish(x, xi, u, data, status, it, t0, cg_iters=cg_iters)


def _d_admm(data, cfg, deadline, lip=None):
    """The iterations of `d_admm_solve`, also run as the dual SSNAL's
    phase I.  lip is the estimate of lambda_max(A A^T) that sigma starts
    from (made here when None).

    Returns (x, xi, u, iters, status, cg_iters).
    """
    pen = data.require_penalties()
    A, b = data.A, data.b
    m, n = A.m, A.n

    x = np.zeros(n)
    u = np.zeros(n)
    xi = np.zeros(m)

    factored = min(m, n) <= common.DENSE_CAP
    gram_side = factored and n < m
    if factored:
        if gram_side:
            gram = A.gram()
            atb = A.tmatvec(b)
        else:
            gram = A.raw @ A.raw.T
    if lip is None:
        lip = estimate_lipschitz(A, iters=10,
                                 gram=gram if gram_side else None)
    sigma = DUAL_SIGMA0_CURVATURE / lip if lip > 0.0 else 1.0
    if factored:
        chol = cholesky(sigma * gram, 1.0)

    cg_iters = 0
    status = None
    u_prev = u.copy()
    it = 0
    for it in range(1, cfg.max_iters + 1):
        if gram_side:
            w_sigma = sigma
            w = x - sigma * u
            at_xi = cho_solve(chol, gram @ w - atb)
        else:
            rhs = -b + A.matvec(x - sigma * u)
            if factored:
                xi = cho_solve(chol, rhs)
            else:
                tol_k = min(0.9 ** it, 0.1 * float(np.linalg.norm(rhs)))
                xi, calls = cg_solve(
                    lambda v: v + sigma * A.matvec(A.tmatvec(v)), rhs,
                    max(tol_k, 1e-14), CG_MAX_ITERS, x0=xi)
                cg_iters += calls
            at_xi = A.tmatvec(xi)
        v = x / sigma - at_xi
        pr = prox_clustered(v, pen)
        u = v - pr.prox
        x = x - KAPPA * sigma * (at_xi + u)

        if cfg.adaptive_sigma and it % SIGMA_EVERY == 0:
            scale = _sigma_scale(float(np.linalg.norm(at_xi + u)),
                                 sigma * float(np.linalg.norm(u - u_prev)))
            if scale != 1.0:
                sigma *= scale
                if factored:
                    chol = cholesky(sigma * gram, 1.0)
        u_prev = u

        status = _check(cfg, data, x, it, deadline,
                        *((gram, atb) if gram_side else ()))
        if status:
            break

    if gram_side:
        # sigma may have moved after w and at_xi were made
        xi = A.matvec(w - w_sigma * at_xi) - b
    return x, xi, u, it, status, cg_iters


def p_admm_solve(data: ProblemData,
                 cfg: Optional[FirstOrderConfig] = None) -> Solution:
    """ADMM on the primal splitting x - z = 0, from z = y = 0.

    Iterates: solve (sigma I + A^T A) x = A^T b + sigma z + y, then
    z <- prox_{p/sigma}(x - y/sigma), then y <- y - kappa sigma (x - z).
    """
    cfg = cfg or FirstOrderConfig()
    pen = data.require_penalties()
    A, b = data.A, data.b
    n = A.n
    t0 = time.perf_counter()
    deadline = t0 + cfg.max_time
    sigma = SIGMA0

    z = np.zeros(n)
    yv = np.zeros(n)

    gram = A.gram()
    atb = A.tmatvec(b)
    chol = cholesky(gram.copy(), sigma)

    status = None
    x = np.zeros(n)
    z_prev = z.copy()
    it = 0
    for it in range(1, cfg.max_iters + 1):
        x = cho_solve(chol, atb + sigma * z + yv)
        pr = prox_clustered(sigma * x - yv, pen)
        z = pr.prox / sigma
        yv = yv - KAPPA * sigma * (x - z)

        if cfg.adaptive_sigma and it % SIGMA_EVERY == 0:
            scale = _sigma_scale(float(np.linalg.norm(x - z)),
                                 sigma * float(np.linalg.norm(z - z_prev)))
            if scale != 1.0:
                sigma *= scale
                chol = cholesky(gram.copy(), sigma)
        z_prev = z

        status = _check(cfg, data, x, it, deadline, gram, atb)
        if status:
            break

    xi, u = dual_pair(z, data)
    return _finish(x, xi, u, data, status, it, t0, z=z)


def apg_solve(data: ProblemData,
              cfg: Optional[FirstOrderConfig] = None) -> Solution:
    """Accelerated proximal gradient from x = 0 with the usual momentum
    sequence t_{k+1} = (1 + sqrt(1 + 4 t_k^2)) / 2 and gradient restart.

    Each step takes x+ = prox_{p/L}(w - grad f(w)/L), L the 100-step
    `estimate_lipschitz` (1 for a zero A).  When
    <w - x+, x+ - x> > 0 the momentum points uphill, so the scheme
    restarts: t <- 1 and w <- x+.  Otherwise
    w <- x+ + ((t_k - 1)/t_{k+1})(x+ - x).  The restart rule has no
    parameter (O'Donoghue and Candes, "Adaptive restart for accelerated
    gradient schemes", Found. Comput. Math. 15, 2015).
    """
    cfg = cfg or FirstOrderConfig()
    pen = data.require_penalties()
    A, b = data.A, data.b
    n = A.n
    t0 = time.perf_counter()
    deadline = t0 + cfg.max_time

    # on a tall design within DENSE_CAP one product with A^T A replaces two
    # with A in each gradient, power iteration and stopping check
    gram, atb = ((A.gram(), A.tmatvec(b))
                 if n < A.m and n <= common.DENSE_CAP else (None, None))
    L = estimate_lipschitz(A, gram=gram)
    if L <= 0.0:  # a zero A, where every step leaves x = 0
        L = 1.0

    x = np.zeros(n)
    w = x.copy()
    t = 1.0

    status = None
    it = 0
    for it in range(1, cfg.max_iters + 1):
        if gram is None:
            grad = A.tmatvec(A.matvec(w) - b)
        else:
            grad = gram @ w - atb
        # prox_{p/L}(w - grad/L) = prox_p(L w - grad) / L by homogeneity
        pr = prox_clustered(L * w - grad, pen)
        x_new = pr.prox / L
        if np.dot(w - x_new, x_new - x) > 0.0:
            t, w = 1.0, x_new
        else:
            t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
            w = x_new + ((t - 1.0) / t_new) * (x_new - x)
            t = t_new
        x = x_new

        status = _check(cfg, data, x, it, deadline, gram, atb)
        if status:
            break

    xi, u = dual_pair(x, data)
    return _finish(x, xi, u, data, status, it, t0)
