"""First-order baselines: ADMM on either formulation and accelerated
proximal gradient.  These are the reference points the Newton solvers are
benchmarked against; each one touches the prox, products with A and A^T, and
at most one n x n or m x m matrix, on whichever side is smaller.
"""

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .common import CONVERGED, MAX_ITERS, MAX_TIME, Solution
from .linalg import cg_solve, estimate_lipschitz
from .metrics import duality_metrics, eta_kkt, eta_rel, primal_objective
from .problem import ProblemData
from .prox import prox_clustered, prox_conjugate

# ADMM multiplier step length; convergence needs kappa < (1 + sqrt 5) / 2,
# the golden ratio, and 1.618 sits just below it
KAPPA = 1.618
# ADMM penalty parameter at the first iteration (adaptive_sigma moves it)
SIGMA0 = 1.0
# CG iteration cap of the inexact d-ADMM solve
CG_MAX_ITERS = 1000


@dataclass
class FirstOrderConfig:
    """Shared controls for the baselines.

    tol_metric picks the stopping rule: "kkt" checks the scaled natural-map
    residual against tol, "rel" checks the signed relative objective gap
    against ref_pobj.  variant applies to the dual ADMM only: "exact"
    solves with a Cholesky factor of I + sigma A A^T (of I + sigma A^T A
    when n < m), refactored whenever adaptive_sigma moves sigma; "inexact"
    solves by warm-started CG with a summable tolerance
    min(0.9^k, 0.1 ||rhs||); "linearized" replaces the solve with a
    majorized step of weight `estimate_lipschitz(A)` >= lambda_max(A A^T).
    The ADMM step length, starting sigma and CG cap are the module
    constants KAPPA, SIGMA0 and CG_MAX_ITERS.
    """

    tol: float = 1e-6
    tol_metric: str = "kkt"
    ref_pobj: Optional[float] = None
    max_iters: int = 20000
    max_time: float = 10800.0
    variant: str = "exact"
    adaptive_sigma: bool = False
    track_objective: bool = False
    check_every: int = 1

    def __post_init__(self):
        if self.tol_metric not in ("kkt", "rel"):
            raise ValueError("tol_metric must be 'kkt' or 'rel'")
        if self.variant not in ("exact", "inexact", "linearized"):
            raise ValueError("variant must be exact, inexact or linearized")
        if self.tol_metric == "rel" and self.ref_pobj is None:
            raise ValueError("tol_metric='rel' needs ref_pobj")
        if self.max_iters < 1 or self.check_every < 1:
            raise ValueError("max_iters and check_every must be >= 1")


def _finish(x, xi, u, data, status, iters, t0, e_rel, trace, z=None,
            cg_iters=0):
    pobj, dobj, e_gap, e_d = duality_metrics(x, xi, u, data)
    return Solution(
        x=x, xi=xi, u=u, pobj=pobj, dobj=dobj, eta_gap=e_gap, eta_d=e_d,
        eta_kkt=eta_kkt(x, data), status=status or MAX_ITERS,
        outer_iters=iters, total_cg_iters=cg_iters,
        wall_time=time.perf_counter() - t0, z=z, eta_rel=e_rel,
        obj_trace=trace)


def _check(cfg, data, x, it, trace, deadline, e_rel):
    """Loop tail shared by the baselines: objective trace, the configured
    stopping rule every check_every iterations, then the deadline.

    Returns (status, eta_rel): status is None while the loop goes on.
    """
    if trace is not None:
        trace.append((it, primal_objective(x, data)))
    if it % cfg.check_every == 0:
        if cfg.tol_metric == "rel":
            pobj = (trace[-1][1] if trace is not None
                    else primal_objective(x, data))
            e_rel = eta_rel(pobj, cfg.ref_pobj)
            if e_rel <= cfg.tol:
                return CONVERGED, e_rel
        elif eta_kkt(x, data) <= cfg.tol:
            return CONVERGED, e_rel
    if time.perf_counter() > deadline:
        return MAX_TIME, e_rel
    return None, e_rel


def _sigma_scale(r_feas, s_feas):
    """Adaptive-penalty factor: double sigma while primal infeasibility
    leads dual infeasibility tenfold, halve it in the opposite case."""
    return 2.0 if r_feas > 10.0 * s_feas else (
        0.5 if s_feas > 10.0 * r_feas else 1.0)


def d_admm_solve(data: ProblemData, cfg: Optional[FirstOrderConfig] = None,
                 x0: Optional[np.ndarray] = None,
                 u0: Optional[np.ndarray] = None) -> Solution:
    """ADMM on the dual formulation.

    Iterates: solve (I + sigma A A^T) xi = -b + A(x - sigma u), then
    u <- proj_{dom p*}(x/sigma - A^T xi), then the multiplier step
    x <- x - kappa sigma (A^T xi + u).

    Only A^T xi enters the loop.  The exact variant on a tall design
    (n < m) takes it from the n x n side: with w = x - sigma u and
    G = A^T A, the push-through identity
    A^T (I + sigma A A^T)^{-1} = (I + sigma G)^{-1} A^T gives
    A^T xi = (I + sigma G)^{-1} (G w - A^T b), and xi = A(w - sigma A^T xi)
    - b is formed once, after the loop.  The linearized variant reuses the
    previous A^T xi, two products with A per iteration.
    """
    cfg = cfg or FirstOrderConfig()
    pen = data.require_penalties()
    A, b = data.A, data.b
    m, n = A.m, A.n
    t0 = time.perf_counter()
    deadline = t0 + cfg.max_time
    sigma = SIGMA0

    x = np.zeros(n) if x0 is None else np.array(x0, dtype=np.float64)
    u = np.zeros(n) if u0 is None else np.array(u0, dtype=np.float64)
    xi = np.zeros(m)
    at_xi = np.zeros(n)

    gram_side = cfg.variant == "exact" and n < m
    if cfg.variant == "exact":
        if gram_side:
            gram = A.gram()
            atb = A.tmatvec(b)
        else:
            gram = A.raw @ A.raw.T
            if sp.issparse(gram):
                gram = np.asarray(gram.todense())

        def factor(sig):
            V = sig * gram
            V[np.diag_indices_from(V)] += 1.0
            return sla.cho_factor(V, lower=True)

        chol = factor(sigma)
    elif cfg.variant == "linearized":
        lip = estimate_lipschitz(A)
        if lip <= 0:
            raise ValueError("linearized variant needs a nonzero design")

    cg_count = [0]

    def apply(v):
        cg_count[0] += 1
        return v + sigma * A.matvec(A.tmatvec(v))

    trace = [] if cfg.track_objective else None
    status = e_rel = None
    u_prev = u.copy()
    it = 0
    for it in range(1, cfg.max_iters + 1):
        if cfg.variant == "linearized":
            g = A.matvec(at_xi + u - x / sigma)
            xi = (sigma * lip * xi - b - sigma * g) / (1.0 + sigma * lip)
            at_xi = A.tmatvec(xi)
        elif gram_side:
            w = x - sigma * u
            at_xi = sla.cho_solve(chol, gram @ w - atb)
            xi_arg = w - sigma * at_xi
        else:
            rhs = -b + A.matvec(x - sigma * u)
            if cfg.variant == "exact":
                xi = sla.cho_solve(chol, rhs)
            else:
                tol_k = min(0.9 ** it, 0.1 * float(np.linalg.norm(rhs)))
                xi = cg_solve(apply, rhs, max(tol_k, 1e-14), CG_MAX_ITERS,
                              x0=xi)
            at_xi = A.tmatvec(xi)
        v = x / sigma - at_xi
        pr = prox_clustered(v, pen)
        u = v - pr.prox
        x = x - KAPPA * sigma * (at_xi + u)

        if cfg.adaptive_sigma and it % 100 == 0 and cfg.variant != "linearized":
            scale = _sigma_scale(float(np.linalg.norm(at_xi + u)),
                                 sigma * float(np.linalg.norm(u - u_prev)))
            if scale != 1.0:
                sigma *= scale
                if cfg.variant == "exact":
                    chol = factor(sigma)
        u_prev = u

        status, e_rel = _check(cfg, data, x, it, trace, deadline, e_rel)
        if status:
            break

    if gram_side:
        xi = A.matvec(xi_arg) - b
    return _finish(x, xi, u, data, status, it, t0, e_rel, trace,
                   cg_iters=cg_count[0])


def p_admm_solve(data: ProblemData, cfg: Optional[FirstOrderConfig] = None,
                 z0: Optional[np.ndarray] = None,
                 y0: Optional[np.ndarray] = None) -> Solution:
    """ADMM on the primal splitting x - z = 0.

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

    z = np.zeros(n) if z0 is None else np.array(z0, dtype=np.float64)
    yv = np.zeros(n) if y0 is None else np.array(y0, dtype=np.float64)

    gram = np.array(A.gram(), dtype=np.float64)
    atb = A.tmatvec(b)

    def factor(sig):
        G = gram.copy()
        G[np.diag_indices_from(G)] += sig
        return sla.cho_factor(G, lower=True)

    chol = factor(sigma)

    trace = [] if cfg.track_objective else None
    status = e_rel = None
    x = np.zeros(n)
    z_prev = z.copy()
    it = 0
    for it in range(1, cfg.max_iters + 1):
        x = sla.cho_solve(chol, atb + sigma * z + yv)
        pr = prox_clustered(sigma * x - yv, pen)
        z = pr.prox / sigma
        yv = yv - KAPPA * sigma * (x - z)

        if cfg.adaptive_sigma and it % 100 == 0:
            scale = _sigma_scale(float(np.linalg.norm(x - z)),
                                 sigma * float(np.linalg.norm(z - z_prev)))
            if scale != 1.0:
                sigma *= scale
                chol = factor(sigma)
        z_prev = z

        status, e_rel = _check(cfg, data, x, it, trace, deadline, e_rel)
        if status:
            break

    xi = A.matvec(z) - b
    u = prox_conjugate(-A.tmatvec(xi), 1.0, pen)
    return _finish(x, xi, u, data, status, it, t0, e_rel, trace, z=z)


def apg_solve(data: ProblemData, cfg: Optional[FirstOrderConfig] = None,
              x0: Optional[np.ndarray] = None,
              lipschitz: Optional[float] = None) -> Solution:
    """Accelerated proximal gradient with the usual momentum sequence
    t_{k+1} = (1 + sqrt(1 + 4 t_k^2)) / 2."""
    cfg = cfg or FirstOrderConfig()
    pen = data.require_penalties()
    A, b = data.A, data.b
    n = A.n
    t0 = time.perf_counter()
    deadline = t0 + cfg.max_time

    L = lipschitz if lipschitz is not None else estimate_lipschitz(A)
    if L <= 0:
        raise ValueError("need a positive Lipschitz estimate (zero matrix?)")

    x = np.zeros(n) if x0 is None else np.array(x0, dtype=np.float64)
    w = x.copy()
    t = 1.0
    # on a dense tall design A^T A is smaller than A, and one n x n product
    # per gradient replaces two m x n ones
    gram = A.gram() if not A.is_sparse and n < A.m else None
    if gram is not None:
        atb = A.tmatvec(b)

    trace = [] if cfg.track_objective else None
    status = e_rel = None
    it = 0
    for it in range(1, cfg.max_iters + 1):
        if gram is None:
            grad = A.tmatvec(A.matvec(w) - b)
        else:
            grad = gram @ w - atb
        # prox_{p/L}(w - grad/L) = prox_p(L w - grad) / L by homogeneity
        pr = prox_clustered(L * w - grad, pen)
        x_new = pr.prox / L
        t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        w = x_new + ((t - 1.0) / t_new) * (x_new - x)
        x, t = x_new, t_new

        status, e_rel = _check(cfg, data, x, it, trace, deadline, e_rel)
        if status:
            break

    xi = A.matvec(x) - b
    u = prox_conjugate(-A.tmatvec(xi), 1.0, pen)
    return _finish(x, xi, u, data, status, it, t0, e_rel, trace)
