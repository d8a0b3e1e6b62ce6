"""Configuration and result types shared by the Newton and first-order
solvers, and the semismooth-Newton inner loop and augmented-Lagrangian
outer loop both SSNAL solvers run."""

import time
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

CONVERGED = "converged"
MAX_ITERS = "max_iters"
MAX_TIME = "max_time"


@dataclass(frozen=True)
class SsnControls:
    """Inner semismooth-Newton constants (Armijo + inexact-direction rule)."""

    mu: float = 1e-4
    eta_bar: float = 0.1
    tau: float = 0.5
    ls_shrink: float = 0.5
    max_newton: int = 50
    max_linesearch: int = 40

    def __post_init__(self):
        if not 0 < self.mu < 0.5:
            raise ValueError("mu must lie in (0, 1/2)")
        if not 0 < self.eta_bar < 1:
            raise ValueError("eta_bar must lie in (0, 1)")
        if not 0 < self.tau <= 1:
            raise ValueError("tau must lie in (0, 1]")
        if not 0 < self.ls_shrink < 1:
            raise ValueError("ls_shrink must lie in (0, 1)")


def newton(sub, v0, stop, ssn: SsnControls, deadline: float):
    """Inexact semismooth Newton with an Armijo line search on one
    augmented-Lagrangian subproblem.

    sub supplies the formulation: aux(v) is the design product carried
    along with the iterate, prox(v, aux) the prox result at v, grad and
    value the subproblem's gradient and value, lift(h) the change of aux
    along h, and direction(aux, pr, g, counter) the Newton step h for -g
    together with lift(h), which a route may get more cheaply than lift
    does (CG iterations added to counter[0]).  stop(gnorm, v, pr) decides
    sufficiency.

    Returns (v, aux, pr, residuals, cg_iters, hit_cap); residuals holds the
    gradient norm at every iterate, hit_cap whether max_newton ran out.
    """
    v = np.array(v0, dtype=np.float64)
    aux = sub.aux(v)
    pr = sub.prox(v, aux)
    residuals = []
    cg_counter = [0]
    for _ in range(ssn.max_newton):
        g = sub.grad(v, aux, pr)
        gn = float(np.linalg.norm(g))
        residuals.append(gn)
        if stop(gn, v, pr) or time.perf_counter() > deadline:
            return v, aux, pr, residuals, cg_counter[0], False
        h, dh = sub.direction(aux, pr, g, cg_counter)
        gh = float(g @ h)
        if gh >= 0.0:
            # inexact direction lost descent; fall back to steepest descent
            h = -g
            gh = -gn * gn
            dh = sub.lift(h)
        phi0 = sub.value(v, aux, pr)
        alpha = 1.0
        for _ in range(ssn.max_linesearch):
            v_t = v + alpha * h
            aux_t = aux + alpha * dh
            pr_t = sub.prox(v_t, aux_t)
            if sub.value(v_t, aux_t, pr_t) <= phi0 + ssn.mu * alpha * gh:
                break
            alpha *= ssn.ls_shrink
        v, aux, pr = v_t, aux_t, pr_t
    residuals.append(float(np.linalg.norm(sub.grad(v, aux, pr))))
    return v, aux, pr, residuals, cg_counter[0], True


# sigma schedule of the outer loop: x3 growth per accepted step, capped at
# SIGMA_MAX and by a ceiling that a rejected step lowers; /4 backoff
# floored at SIGMA_MIN.
SIGMA_GROWTH = 3.0
SIGMA_MAX = 1e6
SIGMA_SHRINK = 4.0
SIGMA_MIN = 1e-8
# inner tolerance sequences: eps_k = EPS0 0.5^k, delta_k = DELTA0 0.5^k
EPS0 = 1.0
DELTA0 = 0.1


def tolerances(k: int):
    """(eps_k, delta_k, delta'_k) after k accepted multiplier updates."""
    return EPS0 * 0.5 ** k, DELTA0 * 0.5 ** k, 1.0 / (k + 1.0)


# largest order of a dense matrix a Newton route will form and factor
DENSE_CAP = 4000
# CG iteration cap of the Newton routes that solve by CG
NEWTON_CG_ITERS = 500


def tall_gram(A) -> Optional[np.ndarray]:
    """A^T A when the design is tall enough for Newton systems through the
    n-side (n <= DENSE_CAP and m >= 4n), else None."""
    return A.gram() if A.n <= DENSE_CAP and A.m >= 4 * A.n else None


def augmented_lagrangian(make_step, data, cfg) -> "Solution":
    """Outer augmented-Lagrangian loop shared by both SSNAL solvers.

    make_step(data, cfg) builds the formulation's step (inside the timed
    window).  Per outer iteration step.inner(sigma, k, deadline) solves the
    subproblem and returns (residuals, cg_iters, accepted), applying the
    multiplier update only when accepted; k counts accepted updates and
    drives `tolerances`.  step.measures() gives (pobj, dobj, eta_gap,
    eta_d, eta_kkt) at the iterates step.x, step.xi, step.u, step.z.

    sigma starts at step.sigma0, which each formulation picks from the
    data.  An accepted step grows it; a rejected one keeps the iterates,
    shrinks sigma and caps later growth below the level that failed, until
    an inner solve of at most three Newton steps at the ceiling lets the
    ceiling double again.  Stops when max(eta_gap, eta_d, eta_kkt) <=
    cfg.tol.
    """
    t0 = time.perf_counter()
    deadline = t0 + cfg.max_time
    step = make_step(data, cfg)
    sigma = step.sigma0

    status = MAX_ITERS
    total_newton = total_cg = outer = k = 0
    newton_residuals = []
    pobj = dobj = e_gap = e_d = e_kkt = np.inf
    ceiling = SIGMA_MAX
    for outer in range(1, cfg.max_outer + 1):
        residuals, ncg, accepted = step.inner(sigma, k, deadline)
        newton_residuals.append(residuals)
        total_newton += len(residuals) - 1
        total_cg += ncg
        k += accepted

        pobj, dobj, e_gap, e_d, e_kkt = step.measures()
        if max(e_gap, e_d, e_kkt) <= cfg.tol:
            status = CONVERGED
            break
        if time.perf_counter() > deadline:
            status = MAX_TIME
            break

        if not accepted:
            ceiling = sigma / 2.0
            sigma = max(SIGMA_MIN, sigma / SIGMA_SHRINK)
            continue
        if len(residuals) - 1 <= 3 and SIGMA_GROWTH * sigma > ceiling:
            ceiling = min(2.0 * ceiling, SIGMA_MAX)
        sigma = min(SIGMA_GROWTH * sigma, ceiling, SIGMA_MAX)

    return Solution(
        x=step.x, xi=step.xi, u=step.u, z=step.z, pobj=pobj, dobj=dobj,
        eta_gap=e_gap, eta_d=e_d, eta_kkt=e_kkt, status=status,
        outer_iters=outer, total_newton_iters=total_newton,
        total_cg_iters=total_cg, wall_time=time.perf_counter() - t0,
        newton_residuals=newton_residuals)


@dataclass
class SolverConfig:
    """Stopping controls and inner Newton constants of the SSNAL solvers.

    The sigma schedule, the inner tolerance sequences and the Newton-system
    routes are fixed: they are module constants (`SIGMA_*`, `EPS0`,
    `DELTA0`, `DENSE_CAP`, `NEWTON_CG_ITERS`).
    """

    tol: float = 1e-6
    max_outer: int = 100
    max_time: float = 10800.0
    ssn: SsnControls = field(default_factory=SsnControls)

    def __post_init__(self):
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.max_outer < 1:
            raise ValueError("max_outer must be >= 1")


@dataclass
class Solution:
    """Solver output: primal/dual iterates, optimality measures, counters.

    newton_residuals holds one list of inner gradient norms per outer
    iteration (Newton solvers only); obj_trace is (iteration, objective)
    pairs when objective tracking was requested.
    """

    x: np.ndarray
    xi: np.ndarray
    u: np.ndarray
    pobj: float
    dobj: float
    eta_gap: float
    eta_d: float
    eta_kkt: float
    status: str
    outer_iters: int
    total_newton_iters: int = 0
    total_cg_iters: int = 0
    wall_time: float = 0.0
    z: Optional[np.ndarray] = None
    eta_rel: Optional[float] = None
    newton_residuals: List[List[float]] = field(default_factory=list)
    obj_trace: Optional[List[tuple]] = None

    @property
    def max_eta(self) -> float:
        return max(self.eta_gap, self.eta_d, self.eta_kkt)
