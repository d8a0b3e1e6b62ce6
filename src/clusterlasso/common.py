"""Configuration and result types shared by the Newton and first-order
solvers, and the semismooth-Newton inner loop both SSNAL solvers run."""

import time
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .linalg import CgControls

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
    value the subproblem's gradient and value, direction(pr, g, counter)
    the Newton step for -g (CG iterations added to counter[0]) and lift(h)
    the change of aux along h.  stop(gnorm, v, pr) decides sufficiency.

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
        h = sub.direction(pr, g, cg_counter)
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


@dataclass
class SolverConfig:
    """Outer augmented-Lagrangian schedule and stopping controls.

    sigma0 = None means max(1, ||b|| / sqrt(m)), picked at solve time.
    Subproblem tolerance sequences: eps_k = eps0 * 0.5^k,
    delta_k = delta0 * 0.5^k, delta_prime_k = 1 / (k + 1).
    """

    tol: float = 1e-6
    max_outer: int = 100
    max_time: float = 10800.0
    sigma0: Optional[float] = None
    sigma_growth: float = 3.0
    sigma_max: float = 1e6
    sigma_shrink: float = 4.0
    sigma_min: float = 1e-8
    eps0: float = 1.0
    delta0: float = 0.1
    ssn: SsnControls = field(default_factory=SsnControls)
    cg: CgControls = field(default_factory=lambda: CgControls(max_iters=500))
    dense_cap: int = 4000
    ties_tol: float = 1e-10

    def __post_init__(self):
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.max_outer < 1:
            raise ValueError("max_outer must be >= 1")
        if self.sigma0 is not None and self.sigma0 <= 0:
            raise ValueError("sigma0 must be positive")
        if self.sigma_growth < 1 or self.sigma_max <= 0:
            raise ValueError("bad sigma schedule")
        if self.sigma_shrink <= 1 or not 0 < self.sigma_min <= self.sigma_max:
            raise ValueError("bad sigma recovery bounds")

    def eps_k(self, k: int) -> float:
        return self.eps0 * 0.5 ** k

    def delta_k(self, k: int) -> float:
        return self.delta0 * 0.5 ** k

    def delta_prime_k(self, k: int) -> float:
        return 1.0 / (k + 1.0)


@dataclass
class DualState:
    """Warm-start state for the dual solver."""

    xi: np.ndarray
    u: np.ndarray
    x: np.ndarray
    sigma: float


@dataclass
class PrimalState:
    """Warm-start state for the primal solver."""

    x: np.ndarray
    z: np.ndarray
    y: np.ndarray
    sigma: float


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
