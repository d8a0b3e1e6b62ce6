"""Configuration and result types shared by the Newton and first-order
solvers, and the semismooth-Newton inner loop and augmented-Lagrangian
outer loop both SSNAL solvers run."""

import time
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .linalg import DesignMatrix, cholesky, solve_lower
from .problem import ProblemData

CONVERGED = "converged"
MAX_ITERS = "max_iters"
MAX_TIME = "max_time"


@dataclass(frozen=True)
class SsnControls:
    """Inner semismooth-Newton step cap; the Armijo and inexact-direction
    constants are the module constants below."""

    max_newton: int = 50

    def __post_init__(self):
        if self.max_newton < 1:
            raise ValueError("max_newton must be >= 1")


# inner line search of `newton` (safeguarded interpolation, Nocedal &
# Wright 3.5): Armijo constant, clip of the interpolated step relative to
# the failed one, shrink when the parabola has no minimizer, rounding
# level of the subproblem's value relative to |phi|, trial cap
MU = 1e-4
LS_CLIP_LOW = 0.1
LS_CLIP_HIGH = 0.5
LS_SHRINK = 0.5
LS_NOISE = 4.0 * np.finfo(np.float64).eps
MAX_LINESEARCH = 40
# inexact Newton direction: the linear solve's residual target is
# min(ETA_BAR, ||rhs||^{1+TAU})
ETA_BAR = 0.1
TAU = 0.5


def newton_cg_target(rhs: np.ndarray) -> float:
    """Residual target min(ETA_BAR, ||rhs||^{1+TAU}) of a Newton system
    solved by CG."""
    return min(ETA_BAR, float(np.linalg.norm(rhs)) ** (1.0 + TAU))


def newton(sub, v0, stop, max_newton: int, deadline: float):
    """Inexact semismooth Newton with a backtracking Armijo line search
    on one augmented-Lagrangian subproblem, at most max_newton steps.

    sub supplies the formulation: aux(v) is the design product carried
    along with the iterate, prox(v, aux) the prox result at v, grad and
    value the subproblem's gradient and value, lift(h) the change of aux
    along h, and direction(pr, g) the Newton step h for -g with the CG
    operator applications its linear solve made.  stop(gnorm, v, pr)
    decides sufficiency.

    The line search tries alpha = 1, then after each failed Armijo trial
    (MU) the minimizer of the parabola through phi(0), phi'(0) = <g, h>
    and phi(alpha),

        alpha <- -<g, h> alpha^2 / (2 (phi(alpha) - phi(0) - <g, h> alpha)),

    clipped to [LS_CLIP_LOW alpha, LS_CLIP_HIGH alpha], or LS_SHRINK alpha
    when the denominator is not positive (after a failed trial, only when
    phi(alpha) is NaN).  Once the value change and the decrease Armijo
    asks for are both within LS_NOISE |phi(0)|, phi's rounding, a trial
    whose gradient norm is below ||g|| is accepted too; that gradient
    reuses the trial's prox.  The value at the point the search moves to,
    accepted or the last trial when MAX_LINESEARCH runs out, is the next
    step's phi0.

    Returns (v, aux, pr, residuals, cg_iters, hit_cap); residuals holds the
    gradient norm at every iterate, cg_iters the sum of the directions' CG
    counts, hit_cap whether max_newton ran out.
    """
    v = np.array(v0, dtype=np.float64)
    aux = sub.aux(v)
    pr = sub.prox(v, aux)
    phi = None
    residuals = []
    cg_iters = 0
    for _ in range(max_newton):
        g = sub.grad(v, aux, pr)
        gn = float(np.linalg.norm(g))
        residuals.append(gn)
        if stop(gn, v, pr) or time.perf_counter() > deadline:
            return v, aux, pr, residuals, cg_iters, False
        h, ncg = sub.direction(pr, g)
        cg_iters += ncg
        gh = float(g @ h)
        if gh >= 0.0:
            # inexact direction lost descent; fall back to steepest descent
            h = -g
            gh = -gn * gn
        dh = sub.lift(h)
        if phi is None:
            phi = sub.value(v, aux, pr)
        alpha = 1.0
        noise = LS_NOISE * abs(phi)
        for _ in range(MAX_LINESEARCH):
            v_t = v + alpha * h
            aux_t = aux + alpha * dh
            pr_t = sub.prox(v_t, aux_t)
            phi_t = sub.value(v_t, aux_t, pr_t)
            if phi_t <= phi + MU * alpha * gh:
                break
            if (phi_t - phi <= noise and -MU * alpha * gh <= noise
                    and np.linalg.norm(sub.grad(v_t, aux_t, pr_t)) < gn):
                break
            denom = 2.0 * (phi_t - phi - gh * alpha)
            if denom > 0.0:
                alpha = min(max(-gh * alpha * alpha / denom,
                                LS_CLIP_LOW * alpha), LS_CLIP_HIGH * alpha)
            else:
                alpha *= LS_SHRINK
        v, aux, pr, phi = v_t, aux_t, pr_t, phi_t
    residuals.append(float(np.linalg.norm(sub.grad(v, aux, pr))))
    return v, aux, pr, residuals, cg_iters, True


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


class SquareRootForm:
    """The problem an SSNAL solver works on: with gram = `tall_gram(A)`
    and its Cholesky factor G = R^T R, the n x n problem (R, c) with
    R^T c = A^T b and offset (||b||^2 - ||c||^2) / 2, so that
    1/2||Rx - c||^2 + offset = 1/2||Ax - b||^2 and x, z, u carry over.
    Otherwise (no gram, or G singular) the problem as given.
    """

    def __init__(self, data):
        self.source = self.data = data
        self.gram = tall_gram(data.A)
        self.factor = None
        if self.gram is None:
            return
        try:
            self.factor = cholesky(self.gram).T
        except np.linalg.LinAlgError:
            return
        c = solve_lower(self.factor.T, data.A.tmatvec(data.b))
        kappa = 0.5 * (float(data.b @ data.b) - float(c @ c))
        self.data = ProblemData(DesignMatrix(self.factor), c, data.penalties,
                                data.offset + kappa)

    def dual_point(self, xi: np.ndarray) -> np.ndarray:
        """The given problem's dual point A R^{-1}(xi + c) - b, whose A^T
        product is R^T xi and whose dual objective is that of xi."""
        if self.factor is None:
            return xi
        src = self.source
        return src.A.matvec(
            solve_lower(self.factor.T, xi + self.data.b, trans=True)) - src.b


def augmented_lagrangian(make_step, data, cfg) -> "Solution":
    """Outer augmented-Lagrangian loop shared by both SSNAL solvers.

    make_step(data, cfg, form) builds the formulation's step on form =
    `SquareRootForm(data)` (both inside the timed window); form.dual_point
    maps the final xi back to data.  Per outer iteration
    step.inner(sigma, k, deadline) solves the subproblem and returns
    (residuals, cg_iters, accepted), applying the multiplier update only
    when accepted; k counts accepted updates and drives `tolerances`.
    step.measures() gives (pobj, dobj, eta_gap, eta_d, eta_kkt) at the
    iterates step.x, step.xi, step.u, step.z.  Solution.form records the
    problem the steps ran on: "square_root" when the form has a factor,
    else "given".

    sigma starts at step.sigma0, which each formulation picks from the
    data.  An accepted step grows it; a rejected one keeps the iterates,
    shrinks sigma and caps later growth below the level that failed, until
    an inner solve of at most three Newton steps at the ceiling lets the
    ceiling double again.  Stops when max(eta_gap, eta_d, eta_kkt) <=
    cfg.tol.
    """
    t0 = time.perf_counter()
    deadline = t0 + cfg.max_time
    form = SquareRootForm(data)
    step = make_step(data, cfg, form)
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
        x=step.x, xi=form.dual_point(step.xi), u=step.u, z=step.z,
        pobj=pobj, dobj=dobj, eta_gap=e_gap, eta_d=e_d, eta_kkt=e_kkt,
        status=status, outer_iters=outer, total_newton_iters=total_newton,
        total_cg_iters=total_cg, wall_time=time.perf_counter() - t0,
        newton_residuals=newton_residuals, phase1_iters=step.phase1_iters,
        form="given" if form.factor is None else "square_root")


@dataclass
class SolverConfig:
    """Stopping controls and the inner Newton step cap of the SSNAL solvers.

    The sigma schedule, the inner tolerance sequences, the line search and
    the Newton-system routes are fixed: they are module constants
    (`SIGMA_*`, `EPS0`, `DELTA0`, `MU`, `LS_SHRINK`, `LS_CLIP_LOW`,
    `LS_CLIP_HIGH`, `LS_NOISE`, `MAX_LINESEARCH`, `ETA_BAR`, `TAU`,
    `DENSE_CAP`, `NEWTON_CG_ITERS`).
    """

    tol: float = 1e-6
    max_outer: int = 100
    max_time: float = 10800.0
    ssn: SsnControls = field(default_factory=SsnControls)

    def __post_init__(self):
        if not self.tol > 0.0 or not self.max_time >= 0.0:
            raise ValueError("tol must be positive and max_time >= 0")
        if self.max_outer < 1:
            raise ValueError("max_outer must be >= 1")


@dataclass
class Solution:
    """Solver output: primal/dual iterates, optimality measures, counters.

    newton_residuals holds one list of inner gradient norms per outer
    iteration, and form the problem the outer loop ran on: "square_root"
    (`SquareRootForm` factored A^T A) or "given" (Newton solvers only).
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
    newton_residuals: List[List[float]] = field(default_factory=list)
    form: Optional[str] = None
    phase1_iters: int = 0

    @property
    def max_eta(self) -> float:
        return max(self.eta_gap, self.eta_d, self.eta_kkt)
