"""Tests for the augmented-Lagrangian outer loop shared by both SSNAL
solvers, driven by a scripted step so the sigma policy is seen directly,
for the starting sigma each formulation's step picks, for the line search
and the steepest-descent fallback of the shared Newton loop on small
fake subproblems, for the n x n square-root form both solve on tall
designs, and for the CG work the solvers report."""

import numpy as np
import pytest
import scipy.linalg as sla

from clusterlasso import (common, first_order, metrics, ssnal_dual,
                          ssnal_primal)
from clusterlasso.common import (CONVERGED, LS_CLIP_HIGH, LS_CLIP_LOW,
                                 LS_SHRINK, MAX_ITERS, MAX_TIME, MU,
                                 SIGMA_MAX, SolverConfig, SquareRootForm,
                                 augmented_lagrangian, newton)
from clusterlasso.linalg import DesignMatrix, estimate_lipschitz
from clusterlasso.problem import ProblemData
from clusterlasso.prox import Penalties
from clusterlasso.ssnal_dual import SIGMA0_CURVATURE, DualStep, solve
from clusterlasso.ssnal_primal import PrimalStep, solve_primal
from oracles import count_design_products


class ScriptedStep:
    """Plays back (newton_steps, accepted) per inner call and records the
    (sigma, k) each call received.  eta stays at 1 unless converge_at
    names the outer iteration (1-based) whose measures meet any tol."""

    def __init__(self, script, sigma0, converge_at=None):
        self.script = list(script)
        self.sigma0 = sigma0
        self.converge_at = converge_at
        self.calls = []
        self.x = self.xi = self.u = np.zeros(1)
        self.z = None
        self.phase1_iters = 0

    def inner(self, sigma, k, deadline):
        self.calls.append((sigma, k))
        steps, accepted = self.script[len(self.calls) - 1]
        return [1.0] * (steps + 1), 2, accepted

    def measures(self):
        eta = 0.0 if len(self.calls) == self.converge_at else 1.0
        return 1.0, 1.0, eta, eta, eta


def _run(script, start=2.0, **cfg):
    step = ScriptedStep(script, start, cfg.pop("converge_at", None))
    cfg.setdefault("max_outer", len(script))
    # the loop builds a SquareRootForm of its data before the step; a
    # 2 x 2 problem keeps that form the data as given
    sol = augmented_lagrangian(lambda *_: step, _data(np.eye(2), np.ones(2)),
                               SolverConfig(**cfg))
    return sol, [s for s, _ in step.calls], [k for _, k in step.calls]


def _data(A, b):
    return ProblemData(DesignMatrix(A), np.asarray(b, dtype=np.float64),
                       Penalties(0.1, 0.01))


class TestSigmaPolicy:
    def test_start_is_scaled_norm_of_b_but_at_least_one(self):
        # the primal keeps max(1, ||b|| / sqrt(m)); m = 4 here
        A = np.random.default_rng(0).normal(size=(4, 3))
        cfg = SolverConfig()
        for b, want in ((2.0, 2.0), (0.25, 1.0)):
            data = _data(A, np.full(4, b))
            assert PrimalStep(data, cfg, SquareRootForm(data)).sigma0 == want

    def test_loop_starts_at_step_sigma0(self):
        assert _run([(10, True)], start=0.125)[1] == [0.125]

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    def test_dual_start_fixes_sigma_times_lipschitz(self, scale):
        rng = np.random.default_rng(1)
        data = _data(scale * rng.normal(size=(30, 6)), rng.normal(size=30))
        step = DualStep(data, SolverConfig(), SquareRootForm(data))
        lip = estimate_lipschitz(data.A, iters=10)
        assert step.sigma0 * lip == pytest.approx(SIGMA0_CURVATURE, rel=1e-12)

    def test_dual_start_on_zero_design_is_one(self):
        data = _data(np.zeros((5, 3)), np.ones(5))
        step = DualStep(data, SolverConfig(), SquareRootForm(data))
        assert step.sigma0 == 1.0
        sol = solve(data)
        assert sol.status == CONVERGED
        np.testing.assert_array_equal(sol.x, 0.0)

    def test_accepted_step_triples_sigma(self):
        _, sigmas, _ = _run([(10, True)] * 3)
        assert sigmas == [2.0, 6.0, 18.0]

    def test_growth_capped_at_1e6(self):
        _, sigmas, _ = _run([(10, True)] * 3, start=4e5)
        assert sigmas == [4e5, SIGMA_MAX, SIGMA_MAX]

    def test_rejected_step_backs_off_and_lowers_ceiling(self):
        # reject at 2: sigma 2/4 = 0.5 and ceiling 2/2 = 1, so the next
        # accepted steps stop at 1 instead of tripling to 1.5 and 4.5
        _, sigmas, _ = _run([(50, False), (10, True), (10, True), (10, True)])
        assert sigmas == [2.0, 0.5, 1.0, 1.0]

    def test_easy_step_at_ceiling_doubles_it(self):
        # pinned at the ceiling 1, a 3-step inner solve lifts it to 2;
        # a 4-step one does not
        _, sigmas, _ = _run([(50, False), (10, True), (4, True), (3, True),
                             (10, True)])
        assert sigmas == [2.0, 0.5, 1.0, 1.0, 2.0]

    def test_k_counts_accepted_steps_only(self):
        _, _, ks = _run([(10, True), (50, False), (50, False), (10, True),
                         (10, True)])
        assert ks == [0, 1, 1, 1, 2]


class TestStopsAndCounters:
    def test_converged(self):
        sol, sigmas, _ = _run([(10, True)] * 5, converge_at=2)
        assert sol.status == CONVERGED
        assert sol.outer_iters == len(sigmas) == 2

    def test_max_iters(self):
        sol, _, _ = _run([(10, True)] * 3)
        assert sol.status == MAX_ITERS
        assert sol.outer_iters == 3

    def test_deadline_gives_max_time(self):
        sol, sigmas, _ = _run([(10, True)] * 3, max_time=0.0)
        assert sol.status == MAX_TIME
        assert sol.outer_iters == len(sigmas) == 1

    def test_counters_sum_over_inner_calls(self):
        sol, _, _ = _run([(10, True), (50, False), (3, True)])
        assert sol.total_newton_iters == 63
        assert sol.total_cg_iters == 6
        assert [len(r) - 1 for r in sol.newton_residuals] == [10, 50, 3]


class Kinked:
    """phi(v) = (v - 3)^2 / 2 + kink max(v - 1, 0)^2 / 2 in one dimension,
    the piecewise quadratic a prox makes, with the Newton step of the left
    piece, so a step across the kink at 1 overshoots; value is NaN above
    nan_above.  The prox result is the point; log records each Newton
    step as ("step", v, h, <g, h>) and each value as ("value", v, phi)."""

    def __init__(self, kink, nan_above=np.inf):
        self.kink, self.nan_above = kink, nan_above
        self.log = []

    def aux(self, v):
        return np.zeros(1)

    def lift(self, h):
        return np.zeros(1)

    def prox(self, v, aux):
        return v.copy()

    def grad(self, v, aux, pr):
        return v - 3.0 + self.kink * np.maximum(v - 1.0, 0.0)

    def phi(self, t):
        if t > self.nan_above:
            return np.nan
        return 0.5 * (t - 3.0) ** 2 + 0.5 * self.kink * max(t - 1.0, 0.0) ** 2

    def value(self, v, aux, pr):
        phi = self.phi(float(v[0]))
        self.log.append(("value", float(v[0]), phi))
        return phi

    def direction(self, pr, g):
        h = -g
        self.log.append(("step", float(pr[0]), float(h[0]), float(g @ h)))
        return h, 0


def _steps(log):
    """[(v, h, gh, [(v_t, phi_t), ...]), ...]: each Newton step of a
    `Kinked` log with its line-search trials (the first step's phi0 is
    the value logged at its own point)."""
    steps = []
    for entry in log:
        if entry[0] == "step":
            steps.append((*entry[1:], []))
        elif steps and entry[1] != steps[-1][0]:
            steps[-1][3].append(entry[1:])
    return steps


def _next_alpha(alpha, dphi, gh):
    """The interpolation rule `newton` documents, and which case set it."""
    denom = 2.0 * (dphi - gh * alpha)
    if not denom > 0.0:
        return LS_SHRINK * alpha, "halved"
    best = -gh * alpha * alpha / denom
    if best < LS_CLIP_LOW * alpha:
        return LS_CLIP_LOW * alpha, "low"
    if best > LS_CLIP_HIGH * alpha:
        return LS_CLIP_HIGH * alpha, "high"
    return best, "parabola"


class TestLineSearch:
    """The trial sequence of `newton`'s line search.  From v = 0 the first
    trial lands at 3 with phi(3) = 2 kink against phi(0) = 4.5 and
    <g, h> = -9, so the parabola puts the second trial at 9 / (4 kink + 9).
    The upper clip binds only when a trial lowers phi by less than Armijo
    asks, here at kink just below 2.25; past nan_above the value is NaN
    and the step halves."""

    @pytest.mark.parametrize("kink, nan_above, case, second", [
        (5.0, np.inf, "parabola", 9.0 / 29.0),
        (2.2499, np.inf, "high", LS_CLIP_HIGH),
        (40.0, np.inf, "low", LS_CLIP_LOW),
        (5.0, 2.0, "halved", LS_SHRINK),
    ])
    def test_trials_follow_safeguarded_interpolation(self, kink, nan_above,
                                                     case, second):
        sub = Kinked(kink, nan_above)
        v, *_, residuals, _, hit_cap = newton(
            sub, np.zeros(1), lambda gn, _v, _pr: gn <= 1e-12, 50,
            deadline=np.inf)
        assert not hit_cap and residuals[-1] <= 1e-12
        assert v[0] == pytest.approx((3.0 + kink) / (1.0 + kink), abs=1e-12)
        steps = _steps(sub.log)
        assert len(steps) == len(residuals) - 1
        cases = []
        for v0, h, gh, trials in steps:
            phi0 = sub.phi(v0)
            alpha = 1.0
            for i, (v_t, phi_t) in enumerate(trials):
                assert v_t == pytest.approx(v0 + alpha * h, rel=1e-12,
                                            abs=1e-15)
                # every trial but the last fails Armijo; the last passes
                armijo = phi_t <= phi0 + MU * alpha * gh
                assert armijo == (i == len(trials) - 1)
                if not armijo:
                    alpha, how = _next_alpha(alpha, phi_t - phi0, gh)
                    cases.append(how)
        assert cases[0] == case
        first_trials = steps[0][3]
        assert first_trials[1][0] == pytest.approx(3.0 * second, rel=1e-12)


class NoisyQuadratic:
    """phi(v) = OFFSET + v^2 / 2 with its exact Newton step, read with
    rounding noise: +eps |phi| at |v| <= 1e-7 and -eps |phi| elsewhere.
    Near the minimizer the decrease v^2 / 2 is below that noise, so an
    Armijo test reads the noise."""

    OFFSET = 1e4

    def __init__(self):
        self.calls = {"prox": 0, "value": 0}

    def aux(self, v):
        return np.zeros(1)

    def lift(self, h):
        return np.zeros(1)

    def prox(self, v, aux):
        self.calls["prox"] += 1
        return None

    def grad(self, v, aux, pr):
        return v.copy()

    def value(self, v, aux, pr):
        self.calls["value"] += 1
        phi = self.OFFSET + 0.5 * float(v @ v)
        sign = 1.0 if abs(v[0]) <= 1e-7 else -1.0
        return phi + sign * np.finfo(np.float64).eps * phi

    def direction(self, pr, g):
        return -g, 0


class TestRoundingGuard:
    def test_noise_level_step_is_taken_when_gradient_drops(self):
        # from v = 1e-6 the full Newton step reaches v = 0 and zeroes the
        # gradient, but phi reads 2 eps |phi| higher there against a true
        # decrease of 5e-13; Armijo alone rejects it, creeps towards
        # |v| = 1e-7 and stalls there until the step cap
        sub = NoisyQuadratic()
        v, *_, residuals, _, hit_cap = newton(
            sub, np.full(1, 1e-6), lambda gn, _v, _pr: gn <= 1e-12, 50,
            deadline=np.inf)
        assert not hit_cap
        assert residuals == [1e-6, 0.0]
        assert v[0] == 0.0
        # the guard's gradient reuses the trial's prox: one prox per value
        assert sub.calls == {"prox": 2, "value": 2}


class AscentQuadratic:
    """phi(v) = <v, C v> / 2 with C = diag(2, 3) and aux(v) = C v, whose
    direction always returns the ascent step +g, so `newton` falls back
    to steepest descent at every step and must carry aux along that
    step's lift."""

    C = np.array([2.0, 3.0])

    def __init__(self):
        self.directions = 0

    def aux(self, v):
        return self.C * v

    def lift(self, h):
        return self.C * h

    def prox(self, v, aux):
        return None

    def grad(self, v, aux, pr):
        return aux.copy()

    def value(self, v, aux, pr):
        return 0.5 * float(v @ aux)

    def direction(self, pr, g):
        self.directions += 1
        return g.copy(), 0


class TestSteepestDescentFallback:
    def test_aux_follows_the_fallback_step(self):
        sub = AscentQuadratic()
        v, aux, _, residuals, ncg, hit_cap = newton(
            sub, np.ones(2), lambda gn, _v, _pr: gn <= 1e-10, 200,
            deadline=np.inf)
        assert not hit_cap and residuals[-1] <= 1e-10
        assert sub.directions == len(residuals) - 1 and ncg == 0
        np.testing.assert_allclose(aux, sub.aux(v), rtol=1e-12, atol=1e-15)


def _tall(seed, m=40, n=8):
    rng = np.random.default_rng(seed)
    return _data(rng.normal(size=(m, n)), rng.normal(size=m))


class TestSquareRootForm:
    def test_objectives_and_dual_point_carry_over(self):
        data = _tall(4)
        form = SquareRootForm(data)
        work = form.data
        assert work.A.shape == (8, 8) and work.penalties is data.penalties
        rng = np.random.default_rng(5)
        for _ in range(3):
            x, xi_r = rng.normal(size=8), rng.normal(size=8)
            xi = form.dual_point(xi_r)
            assert metrics.primal_objective(x, work) == pytest.approx(
                metrics.primal_objective(x, data), rel=1e-12)
            assert metrics.dual_objective(xi_r, work) == pytest.approx(
                metrics.dual_objective(xi, data), rel=1e-12)
            np.testing.assert_allclose(work.A.tmatvec(xi_r),
                                       data.A.tmatvec(xi), rtol=1e-10)

    @pytest.mark.parametrize("m, n", [(31, 8), (40, 8)])
    def test_keeps_data_unless_tall(self, monkeypatch, m, n):
        # m < 4n is not tall; a tall design whose Gram matrix has no
        # Cholesky factor is solved as given
        data = _tall(6, m, n)
        if m >= 4 * n:
            monkeypatch.setattr(common, "cholesky", _not_positive)
        form = SquareRootForm(data)
        assert form.data is data
        assert (form.gram is None) == (m < 4 * n)
        xi = np.ones(m)
        assert form.dual_point(xi) is xi

    @pytest.mark.parametrize("solver", [solve, solve_primal],
                             ids=["dual", "primal"])
    def test_square_root_solve_matches_solve_as_given(self, monkeypatch,
                                                      solver):
        data = _tall(7)
        cfg = SolverConfig(tol=1e-9)
        got = solver(data, cfg)
        monkeypatch.setattr(common, "tall_gram", lambda A: None)
        products = count_design_products(monkeypatch)
        want = solver(data, cfg)
        assert set(products) == {data.A}
        assert got.status == want.status == CONVERGED
        for sol in (got, want):
            assert all(len(r) - 1 < cfg.ssn.max_newton
                       for r in sol.newton_residuals)
        assert got.pobj == pytest.approx(want.pobj, rel=1e-10)
        np.testing.assert_allclose(got.x, want.x, atol=1e-7)
        np.testing.assert_allclose(got.xi, want.xi, atol=1e-7)


    @pytest.mark.parametrize("kind, want", [
        ("tall", "square_root"), ("zero_column", "given"), ("wide", "given")])
    @pytest.mark.parametrize("solver", [solve, solve_primal],
                             ids=["dual", "primal"])
    def test_solution_reports_form(self, solver, kind, want):
        # a zero column gives A^T A an exact zero pivot, so the tall
        # design is solved as given
        data = _tall(8, *((12, 40) if kind == "wide" else (40, 8)))
        if kind == "zero_column":
            data = _data(data.A.raw * (np.arange(8) != 3), data.b)
        sol = solver(data)
        assert sol.status == CONVERGED
        assert sol.form == want


def _not_positive(*args, **kwargs):
    raise np.linalg.LinAlgError("not positive definite")


def _ill_posed(kind):
    """A 64 x 8 design with a duplicate, a zero or a near-duplicate
    (1e-7 apart) column.  Column 0 holds +-1, so ||a_0||^2 = 64 and
    Cholesky of A^T A meets an exact zero pivot at a duplicate of it."""
    rng = np.random.default_rng(12)
    A = rng.normal(size=(64, 8))
    A[:, 0] = rng.choice([-1.0, 1.0], size=64)
    if kind == "duplicate":
        A[:, 1] = A[:, 0]
    elif kind == "zero":
        A[:, 5] = 0.0
    else:
        A[:, 1] = A[:, 0] + 1e-7 * rng.normal(size=64)
    x0 = np.r_[2.0, 2.0, 0.0, 0.0, -1.0, 0.0, 1.0, 1.0]
    return _data(A, A @ x0 + 0.1 * rng.normal(size=64))


class TestSingularGram:
    """Tall designs whose A^T A is singular or ill-conditioned: both SSNAL
    solvers converge, by their own measures and by the measures recomputed
    on (A, b).  A singular A^T A has no Cholesky factor, and the solve
    then makes every product with A itself."""

    @pytest.mark.parametrize("kind", ["duplicate", "zero", "near"])
    @pytest.mark.parametrize("solver", [solve, solve_primal],
                             ids=["dual", "primal"])
    def test_converges_on_given_data(self, monkeypatch, solver, kind):
        data = _ill_posed(kind)
        gram = data.A.toarray().T @ data.A.toarray()
        if kind == "near":
            assert np.linalg.cond(gram) > 1e12
        else:
            with pytest.raises(np.linalg.LinAlgError):
                sla.cholesky(gram)
        products = count_design_products(monkeypatch)
        sol = solver(data)
        assert sol.status == CONVERGED
        pobj, dobj, e_gap, e_d = metrics.duality_metrics(sol.x, sol.xi,
                                                         sol.u, data)
        assert max(e_gap, e_d, metrics.eta_kkt(sol.x, data)) <= 1e-6
        assert pobj == pytest.approx(sol.pobj, rel=1e-9)
        assert dobj == pytest.approx(sol.dobj, rel=1e-9)
        if kind != "near":
            assert set(products) == {data.A}


def _count_cg_applies(monkeypatch, module):
    """Wrap the apply that module hands to `cg_solve`; returns the list
    that gets one entry per call of it."""
    calls = []
    cg_solve = module.cg_solve

    def counted(apply, *args, **kwargs):
        def wrapped(v):
            calls.append(1)
            return apply(v)
        return cg_solve(wrapped, *args, **kwargs)

    monkeypatch.setattr(module, "cg_solve", counted)
    return calls


class TestCgWork:
    """`Solution.total_cg_iters` is the number of CG operator
    applications, including the residual of a warm-started solve."""

    def test_dual_cg_route(self, monkeypatch):
        monkeypatch.setattr(common, "DENSE_CAP", 0)
        calls = _count_cg_applies(monkeypatch, ssnal_dual)
        sol = solve(_tall(8, m=12, n=8))
        assert sol.status == CONVERGED
        assert sol.total_cg_iters == len(calls) > 0

    def test_primal_cg_route(self, monkeypatch):
        # m < 4n: no Gram matrix, so every Newton system runs CG
        calls = _count_cg_applies(monkeypatch, ssnal_primal)
        sol = solve_primal(_tall(9, m=20, n=8))
        assert sol.status == CONVERGED
        assert sol.total_cg_iters == len(calls) > 0

    def test_inexact_dual_admm(self, monkeypatch):
        # past DENSE_CAP d-ADMM solves by CG, with adaptive sigma on
        monkeypatch.setattr(common, "DENSE_CAP", 0)
        calls = _count_cg_applies(monkeypatch, first_order)
        sol = first_order.d_admm_solve(
            _tall(10, m=12, n=8), first_order.FirstOrderConfig(tol=1e-5))
        assert sol.status == CONVERGED
        # one warm-started CG solve per iteration, each with its residual
        assert sol.total_cg_iters == len(calls) > sol.outer_iters
