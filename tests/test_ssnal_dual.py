"""Tests for the dual augmented-Lagrangian / semismooth-Newton solver."""

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

from clusterlasso import common, first_order, metrics, ssnal_dual
from clusterlasso.common import (
    CONVERGED,
    SolverConfig,
    SsnControls,
    newton,
)
from clusterlasso.data import (
    ScenarioSpec,
    generate_scenario,
    penalties_from_alphas,
    read_libsvm,
    write_libsvm,
)
from clusterlasso.first_order import FirstOrderConfig, apg_solve, d_admm_solve
from clusterlasso.jacobian import build_jacobian
from clusterlasso.linalg import DesignMatrix
from clusterlasso.metrics import primal_objective
from clusterlasso.problem import ProblemData
from clusterlasso.prox import Penalties, prox_clustered
from clusterlasso.ssnal_dual import DualSubproblem, solve, solve_newton_system
from oracles import (count_design_products, dense_matrix_from_apply,
                     prox_oracle)


# a DENSE_CAP below min(m, n) of the cap tests' designs
DENSE_CAP_PATCH = 20


def _capped_factor_orders(monkeypatch):
    """Patch DENSE_CAP to DENSE_CAP_PATCH; returns the list that then
    records the order of every Cholesky factor any solver route makes."""
    monkeypatch.setattr(common, "DENSE_CAP", DENSE_CAP_PATCH)
    orders = []
    for module in (common, first_order, ssnal_dual):
        def factor(M, shift=0.0, _orig=module.cholesky):
            orders.append(M.shape[0])
            return _orig(M, shift)
        monkeypatch.setattr(module, "cholesky", factor)
    return orders


def _random_problem(seed, m=12, n=8, beta=0.3, rho=0.1):
    rng = np.random.default_rng(seed)
    A = DesignMatrix(rng.normal(size=(m, n)))
    b = rng.normal(size=m)
    return ProblemData(A, b, Penalties(beta, rho))


def _fd_gradient(f, xi, h=1e-6):
    g = np.zeros_like(xi)
    for i in range(xi.size):
        e = np.zeros_like(xi)
        e[i] = h
        g[i] = (f(xi + e) - f(xi - e)) / (2 * h)
    return g


def _subproblem(data, x_tilde, sigma):
    return DualSubproblem(data, x_tilde, sigma)


def _value(sub, xi):
    y = sub.aux(xi)
    return sub.value(xi, y, sub.prox(xi, y))


def _grad(sub, xi):
    y = sub.aux(xi)
    pr = sub.prox(xi, y)
    return sub.grad(xi, y, pr), pr


class TestSubproblem:
    def test_value_at_origin(self):
        data = _random_problem(0)
        sub = _subproblem(data, np.zeros(8), 2.0)
        # with x_tilde = 0 and xi = 0 the value is sigma/2 ||prox(0)||^2 = 0
        assert _value(sub, np.zeros(12)) == 0.0

    @pytest.mark.parametrize("seed", range(6))
    def test_gradient_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        data = _random_problem(seed)
        x_tilde = rng.normal(size=8)
        sigma = float(rng.uniform(0.5, 3.0))
        xi = rng.normal(size=12)
        sub = _subproblem(data, x_tilde, sigma)
        g, _ = _grad(sub, xi)
        fd = _fd_gradient(lambda z: _value(sub, z), xi)
        np.testing.assert_allclose(g, fd, atol=1e-5, rtol=1e-5)

    def test_strong_convexity(self):
        # psi(mid) <= (psi(a) + psi(b))/2 - ||a - b||^2 / 8 (modulus 1)
        rng = np.random.default_rng(42)
        data = _random_problem(9)
        sub = _subproblem(data, rng.normal(size=8), 1.3)
        for _ in range(20):
            a = rng.normal(size=12)
            b2 = rng.normal(size=12)
            mid = 0.5 * (a + b2)
            gap = float(np.sum((a - b2) ** 2)) / 8.0
            assert (_value(sub, mid)
                    <= 0.5 * (_value(sub, a) + _value(sub, b2)) - gap + 1e-10)

    def test_gradient_prox_result_consistent(self):
        data = _random_problem(3)
        rng = np.random.default_rng(3)
        xi = rng.normal(size=12)
        x_tilde = rng.normal(size=8)
        sub = _subproblem(data, x_tilde, 1.7)
        g, pr = _grad(sub, xi)
        y = x_tilde / 1.7 - data.A.tmatvec(xi)
        np.testing.assert_allclose(
            pr.prox, prox_clustered(y, data.penalties).prox)
        np.testing.assert_allclose(
            g, xi + data.b - 1.7 * data.A.matvec(pr.prox))
        # the line search moves y along lift(h) = -A^T h
        h = rng.normal(size=12)
        np.testing.assert_allclose(sub.aux(xi) + 0.3 * sub.lift(h),
                                   sub.aux(xi + 0.3 * h), atol=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_square_root_direction_matches_given_problem_direction(self,
                                                                   seed):
        # on a tall design the dual runs on the square root R of the Gram
        # matrix (R^T R = A^T A): at xi_R and xi = A R^{-1}(xi_R + c) - b
        # the subproblems share y and, up to the offset, the value; the
        # gradient and Newton step on R map by Q = A R^{-1} to those on
        # (A, b) as given, and the two steps move y alike
        rng = np.random.default_rng(seed)
        data = _random_problem(seed, m=30, n=6)
        form = common.SquareRootForm(data)
        work = form.data
        assert work.A.shape == (6, 6)
        x_tilde = rng.normal(size=6)
        xi_r = rng.normal(size=6)
        xi = form.dual_point(xi_r)
        thin = _subproblem(data, x_tilde, 1.3)
        root = _subproblem(work, x_tilde, 1.3)
        y = thin.aux(xi)
        np.testing.assert_allclose(root.aux(xi_r), y, rtol=1e-12, atol=1e-12)
        assert _value(thin, xi) == pytest.approx(
            _value(root, xi_r) - work.offset, rel=1e-12)
        Q = np.linalg.solve(form.factor.T, data.A.toarray().T).T
        g, pr = _grad(thin, xi)
        g_r, _ = _grad(root, xi_r)
        np.testing.assert_allclose(Q @ g_r, g, rtol=1e-10, atol=1e-12)
        h, _ = thin.direction(pr, g)
        h_r, _ = root.direction(pr, g_r)
        np.testing.assert_allclose(Q @ h_r, h, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(root.lift(h_r), thin.lift(h),
                                   rtol=1e-10, atol=1e-12)


class TestNewtonSystem:
    @pytest.mark.parametrize("seed", range(12))
    def test_matches_dense_solve(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(3, 14))
        n = int(rng.integers(2, 14))
        Ad = rng.normal(size=(m, n))
        y = np.round(rng.normal(size=n), 1)
        pen = Penalties(float(rng.uniform(0, 0.5)), float(rng.uniform(0, 0.3)))
        jac = build_jacobian(prox_clustered(y, pen), pen)
        sigma = float(rng.uniform(0.5, 4.0))
        M = dense_matrix_from_apply(jac.apply, n)
        H = np.eye(m) + sigma * Ad @ M @ Ad.T
        rhs = rng.normal(size=m)
        want = np.linalg.solve(H, rhs)
        got, ncg = solve_newton_system(jac, DesignMatrix(Ad), sigma, rhs)
        np.testing.assert_allclose(got, want, atol=1e-8, rtol=1e-8)
        assert ncg == 0

    def test_dense_m_route_on_wide_design(self):
        # k = |free| + pools >= m: the m x m matrix is assembled from W W^T
        rng = np.random.default_rng(78)
        m, n = 4, 12
        Ad = rng.normal(size=(m, n))
        y = np.r_[np.arange(1.0, 9.0), 10.0, 10.0, -10.0, -10.0]
        pen = Penalties(0.05, 0.01)
        jac = build_jacobian(prox_clustered(y, pen), pen)
        assert jac.free_idx.shape[0] + jac.npools >= m
        M = dense_matrix_from_apply(jac.apply, n)
        rhs = rng.normal(size=m)
        want = np.linalg.solve(np.eye(m) + 2.0 * Ad @ M @ Ad.T, rhs)
        got, ncg = solve_newton_system(jac, DesignMatrix(Ad), 2.0, rhs)
        np.testing.assert_allclose(got, want, atol=1e-8, rtol=1e-8)
        assert ncg == 0

    def test_identity_when_jacobian_vanishes(self):
        A = DesignMatrix(np.ones((3, 4)))
        pen = Penalties(10.0, 0.1)
        jac = build_jacobian(prox_clustered(np.full(4, 0.1), pen), pen)
        rhs = np.array([1.0, 2.0, 3.0])
        h, ncg = solve_newton_system(jac, A, 2.0, rhs)
        np.testing.assert_array_equal(h, rhs)
        assert ncg == 0

    def test_cg_route_agrees_with_direct(self, monkeypatch):
        rng = np.random.default_rng(77)
        m, n = 10, 9
        A = DesignMatrix(rng.normal(size=(m, n)))
        y = rng.normal(size=n)
        pen = Penalties(0.05, 0.02)
        jac = build_jacobian(prox_clustered(y, pen), pen)
        rhs = rng.normal(size=m)
        direct, _ = solve_newton_system(jac, A, 1.5, rhs)
        # force the CG branch by shrinking the dense-matrix cap, and
        # tighten its residual target
        monkeypatch.setattr(common, "DENSE_CAP", 1)
        monkeypatch.setattr(common, "ETA_BAR", 1e-12)
        monkeypatch.setattr(common, "TAU", 1.0)
        viacg, ncg = solve_newton_system(jac, A, 1.5, rhs)
        np.testing.assert_allclose(viacg, direct, atol=1e-6)
        assert ncg > 0


def _inner(data, x_tilde, sigma, tol, max_newton=SsnControls().max_newton):
    """Run `newton` on the dual subproblem from xi = 0 to ||grad|| <= tol."""
    sub = DualSubproblem(data, x_tilde, sigma)
    return sub, newton(sub, np.zeros(data.A.m), lambda gn, _xi, _pr: gn <= tol,
                       max_newton, deadline=np.inf)


class TestInnerNewton:
    def test_reaches_tight_tolerance(self):
        data = _random_problem(5)
        rng = np.random.default_rng(5)
        sub, (xi, y, pr, residuals, _, hit_cap) = _inner(
            data, rng.normal(size=8), 2.0, 1e-10)
        assert not hit_cap
        # y is carried along the line search, not recomputed from xi
        np.testing.assert_allclose(y, sub.aux(xi), atol=1e-12)
        assert residuals[-1] <= 1e-10
        g, _ = _grad(sub, xi)
        assert np.linalg.norm(g) <= 1e-10
        assert 0 < len(residuals) - 1 <= 50

    def test_minimizer_beats_neighbors(self):
        data = _random_problem(6)
        rng = np.random.default_rng(6)
        sub, (xi, *_) = _inner(data, rng.normal(size=8), 1.0, 1e-11)
        base = _value(sub, xi)
        for _ in range(25):
            other = xi + 1e-4 * rng.normal(size=12)
            assert base <= _value(sub, other) + 1e-14

    @pytest.mark.parametrize("max_linesearch", [40, 1])
    def test_value_once_per_point(self, monkeypatch, max_linesearch):
        # the value at the point a line search moves to, accepted or the
        # last trial, is the next step's phi0: value is evaluated at the
        # start point and at each trial, as the prox is
        monkeypatch.setattr(common, "MAX_LINESEARCH", max_linesearch)
        data = _random_problem(5)
        sub = DualSubproblem(data, np.random.default_rng(5).normal(size=8),
                             2.0)
        calls = {"value": 0, "prox": 0}
        for name in calls:
            def counted(*args, orig=getattr(sub, name), name=name):
                calls[name] += 1
                return orig(*args)
            setattr(sub, name, counted)
        *_, residuals, _, _ = newton(
            sub, np.zeros(12), lambda gn, _xi, _pr: gn <= 1e-10, 50,
            deadline=np.inf)
        assert len(residuals) > 2
        assert calls["value"] == calls["prox"]

    def test_cap_sets_hit_cap(self):
        data = _random_problem(7)
        _, (*_, residuals, _, hit_cap) = _inner(data, np.ones(8), 1.0, 1e-14,
                                                max_newton=1)
        assert hit_cap
        # one step taken; the last entry is the residual where it stopped
        assert len(residuals) == 2
        assert residuals[-1] > 1e-14


class TestOuterLoop:
    @pytest.mark.parametrize("seed", range(5))
    def test_converges_on_small_problems(self, seed):
        data = _random_problem(seed, m=20, n=10, beta=0.5, rho=0.2)
        sol = solve(data)
        assert sol.status == CONVERGED
        assert sol.max_eta <= 1e-6
        assert sol.outer_iters <= 100

    def test_solution_matches_prox_oracle_reference(self):
        # tiny instance solved to high accuracy against the subgradient
        # characterization: x* = prox_p(x* - A^T(Ax* - b))
        data = _random_problem(11, m=6, n=4, beta=0.4, rho=0.15)
        sol = solve(data, SolverConfig(tol=1e-10))
        g = data.A.tmatvec(data.A.matvec(sol.x) - data.b)
        fix = prox_oracle(sol.x - g, 0.4, 0.15)
        np.testing.assert_allclose(sol.x, fix, atol=1e-7)

    def test_null_model(self):
        # beta above ||A^T b||_inf zeroes the solution; xi = -b, u = A^T b
        rng = np.random.default_rng(13)
        A = DesignMatrix(rng.normal(size=(7, 5)))
        b = rng.normal(size=7)
        beta = 1.01 * float(np.max(np.abs(A.tmatvec(b))))
        data = ProblemData(A, b, Penalties(beta, 0.0))
        sol = solve(data)
        assert sol.status == CONVERGED
        np.testing.assert_allclose(sol.x, np.zeros(5), atol=1e-8)
        np.testing.assert_allclose(sol.xi, -b, atol=1e-6)

    def test_zero_rhs(self):
        rng = np.random.default_rng(14)
        A = DesignMatrix(rng.normal(size=(6, 4)))
        data = ProblemData(A, np.zeros(6), Penalties(0.3, 0.1))
        sol = solve(data)
        assert sol.status == CONVERGED
        np.testing.assert_allclose(sol.x, np.zeros(4), atol=1e-10)

    def test_sparse_design_matches_dense_solve(self, tmp_path):
        # a sparse design (n > m, so the thin routes) read from a LIBSVM
        # file is the dense design, so the solve repeats bit for bit
        m, n = 12, 30
        M = sp.random(m, n, density=0.4, random_state=21, format="csr")
        b = np.random.default_rng(21).normal(size=m)
        write_libsvm(tmp_path / "sparse.libsvm", M, b)
        A, b_read = read_libsvm(tmp_path / "sparse.libsvm", n_features=n)
        pen = Penalties(0.3, 0.1)
        want = solve(ProblemData(DesignMatrix(M.toarray()), b, pen))
        got = solve(ProblemData(A, b_read, pen))
        assert got.status == want.status == CONVERGED
        assert got.x.tobytes() == want.x.tobytes()
        assert got.xi.tobytes() == want.xi.tobytes()
        assert ((got.outer_iters, got.total_newton_iters)
                == (want.outer_iters, want.total_newton_iters))

    def test_duality_gap_closes(self):
        data = _random_problem(15, m=15, n=9, beta=0.2, rho=0.05)
        sol = solve(data, SolverConfig(tol=1e-9))
        assert abs(sol.pobj - sol.dobj) <= 1e-7 * (1 + abs(sol.pobj))

    def test_objective_against_objective_of_perturbations(self):
        data = _random_problem(17, m=9, n=5, beta=0.25, rho=0.1)
        sol = solve(data, SolverConfig(tol=1e-10))
        rng = np.random.default_rng(0)
        base = primal_objective(sol.x, data)
        for _ in range(40):
            cand = sol.x + 1e-4 * rng.normal(size=5)
            assert base <= primal_objective(cand, data) + 1e-12

    def test_residual_trace_recorded(self):
        data = _random_problem(18, m=8, n=5)
        sol = solve(data)
        assert sol.newton_residuals
        assert all(len(r) >= 1 for r in sol.newton_residuals)
        assert sol.total_newton_iters == sum(
            len(r) - 1 for r in sol.newton_residuals)

    def test_max_iters_status(self):
        data = _random_problem(19, m=10, n=6)
        sol = solve(data, SolverConfig(max_outer=1, tol=1e-14))
        assert sol.status == "max_iters"
        assert sol.outer_iters == 1

    def test_tall_design_products(self, monkeypatch):
        # On a tall design the solve touches A three times whatever its
        # outer and Newton counts: A^T A and A^T b to set up the n x n
        # square-root problem, and the product that maps its dual point
        # back; every other product is with the n x n factor R.
        data = _random_problem(3, m=40, n=8)
        assert common.tall_gram(data.A) is not None
        counts = []
        for tol in (1e-3, 1e-9):
            products = count_design_products(monkeypatch)
            sol = solve(data, SolverConfig(tol=tol))
            assert sol.status == CONVERGED
            assert products[data.A] == 3
            assert sum(products.values()) > 3 + sol.total_newton_iters
            counts.append((sol.outer_iters, sol.total_newton_iters))
        assert counts[0][0] < counts[1][0] and counts[0][1] < counts[1][1]

    def test_sigma_recovery_on_hard_tall_instance(self):
        # On this correlated tall design the first inner solve after
        # phase I takes more than 5 Newton steps; the solver must back
        # sigma off after the capped inner loops and still converge well
        # within the outer budget.
        prob = generate_scenario(ScenarioSpec(3, k=2, seed=1, m_override=400))
        pen = penalties_from_alphas(1e-3, 1e-3, prob.data)
        data = dataclasses.replace(prob.data, penalties=pen)
        cfg = SolverConfig(ssn=SsnControls(max_newton=5))
        sol = solve(data, cfg)
        assert sol.status == CONVERGED
        assert sol.max_eta <= 1e-6
        cap = cfg.ssn.max_newton
        inner = [len(r) - 1 for r in sol.newton_residuals]
        assert any(its >= cap for its in inner)  # recovery path exercised
        assert sol.outer_iters < 30

    def test_newton_work_does_not_depend_on_data_scale(self):
        # sigma0 lambda_max(A A^T) is fixed, so rescaling A or b leaves the
        # subproblems alike: every run converges without a capped inner
        # solve, within twice the Newton steps of the unscaled run.
        prob = generate_scenario(ScenarioSpec(1, k=10, seed=1,
                                              m_override=2000))
        A, b = prob.data.A.toarray(), prob.data.b
        cap = SolverConfig().ssn.max_newton
        steps = []
        for a_scale, b_scale in ((1.0, 1.0), (100.0, 1.0), (1.0, 1e3)):
            data = ProblemData(DesignMatrix(a_scale * A), b_scale * b)
            data = dataclasses.replace(
                data, penalties=penalties_from_alphas(1e-3, 1e-3, data))
            sol = solve(data)
            assert sol.status == CONVERGED
            assert all(len(r) - 1 < cap for r in sol.newton_residuals)
            steps.append(sol.total_newton_iters)
        assert max(steps[1:]) <= 2 * steps[0]

    def test_wide_newton_work_does_not_depend_on_data_scale(self):
        # the n >> m twin: phase I's sigma and the dual's sigma0 both scale
        # with 1 / lambda_max(A A^T), so every row converges without a
        # capped inner solve, within twice the unscaled Newton steps
        prob = generate_scenario(ScenarioSpec(7, k=10, seed=1,
                                              m_override=100))
        A, b = prob.data.A.toarray(), prob.data.b
        assert A.shape == (80, 400)
        cap = SolverConfig().ssn.max_newton
        steps = []
        for a_scale, b_scale in ((1.0, 1.0), (100.0, 1.0), (1e-2, 1.0),
                                 (1.0, 1e3)):
            data = ProblemData(DesignMatrix(a_scale * A), b_scale * b)
            data = dataclasses.replace(
                data, penalties=penalties_from_alphas(1e-3, 1e-3, data))
            sol = solve(data)
            assert sol.status == CONVERGED
            assert all(len(r) - 1 < cap for r in sol.newton_residuals)
            steps.append(sol.total_newton_iters)
        assert max(steps[1:]) <= 2 * steps[0]


class TestPhaseOne:
    def test_wide_solve_needs_few_newton_steps(self):
        # 80 x 200, scenario 7: from phase I's point the dual converges in
        # a few Newton steps; started cold it took 186, one solve capped
        prob = generate_scenario(ScenarioSpec(7, k=5, seed=1, m_override=100))
        data = prob.data.with_penalties(
            penalties_from_alphas(1e-3, 1e-3, prob.data))
        assert data.A.shape == (80, 200)
        sol = solve(data)
        assert sol.status == CONVERGED
        assert sol.total_newton_iters <= 30
        assert sol.phase1_iters == ssnal_dual.PHASE1_ITERS

    @pytest.mark.parametrize("m, n", [(10, 30), (40, 8), (12, 8)],
                             ids=["wide", "square_root", "gram_side"])
    def test_phase_one_does_no_extra_work(self, monkeypatch, m, n):
        # building the step costs PHASE1_ITERS prox calls and one power
        # estimate: phase I evaluates no stopping measure, builds no
        # Solution and reuses the estimate sigma0 is made from
        data = _random_problem(5, m=m, n=n)
        form = common.SquareRootForm(data)
        calls = {"prox": 0, "estimate": 0, "solution": 0}

        def count(module, name, key):
            orig = getattr(module, name)

            def counted(*args, **kwargs):
                calls[key] += 1
                return orig(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)

        for module in (first_order, metrics):
            count(module, "prox_clustered", "prox")
        for module in (first_order, ssnal_dual):
            count(module, "estimate_lipschitz", "estimate")
        count(first_order, "Solution", "solution")
        step = ssnal_dual.DualStep(data, SolverConfig(), form)
        assert step.phase1_iters == ssnal_dual.PHASE1_ITERS
        assert calls == {"prox": ssnal_dual.PHASE1_ITERS, "estimate": 1,
                         "solution": 0}

    @pytest.mark.parametrize("m, n", [(10, 30), (40, 8)],
                             ids=["wide", "square_root"])
    def test_phase_one_seeds_the_dual_step(self, m, n):
        # the step starts from d-ADMM's x, xi and u after PHASE1_ITERS
        # iterations at fixed sigma, on the problem the step solves (the
        # n x n square-root problem on the tall design)
        data = _random_problem(4, m=m, n=n)
        form = common.SquareRootForm(data)
        assert (form.factor is None) == (m < n)
        step = ssnal_dual.DualStep(data, SolverConfig(), form)
        iters = ssnal_dual.PHASE1_ITERS
        want = d_admm_solve(form.data, FirstOrderConfig(
            max_iters=iters, adaptive_sigma=False, check_every=iters))
        assert step.phase1_iters == want.outer_iters
        for got, ref in ((step.x, want.x), (step.xi, want.xi),
                         (step.u, want.u)):
            assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("m, n", [(30, 60), (90, 25)],
                             ids=["wide", "tall"])
    def test_phase_one_obeys_the_dense_cap(self, monkeypatch, m, n):
        # with min(m, n) past DENSE_CAP, phase I solves by CG like the
        # Newton routes, so no factor of any route exceeds the cap
        orders = _capped_factor_orders(monkeypatch)
        sol = solve(_random_problem(6, m=m, n=n))
        assert sol.status == CONVERGED
        assert sol.phase1_iters == ssnal_dual.PHASE1_ITERS
        assert max(orders, default=0) <= DENSE_CAP_PATCH

    @pytest.mark.parametrize("m, n", [(30, 60), (90, 25)],
                             ids=["wide", "tall"])
    def test_d_admm_obeys_the_dense_cap(self, monkeypatch, m, n):
        # the baseline picks its solve by the same rule as phase I: past
        # DENSE_CAP it factors nothing and solves by CG
        orders = _capped_factor_orders(monkeypatch)
        sol = d_admm_solve(_random_problem(6, m=m, n=n),
                           FirstOrderConfig(tol=1e-5))
        assert sol.status == CONVERGED
        assert sol.total_cg_iters > 0
        assert max(orders, default=0) <= DENSE_CAP_PATCH

    def test_apg_obeys_the_dense_cap(self, monkeypatch):
        # on a tall design past DENSE_CAP APG forms no A^T A and takes its
        # gradients from products with A and A^T
        monkeypatch.setattr(common, "DENSE_CAP", DENSE_CAP_PATCH)
        grams = []
        gram = DesignMatrix.gram

        def record(self):
            grams.append(self.n)
            return gram(self)

        monkeypatch.setattr(DesignMatrix, "gram", record)
        sol = apg_solve(_random_problem(6, m=90, n=25),
                        FirstOrderConfig(tol=1e-5))
        assert sol.status == CONVERGED
        assert grams == []
