"""Tests for the dual augmented-Lagrangian / semismooth-Newton solver."""

import dataclasses

import numpy as np
import pytest

from clusterlasso import ssnal_dual
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
)
from clusterlasso.jacobian import build_jacobian
from clusterlasso.linalg import DesignMatrix
from clusterlasso.metrics import primal_objective
from clusterlasso.problem import ProblemData
from clusterlasso.prox import Penalties, prox_clustered
from clusterlasso.ssnal_dual import DualSubproblem, solve, solve_newton_system
from oracles import dense_matrix_from_apply, prox_oracle


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


def _subproblem(data, x_tilde, sigma, cfg=None):
    return DualSubproblem(data, x_tilde, sigma, cfg or SolverConfig())


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
    def test_gram_direction_matches_thin_factor_direction(self, seed):
        # on the Gram route A^T grad is formed on the n-side from y, A^T b
        # and G prox; step and lift must match the thin-factor route's
        rng = np.random.default_rng(seed)
        data = _random_problem(seed, m=30, n=6)
        x_tilde = rng.normal(size=6)
        xi = rng.normal(size=30)
        gram, atb = data.A.gram(), data.A.tmatvec(data.b)
        thin = _subproblem(data, x_tilde, 1.3)
        tall = DualSubproblem(data, x_tilde, 1.3, SolverConfig(), gram, atb)
        y = thin.aux(xi)
        g, pr = _grad(thin, xi)
        h, lift = thin.direction(y, pr, g, [0])
        h_g, lift_g = tall.direction(y, pr, g, [0])
        np.testing.assert_allclose(h_g, h, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(lift_g, lift, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(lift, thin.lift(h), rtol=1e-12)


class TestNewtonSystem:
    @pytest.mark.parametrize("seed", range(12))
    def test_matches_dense_solve(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(3, 14))
        n = int(rng.integers(2, 14))
        A = DesignMatrix(rng.normal(size=(m, n)))
        y = np.round(rng.normal(size=n), 1)
        pen = Penalties(float(rng.uniform(0, 0.5)), float(rng.uniform(0, 0.3)))
        jac = build_jacobian(prox_clustered(y, pen), pen)
        sigma = float(rng.uniform(0.5, 4.0))
        M = dense_matrix_from_apply(jac.apply, n)
        H = np.eye(m) + sigma * A.toarray() @ M @ A.toarray().T
        rhs = rng.normal(size=m)
        want = np.linalg.solve(H, rhs)
        got, lift = solve_newton_system(jac, A, sigma, rhs, SolverConfig())
        np.testing.assert_allclose(got, want, atol=1e-8, rtol=1e-8)
        np.testing.assert_array_equal(lift, -A.tmatvec(got))
        # the Gram route (Woodbury through the n-side) solves the same
        # system and returns the lift -A^T h without a product with A^T
        got, lift = solve_newton_system(jac, A, sigma, rhs, SolverConfig(),
                                        gram=A.gram(), at_rhs=A.tmatvec(rhs))
        np.testing.assert_allclose(got, want, atol=1e-8, rtol=1e-8)
        np.testing.assert_allclose(lift, -A.tmatvec(got), rtol=1e-10,
                                   atol=1e-14 * np.linalg.norm(rhs))

    def test_identity_when_jacobian_vanishes(self):
        A = DesignMatrix(np.ones((3, 4)))
        pen = Penalties(10.0, 0.1)
        jac = build_jacobian(prox_clustered(np.full(4, 0.1), pen), pen)
        rhs = np.array([1.0, 2.0, 3.0])
        for gram, at_rhs in ((None, None), (A.gram(), A.tmatvec(rhs))):
            h, lift = solve_newton_system(jac, A, 2.0, rhs, SolverConfig(),
                                          gram=gram, at_rhs=at_rhs)
            np.testing.assert_array_equal(h, rhs)
            np.testing.assert_array_equal(lift, -A.tmatvec(rhs))

    def test_cg_route_agrees_with_direct(self, monkeypatch):
        rng = np.random.default_rng(77)
        m, n = 10, 9
        A = DesignMatrix(rng.normal(size=(m, n)))
        y = rng.normal(size=n)
        pen = Penalties(0.05, 0.02)
        jac = build_jacobian(prox_clustered(y, pen), pen)
        rhs = rng.normal(size=m)
        direct, _ = solve_newton_system(jac, A, 1.5, rhs, SolverConfig())
        # force the CG branch by shrinking the dense-matrix cap
        monkeypatch.setattr(ssnal_dual, "DENSE_CAP", 1)
        cfg = SolverConfig(ssn=SsnControls(eta_bar=1e-12, tau=1.0))
        counter = [0]
        viacg, _ = solve_newton_system(jac, A, 1.5, rhs, cfg,
                                       counter=counter)
        np.testing.assert_allclose(viacg, direct, atol=1e-6)
        assert counter[0] > 0


def _inner(data, x_tilde, sigma, tol, cfg=None):
    """Run `newton` on the dual subproblem from xi = 0 to ||grad|| <= tol."""
    cfg = cfg or SolverConfig()
    sub = DualSubproblem(data, x_tilde, sigma, cfg)
    return sub, newton(sub, np.zeros(data.A.m), lambda gn, _xi, _pr: gn <= tol,
                       cfg.ssn, deadline=np.inf)


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

    def test_cap_sets_hit_cap(self):
        data = _random_problem(7)
        cfg = SolverConfig(ssn=SsnControls(max_newton=1))
        _, (*_, residuals, _, hit_cap) = _inner(data, np.ones(8), 1.0, 1e-14,
                                                cfg)
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

    def test_sigma_recovery_on_hard_tall_instance(self):
        # On this correlated tall design the x3 sigma growth outruns what
        # 10 Newton steps can solve; the solver must back sigma off after
        # the capped inner loops and still converge well within the outer
        # budget.
        prob = generate_scenario(ScenarioSpec(3, k=2, seed=1, m_override=400))
        pen = penalties_from_alphas(1e-3, 1e-3, prob.data)
        data = dataclasses.replace(prob.data, penalties=pen)
        cfg = SolverConfig(ssn=SsnControls(max_newton=10))
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
