"""Tests for the primal augmented-Lagrangian / semismooth-Newton solver."""

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

from clusterlasso import common
from clusterlasso.common import CONVERGED, SolverConfig
from clusterlasso.data import (
    ScenarioSpec,
    generate_scenario,
    penalties_from_alphas,
    read_libsvm,
    write_libsvm,
)
from clusterlasso.jacobian import build_jacobian
from clusterlasso.linalg import DesignMatrix
from clusterlasso.metrics import primal_objective
from clusterlasso.problem import ProblemData
from clusterlasso.prox import Penalties, prox_clustered
from clusterlasso.ssnal_dual import solve as solve_dual
from clusterlasso.ssnal_primal import (
    PrimalSubproblem,
    solve_newton_system_primal,
    solve_primal,
)
from oracles import count_design_products, dense_matrix_from_apply


def _tall_problem(seed, m=30, n=6, beta=0.3, rho=0.1):
    rng = np.random.default_rng(seed)
    A = DesignMatrix(rng.normal(size=(m, n)))
    b = rng.normal(size=m)
    return ProblemData(A, b, Penalties(beta, rho))


def _scenario1(m, a_scale=1.0):
    """Scenario 1, k=10, seed 1 with A scaled and penalties from alphas
    1e-3, 1e-3."""
    prob = generate_scenario(ScenarioSpec(1, k=10, seed=1, m_override=m))
    data = ProblemData(DesignMatrix(a_scale * prob.data.A.toarray()),
                       prob.data.b)
    return dataclasses.replace(
        data, penalties=penalties_from_alphas(1e-3, 1e-3, data))


def _value(sub, x):
    ax = sub.aux(x)
    return sub.value(x, ax, sub.prox(x, ax))


def _grad(sub, x):
    ax = sub.aux(x)
    pr = sub.prox(x, ax)
    return sub.grad(x, ax, pr), pr


class TestSubproblem:
    """Checks of `PrimalSubproblem` with A^T A applied as two products
    with the design (no Gram matrix); `TestSubproblemGram` runs them with
    the cached Gram matrix."""

    gram = False

    def _sub(self, data, x_tilde, y_tilde, sigma):
        return PrimalSubproblem(data, x_tilde, y_tilde, sigma,
                                data.A.gram() if self.gram else None)

    @pytest.mark.parametrize("seed", range(6))
    def test_gradient_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        data = _tall_problem(seed, m=10, n=5)
        x_tilde = rng.normal(size=5)
        y_tilde = rng.normal(size=5)
        sigma = float(rng.uniform(0.5, 3.0))
        x = rng.normal(size=5)
        sub = self._sub(data, x_tilde, y_tilde, sigma)
        g, _ = _grad(sub, x)
        h = 1e-6
        fd = np.zeros(5)
        for i in range(5):
            e = np.zeros(5)
            e[i] = h
            fd[i] = (_value(sub, x + e) - _value(sub, x - e)) / (2 * h)
        np.testing.assert_allclose(g, fd, atol=1e-5, rtol=1e-5)

    def test_value_meaning_at_consistent_point(self):
        # with y_tilde = 0, sigma = 1, x = x_tilde = prox(x) the value is
        # the plain objective at z plus the residual coupling terms
        data = _tall_problem(1, m=8, n=4)
        x = np.zeros(4)
        sub = self._sub(data, x, np.zeros(4), 1.0)
        assert _value(sub, x) == pytest.approx(0.5 * float(data.b @ data.b))

    def test_gradient_prox_result_consistent(self):
        # the prox result is taken at sigma x - y_tilde, the point whose
        # Jacobian feeds the Newton system; aux moves along lift(h)
        rng = np.random.default_rng(4)
        data = _tall_problem(4, m=10, n=5)
        x_tilde, y_tilde, x, h = rng.normal(size=(4, 5))
        sub = self._sub(data, x_tilde, y_tilde, 1.5)
        g, pr = _grad(sub, x)
        want = prox_clustered(1.5 * x - y_tilde, data.penalties).prox
        np.testing.assert_allclose(pr.prox, want)
        np.testing.assert_allclose(
            g, data.A.tmatvec(data.A.matvec(x) - data.b)
            + (1.5 + 1.0 / 1.5) * x - (y_tilde + x_tilde / 1.5) - want)
        np.testing.assert_allclose(sub.aux(x) + 0.3 * sub.lift(h),
                                   sub.aux(x + 0.3 * h), atol=1e-12)


class TestSubproblemGram(TestSubproblem):
    gram = True

    @pytest.mark.parametrize("seed", range(4))
    def test_value_and_gradient_match_design_route(self, seed):
        # the cached Gram matrix gives the same value and gradient as
        # A^T A applied by two products with the design
        rng = np.random.default_rng(seed)
        data = _tall_problem(seed, m=40, n=8)
        x_tilde, y_tilde = rng.normal(size=(2, 8))
        design = PrimalSubproblem(data, x_tilde, y_tilde, 2.5, None)
        tall = self._sub(data, x_tilde, y_tilde, 2.5)
        for x in (x_tilde, x_tilde + 1e-3 * rng.normal(size=8),
                  rng.normal(size=8)):
            np.testing.assert_allclose(_value(tall, x), _value(design, x),
                                       rtol=1e-10)
            np.testing.assert_allclose(_grad(tall, x)[0], _grad(design, x)[0],
                                       rtol=1e-10, atol=1e-12)


class TestNewtonSystemPrimal:
    @pytest.mark.parametrize("seed", range(10))
    def test_matches_dense_solve(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(3, 15))
        n = int(rng.integers(2, 10))
        A = DesignMatrix(rng.normal(size=(m, n)))
        y = np.round(rng.normal(size=n), 1)
        pen = Penalties(float(rng.uniform(0, 0.5)), float(rng.uniform(0, 0.3)))
        jac = build_jacobian(prox_clustered(y, pen), pen)
        sigma = float(rng.uniform(0.5, 4.0))
        M = dense_matrix_from_apply(jac.apply, n)
        H = A.gram() + sigma * (np.eye(n) - M) + np.eye(n) / sigma
        rhs = rng.normal(size=n)
        got, ncg = solve_newton_system_primal(jac, A, sigma, rhs,
                                              gram=A.gram())
        np.testing.assert_allclose(got, np.linalg.solve(H, rhs),
                                   atol=1e-8, rtol=1e-8)
        assert ncg == 0

    def test_cg_route_matches_dense_route(self, monkeypatch):
        rng = np.random.default_rng(50)
        A = DesignMatrix(rng.normal(size=(12, 7)))
        y = rng.normal(size=7)
        pen = Penalties(0.1, 0.05)
        jac = build_jacobian(prox_clustered(y, pen), pen)
        rhs = rng.normal(size=7)
        dense, _ = solve_newton_system_primal(jac, A, 2.0, rhs,
                                              gram=A.gram())
        # tighten the CG route's residual target
        monkeypatch.setattr(common, "ETA_BAR", 1e-12)
        monkeypatch.setattr(common, "TAU", 1.0)
        cg, ncg = solve_newton_system_primal(jac, A, 2.0, rhs, gram=None)
        np.testing.assert_allclose(cg, dense, atol=1e-6)
        assert ncg > 0

    def test_matrix_never_singular(self):
        # smallest eigenvalue of the Newton matrix is at least 1/sigma,
        # even where the Jacobian is the identity on everything
        rng = np.random.default_rng(51)
        A = DesignMatrix(np.zeros((3, 4)) + 1e-30)
        y = rng.normal(size=4) * 10
        pen = Penalties(1e-6, 0.0)
        jac = build_jacobian(prox_clustered(y, pen), pen)
        sigma = 1e5
        M = dense_matrix_from_apply(jac.apply, 4)
        H = A.gram() + sigma * (np.eye(4) - M) + np.eye(4) / sigma
        assert np.linalg.eigvalsh(H).min() >= 1.0 / sigma - 1e-12
        rhs = rng.normal(size=4)
        got, _ = solve_newton_system_primal(jac, A, sigma, rhs,
                                            gram=A.gram())
        np.testing.assert_allclose(got, np.linalg.solve(H, rhs), rtol=1e-10)


class TestSolvePrimal:
    @pytest.mark.parametrize("seed", range(5))
    def test_converges_on_tall_problems(self, seed):
        data = _tall_problem(seed, m=40, n=8, beta=0.4, rho=0.15)
        sol = solve_primal(data)
        assert sol.status == CONVERGED
        assert sol.max_eta <= 1e-6

    def test_agrees_with_dual_solver(self):
        data = _tall_problem(30, m=25, n=7, beta=0.3, rho=0.1)
        cfg = SolverConfig(tol=1e-9)
        p = solve_primal(data, cfg)
        d = solve_dual(data, cfg)
        np.testing.assert_allclose(p.x, d.x, atol=1e-6)
        assert p.pobj == pytest.approx(d.pobj, rel=1e-9, abs=1e-9)

    def test_x_and_z_agree_at_convergence(self):
        data = _tall_problem(31, m=30, n=6)
        sol = solve_primal(data, SolverConfig(tol=1e-9))
        np.testing.assert_allclose(sol.x, sol.z, atol=1e-6)

    def test_zero_rhs(self):
        rng = np.random.default_rng(32)
        A = DesignMatrix(rng.normal(size=(12, 4)))
        data = ProblemData(A, np.zeros(12), Penalties(0.3, 0.1))
        sol = solve_primal(data)
        assert sol.status == CONVERGED
        np.testing.assert_allclose(sol.x, np.zeros(4), atol=1e-10)

    def test_null_model(self):
        rng = np.random.default_rng(33)
        A = DesignMatrix(rng.normal(size=(15, 5)))
        b = rng.normal(size=15)
        beta = 1.05 * float(np.max(np.abs(A.tmatvec(b))))
        data = ProblemData(A, b, Penalties(beta, 0.0))
        sol = solve_primal(data, SolverConfig(tol=1e-9))
        assert sol.status == CONVERGED
        np.testing.assert_allclose(sol.x, np.zeros(5), atol=1e-7)

    def test_minimizer_beats_perturbations(self):
        data = _tall_problem(34, m=20, n=5, beta=0.25, rho=0.08)
        sol = solve_primal(data, SolverConfig(tol=1e-10))
        rng = np.random.default_rng(0)
        base = primal_objective(sol.x, data)
        for _ in range(40):
            cand = sol.x + 1e-4 * rng.normal(size=5)
            assert base <= primal_objective(cand, data) + 1e-12

    def test_residual_trace_recorded(self):
        data = _tall_problem(35, m=24, n=6)
        sol = solve_primal(data)
        assert sol.newton_residuals
        assert all(len(r) >= 1 for r in sol.newton_residuals)
        assert sol.total_newton_iters == sum(
            len(r) - 1 for r in sol.newton_residuals)

    def test_both_newton_routes_reach_the_same_solution(self, monkeypatch):
        # m >= 4n caches the Gram matrix (dense route); with no Gram
        # matrix cached the primal goes through CG.  Same problem data,
        # same answer.
        data = _tall_problem(36, m=40, n=5)
        short = ProblemData(DesignMatrix(data.A.toarray()), data.b,
                            data.penalties)
        dense_route = solve_primal(data, SolverConfig(tol=1e-8))
        monkeypatch.setattr(common, "DENSE_CAP", 1)
        cg_route = solve_primal(short, SolverConfig(tol=1e-8))
        assert dense_route.status == CONVERGED
        assert cg_route.status == CONVERGED
        np.testing.assert_allclose(dense_route.x, cg_route.x, atol=1e-6)

    @pytest.mark.parametrize("m, route", [(40, "gram"), (20, "cg")])
    def test_sparse_design_matches_dense(self, m, route, tmp_path):
        # a sparse design read from a LIBSVM file is the dense design, so
        # both routes repeat bit for bit: m >= 4n builds the Gram matrix,
        # n < m < 4n solves the Newton systems by CG
        n = 8
        rng = np.random.default_rng(37)
        M = sp.random(m, n, density=0.4, random_state=37, format="csr")
        b = rng.normal(size=m)
        write_libsvm(tmp_path / "sparse.libsvm", M, b)
        A, b_read = read_libsvm(tmp_path / "sparse.libsvm", n_features=n)
        assert (common.tall_gram(A) is not None) == (route == "gram")
        pen = Penalties(0.3, 0.1)
        want = solve_primal(ProblemData(DesignMatrix(M.toarray()), b, pen))
        got = solve_primal(ProblemData(A, b_read, pen))
        assert got.status == want.status == CONVERGED
        assert got.x.tobytes() == want.x.tobytes()
        assert ((got.outer_iters, got.total_newton_iters)
                == (want.outer_iters, want.total_newton_iters))

    def test_tall_design_products_per_outer_iteration(self, monkeypatch):
        # No outer iteration and no Newton step touches a tall design: the
        # solve forms A^T A and A^T b to set up the n x n square-root
        # problem and makes one product to map its dual point back, three
        # in all, whatever its outer and Newton counts.
        data = _tall_problem(3, m=40, n=8)
        assert common.tall_gram(data.A) is not None
        counts = []
        for tol in (1e-3, 1e-9):
            products = count_design_products(monkeypatch)
            sol = solve_primal(data, SolverConfig(tol=tol))
            assert sol.status == CONVERGED
            assert sol.total_newton_iters > sol.outer_iters
            assert products[data.A] == 3
            counts.append((sol.outer_iters, sol.total_newton_iters))
        assert counts[0][0] < counts[1][0] and counts[0][1] < counts[1][1]

    def test_inner_solves_stop_at_the_gradient_rounding_floor(self):
        # At sigma = 1e6 the gradient cannot drop below the rounding of
        # its sigma x term (~1e-9 here) while the inner rule asks for
        # ~5e-10; an inner solve must stop there instead of taking
        # 50 steps that change nothing.
        data = _scenario1(5000)
        sol = solve_primal(data)
        cap = SolverConfig().ssn.max_newton
        assert sol.status == CONVERGED
        assert all(len(r) - 1 < cap for r in sol.newton_residuals)
        assert sol.total_newton_iters <= 60

    def test_no_capped_inner_solve_on_rescaled_design(self):
        # the Gram route expands the least-squares term about x_tilde; an
        # expansion about 0 loses the gradient to cancellation at the
        # scale of A^T b once A is scaled by 100, and every inner solve
        # then caps
        data = _scenario1(2000, a_scale=100.0)
        sol = solve_primal(data, SolverConfig(max_outer=30))
        cap = SolverConfig().ssn.max_newton
        assert all(len(r) - 1 < cap for r in sol.newton_residuals)
