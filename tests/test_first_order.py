"""Tests for the ADMM baselines and accelerated proximal gradient."""

import numpy as np
import pytest
import scipy.sparse as sp

from clusterlasso import first_order
from clusterlasso.common import CONVERGED
from clusterlasso.data import (ScenarioSpec, generate_scenario,
                               penalties_from_alphas)
from clusterlasso.first_order import (
    FirstOrderConfig,
    apg_solve,
    d_admm_solve,
    estimate_lipschitz,
    p_admm_solve,
)
from clusterlasso.linalg import DesignMatrix
from clusterlasso.problem import ProblemData
from clusterlasso.prox import Penalties, prox_clustered
from clusterlasso.ssnal_dual import solve as solve_dual
from oracles import count_design_products


def _problem(seed, m=15, n=8, beta=0.3, rho=0.1):
    rng = np.random.default_rng(seed)
    A = DesignMatrix(rng.normal(size=(m, n)))
    b = rng.normal(size=m)
    return ProblemData(A, b, Penalties(beta, rho))


def _sparse_problem(seed, m, n, beta=0.3, rho=0.1):
    # a design with 60% zero entries, as a LIBSVM file may hold
    rng = np.random.default_rng(seed)
    M = sp.random(m, n, density=0.4, random_state=seed).toarray()
    return ProblemData(DesignMatrix(M), rng.normal(size=m),
                       Penalties(beta, rho))


# tall designs, with or without many zero entries, take the n-side routes,
# the wide one the m-side routes
ROUTE_SHAPES = {
    "tall_dense": lambda: _problem(13, m=30, n=8),
    "tall_sparse": lambda: _sparse_problem(14, m=30, n=8),
    "wide_dense": lambda: _problem(15, m=8, n=15),
}


class TestConfig:
    def test_variant_names(self):
        with pytest.raises(ValueError):
            FirstOrderConfig(variant="cholesky")


class TestLipschitzEstimate:
    def test_diagonal_matrix(self):
        A = DesignMatrix(np.diag([1.0, 2.0, 3.0]))
        # top eigenvalue of A^T A is 9; the estimate pads by 1%
        assert estimate_lipschitz(A) == pytest.approx(9.09, rel=1e-6)

    def test_upper_bounds_spectrum(self):
        rng = np.random.default_rng(0)
        for seed in range(5):
            M = np.random.default_rng(seed).normal(size=(10, 6))
            A = DesignMatrix(M)
            lam = np.linalg.eigvalsh(M.T @ M).max()
            est = estimate_lipschitz(A)
            assert est >= lam * 0.9999
            assert est <= lam * 1.02

    def test_zero_matrix(self):
        A = DesignMatrix(np.zeros((3, 2)))
        assert estimate_lipschitz(A) == 0.0

    @pytest.mark.parametrize("iters", [10, 100])
    def test_gram_iteration_matches_design_iteration(self, iters):
        # A^T A applied as one cached matrix or as two products with A:
        # the same power iteration up to roundoff
        for seed in range(5):
            M = np.random.default_rng(seed).normal(size=(40, 8))
            A = DesignMatrix(M)
            assert estimate_lipschitz(A, iters, gram=A.gram()) == (
                pytest.approx(estimate_lipschitz(A, iters), rel=1e-12))
        zero = DesignMatrix(np.zeros((3, 2)))
        assert estimate_lipschitz(zero, gram=zero.gram()) == 0.0


class TestSoftThresholdCrossCheck:
    """With rho = 0 and orthogonal design the solution is closed form."""

    def _orthogonal_problem(self):
        A = DesignMatrix(np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]))
        b = np.array([3.0, -0.5, 7.0])
        return ProblemData(A, b, Penalties(1.0, 0.0))

    def _expected(self):
        # x_i = soft(A^T b, beta) for orthonormal columns
        return np.array([2.0, 0.0])

    def test_apg(self):
        sol = apg_solve(self._orthogonal_problem(),
                        FirstOrderConfig(tol=1e-10))
        np.testing.assert_allclose(sol.x, self._expected(), atol=1e-8)

    def test_p_admm(self):
        sol = p_admm_solve(self._orthogonal_problem(),
                           FirstOrderConfig(tol=1e-10))
        np.testing.assert_allclose(sol.x, self._expected(), atol=1e-8)

    def test_d_admm(self):
        sol = d_admm_solve(self._orthogonal_problem(),
                           FirstOrderConfig(tol=1e-10))
        np.testing.assert_allclose(sol.x, self._expected(), atol=1e-8)


class TestAgreementWithNewton:
    @staticmethod
    def _agree(runner, data):
        ref = solve_dual(data)
        sol = runner(data, FirstOrderConfig(tol=1e-9))
        assert sol.status == CONVERGED
        np.testing.assert_allclose(sol.x, ref.x, atol=1e-5)

    @pytest.mark.parametrize("runner", [d_admm_solve, p_admm_solve, apg_solve])
    def test_matches_newton_solution(self, runner):
        self._agree(runner, _problem(1))

    @pytest.mark.parametrize("runner", [d_admm_solve, p_admm_solve, apg_solve])
    def test_matches_newton_solution_wide(self, runner):
        # m < n: exact d-ADMM and APG keep their m-side routes
        self._agree(runner, _problem(1, m=8, n=15))

    def test_variants_agree(self):
        data = _problem(2)
        cfg = lambda v: FirstOrderConfig(tol=1e-9, variant=v)  # noqa: E731
        exact = d_admm_solve(data, cfg("exact"))
        inexact = d_admm_solve(data, cfg("inexact"))
        np.testing.assert_allclose(inexact.x, exact.x, atol=1e-5)

    def test_relative_gap_stopping(self):
        data = _problem(3)
        ref = solve_dual(data)
        cfg = FirstOrderConfig(tol=1e-6, ref_pobj=ref.pobj)
        sol = p_admm_solve(data, cfg)
        assert sol.status == CONVERGED
        assert sol.eta_rel is not None
        assert sol.eta_rel <= 1e-6


class TestApg:
    @pytest.mark.parametrize("lipschitz, restarts", [(1.2, True),
                                                     (2.0, False)],
                             ids=["restart", "momentum"])
    def test_steps_match_the_scheme_written_out(self, lipschitz, restarts):
        # steps 1 and 2 cannot restart (there w - x+ = -(x+ - x)), and a
        # restart at step 3 moves only w, so x after step 4 is the first
        # iterate that shows it.  On an orthonormal design the step 1/L
        # overshoots at step 3 when L = 1.2 and not when L = 2.
        rng = np.random.default_rng(0)
        Q = np.linalg.qr(rng.normal(size=(15, 8)))[0]
        data = ProblemData(DesignMatrix(Q), rng.normal(size=15),
                           Penalties(0.3, 0.1))
        x0 = np.random.default_rng(1).normal(size=8)
        L = lipschitz

        def step(w):
            v = L * w - Q.T @ (Q @ w - data.b)
            return prox_clustered(v, data.penalties).prox / L

        t2 = (1.0 + np.sqrt(5.0)) / 2.0
        t3 = (1.0 + np.sqrt(1.0 + 4.0 * t2 ** 2)) / 2.0
        t4 = (1.0 + np.sqrt(1.0 + 4.0 * t3 ** 2)) / 2.0
        x1 = step(x0)  # t1 = 1: the first momentum weight is 0
        x2 = step(x1)
        w = x2 + (t2 - 1.0) / t3 * (x2 - x1)
        x3 = step(w)
        assert (np.dot(w - x3, x3 - x2) > 0.0) == restarts
        after_restart = step(x3)
        after_momentum = step(x3 + (t3 - 1.0) / t4 * (x3 - x2))
        assert np.abs(after_restart - after_momentum).max() > 1e-4
        sol = apg_solve(data, FirstOrderConfig(max_iters=4, tol=0.0),
                        x0=x0, lipschitz=L)
        np.testing.assert_allclose(
            sol.x, after_restart if restarts else after_momentum,
            rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_benchmark_shape_converges_within_1000_steps(self, seed):
        # the first_order benchmark's instance shape and stopping rule;
        # without the restart APG needs about 3400 steps here
        problem = generate_scenario(
            ScenarioSpec(7, 5, seed, m_override=1000)).data
        problem = problem.with_penalties(
            penalties_from_alphas(1e-3, 1e-3, problem))
        sol = apg_solve(problem, FirstOrderConfig(tol=1e-5, check_every=10,
                                                  max_iters=1000))
        assert sol.status == CONVERGED

    def test_objective_decreases_overall(self):
        # runs capped at 1 and 300 steps from the same start are the
        # first and the last step of one 300-step run
        data = _problem(5)
        first, last = (apg_solve(data, FirstOrderConfig(max_iters=k, tol=0.0))
                       for k in (1, 300))
        assert last.pobj <= first.pobj
        assert last.pobj == pytest.approx(solve_dual(data).pobj, rel=1e-3)

    def test_rejects_zero_matrix(self):
        A = DesignMatrix(np.zeros((3, 2)))
        data = ProblemData(A, np.ones(3), Penalties(0.1, 0.0))
        with pytest.raises(ValueError):
            apg_solve(data)

    def test_explicit_lipschitz_honored(self):
        data = _problem(6)
        sol = apg_solve(data, FirstOrderConfig(tol=1e-8), lipschitz=1e4)
        assert sol.status == CONVERGED


class TestAdmmDetails:
    def test_max_iters_status(self):
        data = _problem(7)
        sol = d_admm_solve(data, FirstOrderConfig(max_iters=3, tol=1e-14))
        assert sol.status == "max_iters"
        assert sol.outer_iters == 3

    def test_warm_start(self):
        data = _problem(8)
        first = p_admm_solve(data, FirstOrderConfig(tol=1e-8))
        again = p_admm_solve(data, FirstOrderConfig(tol=1e-8),
                             z0=first.z, y0=np.zeros(8))
        assert again.outer_iters <= first.outer_iters

    def test_adaptive_sigma_still_converges(self, monkeypatch):
        # start far from a good sigma so that the adaptive rule must move it
        monkeypatch.setattr(first_order, "SIGMA0", 100.0)
        data = _problem(9)
        cfg = FirstOrderConfig(tol=1e-8, adaptive_sigma=True)
        for runner in (d_admm_solve, p_admm_solve):
            sol = runner(data, cfg)
            assert sol.status == CONVERGED

    def test_fixed_sigma_never_rebalances(self, monkeypatch):
        def fail(*_):
            raise AssertionError("sigma rebalanced with adaptive_sigma off")

        monkeypatch.setattr(first_order, "_sigma_scale", fail)
        data = _problem(9)
        cfg = FirstOrderConfig(tol=1e-8, adaptive_sigma=False)
        for runner in (d_admm_solve, p_admm_solve):
            assert runner(data, cfg).status == CONVERGED

    @pytest.mark.parametrize("runner, every_100", [(d_admm_solve, 390),
                                                   (p_admm_solve, 230)],
                             ids=["admm_d", "admm_p"])
    def test_frequent_balancing_cuts_iterations(self, runner, every_100):
        # every_100: the iteration count when sigma was balanced only every
        # 100 iterations, so it took hundreds of steps to leave SIGMA0
        data = generate_scenario(ScenarioSpec(7, 2, 1, m_override=400)).data
        data = data.with_penalties(penalties_from_alphas(1e-3, 1e-3, data))
        sol = runner(data, FirstOrderConfig(tol=1e-5, check_every=10))
        assert sol.status == CONVERGED
        assert sol.outer_iters <= 0.7 * every_100

    def test_check_every_skips_metric_evaluations(self):
        data = _problem(10)
        sol = d_admm_solve(data, FirstOrderConfig(tol=1e-8, check_every=10))
        assert sol.status == CONVERGED
        assert sol.outer_iters % 10 == 0

    def test_zero_rhs(self):
        rng = np.random.default_rng(11)
        A = DesignMatrix(rng.normal(size=(6, 4)))
        data = ProblemData(A, np.zeros(6), Penalties(0.2, 0.1))
        for runner in (d_admm_solve, p_admm_solve, apg_solve):
            sol = runner(data, FirstOrderConfig(tol=1e-10))
            np.testing.assert_allclose(sol.x, np.zeros(4), atol=1e-9)

    def test_dual_iterate_feasibility_at_convergence(self):
        data = _problem(12)
        sol = d_admm_solve(data, FirstOrderConfig(tol=1e-9))
        # at convergence A^T xi + u ~ 0 and the primal matches the prox
        assert sol.eta_d <= 1e-6
        assert sol.eta_gap <= 1e-6


class TestTallDesignProducts:
    @pytest.mark.parametrize("runner", [apg_solve, p_admm_solve,
                                        d_admm_solve],
                             ids=["apg", "admm_p", "admm_d"])
    def test_fixed_whatever_the_iteration_count(self, monkeypatch, runner):
        # a baseline holding A^T A and A^T b on a dense tall design forms
        # the gradient, the power estimate and the stopping check's
        # A^T(Ax - b) from them.  A is touched eight times: A^T A and
        # A^T b; xi = Az - b and A^T xi for u (d-ADMM: xi alone, so seven);
        # Ax - b for pobj, A^T xi for eta_d and two products for eta_kkt
        data = ROUTE_SHAPES["tall_dense"]()
        iters = []
        for tol in (1e-4, 1e-8):
            products = count_design_products(monkeypatch)
            sol = runner(data, FirstOrderConfig(tol=tol))
            assert sol.status == CONVERGED
            assert products[data.A] == (7 if runner is d_admm_solve else 8)
            iters.append(sol.outer_iters)
        assert iters[0] < iters[1]


class TestOneStep:
    """A single iteration from a random start, checked against the
    equations that define it."""

    @pytest.mark.parametrize("shape", sorted(ROUTE_SHAPES))
    def test_d_admm_step_solves_dual_system(self, shape, monkeypatch):
        data = ROUTE_SHAPES[shape]()
        M = data.A.toarray()
        m, n = M.shape
        rng = np.random.default_rng(16)
        x0, u0 = rng.normal(size=n), rng.normal(size=n)
        # sigma != 1, so that a sigma dropped or misplaced in the system
        # still fails the check; d-ADMM starts at the curvature constant
        # over its 10-step estimate of lambda_max(A^T A)
        sigma = 0.7
        monkeypatch.setattr(first_order, "DUAL_SIGMA0_CURVATURE",
                            sigma * estimate_lipschitz(data.A, iters=10))
        sol = d_admm_solve(data, FirstOrderConfig(max_iters=1),
                           x0=x0, u0=u0)
        expected = np.linalg.solve(np.eye(m) + sigma * M @ M.T,
                                   M @ (x0 - sigma * u0) - data.b)
        np.testing.assert_allclose(sol.xi, expected, rtol=1e-10)

    @pytest.mark.parametrize("shape", ["tall_dense", "wide_dense"])
    def test_apg_step_is_prox_gradient(self, shape):
        data = ROUTE_SHAPES[shape]()
        M = data.A.toarray()
        x0 = np.random.default_rng(17).normal(size=M.shape[1])
        L = 2.0 * np.linalg.eigvalsh(M.T @ M).max()
        sol = apg_solve(data, FirstOrderConfig(max_iters=1, tol=0.0),
                        x0=x0, lipschitz=L)
        v = L * x0 - M.T @ (M @ x0 - data.b)
        expected = prox_clustered(v, data.penalties).prox / L
        np.testing.assert_allclose(sol.x, expected, rtol=1e-10, atol=1e-12)


class TestCgWork:
    def test_only_inexact_variant_reports_cg_iterations(self):
        data = _problem(2)
        cfg = lambda v: FirstOrderConfig(tol=1e-9, variant=v)  # noqa: E731
        assert d_admm_solve(data, cfg("inexact")).total_cg_iters > 0
        assert d_admm_solve(data, cfg("exact")).total_cg_iters == 0
