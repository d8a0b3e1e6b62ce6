"""Tests for the ADMM baselines and accelerated proximal gradient."""

import numpy as np
import pytest
import scipy.sparse as sp

from clusterlasso import first_order
from clusterlasso.common import CONVERGED
from clusterlasso.first_order import (
    FirstOrderConfig,
    apg_solve,
    d_admm_solve,
    estimate_lipschitz,
    p_admm_solve,
)
from clusterlasso.linalg import DesignMatrix
from clusterlasso.metrics import primal_objective
from clusterlasso.problem import ProblemData
from clusterlasso.prox import Penalties, prox_clustered
from clusterlasso.ssnal_dual import solve as solve_dual


def _problem(seed, m=15, n=8, beta=0.3, rho=0.1):
    rng = np.random.default_rng(seed)
    A = DesignMatrix(rng.normal(size=(m, n)))
    b = rng.normal(size=m)
    return ProblemData(A, b, Penalties(beta, rho))


def _sparse_problem(seed, m, n, beta=0.3, rho=0.1):
    rng = np.random.default_rng(seed)
    M = sp.random(m, n, density=0.4, random_state=seed, format="csr")
    return ProblemData(DesignMatrix(M), rng.normal(size=m),
                       Penalties(beta, rho))


# tall dense and sparse designs take the n-side routes, the wide one the
# m-side routes
ROUTE_SHAPES = {
    "tall_dense": lambda: _problem(13, m=30, n=8),
    "tall_sparse": lambda: _sparse_problem(14, m=30, n=8),
    "wide_dense": lambda: _problem(15, m=8, n=15),
}


class TestConfig:
    def test_rel_metric_needs_reference(self):
        with pytest.raises(ValueError):
            FirstOrderConfig(tol_metric="rel")
        FirstOrderConfig(tol_metric="rel", ref_pobj=1.0)

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
        linearized = d_admm_solve(data, cfg("linearized"))
        np.testing.assert_allclose(inexact.x, exact.x, atol=1e-5)
        np.testing.assert_allclose(linearized.x, exact.x, atol=1e-5)

    def test_relative_gap_stopping(self):
        data = _problem(3)
        ref = solve_dual(data)
        cfg = FirstOrderConfig(tol=1e-6, tol_metric="rel", ref_pobj=ref.pobj)
        sol = p_admm_solve(data, cfg)
        assert sol.status == CONVERGED
        assert sol.eta_rel is not None
        assert sol.eta_rel <= 1e-6


class TestApg:
    def test_momentum_sequence(self):
        # t_{k+1} = (1 + sqrt(1 + 4 t_k^2))/2 from t_1 = 1 gives
        # t_k >= (k+1)/2, the driver of the O(1/k^2) rate
        t = 1.0
        for k in range(1, 50):
            assert t >= (k + 1) / 2.0
            t = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))

    def test_objective_trace_recorded(self):
        data = _problem(4)
        cfg = FirstOrderConfig(max_iters=50, tol=0.0, track_objective=True)
        sol = apg_solve(data, cfg)
        assert sol.obj_trace is not None
        assert len(sol.obj_trace) == 50
        its = [t[0] for t in sol.obj_trace]
        assert its == list(range(1, 51))

    def test_objective_decreases_overall(self):
        data = _problem(5)
        cfg = FirstOrderConfig(max_iters=300, tol=0.0, track_objective=True)
        sol = apg_solve(data, cfg)
        vals = [v for _, v in sol.obj_trace]
        assert vals[-1] <= vals[0]
        assert vals[-1] == pytest.approx(solve_dual(data).pobj, rel=1e-3)

    def test_rejects_zero_matrix(self):
        A = DesignMatrix(np.zeros((3, 2)))
        data = ProblemData(A, np.ones(3), Penalties(0.1, 0.0))
        with pytest.raises(ValueError):
            apg_solve(data)

    def test_objective_computed_once_per_checked_iteration(self, monkeypatch):
        # with both the objective trace and the "rel" rule on, the trace
        # value is reused for eta_rel instead of recomputed; the reference
        # 0 lies below every objective, so no check stops the run early
        from clusterlasso import first_order

        data = _problem(6)
        calls = []

        def counted(x, d):
            calls.append(1)
            return primal_objective(x, d)

        monkeypatch.setattr(first_order, "primal_objective", counted)
        cfg = FirstOrderConfig(max_iters=20, tol=1e-14, tol_metric="rel",
                               ref_pobj=0.0, track_objective=True)
        sol = apg_solve(data, cfg)
        assert sol.outer_iters == 20
        assert len(calls) == len(sol.obj_trace) == 20

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
        # still fails the check
        sigma = 0.7
        monkeypatch.setattr(first_order, "SIGMA0", sigma)
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
        assert d_admm_solve(data, cfg("linearized")).total_cg_iters == 0
