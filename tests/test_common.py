"""Tests for the augmented-Lagrangian outer loop shared by both SSNAL
solvers, driven by a scripted step so the sigma policy is seen directly,
and for the starting sigma each formulation's step picks."""

import numpy as np
import pytest

from clusterlasso.common import (CONVERGED, MAX_ITERS, MAX_TIME, SIGMA_MAX,
                                 SolverConfig, augmented_lagrangian)
from clusterlasso.linalg import DesignMatrix, estimate_lipschitz
from clusterlasso.problem import ProblemData
from clusterlasso.prox import Penalties
from clusterlasso.ssnal_dual import SIGMA0_CURVATURE, DualStep, solve
from clusterlasso.ssnal_primal import PrimalStep


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
    sol = augmented_lagrangian(lambda d, c: step, None, SolverConfig(**cfg))
    return sol, [s for s, _ in step.calls], [k for _, k in step.calls]


def _data(A, b):
    return ProblemData(DesignMatrix(A), np.asarray(b, dtype=np.float64),
                       Penalties(0.1, 0.01))


class TestSigmaPolicy:
    def test_start_is_scaled_norm_of_b_but_at_least_one(self):
        # the primal keeps max(1, ||b|| / sqrt(m)); m = 4 here
        A = np.random.default_rng(0).normal(size=(4, 3))
        cfg = SolverConfig()
        assert PrimalStep(_data(A, np.full(4, 2.0)), cfg).sigma0 == 2.0
        assert PrimalStep(_data(A, np.full(4, 0.25)), cfg).sigma0 == 1.0

    def test_loop_starts_at_step_sigma0(self):
        assert _run([(10, True)], start=0.125)[1] == [0.125]

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    def test_dual_start_fixes_sigma_times_lipschitz(self, scale):
        rng = np.random.default_rng(1)
        data = _data(scale * rng.normal(size=(30, 6)), rng.normal(size=30))
        step = DualStep(data, SolverConfig())
        lip = estimate_lipschitz(data.A, iters=10)
        assert step.sigma0 * lip == pytest.approx(SIGMA0_CURVATURE, rel=1e-12)

    def test_dual_start_on_zero_design_is_one(self):
        data = _data(np.zeros((5, 3)), np.ones(5))
        assert DualStep(data, SolverConfig()).sigma0 == 1.0
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
