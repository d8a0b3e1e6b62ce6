"""Tests for the optimality measures and sparsity summaries."""

import numpy as np
import pytest

from clusterlasso.linalg import DesignMatrix
from clusterlasso.metrics import (
    dual_objective,
    duality_metrics,
    eta_kkt,
    eta_rel,
    gnnz,
    nnz,
    primal_objective,
)
from clusterlasso.problem import ProblemData
from clusterlasso.prox import Penalties
from oracles import pairwise_penalty


def _toy_problem(beta=1.0, rho=0.5):
    A = DesignMatrix(np.array([[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]]))
    b = np.array([1.0, 2.0, 3.0])
    return ProblemData(A, b, Penalties(beta, rho))


class TestObjectives:
    def test_primal_at_zero_is_half_b_norm(self):
        data = _toy_problem()
        assert primal_objective(np.zeros(2), data) == pytest.approx(
            0.5 * float(data.b @ data.b))

    def test_primal_matches_brute_force(self):
        rng = np.random.default_rng(0)
        A = DesignMatrix(rng.normal(size=(6, 4)))
        b = rng.normal(size=6)
        data = ProblemData(A, b, Penalties(0.3, 0.7))
        x = rng.normal(size=4)
        want = 0.5 * np.sum((A.toarray() @ x - b) ** 2) + \
            pairwise_penalty(x, 0.3, 0.7)
        assert primal_objective(x, data) == pytest.approx(want, rel=1e-12)

    def test_dual_at_zero(self):
        data = _toy_problem()
        assert dual_objective(np.zeros(3), data) == 0.0

    def test_dual_maximum_unconstrained_at_minus_b(self):
        data = _toy_problem()
        assert dual_objective(-data.b, data) == pytest.approx(
            0.5 * float(data.b @ data.b))

    def test_weak_duality_on_feasible_pairs(self):
        # xi is dual feasible when -A^T xi falls inside the polar set of the
        # penalty, i.e. when its prox is exactly zero; then dobj <= pobj
        from clusterlasso.prox import prox_clustered

        rng = np.random.default_rng(1)
        data = _toy_problem(0.2, 0.1)
        pen = data.penalties
        for _ in range(20):
            x = rng.normal(size=2)
            xi = rng.normal(size=3)
            while prox_clustered(-data.A.tmatvec(xi), pen).prox.any():
                xi *= 0.5
            assert dual_objective(xi, data) <= primal_objective(x, data) + 1e-12


class TestEtaKkt:
    def test_zero_at_solution_of_null_model(self):
        # beta >= ||A^T b||_inf forces x = 0 to be optimal
        A = DesignMatrix(np.array([[1.0, 0.0], [0.0, 1.0]]))
        b = np.array([0.5, -0.25])
        data = ProblemData(A, b, Penalties(1.0, 0.0))
        assert eta_kkt(np.zeros(2), data) <= 1e-15

    def test_positive_away_from_solution(self):
        data = _toy_problem()
        assert eta_kkt(np.array([10.0, -10.0]), data) > 0.1

    def test_scale_invariance_of_denominator(self):
        # denominator grows with ||x|| so the measure stays bounded
        data = _toy_problem()
        big = eta_kkt(np.array([1e8, 1e8]), data)
        assert np.isfinite(big)


class TestDualityMetrics:
    def test_gap_zero_when_objectives_match(self):
        data = _toy_problem(100.0, 0.0)  # null model: x = 0, xi = -b optimal
        x = np.zeros(2)
        xi = -data.b
        u = -data.A.tmatvec(xi)
        pobj, dobj, e_gap, e_d = duality_metrics(x, xi, u, data)
        assert pobj == pytest.approx(dobj)
        assert e_gap <= 1e-15
        assert e_d <= 1e-15

    def test_eta_d_measures_infeasibility(self):
        data = _toy_problem()
        u = np.zeros(2)
        xi = np.array([1.0, 0.0, 0.0])
        _, _, _, e_d = duality_metrics(np.zeros(2), xi, u, data)
        want = np.linalg.norm(data.A.tmatvec(xi))
        assert e_d == pytest.approx(want / 1.0)


class TestEtaRel:
    def test_signed(self):
        assert eta_rel(1.0, 2.0) == pytest.approx(-1.0 / 3.0)
        assert eta_rel(3.0, 2.0) == pytest.approx(1.0 / 3.0)

    def test_zero_reference(self):
        assert eta_rel(0.5, 0.0) == pytest.approx(0.5)


class TestNnz:
    def test_zero_vector(self):
        assert nnz(np.zeros(4)) == 0

    def test_exact_sparse_vector(self):
        assert nnz(np.array([5.0, 0.1, 0.0])) == 2

    def test_single_spike(self):
        assert nnz(np.array([0.0, 7.0, 0.0])) == 1

    def test_tiny_entries_do_not_count(self):
        x = np.array([1.0, 1e-9, 1e-9])
        assert nnz(x) == 1

    def test_uniform_vector_counts_all(self):
        assert nnz(np.ones(10)) == 10


class TestGnnz:
    def test_zero_vector(self):
        assert gnnz(np.zeros(5)) == 0

    def test_single_group(self):
        assert gnnz(np.array([1.0, 1.01, 0.99])) == 1

    def test_two_well_separated_groups(self):
        assert gnnz(np.array([3.0, 3.0, 1.0, 1.0])) == 2

    def test_sign_split(self):
        # same magnitude but opposite sign is a different group
        assert gnnz(np.array([1.0, -1.0])) == 2

    def test_zero_entries_excluded_by_default(self):
        x = np.array([2.0, 2.0, 1e-8, 0.0])
        assert gnnz(x) == 1

    def test_ratio_boundary_inside(self):
        # 5/6 exactly on the boundary joins the group
        assert gnnz(np.array([1.2, 1.0])) == 1

    def test_ratio_boundary_outside(self):
        assert gnnz(np.array([1.3, 1.0])) == 2

    def test_drift_capped_by_group_extremes(self):
        # chained near-ratios cannot merge a slowly drifting sequence
        x = np.array([1.0, 0.9, 0.81, 0.73, 0.66])
        assert gnnz(x) >= 2

    def test_three_groups_mixed_signs(self):
        x = np.array([4.0, 4.1, -4.0, -4.05, 0.5])
        assert gnnz(x) == 3

