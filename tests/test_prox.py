"""Tests for the clustered penalty and its proximal mapping.

The prox is checked against two independent references that share no code
with the library: an ADMM on the explicit all-pairs difference matrix and
an exhaustive active-set QP for the monotone projection.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from clusterlasso import first_order, ssnal_dual
from clusterlasso.common import CONVERGED
from clusterlasso.data import (ScenarioSpec, generate_scenario,
                               penalties_from_alphas)
from clusterlasso.prox import (
    BlockPartition,
    Penalties,
    ordered_weights,
    pav_nonincreasing,
    penalty_value,
    project_nonincreasing,
    prox_clustered,
    prox_conjugate,
    prox_pairwise,
    soft_threshold,
)
from oracles import isotone_qp_oracle, pairwise_penalty, prox_oracle


def _vec(draw_floats, n):
    return np.array(draw_floats, dtype=float)[:n]


finite_vecs = st.lists(
    st.floats(-50, 50, allow_nan=False, allow_infinity=False),
    min_size=1, max_size=12,
).map(np.array)


class TestPenalties:
    def test_negative_beta_rejected(self):
        with pytest.raises(ValueError):
            Penalties(-0.1, 0.0)

    def test_negative_rho_rejected(self):
        with pytest.raises(ValueError):
            Penalties(1.0, -1e-12)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            Penalties(np.inf, 0.0)


class TestOrderedWeights:
    def test_singleton(self):
        np.testing.assert_array_equal(ordered_weights(1), [0.0])

    def test_n4(self):
        np.testing.assert_array_equal(ordered_weights(4), [3.0, 1.0, -1.0, -3.0])

    def test_antisymmetric_zero_sum(self):
        w = ordered_weights(9)
        assert w.sum() == 0.0
        np.testing.assert_array_equal(w, -w[::-1])

    def test_steps_of_two(self):
        w = ordered_weights(17)
        np.testing.assert_array_equal(np.diff(w), np.full(16, -2.0))


class TestPenaltyValue:
    @pytest.mark.parametrize("seed", range(10))
    def test_matches_double_loop(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 13))
        x = rng.normal(size=n) * rng.choice([0.1, 1.0, 10.0])
        beta, rho = rng.uniform(0.0, 2.0, size=2)
        got = penalty_value(x, Penalties(beta, rho))
        want = pairwise_penalty(x, beta, rho)
        assert got == pytest.approx(want, abs=1e-10, rel=1e-12)

    def test_large_instance_matches_double_loop(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=500)
        got = penalty_value(x, Penalties(0.7, 0.3))
        want = pairwise_penalty(x, 0.7, 0.3)
        assert got == pytest.approx(want, rel=1e-12)

    def test_rho_zero_is_weighted_l1(self):
        x = np.array([1.5, -2.0, 0.0, 3.0])
        assert penalty_value(x, Penalties(2.0, 0.0)) == pytest.approx(13.0)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=40)
        pen = Penalties(0.4, 0.9)
        ref = penalty_value(x, pen)
        for _ in range(5):
            assert penalty_value(rng.permutation(x), pen) == pytest.approx(ref)


class TestSoftThreshold:
    def test_basic(self):
        v = np.array([3.0, -0.5, 0.2, -4.0])
        np.testing.assert_allclose(
            soft_threshold(v, 1.0), [2.0, 0.0, 0.0, -3.0])

    def test_zero_threshold_identity(self):
        v = np.array([1.0, -2.0, 0.0])
        np.testing.assert_array_equal(soft_threshold(v, 0.0), v)


class TestProjectNonincreasing:
    def test_single_violation_pools(self):
        proj, part = project_nonincreasing(np.array([1.0, 3.0, 2.0]))
        np.testing.assert_allclose(proj, [2.0, 2.0, 2.0])
        assert part.nblocks == 1
        assert part.length[0] == 3

    def test_sorted_input_unchanged(self):
        v = np.array([5.0, 3.0, 1.0])
        proj, part = project_nonincreasing(v)
        np.testing.assert_array_equal(proj, v)
        assert part.nblocks == 3

    def test_exact_ties_share_a_block(self):
        proj, part = project_nonincreasing(np.array([2.0, 1.0, 1.0, 0.0]))
        assert part.nblocks == 3
        np.testing.assert_array_equal(part.length, [1, 2, 1])

    def test_partition_expand_roundtrip(self):
        rng = np.random.default_rng(0)
        v = rng.normal(size=25)
        proj, part = project_nonincreasing(v)
        np.testing.assert_allclose(part.expand(), proj)

    def test_partition_values_strictly_decreasing(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            v = np.round(rng.normal(size=12), 1)
            _, part = project_nonincreasing(v)
            assert np.all(np.diff(part.value) < 0)
            assert part.start[0] == 0
            assert part.start[-1] + part.length[-1] == 12

    def test_preserves_sum(self):
        rng = np.random.default_rng(2)
        v = rng.normal(size=30)
        proj, _ = project_nonincreasing(v)
        assert proj.sum() == pytest.approx(v.sum())

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        v = rng.normal(size=15)
        proj, _ = project_nonincreasing(v)
        again, _ = project_nonincreasing(proj)
        np.testing.assert_allclose(again, proj, atol=1e-14)

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_active_set_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 9))
        v = rng.normal(size=n) * rng.choice([0.01, 1.0, 100.0])
        if seed % 3 == 0 and n > 1:
            v = np.round(v, 1)
        proj, _ = project_nonincreasing(v)
        np.testing.assert_allclose(proj, isotone_qp_oracle(v), atol=1e-9)


class TestProxPairwise:
    def test_two_points_pull_together(self):
        s, perm, part = prox_pairwise(np.array([0.0, 10.0]), 1.0)
        np.testing.assert_allclose(s, [1.0, 9.0])
        np.testing.assert_array_equal(perm, [1, 0])
        assert part.nblocks == 2

    def test_large_rho_pools_everything(self):
        s, _, part = prox_pairwise(np.array([1.0, 2.0, 6.0]), 10.0)
        np.testing.assert_allclose(s, [3.0, 3.0, 3.0])
        assert part.nblocks == 1

    def test_rho_zero_identity(self):
        y = np.array([3.0, -1.0, 2.0])
        s, perm, part = prox_pairwise(y, 0.0)
        np.testing.assert_array_equal(s, y)
        assert perm is None and part is None

    def test_singleton_identity(self):
        s, perm, part = prox_pairwise(np.array([4.2]), 1.0)
        np.testing.assert_array_equal(s, [4.2])
        assert perm is None and part is None

    def test_preserves_order(self):
        rng = np.random.default_rng(5)
        y = rng.normal(size=20)
        s, _, _ = prox_pairwise(y, 0.13)
        order = np.argsort(-y, kind="stable")
        assert np.all(np.diff(s[order]) <= 1e-12)


class TestProxClustered:
    @pytest.mark.parametrize("seed", range(30))
    def test_matches_all_pairs_admm(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(1, 9))
        y = rng.normal(size=n) * rng.choice([0.1, 1.0, 10.0])
        beta = float(rng.uniform(0.0, 1.5))
        rho = float(rng.uniform(0.0, 1.0)) if seed % 5 else 0.0
        got = prox_clustered(y, Penalties(beta, rho)).prox
        np.testing.assert_allclose(got, prox_oracle(y, beta, rho), atol=1e-7)

    def test_objective_optimality(self):
        # the prox must beat nearby perturbations of itself
        rng = np.random.default_rng(8)
        y = rng.normal(size=10) * 2
        pen = Penalties(0.3, 0.15)
        x = prox_clustered(y, pen).prox

        def moreau(z):
            return 0.5 * np.sum((z - y) ** 2) + penalty_value(z, pen)

        base = moreau(x)
        for _ in range(50):
            assert base <= moreau(x + 1e-3 * rng.normal(size=10)) + 1e-12

    def test_huge_beta_gives_zero(self):
        y = np.array([1.0, -2.0, 0.5])
        res = prox_clustered(y, Penalties(100.0, 1.0))
        np.testing.assert_array_equal(res.prox, np.zeros(3))

    def test_result_records_scale(self):
        y = np.array([-3.0, 7.0, 1.0])
        assert prox_clustered(y, Penalties(0.1, 0.1)).y_absmax == 7.0

    def test_scaled_prox_homogeneity(self):
        # the prox with levels (t beta, t rho), prox_{t p}, equals
        # t prox_p(y / t) by positive homogeneity of p; APG's step
        # prox_{p/L}(v) = prox_p(L v) / L rests on it
        rng = np.random.default_rng(10)
        y = rng.normal(size=12)
        pen = Penalties(0.5, 0.2)
        t = 3.7
        direct = prox_clustered(y, Penalties(0.5 * t, 0.2 * t)).prox
        np.testing.assert_allclose(t * prox_clustered(y / t, pen).prox,
                                   direct, atol=1e-14)

    def test_conjugate_moreau_identity(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            n = int(rng.integers(1, 40))
            y = rng.normal(size=n) * rng.choice([0.1, 1.0, 50.0])
            pen = Penalties(float(rng.uniform(0, 2)), float(rng.uniform(0, 1)))
            total = prox_clustered(y, pen).prox + prox_conjugate(y, 1.0, pen)
            np.testing.assert_allclose(
                total, y, atol=1e-12 * (1 + np.linalg.norm(y)))

    def test_conjugate_ignores_scale(self):
        # the conjugate of an indicator-like penalty does not depend on t
        rng = np.random.default_rng(13)
        y = rng.normal(size=15)
        pen = Penalties(0.8, 0.3)
        a = prox_conjugate(y, 1.0, pen)
        b = prox_conjugate(y, 57.0, pen)
        np.testing.assert_allclose(a, b, atol=1e-12)


class TestProxProperties:
    @given(finite_vecs, st.floats(0, 3), st.floats(0, 1))
    @settings(max_examples=60, deadline=None)
    def test_nonexpansive(self, y, beta, rho):
        pen = Penalties(beta, rho)
        rng = np.random.default_rng(0)
        z = y + rng.normal(size=y.size)
        dx = prox_clustered(y, pen).prox - prox_clustered(z, pen).prox
        assert np.linalg.norm(dx) <= np.linalg.norm(y - z) + 1e-9

    @given(finite_vecs, st.floats(0, 3), st.floats(0, 1), st.integers(0, 999))
    @settings(max_examples=60, deadline=None)
    def test_permutation_equivariant(self, y, beta, rho, seed):
        pen = Penalties(beta, rho)
        p = np.random.default_rng(seed).permutation(y.size)
        a = prox_clustered(y, pen).prox[p]
        b = prox_clustered(y[p], pen).prox
        np.testing.assert_allclose(a, b, atol=1e-10 * (1 + np.abs(y).max()))

    @given(finite_vecs, st.floats(0, 3), st.floats(0, 1))
    @settings(max_examples=60, deadline=None)
    def test_order_preserving(self, y, beta, rho):
        x = prox_clustered(y, Penalties(beta, rho)).prox
        idx = np.argsort(-y, kind="stable")
        assert np.all(np.diff(x[idx]) <= 1e-12)

    @given(finite_vecs, st.floats(0, 3), st.floats(0, 1))
    @settings(max_examples=60, deadline=None)
    def test_moreau_decomposition(self, y, beta, rho):
        pen = Penalties(beta, rho)
        total = prox_clustered(y, pen).prox + prox_conjugate(y, 1.0, pen)
        np.testing.assert_allclose(total, y, atol=1e-12 * (1 + np.abs(y).max()))


class TestBlockPartition:
    def test_expand(self):
        part = BlockPartition(
            start=np.array([0, 2]), length=np.array([2, 1]),
            value=np.array([5.0, 1.0]))
        np.testing.assert_array_equal(part.expand(), [5.0, 5.0, 1.0])
        assert part.nblocks == 2


tied_vecs = st.lists(st.floats(-5, 5), min_size=1, max_size=60).map(
    lambda v: np.round(np.array(v), 1))


class TestPartitionOnDemand:
    """`prox_clustered` leaves the partition to `ProxResult.partition`,
    which only the Jacobian reads."""

    @given(tied_vecs, st.floats(0, 3), st.sampled_from([0.0, 1e-6, 0.5]))
    @settings(max_examples=150, deadline=None)
    def test_matches_prox_pairwise_and_the_sweep(self, y, beta, rho):
        res = prox_clustered(y, Penalties(beta, rho))
        assert res.y_absmax == np.max(np.abs(y))
        part, want = res.partition, prox_pairwise(y, rho)[2]
        if rho == 0.0 or y.size == 1:
            assert part is None and want is None
            return
        for name in ("start", "length", "value"):
            got, ref = getattr(part, name), getattr(want, name)
            assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()
        # the sweep's blocks, with adjacent exactly equal means merged
        sums, counts = pav_nonincreasing(
            y[res.perm] - rho * ordered_weights(y.size))
        means = sums / counts
        first = np.flatnonzero(np.r_[True, means[1:] != means[:-1]])
        np.testing.assert_array_equal(part.length,
                                      np.add.reduceat(counts, first))
        np.testing.assert_array_equal(part.value, means[first])


@pytest.fixture
def partition_builds(monkeypatch):
    """One entry per BlockPartition made while the test runs."""
    calls = []
    init = BlockPartition.__init__

    def counted(self, *args, **kwargs):
        calls.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(BlockPartition, "__init__", counted)
    return calls


def _scenario7():
    data = generate_scenario(ScenarioSpec(7, 1, 1, m_override=100)).data
    return data.with_penalties(penalties_from_alphas(1e-3, 1e-3, data))


class TestPartitionBuilds:
    @pytest.mark.parametrize("solver", [first_order.apg_solve,
                                        first_order.p_admm_solve,
                                        first_order.d_admm_solve])
    def test_first_order_builds_none(self, partition_builds, solver):
        sol = solver(_scenario7(),
                     first_order.FirstOrderConfig(tol=1e-5, check_every=10))
        assert sol.status == CONVERGED
        assert partition_builds == []

    def test_dual_builds_one_per_newton_step(self, partition_builds):
        sol = ssnal_dual.solve(_scenario7())
        assert sol.status == CONVERGED
        assert len(partition_builds) == sol.total_newton_iters > 0
