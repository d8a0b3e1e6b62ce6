"""Tests for the clustered penalty and its proximal mapping.

The prox is checked against two independent references that share no code
with the library: an ADMM on the explicit all-pairs difference matrix and
an exhaustive active-set QP for the monotone projection.  A third, plain
reference of the same arithmetic pins the bytes the prox and the Jacobian
indices come out as.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from clusterlasso.jacobian import TIES_TOL, build_jacobian
from clusterlasso.prox import (
    Penalties,
    ordered_weights,
    pav_nonincreasing,
    penalty_value,
    project_nonincreasing,
    prox_clustered,
    prox_conjugate,
    soft_threshold,
)
from oracles import (equal_runs, isotone_qp_oracle, pairwise_penalty,
                     pav_reference, prox_oracle)


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
        proj = project_nonincreasing(np.array([1.0, 3.0, 2.0]))
        np.testing.assert_allclose(proj, [2.0, 2.0, 2.0])
        lengths, _ = equal_runs(proj)
        np.testing.assert_array_equal(lengths, [3])

    def test_sorted_input_unchanged(self):
        v = np.array([5.0, 3.0, 1.0])
        proj = project_nonincreasing(v)
        np.testing.assert_array_equal(proj, v)
        assert equal_runs(proj)[0].size == 3

    def test_exact_ties_share_a_block(self):
        proj = project_nonincreasing(np.array([2.0, 1.0, 1.0, 0.0]))
        lengths, _ = equal_runs(proj)
        np.testing.assert_array_equal(lengths, [1, 2, 1])

    def test_partition_expand_roundtrip(self):
        # the projection's runs are the sweep's blocks with adjacent
        # exactly equal means merged, and expand back to the projection
        rng = np.random.default_rng(0)
        for v in (rng.normal(size=25), np.round(rng.normal(size=40), 1)):
            proj = project_nonincreasing(v)
            lengths, values = equal_runs(proj)
            np.testing.assert_array_equal(np.repeat(values, lengths), proj)
            sums, counts = pav_nonincreasing(v)
            means = sums / counts
            first = np.flatnonzero(np.r_[True, means[1:] != means[:-1]])
            np.testing.assert_array_equal(lengths,
                                          np.add.reduceat(counts, first))
            np.testing.assert_array_equal(values, means[first])

    def test_partition_values_strictly_decreasing(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            v = np.round(rng.normal(size=12), 1)
            lengths, values = equal_runs(project_nonincreasing(v))
            assert np.all(np.diff(values) < 0)
            assert lengths.sum() == 12

    def test_preserves_sum(self):
        rng = np.random.default_rng(2)
        v = rng.normal(size=30)
        proj = project_nonincreasing(v)
        assert proj.sum() == pytest.approx(v.sum())

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        v = rng.normal(size=15)
        proj = project_nonincreasing(v)
        again = project_nonincreasing(proj)
        np.testing.assert_allclose(again, proj, atol=1e-14)

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_active_set_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 9))
        v = rng.normal(size=n) * rng.choice([0.01, 1.0, 100.0])
        if seed % 3 == 0 and n > 1:
            v = np.round(v, 1)
        proj = project_nonincreasing(v)
        np.testing.assert_allclose(proj, isotone_qp_oracle(v), atol=1e-9)


def _pairwise(y, rho):
    """(s_rho, perm) of the prox with beta = 0: the pairwise prox alone."""
    pr = prox_clustered(np.asarray(y, dtype=float), Penalties(0.0, rho))
    return pr.s_rho, pr.perm


class TestProxPairwise:
    def test_two_points_pull_together(self):
        s, perm = _pairwise([0.0, 10.0], 1.0)
        np.testing.assert_allclose(s, [1.0, 9.0])
        np.testing.assert_array_equal(perm, [1, 0])
        assert equal_runs(s[perm])[0].size == 2

    def test_large_rho_pools_everything(self):
        s, perm = _pairwise([1.0, 2.0, 6.0], 10.0)
        np.testing.assert_allclose(s, [3.0, 3.0, 3.0])
        assert equal_runs(s[perm])[0].size == 1

    def test_rho_zero_identity(self):
        y = np.array([3.0, -1.0, 2.0])
        s, perm = _pairwise(y, 0.0)
        np.testing.assert_array_equal(s, y)
        assert perm is None

    def test_singleton_identity(self):
        s, perm = _pairwise([4.2], 1.0)
        np.testing.assert_array_equal(s, [4.2])
        assert perm is None

    def test_preserves_order(self):
        rng = np.random.default_rng(5)
        y = rng.normal(size=20)
        s, perm = _pairwise(y, 0.13)
        order = np.argsort(-y, kind="stable")
        assert np.all(np.diff(s[order]) <= 1e-12)
        assert np.all(np.diff(s[perm]) <= 0)


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
            total = prox_clustered(y, pen).prox + prox_conjugate(y, pen)
            np.testing.assert_allclose(
                total, y, atol=1e-12 * (1 + np.linalg.norm(y)))


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
        total = prox_clustered(y, pen).prox + prox_conjugate(y, pen)
        np.testing.assert_allclose(total, y, atol=1e-12 * (1 + np.abs(y).max()))


tied_vecs = st.lists(st.floats(-5, 5), min_size=1, max_size=60).map(
    lambda v: np.round(np.array(v), 1))


class TestTiedInputs:
    """Tied entries of y land in one pooled block, so the order the sort
    gives them changes no output byte, and the Jacobian's pools are index
    sets."""

    @given(tied_vecs, st.floats(0, 3), st.sampled_from([0.0, 1e-6, 0.5]),
           st.integers(0, 999))
    @settings(max_examples=150, deadline=None)
    def test_permutation_equivariant_bytes(self, y, beta, rho, seed):
        pen = Penalties(beta, rho)
        p = np.random.default_rng(seed).permutation(y.size)
        ref, got = prox_clustered(y, pen), prox_clustered(y[p], pen)
        assert got.prox.tobytes() == ref.prox[p].tobytes()
        assert got.s_rho.tobytes() == ref.s_rho[p].tobytes()
        assert got.y_absmax == ref.y_absmax == np.max(np.abs(y))


def _prox_reference(y, pen):
    """(prox, s_rho, perm, y_absmax) by the prox's arithmetic written out
    plainly: weights (n - 1) - 2k, the int-count PAV stack, and the
    threshold sign(v) max(|v| - beta, 0)."""
    n = y.size
    if pen.rho == 0.0 or n == 1:
        s, perm = y.copy(), None
        y_absmax = float(np.max(np.abs(y)))
    else:
        perm = np.argsort(-y, kind="stable")
        sums, counts = pav_reference(
            y[perm] - pen.rho * ((n - 1) - 2.0 * np.arange(n)))
        s = np.empty_like(y)
        s[perm] = np.repeat(sums / counts, counts)
        y_absmax = float(max(abs(y[perm[0]]), abs(y[perm[-1]])))
    prox = (np.sign(s) * np.maximum(np.abs(s) - pen.beta, 0.0)
            if pen.beta != 0.0 else s.copy())
    return prox, s, perm, y_absmax


def _jacobian_reference(s_rho, perm, y_absmax, beta):
    """(free_idx, pool_idx, pool_offsets, pool_sizes) of the Jacobian at a
    reference prox, each run of s_rho[perm] listed by its slice of perm;
    None where s_rho[perm] increases, which `build_jacobian` refuses."""
    n = s_rho.size
    tol = TIES_TOL * max(1.0, y_absmax)
    empty = np.empty(0, dtype=np.int64)
    if perm is None:
        free = np.flatnonzero(np.abs(s_rho) > beta + tol).astype(np.int64)
        return free, empty, empty, empty
    s = s_rho[perm]
    step = np.diff(s)
    if np.any(step > 0):
        return None
    run_start = np.flatnonzero(np.r_[True, step < -tol])
    run_len = np.diff(np.r_[run_start, n])
    nonzero = np.abs(np.add.reduceat(s, run_start) / run_len) > beta + tol
    free = perm[run_start[(run_len == 1) & nonzero]].astype(np.int64)
    kept = (run_len >= 2) & nonzero
    pools = [perm[a:a + k] for a, k in zip(run_start[kept], run_len[kept])]
    sizes = run_len[kept].astype(np.int64)
    offsets = np.concatenate(([0], np.cumsum(sizes)))[:-1]
    return (free, np.concatenate([empty, *pools]).astype(np.int64),
            offsets.astype(np.int64), sizes)


def _assert_same_bytes(y, pen):
    got = prox_clustered(y, pen)
    prox, s, perm, y_absmax = _prox_reference(y, pen)
    assert got.prox.tobytes() == prox.tobytes()
    assert got.s_rho.tobytes() == s.tobytes()
    assert (got.perm is None) == (perm is None)
    if perm is not None:
        assert got.perm.dtype == perm.dtype
        assert got.perm.tobytes() == perm.tobytes()
    assert type(got.y_absmax) is float
    assert got.y_absmax == y_absmax
    want = _jacobian_reference(s, perm, y_absmax, pen.beta)
    if want is None:
        with pytest.raises(ValueError, match="increases"):
            build_jacobian(got, pen)
        return
    jac = build_jacobian(got, pen)
    for name, ref in zip(("free_idx", "pool_idx", "pool_offsets",
                          "pool_sizes"), want):
        arr = getattr(jac, name)
        assert arr.dtype == np.int64, name
        assert arr.tobytes() == ref.tobytes(), name


signed_zero_ties = st.lists(
    st.one_of(st.floats(-5, 5).map(lambda t: round(t, 1)),
              st.sampled_from([0.0, -0.0])),
    min_size=1, max_size=40).map(lambda v: np.array(v, dtype=np.float64))


class TestByteReference:
    """The prox path returns the bytes of its arithmetic written out
    plainly, signed zeros included, and the Jacobian built from it the
    index arrays of runs split the plain way."""

    @given(signed_zero_ties, st.sampled_from([0.0, 0.5]) | st.floats(0, 3),
           st.sampled_from([0.0, 1e-6, 0.5]) | st.floats(0, 1))
    @example(np.array([-0.0]), 0.3, 0.5)
    @example(np.array([-0.0, 0.0]), 0.1, 0.5)
    @example(np.array([0.5, -0.0, -0.5]), 0.1, 0.0)
    @example(np.array([1.0, 2.0]), 0.0, 0.0)
    @example(np.array([-0.0, 0.0, -0.0]), 0.0, 0.0)
    @settings(max_examples=300, deadline=None)
    def test_small_and_tied(self, y, beta, rho):
        _assert_same_bytes(y, Penalties(beta, rho))

    @pytest.mark.parametrize("n", [80, 200, 800])
    def test_benchmark_sizes(self, n):
        rng = np.random.default_rng(n)
        for scale in (1e-3, 1.0, 1e3):
            y = rng.normal(size=n) * scale
            for beta, rho in ((0.0, 0.0), (0.1, 0.0), (0.0, 1e-3),
                              (0.1 * scale, 1e-3 * scale)):
                _assert_same_bytes(y, Penalties(beta, rho))

    def test_pav_returns_int64_counts(self):
        sums, counts = pav_nonincreasing(np.array([1.0, 3.0, 2.0, -1.0]))
        assert sums.dtype == np.float64
        assert counts.dtype == np.int64
        np.testing.assert_array_equal(counts, [2, 1, 1])
