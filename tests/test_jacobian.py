"""Tests for the structured prox Jacobian.

The structured operator is compared against a dense reference built from
the projection's active constraints via the pseudo-inverse formula, and
against finite differences of the prox itself at generic points.
"""

import numpy as np
import pytest

from clusterlasso.jacobian import DEFAULT_TIES_TOL, build_jacobian, design_factors
from clusterlasso.linalg import DesignMatrix
from clusterlasso.prox import Penalties, prox_clustered
from oracles import dense_jacobian_oracle, dense_matrix_from_apply


def _dense(jac):
    return dense_matrix_from_apply(jac.apply, jac.n)


def _jac_at(y, beta, rho, ties_tol=DEFAULT_TIES_TOL):
    pen = Penalties(beta, rho)
    return build_jacobian(prox_clustered(np.asarray(y, float), pen), pen,
                          ties_tol=ties_tol)


class TestStructure:
    def test_generic_point_is_survivor_mask(self):
        # distinct values, no pooling: M = diag(prox != 0)
        jac = _jac_at([5.0, -6.0, 0.01], beta=0.5, rho=0.1)
        assert jac.npools == 0
        M = _dense(jac)
        np.testing.assert_array_equal(np.diag(M), [1.0, 1.0, 0.0])
        np.testing.assert_array_equal(M, np.diag(np.diag(M)))

    def test_full_pool_averages(self):
        # rho large enough to pool everything far from zero
        n = 4
        jac = _jac_at([10.0, 11.0, 12.0, 13.0], beta=0.5, rho=5.0)
        assert jac.npools == 1
        np.testing.assert_allclose(_dense(jac), np.full((n, n), 1.0 / n))

    def test_pool_below_threshold_zeroes_block(self):
        # values pool near zero and the common value dies at the l1 step
        jac = _jac_at([0.3, 0.2, 0.25], beta=5.0, rho=1.0)
        M = _dense(jac)
        np.testing.assert_array_equal(M, np.zeros((3, 3)))
        assert jac.free_idx.size == 0 and jac.pool_idx.size == 0

    def test_rho_zero_diagonal(self):
        jac = _jac_at([2.0, 0.1, -3.0], beta=1.0, rho=0.0)
        assert jac.npools == 0
        np.testing.assert_array_equal(_dense(jac),
                                      np.diag([1.0, 0.0, 1.0]))

    def test_extend_restrict_is_apply(self):
        # P P^T = M, and restrict works row-wise on matrices too
        rng = np.random.default_rng(1)
        y = np.round(rng.normal(size=30), 1)
        jac = _jac_at(y, beta=0.2, rho=0.01)
        assert jac.npools and jac.free_idx.size
        v = rng.normal(size=30)
        np.testing.assert_allclose(jac.extend(jac.restrict(v)), jac.apply(v),
                                   rtol=1e-13, atol=1e-13)
        V = rng.normal(size=(30, 3))
        np.testing.assert_allclose(
            jac.restrict(V), np.stack([jac.restrict(c) for c in V.T], axis=1),
            rtol=1e-13, atol=1e-13)

    def test_mixed_free_and_pooled(self):
        # one pooled pair plus free coordinates
        jac = _jac_at([1.0, 1.05, 8.0, -4.0], beta=0.1, rho=0.05)
        assert jac.npools >= 1
        M = _dense(jac)
        np.testing.assert_allclose(M @ M, M, atol=1e-14)


class TestAgainstDenseOracle:
    @pytest.mark.parametrize("seed", range(40))
    def test_matches_pinv_formula(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        y = rng.normal(size=n)
        if seed % 3 == 0:
            y = np.round(y, 1)  # force ties and pooled runs
        beta = float(rng.uniform(0.0, 1.0))
        rho = float(rng.uniform(0.0, 0.6)) if seed % 7 else 0.0
        got = _dense(_jac_at(y, beta, rho))
        want = dense_jacobian_oracle(y, beta, rho)
        np.testing.assert_allclose(got, want, atol=1e-9)

    @pytest.mark.parametrize("seed", range(15))
    def test_symmetric_idempotent_psd(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(2, 16))
        y = np.round(rng.normal(size=n), 1) if seed % 2 else rng.normal(size=n)
        M = _dense(_jac_at(y, float(rng.uniform(0, 0.8)),
                           float(rng.uniform(0, 0.5))))
        np.testing.assert_allclose(M, M.T, atol=1e-14)
        np.testing.assert_allclose(M @ M, M, atol=1e-13)
        eigs = np.linalg.eigvalsh((M + M.T) / 2)
        assert eigs.min() >= -1e-12 and eigs.max() <= 1 + 1e-12


class TestLocalAffineExactness:
    @pytest.mark.parametrize("seed", range(15))
    def test_prox_difference_equals_jacobian_action(self, seed):
        # at generic points the prox is exactly affine in a neighborhood
        rng = np.random.default_rng(200 + seed)
        n = int(rng.integers(3, 25))
        y = rng.normal(size=n) * 3
        pen = Penalties(float(rng.uniform(0.05, 0.8)),
                        float(rng.uniform(0.01, 0.4)))
        pr = prox_clustered(y, pen)
        if np.min(np.abs(np.abs(pr.s_rho) - pen.beta)) < 1e-4:
            pytest.skip("sample too close to a threshold boundary")
        jac = build_jacobian(pr, pen)
        h = 1e-7
        v = rng.normal(size=n)
        lhs = prox_clustered(y + h * v, pen).prox - pr.prox
        np.testing.assert_allclose(lhs, jac.apply(h * v),
                                   atol=1e-12 * (1 + np.linalg.norm(y)))


class TestTiesTolerance:
    def test_near_ties_pool_under_loose_tolerance(self):
        y = np.array([1.0, 1.0 + 1e-8, 5.0])
        strict = _jac_at(y, beta=0.1, rho=0.0 + 1e-12, ties_tol=1e-14)
        loose = _jac_at(y, beta=0.1, rho=1e-12, ties_tol=1e-6)
        assert strict.npools == 0
        assert loose.npools == 1

    def test_tolerance_scales_with_y(self):
        # same relative gap, larger magnitudes: still pooled
        y = 1e6 * np.array([1.0, 1.0 + 1e-8, 5.0])
        jac = _jac_at(y, beta=0.1, rho=1e-9, ties_tol=1e-6)
        assert jac.npools == 1


class TestDesignFactors:
    @pytest.mark.parametrize("seed", range(20))
    def test_factors_reproduce_sandwich(self, seed):
        # A_free A_free^T + A_pool A_pool^T must equal A M A^T
        rng = np.random.default_rng(300 + seed)
        m = int(rng.integers(2, 12))
        n = int(rng.integers(2, 12))
        A = DesignMatrix(rng.normal(size=(m, n)))
        y = np.round(rng.normal(size=n), 1)
        pen = Penalties(float(rng.uniform(0, 0.6)), float(rng.uniform(0, 0.4)))
        jac = build_jacobian(prox_clustered(y, pen), pen)
        Af, Ap = design_factors(jac, A)
        M = _dense(jac)
        want = A.toarray() @ M @ A.toarray().T
        got = Af.toarray() @ Af.toarray().T + Ap @ Ap.T
        np.testing.assert_allclose(got, want, atol=1e-9)
        assert Ap.shape == (m, jac.npools)

    def test_sparse_design(self):
        import scipy.sparse as sp
        rng = np.random.default_rng(400)
        A = DesignMatrix(sp.random(9, 7, density=0.5, random_state=1))
        y = np.array([2.0, 2.0, 2.0, -1.0, 0.0, 5.0, 5.0])
        pen = Penalties(0.05, 0.02)
        jac = build_jacobian(prox_clustered(y, pen), pen)
        Af, Ap = design_factors(jac, A)
        M = _dense(jac)
        dense = A.toarray()
        got = Af.toarray() @ Af.toarray().T + Ap @ Ap.T
        np.testing.assert_allclose(got, dense @ M @ dense.T, atol=1e-9)

    def test_all_zero_jacobian_gives_empty_factors(self):
        A = DesignMatrix(np.ones((3, 4)))
        jac = _jac_at([0.1, 0.2, 0.1, 0.15], beta=10.0, rho=0.1)
        Af, Ap = design_factors(jac, A)
        assert Af.shape == (3, 0)
        assert Ap.shape == (3, 0)


class TestValidation:
    def test_inconsistent_result_rejected(self):
        import dataclasses
        pen = Penalties(0.1, 0.1)
        pr = prox_clustered(np.array([1.0, 2.0]), pen)
        broken = dataclasses.replace(pr, s_rho=np.array([1.0]))
        with pytest.raises(ValueError):
            build_jacobian(broken, pen)
