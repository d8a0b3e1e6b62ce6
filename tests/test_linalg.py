"""Tests for the design-matrix wrapper and CG."""

import numpy as np
import pytest
import scipy.sparse as sp

from clusterlasso.linalg import (
    DesignMatrix,
    MaxItersExceeded,
    cg_solve,
)


def _random_spd(rng, n, cond=10.0):
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    eigs = np.linspace(1.0, cond, n)
    return Q @ np.diag(eigs) @ Q.T


class TestDesignMatrix:
    def test_dense_shape_and_kind(self):
        A = DesignMatrix(np.ones((3, 4)))
        assert A.shape == (3, 4)
        assert A.m == 3 and A.n == 4
        assert not A.is_sparse
        assert A.raw.flags.f_contiguous

    def test_sparse_kind(self):
        A = DesignMatrix(sp.random(6, 5, density=0.4, random_state=0))
        assert A.is_sparse
        assert A.shape == (6, 5)

    def test_matvec_dense(self):
        rng = np.random.default_rng(0)
        M = rng.normal(size=(7, 4))
        A = DesignMatrix(M)
        v = rng.normal(size=4)
        np.testing.assert_allclose(A.matvec(v), M @ v)

    def test_matvec_tmatvec_adjoint(self):
        # <Av, w> == <v, A^T w> for both storage kinds
        rng = np.random.default_rng(1)
        M = rng.normal(size=(8, 5))
        for A in (DesignMatrix(M), DesignMatrix(sp.csr_matrix(M))):
            v = rng.normal(size=5)
            w = rng.normal(size=8)
            lhs = float(A.matvec(v) @ w)
            rhs = float(v @ A.tmatvec(w))
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_sparse_results_are_1d(self):
        A = DesignMatrix(sp.csr_matrix(np.eye(3)))
        assert A.matvec(np.ones(3)).shape == (3,)
        assert A.tmatvec(np.ones(3)).shape == (3,)

    def test_single_column_rejected(self):
        with pytest.raises(ValueError):
            DesignMatrix(np.ones((5, 1)))

    def test_zero_rows_rejected(self):
        with pytest.raises(ValueError):
            DesignMatrix(np.ones((0, 3)))

    def test_nonfinite_rejected(self):
        M = np.ones((2, 2))
        M[0, 1] = np.nan
        with pytest.raises(ValueError):
            DesignMatrix(M)
        with pytest.raises(ValueError):
            DesignMatrix(sp.csr_matrix(np.array([[np.inf, 0.0], [0.0, 1.0]])))

    def test_gram(self):
        rng = np.random.default_rng(4)
        M = rng.normal(size=(6, 3))
        np.testing.assert_allclose(DesignMatrix(M).gram(), M.T @ M)
        np.testing.assert_allclose(
            DesignMatrix(sp.csr_matrix(M)).gram(), M.T @ M)

    def test_repr_mentions_kind(self):
        assert "dense" in repr(DesignMatrix(np.ones((2, 2))))
        assert "sparse" in repr(DesignMatrix(sp.eye(3, format="csr")))


class TestCgSolve:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_cholesky(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 40))
        H = _random_spd(rng, n, cond=50.0)
        rhs = rng.normal(size=n)
        got = cg_solve(lambda v: H @ v, rhs,
                       1e-12 * np.linalg.norm(rhs), 500)
        np.testing.assert_allclose(got, np.linalg.solve(H, rhs),
                                   atol=1e-8, rtol=1e-8)

    def test_zero_rhs_short_circuits(self):
        calls = []

        def apply(v):
            calls.append(1)
            return v

        x = cg_solve(apply, np.zeros(5), 0.0, 500)
        np.testing.assert_array_equal(x, np.zeros(5))
        assert not calls

    def test_warm_start_converges_immediately(self):
        rng = np.random.default_rng(7)
        H = _random_spd(rng, 10)
        rhs = rng.normal(size=10)
        exact = np.linalg.solve(H, rhs)
        x = cg_solve(lambda v: H @ v, rhs, 1e-6 * np.linalg.norm(rhs), 500,
                     x0=exact)
        np.testing.assert_allclose(x, exact, atol=1e-10)

    def test_max_iters_exceeded_carries_iterate(self):
        rng = np.random.default_rng(8)
        H = _random_spd(rng, 30, cond=1e4)
        rhs = rng.normal(size=30)
        with pytest.raises(MaxItersExceeded) as ei:
            cg_solve(lambda v: H @ v, rhs, 1e-14 * np.linalg.norm(rhs), 2)
        err = ei.value
        assert err.iters == 2
        assert err.x.shape == (30,)
        assert err.residual > 0
        np.testing.assert_allclose(H @ err.x - rhs, -(rhs - H @ err.x))

    def test_abs_tol_honored(self):
        rng = np.random.default_rng(9)
        H = _random_spd(rng, 12)
        rhs = rng.normal(size=12)
        x = cg_solve(lambda v: H @ v, rhs, 1e-3, 500)
        assert np.linalg.norm(H @ x - rhs) <= 1e-3

