"""Tests for the design-matrix wrapper, CG and the dense SPD helpers, and
that every dense SPD solve of the solvers goes through those helpers."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

import clusterlasso
from clusterlasso.common import CONVERGED, SquareRootForm
from clusterlasso.first_order import (FirstOrderConfig, d_admm_solve,
                                      p_admm_solve)
from clusterlasso.jacobian import build_jacobian
from clusterlasso.linalg import (
    DesignMatrix,
    MaxItersExceeded,
    cg_solve,
    cho_solve,
    cholesky,
    solve_lower,
)
from clusterlasso.problem import ProblemData
from clusterlasso.prox import Penalties, prox_clustered
from clusterlasso.ssnal_dual import solve, solve_newton_system
from clusterlasso.ssnal_primal import solve_newton_system_primal
from oracles import dense_matrix_from_apply


def _random_spd(rng, n, cond=10.0):
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    eigs = np.linspace(1.0, cond, n)
    return Q @ np.diag(eigs) @ Q.T


class TestDesignMatrix:
    def test_dense_shape_and_kind(self):
        A = DesignMatrix(np.ones((3, 4)))
        assert A.shape == (3, 4)
        assert A.m == 3 and A.n == 4
        assert A.raw.flags.f_contiguous

    def test_fortran_array_is_not_copied(self):
        M = np.asfortranarray(np.ones((3, 4)))
        assert DesignMatrix(M).raw is M

    def test_sparse_kind(self):
        # a sparse matrix is refused, not densified behind the caller's back
        with pytest.raises(ValueError, match=r"^design matrix must be a "
                           r"dense array; pass M\.toarray\(\)$"):
            DesignMatrix(sp.random(6, 5, density=0.4, random_state=0,
                                   format="csr"))

    def test_matvec_dense(self):
        rng = np.random.default_rng(0)
        M = rng.normal(size=(7, 4))
        A = DesignMatrix(M)
        v = rng.normal(size=4)
        np.testing.assert_allclose(A.matvec(v), M @ v)

    def test_matvec_tmatvec_adjoint(self):
        # <Av, w> == <v, A^T w>
        rng = np.random.default_rng(1)
        A = DesignMatrix(rng.normal(size=(8, 5)))
        v = rng.normal(size=5)
        w = rng.normal(size=8)
        lhs = float(A.matvec(v) @ w)
        rhs = float(v @ A.tmatvec(w))
        assert lhs == pytest.approx(rhs, rel=1e-12)

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_single_nonfinite_entry_rejected(self, bad):
        # one bad entry among finite ones of both signs is enough
        M = np.arange(-6.0, 6.0).reshape(3, 4)
        M[1, 2] = bad
        with pytest.raises(ValueError, match="entries must be finite"):
            DesignMatrix(M)

    def test_gram(self):
        rng = np.random.default_rng(4)
        M = rng.normal(size=(6, 3))
        np.testing.assert_allclose(DesignMatrix(M).gram(), M.T @ M)

    def test_repr_shows_shape(self):
        assert repr(DesignMatrix(np.ones((2, 3)))) == "DesignMatrix(2x3)"


class TestCgSolve:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_cholesky(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 40))
        H = _random_spd(rng, n, cond=50.0)
        rhs = rng.normal(size=n)
        applied = []

        def apply(v):
            applied.append(1)
            return H @ v

        got, calls = cg_solve(apply, rhs, 1e-12 * np.linalg.norm(rhs), 500)
        np.testing.assert_allclose(got, np.linalg.solve(H, rhs),
                                   atol=1e-8, rtol=1e-8)
        assert calls == len(applied) > 0

    def test_zero_rhs_short_circuits(self):
        calls = []

        def apply(v):
            calls.append(1)
            return v

        x, ncalls = cg_solve(apply, np.zeros(5), 0.0, 500)
        np.testing.assert_array_equal(x, np.zeros(5))
        assert not calls and ncalls == 0

    def test_warm_start_converges_immediately(self):
        rng = np.random.default_rng(7)
        H = _random_spd(rng, 10)
        rhs = rng.normal(size=10)
        exact = np.linalg.solve(H, rhs)
        x, calls = cg_solve(lambda v: H @ v, rhs, 1e-6 * np.linalg.norm(rhs),
                            500, x0=exact)
        np.testing.assert_allclose(x, exact, atol=1e-10)
        # the warm start's residual is the only operator application
        assert calls == 1

    def test_warm_start_counts_its_residual(self):
        rng = np.random.default_rng(10)
        H = _random_spd(rng, 10)
        rhs = rng.normal(size=10)
        tol = 1e-10 * np.linalg.norm(rhs)
        _, cold = cg_solve(lambda v: H @ v, rhs, tol, 500)
        _, warm = cg_solve(lambda v: H @ v, rhs, tol, 500,
                           x0=np.zeros(10))
        assert warm == cold + 1

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
        x, _ = cg_solve(lambda v: H @ v, rhs, 1e-3, 500)
        assert np.linalg.norm(H @ x - rhs) <= 1e-3


class TestCholesky:
    @pytest.mark.parametrize(
        "seed, n", [pytest.param(s, None, id=str(s)) for s in range(6)]
        + [pytest.param(6, n, id=f"n{n}") for n in (135, 200, 800)])
    def test_solves_match_numpy(self, seed, n):
        rng = np.random.default_rng(seed)
        n = n or int(rng.integers(2, 60))
        H = _random_spd(rng, n, cond=1e3)
        shift = rng.uniform(0.0, 2.0, size=n) if seed % 2 else 0.5
        rhs = rng.normal(size=n)
        M = H.copy()
        L = cholesky(M, shift)
        want = H + np.diag(np.broadcast_to(shift, n))
        # the shift lands on M's diagonal in place
        np.testing.assert_array_equal(M, want)
        np.testing.assert_array_equal(L, np.tril(L))
        np.testing.assert_allclose(L @ L.T, want, rtol=1e-12, atol=1e-10)
        np.testing.assert_allclose(cho_solve(L, rhs),
                                   np.linalg.solve(want, rhs), rtol=1e-9)
        np.testing.assert_allclose(solve_lower(L, rhs),
                                   np.linalg.solve(L, rhs), rtol=1e-9)
        np.testing.assert_allclose(solve_lower(L, rhs, trans=True),
                                   np.linalg.solve(L.T, rhs), rtol=1e-9)

    def test_raises_unless_positive_definite(self):
        rng = np.random.default_rng(3)
        H = _random_spd(rng, 8)
        indefinite = H - 2.0 * np.eye(8)
        assert np.linalg.eigvalsh(indefinite).min() < 0
        with pytest.raises(np.linalg.LinAlgError):
            cholesky(indefinite)
        with pytest.raises(np.linalg.LinAlgError):
            cholesky(H.copy(), -2.0)
        # semidefinite: an exact zero pivot
        with pytest.raises(np.linalg.LinAlgError):
            cholesky(np.ones((3, 3)))


def _raise(*args, **kwargs):
    raise AssertionError("scipy.linalg factor or solve called")


class TestOneBlasPool:
    """numpy and scipy load separate BLAS thread pools.  The solvers make
    their dense SPD factors in numpy, through `linalg.cholesky`, and leave
    scipy only the one-right-hand-side triangular solves."""

    def test_only_linalg_holds_scipy_linalg(self):
        code = textwrap.dedent("""
            import importlib, pkgutil, sys, types
            import clusterlasso
            for info in pkgutil.iter_modules(clusterlasso.__path__):
                importlib.import_module("clusterlasso." + info.name)

            def from_scipy_linalg(obj):
                if type(obj).__name__ == "fortran":  # a LAPACK/BLAS wrapper
                    return True
                name = (obj.__name__ if isinstance(obj, types.ModuleType)
                        else getattr(obj, "__module__", None))
                return isinstance(name, str) and name.startswith("scipy.linalg")

            print(*sorted(name for name, mod in list(sys.modules.items())
                          if name.startswith("clusterlasso")
                          and any(map(from_scipy_linalg, vars(mod).values()))))
        """)
        src = str(Path(clusterlasso.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")]))
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.split() == ["clusterlasso.linalg"]

    @pytest.fixture
    def no_scipy_factor(self, monkeypatch):
        for name in ("cho_factor", "cho_solve", "cholesky",
                     "solve_triangular"):
            monkeypatch.setattr(scipy.linalg, name, _raise)
        monkeypatch.setattr(scipy.linalg.lapack, "dpotrf", _raise)

    @pytest.mark.parametrize("m, n", [(20, 8), (4, 12)],
                             ids=["smw", "dense_m"])
    def test_dual_routes(self, no_scipy_factor, m, n):
        rng = np.random.default_rng(m)
        Ad = rng.normal(size=(m, n))
        y = np.r_[np.arange(1.0, n - 3.0), 10.0, 10.0, -10.0, -10.0]
        pen = Penalties(0.05, 0.01)
        jac = build_jacobian(prox_clustered(y, pen), pen)
        # k = |free| + pools picks SMW below m, the m x m factor from m on
        assert (jac.free_idx.shape[0] + jac.npools < m) == (m > n)
        M = dense_matrix_from_apply(jac.apply, n)
        rhs = rng.normal(size=m)
        got, _ = solve_newton_system(jac, DesignMatrix(Ad), 2.0, rhs)
        np.testing.assert_allclose(
            got, np.linalg.solve(np.eye(m) + 2.0 * Ad @ M @ Ad.T, rhs),
            rtol=1e-9, atol=1e-12)

    def test_primal_dense_route(self, no_scipy_factor):
        rng = np.random.default_rng(5)
        A = DesignMatrix(rng.normal(size=(30, 10)))
        y = np.r_[np.arange(1.0, 7.0), 10.0, 10.0, -10.0, -10.0]
        pen = Penalties(0.05, 0.01)
        jac = build_jacobian(prox_clustered(y, pen), pen)
        assert jac.npools > 0
        M = dense_matrix_from_apply(jac.apply, 10)
        H = A.gram() + 3.0 * (np.eye(10) - M) + np.eye(10) / 3.0
        rhs = rng.normal(size=10)
        got, ncg = solve_newton_system_primal(jac, A, 3.0, rhs,
                                              gram=A.gram())
        np.testing.assert_allclose(got, np.linalg.solve(H, rhs), rtol=1e-9)
        assert ncg == 0

    def test_square_root_form_and_admms(self, no_scipy_factor):
        rng = np.random.default_rng(6)
        pen = Penalties(0.1, 0.01)
        tall = ProblemData(DesignMatrix(rng.normal(size=(40, 8))),
                           rng.normal(size=40), pen)
        form = SquareRootForm(tall)
        assert form.factor is not None
        R = form.factor
        np.testing.assert_allclose(R.T @ R, form.gram, rtol=1e-12)
        np.testing.assert_allclose(R.T @ form.data.b, tall.A.tmatvec(tall.b))
        xi = rng.normal(size=8)
        np.testing.assert_allclose(
            tall.A.tmatvec(form.dual_point(xi)), R.T @ xi, atol=1e-10)
        wide = ProblemData(DesignMatrix(rng.normal(size=(12, 30))),
                           rng.normal(size=12), pen)
        cfg = FirstOrderConfig(tol=1e-8, adaptive_sigma=True)
        for data in (tall, wide):
            ref = solve(data).pobj
            # d-ADMM factors the n x n side on the tall design
            for sol in (p_admm_solve(data, cfg), d_admm_solve(data, cfg)):
                assert sol.status == CONVERGED
                assert sol.pobj == pytest.approx(ref, rel=1e-5)
