"""Design-matrix wrapper and the small linear-algebra toolkit the solvers use.

DesignMatrix keeps the design dense and column-major: its transpose is then
a row-major view, from which the thin Newton factor gathers rows.
"""

import numpy as np
from scipy.linalg import lapack


class MaxItersExceeded(RuntimeError):
    """CG ran out of iterations; carries the last iterate and residual."""

    def __init__(self, x, residual, iters):
        super().__init__(
            f"CG did not converge in {iters} iterations (residual {residual:.3e})")
        self.x = x
        self.residual = residual
        self.iters = iters


class DesignMatrix:
    """m-by-n dense design matrix, float64 in Fortran order (an array
    already in that layout is kept, not copied).

    Requires m >= 1 and n >= 2: with a single column the pairwise penalty
    is vacuous.  All entries must be finite.  A sparse matrix is refused:
    the solvers exploit the sparsity of the prox's Jacobian, not of A.
    """

    def __init__(self, mat):
        if hasattr(mat, "toarray"):
            raise ValueError(
                "design matrix must be a dense array; pass M.toarray()")
        raw = np.asfortranarray(mat, dtype=np.float64)
        if raw.ndim != 2:
            raise ValueError("design matrix must be 2-dimensional")
        # min and max carry any NaN or infinity, and need no m x n mask
        if not (np.isfinite(raw.min()) and np.isfinite(raw.max())):
            raise ValueError("design matrix entries must be finite")
        m, n = raw.shape
        if m < 1:
            raise ValueError("design matrix needs at least one row")
        if n < 2:
            raise ValueError(f"design matrix needs at least 2 columns, got {n}")
        self.raw = raw
        self.m = m
        self.n = n

    @property
    def shape(self):
        return (self.m, self.n)

    def matvec(self, v: np.ndarray) -> np.ndarray:
        return self.raw @ np.asarray(v, dtype=np.float64)

    def tmatvec(self, v: np.ndarray) -> np.ndarray:
        return self.raw.T @ np.asarray(v, dtype=np.float64)

    def toarray(self) -> np.ndarray:
        return np.array(self.raw)

    def gram(self) -> np.ndarray:
        """Dense A^T A; only sensible for moderate n."""
        return self.raw.T @ self.raw

    def __repr__(self):
        return f"DesignMatrix({self.m}x{self.n})"


def cg_solve(apply, rhs: np.ndarray, tol: float, max_iters: int, x0=None):
    """Conjugate gradients for SPD operators.

    Stops when ||apply(x) - rhs|| <= tol, an absolute level, and returns
    (x, calls), calls the number of apply calls: one per iteration, plus
    one for the residual of a warm start x0.  Raises MaxItersExceeded
    (carrying the last iterate) after max_iters iterations.
    """
    rhs = np.asarray(rhs, dtype=np.float64)
    if x0 is None:
        x = np.zeros_like(rhs)
        r = rhs.copy()
        calls = 0
    else:
        x = np.array(x0, dtype=np.float64)
        r = rhs - apply(x)
        calls = 1
    rr = float(r @ r)
    if np.sqrt(rr) <= tol:
        return x, calls
    p = r.copy()
    for it in range(1, max_iters + 1):
        ap = apply(p)
        alpha = rr / float(p @ ap)
        x += alpha * p
        r -= alpha * ap
        rr_new = float(r @ r)
        if np.sqrt(rr_new) <= tol:
            return x, calls + it
        p = r + (rr_new / rr) * p
        rr = rr_new
    raise MaxItersExceeded(x, np.sqrt(rr), max_iters)


def estimate_lipschitz(A, iters: int = 100, gram=None) -> float:
    """Power-iteration estimate of lambda_max(A^T A), padded by 1.01.

    Each iteration applies A^T A as two products with A, or as one with
    gram = A^T A when the caller holds it; the two agree to roundoff.
    Deterministic: the start vector comes from a fixed seed.  Returns 0.0
    for a zero matrix.
    """
    rng = np.random.default_rng(0)
    v = rng.standard_normal(A.n)
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(iters):
        w = A.tmatvec(A.matvec(v)) if gram is None else gram @ v
        nw = float(np.linalg.norm(w))
        if nw == 0.0:
            return 0.0
        lam = float(v @ w)
        v = w / nw
    return 1.01 * lam


def cholesky(M: np.ndarray, shift=0.0) -> np.ndarray:
    """Lower Cholesky factor L of M + diag(shift), C-ordered, for a scalar
    or n-vector shift added to M's diagonal in place; LinAlgError unless
    positive definite.  numpy makes it in the BLAS pool of the products
    around it.  scipy's own OpenBLAS pool would contend with that one, so
    scipy runs only the one-vector triangular solves below (`cho_solve`
    is two of them), on L.T, which is Fortran-ordered and so passes
    without a copy."""
    M[np.diag_indices_from(M)] += shift
    return np.linalg.cholesky(M)


def solve_lower(L: np.ndarray, rhs: np.ndarray, trans: bool = False):
    """Solve L x = rhs, or L^T x = rhs when trans, for L from `cholesky`."""
    return lapack.dtrtrs(L.T, rhs, trans=0 if trans else 1)[0]


def cho_solve(L: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve L L^T x = rhs for L from `cholesky` and one right-hand side
    by two `solve_lower` calls, which take about half the time of LAPACK's
    dpotrs on one vector."""
    return solve_lower(L, solve_lower(L, rhs), trans=True)
