"""Design-matrix wrapper and the small linear-algebra toolkit the solvers use.

DesignMatrix hides the dense/sparse split: dense data is kept column-major
(solvers slice columns constantly), sparse data as CSR with sorted indices.
"""

import numpy as np
import scipy.sparse as sp


class MaxItersExceeded(RuntimeError):
    """CG ran out of iterations; carries the last iterate and residual."""

    def __init__(self, x, residual, iters):
        super().__init__(
            f"CG did not converge in {iters} iterations (residual {residual:.3e})")
        self.x = x
        self.residual = residual
        self.iters = iters


class DesignMatrix:
    """m-by-n design matrix, dense (Fortran order) or sparse CSR.

    Requires m >= 1 and n >= 2: with a single column the pairwise penalty
    is vacuous.  All entries must be finite.
    """

    def __init__(self, mat, min_cols: int = 2):
        if sp.issparse(mat):
            raw = sp.csr_matrix(mat, dtype=np.float64)
            raw.sort_indices()
            if raw.nnz and not np.all(np.isfinite(raw.data)):
                raise ValueError("design matrix entries must be finite")
            self._sparse = True
        else:
            raw = np.asfortranarray(mat, dtype=np.float64)
            if raw.ndim != 2:
                raise ValueError("design matrix must be 2-dimensional")
            if not np.all(np.isfinite(raw)):
                raise ValueError("design matrix entries must be finite")
            self._sparse = False
        m, n = raw.shape
        if m < 1:
            raise ValueError("design matrix needs at least one row")
        if n < min_cols:
            raise ValueError(
                f"design matrix needs at least {min_cols} columns, got {n}")
        self.raw = raw
        self.m = m
        self.n = n

    @property
    def shape(self):
        return (self.m, self.n)

    @property
    def is_sparse(self) -> bool:
        return self._sparse

    def matvec(self, v: np.ndarray) -> np.ndarray:
        out = self.raw @ np.asarray(v, dtype=np.float64)
        return np.asarray(out).ravel() if self._sparse else out

    def tmatvec(self, v: np.ndarray) -> np.ndarray:
        out = self.raw.T @ np.asarray(v, dtype=np.float64)
        return np.asarray(out).ravel() if self._sparse else out

    def column_submatrix(self, idx) -> "DesignMatrix":
        """Columns at idx, in order, as a new DesignMatrix (may be empty)."""
        idx = np.asarray(idx, dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= self.n):
            raise IndexError("column index out of range")
        sub = self.raw[:, idx]
        return DesignMatrix(sub, min_cols=0)

    def toarray(self) -> np.ndarray:
        return self.raw.toarray() if self._sparse else np.array(self.raw)

    def gram(self) -> np.ndarray:
        """Dense A^T A; only sensible for moderate n."""
        if self._sparse:
            return np.asarray((self.raw.T @ self.raw).todense())
        return self.raw.T @ self.raw

    def __repr__(self):
        kind = "sparse" if self._sparse else "dense"
        return f"DesignMatrix({self.m}x{self.n}, {kind})"


def cg_solve(apply, rhs: np.ndarray, tol: float, max_iters: int,
             x0=None) -> np.ndarray:
    """Conjugate gradients for SPD operators.

    Stops when ||apply(x) - rhs|| <= tol, an absolute level; raises
    MaxItersExceeded (carrying the last iterate) after max_iters
    iterations.
    """
    rhs = np.asarray(rhs, dtype=np.float64)
    if x0 is None:
        x = np.zeros_like(rhs)
        r = rhs.copy()
    else:
        x = np.array(x0, dtype=np.float64)
        r = rhs - apply(x)
    rr = float(r @ r)
    if np.sqrt(rr) <= tol:
        return x
    p = r.copy()
    for _ in range(max_iters):
        ap = apply(p)
        alpha = rr / float(p @ ap)
        x += alpha * p
        r -= alpha * ap
        rr_new = float(r @ r)
        if np.sqrt(rr_new) <= tol:
            return x
        p = r + (rr_new / rr) * p
        rr = rr_new
    raise MaxItersExceeded(x, np.sqrt(rr), max_iters)


def estimate_lipschitz(A, iters: int = 100, seed: int = 0) -> float:
    """Power-iteration estimate of lambda_max(A^T A), padded by 1.01.

    Deterministic for a fixed seed; returns 0.0 for a zero matrix.
    """
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(A.n)
    nv = np.linalg.norm(v)
    if nv == 0.0:  # pragma: no cover - measure zero
        v = np.ones(A.n)
        nv = np.sqrt(A.n)
    v /= nv
    lam = 0.0
    for _ in range(iters):
        w = A.tmatvec(A.matvec(v))
        nw = float(np.linalg.norm(w))
        if nw == 0.0:
            return 0.0
        lam = float(v @ w)
        v = w / nw
    return 1.01 * lam
