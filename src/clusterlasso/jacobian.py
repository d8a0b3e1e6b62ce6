"""Generalized Jacobian of the clustered-lasso prox, in structured form.

At a point y the prox is locally affine with matrix

    M = Theta P^T Gamma P,

where P is the sorting permutation, Theta the diagonal 0/1 mask of the
soft-threshold survivors, and Gamma averages over the pooled runs of the
isotone projection (identity on un-pooled coordinates).  M is symmetric,
idempotent, and never materialized here: we store the free coordinates and
the kept pooled runs, which is all the solvers need to apply M, I - M, and
to form the two thin factors of A M A^T.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .linalg import DesignMatrix
from .prox import Penalties, ProxResult

DEFAULT_TIES_TOL = 1e-10


@dataclass(frozen=True)
class ProxJacobian:
    """Structured Jacobian element.

    free_idx: original coordinates acted on as identity (nonzero, un-pooled).
    pool_idx/pool_offsets/pool_sizes: concatenated original coordinates of
    the pooled runs whose common value survives the threshold; M averages
    over each of those runs.
    """

    n: int
    free_idx: np.ndarray
    pool_idx: np.ndarray
    pool_offsets: np.ndarray
    pool_sizes: np.ndarray

    @property
    def npools(self) -> int:
        return self.pool_sizes.shape[0]

    def apply(self, v: np.ndarray) -> np.ndarray:
        """M v = P P^T v: identity on free coordinates, averaging on pooled
        runs."""
        return self.extend(self.restrict(v))

    def _pool_scale(self) -> np.ndarray:
        return 1.0 / np.sqrt(self.pool_sizes.astype(np.float64))

    def restrict(self, v: np.ndarray) -> np.ndarray:
        """P^T v along axis 0, for the n x k factor P with M = P P^T: one
        unit column per free coordinate, then one column per kept pool of
        size s holding 1/sqrt(s) on its coordinates.  v may be a vector or
        an array with n rows (a Gram matrix, say)."""
        v = np.asarray(v, dtype=np.float64)
        sums = np.add.reduceat(v[self.pool_idx], self.pool_offsets, axis=0)
        scale = self._pool_scale().reshape((-1,) + (1,) * (v.ndim - 1))
        return np.concatenate([v[self.free_idx], sums * scale])

    def extend(self, q: np.ndarray) -> np.ndarray:
        """P q for a vector q of length |free| + pools."""
        nf = self.free_idx.shape[0]
        out = np.zeros(self.n)
        out[self.free_idx] = q[:nf]
        out[self.pool_idx] = np.repeat(q[nf:] * self._pool_scale(),
                                       self.pool_sizes)
        return out


def build_jacobian(pr: ProxResult, pen: Penalties,
                   ties_tol: float = DEFAULT_TIES_TOL) -> ProxJacobian:
    """Assemble the structured Jacobian element from a prox evaluation.

    Pooled runs are the connected components of consecutive sorted projected
    values equal within ties_tol (relative to ||y||_inf).  The threshold
    mask is decided per run from the run's length-weighted mean value, so it
    is constant on every run; values within ties_tol of the l1 level count
    as zeroed.
    """
    n = pr.prox.shape[0]
    if pr.s_rho.shape[0] != n:
        raise ValueError("inconsistent ProxResult: field lengths differ")
    tol = ties_tol * max(1.0, pr.y_absmax)

    if pr.perm is None:
        # rho = 0 path: no sorted structure, M = diag(mask)
        nonzero = np.abs(pr.s_rho) > pen.beta + tol
        empty_i = np.empty(0, dtype=np.int64)
        return ProxJacobian(
            n=n, free_idx=np.flatnonzero(nonzero).astype(np.int64),
            pool_idx=empty_i, pool_offsets=empty_i, pool_sizes=empty_i)

    part = pr.partition
    if part is None or int(np.sum(part.length)) != n:
        raise ValueError("inconsistent ProxResult: partition does not cover n")
    vals = part.value
    lens = part.length
    if vals.size > 1 and np.any(np.diff(vals) > 0):
        raise ValueError("inconsistent ProxResult: partition not non-increasing")

    # merge adjacent partition blocks whose values tie within tol
    if vals.size > 1:
        run_first = np.flatnonzero(np.r_[True, np.abs(np.diff(vals)) > tol])
    else:
        run_first = np.zeros(1, dtype=np.int64)
    run_len = np.add.reduceat(lens, run_first)
    run_val = np.add.reduceat(vals * lens, run_first) / run_len
    run_start = part.start[run_first]
    run_nonzero = np.abs(run_val) > pen.beta + tol

    pooled = run_len >= 2
    free_idx = pr.perm[run_start[~pooled & run_nonzero]].astype(np.int64)

    kept = pooled & run_nonzero
    sizes = run_len[kept].astype(np.int64)
    pool_offsets = np.zeros(sizes.size, dtype=np.int64)
    np.cumsum(sizes[:-1], out=pool_offsets[1:])
    # sorted positions of the kept runs, concatenated: start + 0..size-1
    pos = (np.repeat(run_start[kept] - pool_offsets, sizes)
           + np.arange(int(sizes.sum())))
    pool_idx = pr.perm[pos].astype(np.int64)

    return ProxJacobian(
        n=n, free_idx=free_idx, pool_idx=pool_idx, pool_offsets=pool_offsets,
        pool_sizes=sizes)


def design_factors(jac: ProxJacobian, A: DesignMatrix):
    """Thin factors (A_free, A_pooled) with A M A^T = A_free A_free^T + A_pooled A_pooled^T.

    A_free holds the columns of A at the free coordinates; A_pooled has one
    column per kept pooled run, the run's columns summed and scaled by
    1/sqrt(run size).  Cost O(m (|free| + pooled mass)).
    """
    A_free = A.column_submatrix(jac.free_idx)
    t = jac.npools
    if t == 0:
        return A_free, np.zeros((A.m, 0))
    col_of = np.repeat(np.arange(t), jac.pool_sizes)
    scale = np.repeat(1.0 / np.sqrt(jac.pool_sizes.astype(np.float64)),
                      jac.pool_sizes)
    G = sp.csc_matrix((scale, (jac.pool_idx, col_of)), shape=(A.n, t))
    if A.is_sparse:
        A_pooled = np.asarray((A.raw @ G).todense())
    else:
        A_pooled = A.raw @ G.toarray()
    return A_free, A_pooled
