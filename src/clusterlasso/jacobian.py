"""Generalized Jacobian of the clustered-lasso prox, in structured form.

At a point y the prox is locally affine with matrix

    M = Theta P^T Gamma P,

where P is the sorting permutation, Theta the diagonal 0/1 mask of the
soft-threshold survivors, and Gamma averages over the pooled runs of the
isotone projection (identity on un-pooled coordinates).  M is symmetric,
idempotent, and never materialized here: we store the free coordinates and
the kept pooled runs, which is all the solvers need to apply M, I - M, and
to form the thin factor W = AP of A M A^T = W W^T.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import DesignMatrix
from .prox import Penalties, ProxResult

# sorted projected values within TIES_TOL max(1, ||y||_inf) of each other
# belong to one pooled run
TIES_TOL = 1e-10


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
        an array with n rows (the row-major view A^T, say)."""
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


def build_jacobian(pr: ProxResult, pen: Penalties) -> ProxJacobian:
    """Assemble the structured Jacobian element from a prox evaluation.

    Pooled runs are the maximal stretches of the sorted pairwise prox
    s_rho[perm] whose consecutive values are equal within TIES_TOL
    (relative to ||y||_inf).  The threshold mask is decided per run from
    the mean of its values, so it is constant on every run; values within
    TIES_TOL of the l1 level count as zeroed.
    """
    n = pr.prox.shape[0]
    if pr.s_rho.shape[0] != n:
        raise ValueError("inconsistent ProxResult: field lengths differ")
    tol = TIES_TOL * max(1.0, pr.y_absmax)

    if pr.perm is None:
        # rho = 0 path: no sorted structure, M = diag(mask)
        nonzero = np.abs(pr.s_rho) > pen.beta + tol
        empty_i = np.empty(0, dtype=np.int64)
        return ProxJacobian(
            n=n, free_idx=np.flatnonzero(nonzero).astype(np.int64),
            pool_idx=empty_i, pool_offsets=empty_i, pool_sizes=empty_i)

    if pr.perm.shape[0] != n:
        raise ValueError("inconsistent ProxResult: perm does not cover n")
    s = pr.s_rho[pr.perm]
    step = np.diff(s)
    if np.any(step > 0):
        raise ValueError("inconsistent ProxResult: s_rho[perm] increases")
    run_start = np.flatnonzero(np.concatenate(([True], step < -tol)))
    run_len = np.diff(np.concatenate((run_start, [n])))
    run_nonzero = (np.abs(np.add.reduceat(s, run_start) / run_len)
                   > pen.beta + tol)

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
    """Thin factor W = AP (m x k, k = |free| + pools), A M A^T = W W^T.

    W holds the columns of A at the free coordinates, then one column per
    kept pooled run: the run's columns summed and scaled by 1/sqrt(run
    size).  It is gathered through `restrict` on the row-major view A^T,
    cost O(m (|free| + pooled mass)).
    """
    return jac.restrict(A.raw.T).T
