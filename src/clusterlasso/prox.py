"""Clustered lasso penalty and its proximal mapping.

The penalty is

    p(x) = beta * ||x||_1 + rho * sum_{i<j} |x_i - x_j|.

Sorting x in non-increasing order turns the pairwise part into an inner
product with the fixed weights w_k = n - 2k + 1, so evaluating p costs one
sort.  The prox factors the same way: project the sorted, weight-shifted
vector onto the non-increasing cone (pool-adjacent-violators), undo the
sort, then soft-threshold.  Total cost O(n log n).
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np


@dataclass(frozen=True)
class Penalties:
    """Penalty levels: beta for the l1 part, rho for the pairwise part."""

    beta: float
    rho: float

    def __post_init__(self):
        if not (np.isfinite(self.beta) and np.isfinite(self.rho)):
            raise ValueError("penalty levels must be finite")
        if self.beta < 0 or self.rho < 0:
            raise ValueError("penalty levels must be nonnegative")


@dataclass(frozen=True)
class ProxResult:
    """Prox evaluation plus the sorted structure the Jacobian reads.

    One evaluation holds the prox, the pairwise prox s_rho it thresholds,
    perm and y_absmax = ||y||_inf.  perm maps sorted position -> original
    index, so s_rho[perm] is non-increasing; it is None on the shortcut
    path (rho = 0 or n = 1), where nothing is sorted.
    """

    prox: np.ndarray
    s_rho: np.ndarray
    perm: Optional[np.ndarray]
    y_absmax: float


def ordered_weights(n: int) -> np.ndarray:
    """Weights w_k = n - 2k + 1 (1-based k): n-1, n-3, ..., 1-n.

    Strictly decreasing with step 2 and summing to zero; against a sorted
    vector they reproduce the all-pairs absolute-difference sum.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return np.arange(n - 1, -n, -2, dtype=np.float64)


def soft_threshold(v: np.ndarray, thr: float) -> np.ndarray:
    """sign(v) max(|v| - thr, 0), the abs, shift and clip in one buffer.
    The sign is a product with np.sign(v), which maps -0.0 to +0.0:
    copysign would return -0.0 there."""
    out = np.abs(v)
    out -= thr
    np.maximum(out, 0.0, out=out)
    out *= np.sign(v)
    return out


def penalty_value(x: np.ndarray, pen: Penalties) -> float:
    """Evaluate p(x) in O(n log n); the sort is skipped when rho = 0."""
    x = np.asarray(x, dtype=np.float64)
    val = pen.beta * float(np.sum(np.abs(x))) if pen.beta != 0.0 else 0.0
    if pen.rho != 0.0 and x.size > 1:
        xs = np.sort(x)[::-1]
        val += pen.rho * float(ordered_weights(x.size) @ xs)
    return val


def pav_nonincreasing(v: np.ndarray):
    """Pool-adjacent-violators sweep onto the non-increasing cone.

    v must be a nonempty 1-D float64 array.  Returns ``(sums, counts)``
    for the merged blocks, left to right; the projection is
    ``repeat(sums / counts, counts)``.  Blocks merge only on strict order
    violations, so exact ties stay in separate blocks.

    The sweep is sequential, so it runs over Python floats rather than
    numpy scalars, with the top block held in locals and the blocks below
    it on two list stacks.  Iterating a memoryview makes each float only
    when the sweep reaches it, so values that get pooled away are freed at
    once instead of all n being held, which keeps large inputs in cache.
    Counts are positive, so the cross-multiplied test ``ts * c < s * tc``
    is the mean comparison ``ts / tc < s / c`` without the division.  The
    counts are held as floats, exact below 2**53, so every product in the
    test is float by float rather than float by int; they are returned
    as int64.
    """
    vals = iter(memoryview(v))
    sums, counts = [], []
    ts, tc = next(vals), 1.0
    for s in vals:
        if ts < s * tc:
            s += ts
            c = tc + 1.0
            while sums and sums[-1] * c < s * counts[-1]:
                s += sums.pop()
                c += counts.pop()
            ts, tc = s, c
        else:
            sums.append(ts)
            counts.append(tc)
            ts, tc = s, 1.0
    sums.append(ts)
    counts.append(tc)
    return (np.fromiter(sums, np.float64, len(sums)),
            np.fromiter(counts, np.float64, len(counts)).astype(np.int64))


def project_nonincreasing(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto {x : x_1 >= x_2 >= ... >= x_n}, by one
    `pav_nonincreasing` sweep."""
    v = np.ascontiguousarray(v, dtype=np.float64)
    if v.size == 0:
        raise ValueError("cannot project an empty vector")
    sums, counts = pav_nonincreasing(v)
    return (sums / counts).repeat(counts)


def prox_clustered(y: np.ndarray, pen: Penalties) -> ProxResult:
    """Prox of the full penalty: soft-threshold the pairwise prox output.

    The pairwise prox s_rho keeps the input's ordering: sort y (stable,
    descending), shift by rho * ordered_weights, project onto the
    non-increasing cone, unsort; ||y||_inf is read off the sorted ends.
    y is gathered into sorted order once, and shifted in that buffer.
    """
    y = np.asarray(y, dtype=np.float64)
    if y.size == 0:
        raise ValueError("y must be nonempty")
    if pen.rho == 0.0 or y.size == 1:
        s, perm = y.copy(), None
        y_absmax = float(np.max(np.abs(y)))
    else:
        perm = np.argsort(-y, kind="stable")
        ys = y[perm]
        y_absmax = float(max(abs(ys[0]), abs(ys[-1])))
        ys -= pen.rho * ordered_weights(y.size)
        s = np.empty_like(y)
        s[perm] = project_nonincreasing(ys)
    prox = soft_threshold(s, pen.beta) if pen.beta != 0.0 else s.copy()
    return ProxResult(prox=prox, s_rho=s, perm=perm, y_absmax=y_absmax)


def prox_conjugate(y: np.ndarray, pen: Penalties) -> np.ndarray:
    """Prox of p*/t at y for every t > 0, i.e. the projection onto dom p*.

    p is positively homogeneous, so p* is the indicator of a closed convex
    set and its prox does not depend on t; by the Moreau identity it is
    y - prox_p(y).
    """
    y = np.asarray(y, dtype=np.float64)
    return y - prox_clustered(y, pen).prox
