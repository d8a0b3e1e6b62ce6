"""Optimality measures and sparsity summaries reported by every solver."""

import numpy as np

from .problem import ProblemData
from .prox import penalty_value, prox_clustered


def primal_objective(x: np.ndarray, data: ProblemData) -> float:
    r = data.A.matvec(x) - data.b
    return 0.5 * float(r @ r) + penalty_value(x, data.require_penalties())


def dual_objective(xi: np.ndarray, data: ProblemData) -> float:
    return -0.5 * float(xi @ xi) - float(data.b @ xi)


def eta_kkt(x: np.ndarray, data: ProblemData) -> float:
    """Scaled natural-map residual ||x - prox_p(x - A^T(Ax - b))|| / (1 + ||x|| + ||A^T(Ax-b)||)."""
    pen = data.require_penalties()
    g = data.A.tmatvec(data.A.matvec(x) - data.b)
    r = x - prox_clustered(x - g, pen).prox
    return float(np.linalg.norm(r)) / (
        1.0 + float(np.linalg.norm(x)) + float(np.linalg.norm(g)))


def duality_metrics(x: np.ndarray, xi: np.ndarray, u: np.ndarray,
                    data: ProblemData):
    """Returns (pobj, dobj, eta_gap, eta_d)."""
    pobj = primal_objective(x, data)
    dobj = dual_objective(xi, data)
    eta_gap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
    feas = data.A.tmatvec(xi) + u
    eta_d = float(np.linalg.norm(feas)) / (1.0 + float(np.linalg.norm(u)))
    return pobj, dobj, eta_gap, eta_d


def eta_rel(pobj: float, ref_pobj: float) -> float:
    """Signed relative objective gap against a reference solver's value."""
    return (pobj - ref_pobj) / (1.0 + abs(ref_pobj))


def nnz(x: np.ndarray, mass: float = 0.99999) -> int:
    """Smallest k with the top-k absolute entries carrying `mass` of ||x||_1."""
    a = np.abs(np.asarray(x, dtype=np.float64))
    total = float(a.sum())
    if total == 0.0:
        return 0
    cs = np.cumsum(np.sort(a)[::-1])
    return int(np.searchsorted(cs, mass * total) + 1)


def gnnz(x: np.ndarray, zero_tol: float = 1e-4, ratio_lo: float = 5.0 / 6.0,
         ratio_hi: float = 6.0 / 5.0, count_zero_group: bool = False) -> int:
    """Number of near-constant value groups in x.

    Entries below zero_tol in magnitude form a single zero group, excluded
    from the count unless count_zero_group is set.  The remaining entries
    are sorted (signed, descending) and swept greedily: a candidate joins
    the current group while it keeps the same sign and its ratio against
    both group extremes (on absolute values) stays inside [ratio_lo,
    ratio_hi]; otherwise it opens a new group.
    """
    if not (0 < ratio_lo <= 1.0 <= ratio_hi):
        raise ValueError("need ratio_lo <= 1 <= ratio_hi, both positive")
    x = np.asarray(x, dtype=np.float64)
    nz = x[np.abs(x) >= zero_tol]
    has_zeros = nz.size < x.size
    if nz.size == 0:
        return 1 if (count_zero_group and has_zeros) else 0
    vals = np.sort(nz)[::-1]
    groups = 1
    gmin = gmax = abs(vals[0])
    gsign = np.sign(vals[0])
    for v in vals[1:]:
        a = abs(v)
        same = (np.sign(v) == gsign
                and ratio_lo <= a / gmin <= ratio_hi
                and ratio_lo <= a / gmax <= ratio_hi)
        if same:
            gmin = min(gmin, a)
            gmax = max(gmax, a)
        else:
            groups += 1
            gmin = gmax = a
            gsign = np.sign(v)
    if count_zero_group and has_zeros:
        groups += 1
    return groups

