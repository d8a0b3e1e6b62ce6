"""Optimality measures and sparsity summaries reported by every solver.

Each measure forms its own products with the design, except that eta_kkt
takes g = A^T(Ax - b) from a solver that holds A^T A and A^T b.
"""

from typing import Optional

import numpy as np

from .problem import ProblemData
from .prox import penalty_value, prox_clustered, prox_conjugate


def lsq_residual(x: np.ndarray, data: ProblemData):
    """(r, g) = (Ax - b, A^T(Ax - b)): one product with A, one with A^T."""
    r = data.A.matvec(x) - data.b
    return r, data.A.tmatvec(r)


def primal_objective(x: np.ndarray, data: ProblemData) -> float:
    r = data.A.matvec(x) - data.b
    return (0.5 * float(r @ r) + data.offset
            + penalty_value(x, data.require_penalties()))


def dual_objective(xi: np.ndarray, data: ProblemData) -> float:
    return -0.5 * float(xi @ xi) - float(data.b @ xi) + data.offset


def eta_kkt(x: np.ndarray, data: ProblemData,
            g: Optional[np.ndarray] = None) -> float:
    """Scaled natural-map residual ||x - prox_p(x - g)|| / (1 + ||x|| + ||g||)
    with g = A^T(Ax - b)."""
    if g is None:
        g = lsq_residual(x, data)[1]
    r = x - prox_clustered(x - g, data.require_penalties()).prox
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


def dual_pair(z: np.ndarray, data: ProblemData):
    """The dual pair (xi, u) a primal point z gives: xi = Az - b and
    u = proj_{dom p*}(-A^T xi)."""
    xi = data.A.matvec(z) - data.b
    u = prox_conjugate(-data.A.tmatvec(xi), data.require_penalties())
    return xi, u


def eta_rel(pobj: float, ref_pobj: float) -> float:
    """Signed relative objective gap against a reference solver's value."""
    return (pobj - ref_pobj) / (1.0 + abs(ref_pobj))


# the paper's support statistics: nnz keeps 99.999% of the l1 mass, gnnz
# drops entries below 1e-4 and groups values within a 5/6..6/5 ratio band
NNZ_MASS = 0.99999
GNNZ_ZERO_TOL = 1e-4
GNNZ_RATIO_LO = 5.0 / 6.0
GNNZ_RATIO_HI = 6.0 / 5.0


def nnz(x: np.ndarray) -> int:
    """Smallest k with the top-k absolute entries carrying NNZ_MASS of
    ||x||_1."""
    a = np.abs(np.asarray(x, dtype=np.float64))
    total = float(a.sum())
    if total == 0.0:
        return 0
    cs = np.cumsum(np.sort(a)[::-1])
    return int(np.searchsorted(cs, NNZ_MASS * total) + 1)


def gnnz(x: np.ndarray) -> int:
    """Number of near-constant nonzero value groups in x.

    Entries below GNNZ_ZERO_TOL in magnitude form a single zero group,
    which is not counted.  The remaining entries are sorted (signed,
    descending) and swept greedily: a candidate joins the current group
    while it keeps the same sign and its ratio against both group extremes
    (on absolute values) stays inside [GNNZ_RATIO_LO, GNNZ_RATIO_HI];
    otherwise it opens a new group.
    """
    x = np.asarray(x, dtype=np.float64)
    nz = x[np.abs(x) >= GNNZ_ZERO_TOL]
    if nz.size == 0:
        return 0
    vals = np.sort(nz)[::-1]
    groups = 1
    gmin = gmax = abs(vals[0])
    gsign = np.sign(vals[0])
    for v in vals[1:]:
        a = abs(v)
        same = (np.sign(v) == gsign
                and GNNZ_RATIO_LO <= a / gmin <= GNNZ_RATIO_HI
                and GNNZ_RATIO_LO <= a / gmax <= GNNZ_RATIO_HI)
        if same:
            gmin = min(gmin, a)
            gmax = max(gmax, a)
        else:
            groups += 1
            gmin = gmax = a
            gsign = np.sign(v)
    return groups
