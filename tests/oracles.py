"""Independent reference implementations used to validate the library.

Everything here deliberately avoids the library's own algorithmic path:
the penalty is evaluated by an O(n^2) double loop, the prox by an ADMM on
the explicit all-pairs difference matrix, the isotone projection by an
exhaustive active-set QP search, and the prox Jacobian by the dense
pseudo-inverse formula.  `pav_reference` is the one exception: the PAV
sweep's own comparisons written out over an array stack, so that the
library's sweep can be held to it bit for bit.  `count_design_products` counts the solvers'
products with each design, and `equal_runs` splits a vector into its
runs of equal entries.
"""

import collections
import itertools

import numpy as np

from clusterlasso.linalg import DesignMatrix


def pairwise_penalty(x, beta, rho):
    """p(x) via the O(n^2) double loop."""
    x = np.asarray(x, dtype=float)
    n = x.size
    acc = beta * np.sum(np.abs(x))
    for i in range(n):
        for j in range(i + 1, n):
            acc += rho * abs(x[i] - x[j])
    return float(acc)


def all_pairs_matrix(n):
    """Rows e_i - e_j for i < j."""
    rows = []
    for i in range(n):
        for j in range(i + 1, n):
            r = np.zeros(n)
            r[i] = 1.0
            r[j] = -1.0
            rows.append(r)
    return np.array(rows) if rows else np.zeros((0, n))


def prox_oracle(y, beta, rho, sigma=1.0, max_iters=20000, tol=1e-13):
    """ADMM for min 1/2||x-y||^2 + beta||x||_1 + rho sum_{i<j}|x_i-x_j|.

    Splits Ex = z with E = [I; D] (D the all-pairs difference matrix) and
    per-row soft-threshold weights.  The x-update matrix inverts in closed
    form: E^T E = (n+1) I - ones, so
    (I + sigma E^T E)^{-1} = a I + c ones with a = 1/(1 + sigma(n+1)) and
    c chosen by Sherman-Morrison.  Linear convergence (strongly convex).
    """
    y = np.asarray(y, dtype=float)
    n = y.size
    D = all_pairs_matrix(n)
    E = np.vstack([np.eye(n), D])
    wts = np.concatenate([np.full(n, beta), np.full(D.shape[0], rho)])
    alpha = 1.0 + sigma * (n + 1)
    gamma = -sigma
    a = 1.0 / alpha
    c = -gamma / (alpha * (alpha + n * gamma))
    x = y.copy()
    z = E @ x
    u = np.zeros_like(z)
    for _ in range(max_iters):
        rhs = y + sigma * (E.T @ (z - u))
        x = a * rhs + c * rhs.sum()
        ex = E @ x
        z_new = np.sign(ex + u) * np.maximum(np.abs(ex + u) - wts / sigma, 0.0)
        r = ex - z_new
        s = sigma * (E.T @ (z_new - z))
        z = z_new
        u = u + r
        if np.linalg.norm(r) <= tol * (1 + np.linalg.norm(ex)) and \
           np.linalg.norm(s) <= tol * (1 + np.linalg.norm(x)):
            break
    return x


def isotone_qp_oracle(v, tol=1e-9):
    """Projection onto {x : x_1 >= ... >= x_n} by exhaustive active-set search.

    For every subset K of the n-1 order constraints treated as equalities,
    pool v accordingly, recover the multipliers from stationarity, and
    return the (unique) candidate passing the KKT checks.
    """
    v = np.asarray(v, dtype=float)
    n = v.size
    if n == 1:
        return v.copy()
    best = None
    for K in itertools.product([False, True], repeat=n - 1):
        # blocks = maximal runs glued by the equality constraints in K
        x = np.empty(n)
        i = 0
        while i < n:
            j = i
            while j < n - 1 and K[j]:
                j += 1
            x[i:j + 1] = v[i:j + 1].mean()
            i = j + 1
        # multipliers: lam_j = -sum_{i<=j} (x - v)_i, lam_0 = lam_n = 0
        lam = -np.cumsum(x - v)[:-1]
        ok = True
        for j in range(n - 1):
            if K[j]:
                if lam[j] > tol:  # active constraints need lam <= 0
                    ok = False
                    break
            else:
                if abs(lam[j]) > tol:
                    ok = False
                    break
            if x[j] - x[j + 1] < -tol:
                ok = False
                break
        if ok:
            best = x
            break
    assert best is not None, "no KKT point found (tolerance too tight?)"
    return best


def pav_reference(v):
    """Array-stack PAV over numpy scalars with int64 counts: the same
    comparisons and additions in the same order as
    ``prox.pav_nonincreasing``, written out directly.  Returns the
    ``(sums, counts)`` stack."""
    n = v.shape[0]
    sums = np.empty(n, dtype=np.float64)
    counts = np.empty(n, dtype=np.int64)
    top = 0
    for i in range(n):
        s = v[i]
        c = 1
        while top > 0 and sums[top - 1] * c < s * counts[top - 1]:
            s += sums[top - 1]
            c += counts[top - 1]
            top -= 1
        sums[top] = s
        counts[top] = c
        top += 1
    return sums[:top].copy(), counts[:top].copy()


def difference_matrix(n):
    """Consecutive-difference matrix: rows e_i - e_{i+1}."""
    B = np.zeros((n - 1, n))
    for i in range(n - 1):
        B[i, i] = 1.0
        B[i, i + 1] = -1.0
    return B


def dense_jacobian_oracle(y, beta, rho, ties_tol=1e-10):
    """Dense prox Jacobian via the pseudo-inverse formula.

    M = Theta P^T (I - B^T (S B B^T S)^+ B) P with P the descending stable
    sort of y, S the diagonal indicator of active order constraints of the
    projected sorted vector, and Theta the soft-threshold survivor mask
    (group-consistent, tolerance-padded like the library).
    """
    from clusterlasso.prox import ordered_weights, prox_clustered, Penalties

    y = np.asarray(y, dtype=float)
    n = y.size
    pr = prox_clustered(y, Penalties(beta, rho))
    tol = ties_tol * max(1.0, float(np.max(np.abs(y))))
    if rho == 0:
        theta = (np.abs(y) > beta + tol).astype(float)
        return np.diag(theta)
    perm = np.argsort(-y, kind="stable")
    P = np.zeros((n, n))
    P[np.arange(n), perm] = 1.0
    proj = isotone_qp_oracle(y[perm] - rho * ordered_weights(n))
    B = difference_matrix(n)
    active = (np.abs(B @ proj) <= tol).astype(float)
    S = np.diag(active)
    core = S @ B @ B.T @ S
    Q = np.eye(n) - B.T @ np.linalg.pinv(core) @ B if active.any() else np.eye(n)
    # theta decided per tied run from the run's mean, matching the library
    theta_sorted = np.empty(n)
    i = 0
    while i < n:
        j = i
        while j < n - 1 and active[j]:
            j += 1
        rep = proj[i:j + 1].mean()
        theta_sorted[i:j + 1] = 1.0 if abs(rep) > beta + tol else 0.0
        i = j + 1
    theta = np.empty(n)
    theta[perm] = theta_sorted
    Theta = np.diag(theta)
    return Theta @ P.T @ Q @ P


def equal_runs(v):
    """(lengths, values) of the runs of equal entries of v, left to right."""
    first = np.flatnonzero(np.r_[True, v[1:] != v[:-1]])
    return np.diff(np.r_[first, v.size]), v[first]


def dense_matrix_from_apply(apply, n):
    cols = [apply(e) for e in np.eye(n)]
    return np.array(cols).T


def count_design_products(monkeypatch):
    """Count the DesignMatrix.matvec, tmatvec and gram calls from here on,
    per design; returns a Counter keyed by the DesignMatrix."""
    counter = collections.Counter()
    for name in ("matvec", "tmatvec", "gram"):
        orig = getattr(DesignMatrix, name)

        def counted(self, *args, orig=orig):
            counter[self] += 1
            return orig(self, *args)
        monkeypatch.setattr(DesignMatrix, name, counted)
    return counter
