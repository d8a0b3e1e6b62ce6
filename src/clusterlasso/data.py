"""Problem input: LIBSVM-format files and the synthetic scenario generator.

The seven scenarios each fix a base coefficient vector and a predictor
correlation structure; every base component is repeated k times
consecutively and rows are drawn from the matching Gaussian.  All
randomness flows through independent child streams of one seed, with
normal variates produced by inverse CDF so runs reproduce bit-for-bit
across platforms.

The generator draws the normals in row passes of about 32k entries (a
uint64 chunk, a reused float buffer, then ndtri into the destination
rows) straight into two preallocated column-major arrays, the train and
the test block, and correlates them in place; the train block becomes
the DesignMatrix without a copy.  The instances are bit for bit those of
forming the whole m x n design at once (BLAS on one thread), and at
n = 80 generation peaks at 1.06 times the bytes of the returned train
and test blocks: the blocks, pass-sized buffers and a few m-vectors.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import ndtri

from .linalg import DesignMatrix
from .problem import ProblemData
from .prox import Penalties


class LibsvmParseError(ValueError):
    def __init__(self, msg, line_no, token=None):
        at = f"line {line_no}" + (f", token '{token}'" if token else "")
        super().__init__(f"{msg} ({at})")
        self.line_no = line_no
        self.token = token


def read_libsvm(path, n_features: Optional[int] = None):
    """Read `label idx:val ...` lines (1-based indices) into (A, b).

    A is a DesignMatrix on a dense m x n float64 array in Fortran order,
    with n = n_features when given (an index above it is a parse error),
    else n = the largest index seen, so trailing all-zero columns need
    n_features to survive a round trip.  Absent entries are zeros, and a
    design too large for memory raises numpy's MemoryError.  Rows with no
    features are allowed (all-zero rows).  Indices within a row may come
    in any order but not twice.

    The tokens of the whole file are converted in three numpy calls and
    placed by one fancy-index assignment; a file they reject is scanned
    again line by line to name its first bad token.
    """
    if n_features is not None and n_features < 1:
        raise ValueError("n_features must be >= 1")
    with open(path, "r", encoding="ascii") as fh:
        rows = [toks for toks in map(str.split, fh) if toks]
    if not rows:
        raise LibsvmParseError("empty file", 0)
    pairs = [tok.partition(":") for toks in rows for tok in toks[1:]]
    try:
        b = np.array([toks[0] for toks in rows], dtype=np.float64)
        cols = np.array([p[0] for p in pairs], dtype=np.int64) - 1
        vals = np.array([p[2] for p in pairs], dtype=np.float64)
    except (ValueError, OverflowError):
        _raise_first_error(path, n_features)
    n_seen = int(cols.max(initial=-1)) + 1
    n = n_seen if n_features is None else n_features
    if cols.min(initial=0) < 0 or n_seen > n:
        _raise_first_error(path, n_features)
    rows_of = np.repeat(np.arange(len(rows)), [len(toks) - 1 for toks in rows])
    A = np.zeros((len(rows), n), order="F")
    # a repeated (row, index) pair; m n fits int64 once A is allocated
    keys = np.sort(rows_of * n + cols)
    if np.any(keys[1:] == keys[:-1]):
        _raise_first_error(path, n_features)
    A[rows_of, cols] = vals
    return DesignMatrix(A), b


def _raise_first_error(path, n_features):
    """Scan a file that `read_libsvm` rejected and raise LibsvmParseError
    at its first bad token; without n_features an index must fit int64."""
    limit, bound = ((np.iinfo(np.int64).max, "the int64 range")
                    if n_features is None else
                    (n_features, f"n_features = {n_features}"))
    with open(path, "r", encoding="ascii") as fh:
        for line_no, line in enumerate(fh, start=1):
            toks = line.split()
            if not toks:
                continue
            try:
                float(toks[0])
            except ValueError:
                raise LibsvmParseError("bad label", line_no, toks[0]) from None
            seen = set()
            for tok in toks[1:]:
                idx, sep, val = tok.partition(":")
                if not sep:
                    raise LibsvmParseError("missing ':'", line_no, tok)
                try:
                    j = int(idx)
                    float(val)
                except ValueError:
                    raise LibsvmParseError("bad index:value pair", line_no,
                                           tok) from None
                if j < 1:
                    raise LibsvmParseError("indices are 1-based", line_no, tok)
                if j > limit:
                    raise LibsvmParseError(f"index above {bound}", line_no,
                                           tok)
                if j in seen:
                    raise LibsvmParseError("repeated index", line_no, tok)
                seen.add(j)


def write_libsvm(path, A, b) -> None:
    """Write (A, b) in LIBSVM format; zeros are skipped, indices 1-based,
    values in 17 significant digits, so `read_libsvm` gives back the same
    floats.  A may be an array, a DesignMatrix (its raw array is read
    without a copy) or a scipy sparse matrix (anything with `toarray`); b
    holds one label per row.  Rows are formatted one `_row_passes` range
    at a time, so the strings and index arrays held at once are a small
    fraction of a large design."""
    b = np.asarray(b, dtype=np.float64)
    if isinstance(A, DesignMatrix):
        A = A.raw
    dense = A.toarray() if hasattr(A, "toarray") else np.asarray(A)
    if b.shape != dense.shape[:1]:
        raise ValueError(f"b has shape {b.shape}; want one label per row "
                         f"of the {dense.shape[0]}-row design")
    m, n = dense.shape
    with open(path, "w", encoding="ascii") as fh:
        for r0, r1 in _row_passes(m, max(n, 1)):
            rows, cols = np.nonzero(dense[r0:r1])
            feats = [f"{j}:{v:.17g}" for j, v in zip(
                (cols + 1).tolist(), dense[r0 + rows, cols].tolist())]
            ends = np.cumsum(np.bincount(rows, minlength=r1 - r0)).tolist()
            fh.writelines(
                " ".join([f"{label:.17g}", *feats[lo:hi]]) + "\n"
                for label, lo, hi in zip(b[r0:r1].tolist(), [0, *ends][:-1],
                                         ends))


_BASE_VECTORS = {
    1: np.array([3.0, 1.5, 0.0, 0.0, 0.0, 2.0, 0.0, 0.0]),
    2: np.array([0.0] * 5 + [2.0] * 5 + [0.0] * 5 + [2.0] * 5),
    3: np.array([5.0] * 3 + [2.0] * 3 + [10.0] * 3 + [0.0] * 11),
    4: np.array([0.0, 0.0, -1.5, -1.5, -2.0, -2.0, 0.0, 0.0,
                 1.0, 1.0, 4.0, 4.0, 4.0]),
    6: np.array([0.0] * 3 + [4.0] * 5 + [-4.0] * 5 + [2.0, 2.0, -1.0]),
}
_BASE_VECTORS[5] = _BASE_VECTORS[4]

# (kind, level): ar1 = level^{|i-j|}; const = level off-diagonal;
# blocks = const level inside each replicated group of the first 3 base
# predictors, rest independent; altsign = level * (-1)^{|i-j|}
_CORRELATION = {
    1: ("ar1", 0.9),
    2: ("const", 0.3),
    3: ("blocks", 0.9),
    4: ("ar1", 0.5),
    5: ("ar1", 0.9),
    6: ("altsign", 0.8),
    7: ("const", 0.5),
}

SCENARIO_IDS = tuple(sorted(_CORRELATION))


def _child_rngs(seed):
    c_x, c_a, c_eps = np.random.SeedSequence(seed).spawn(3)
    return (np.random.default_rng(c_x), np.random.default_rng(c_a),
            np.random.default_rng(c_eps))


# Entries per row pass: the draws, the uniforms and the gemv copies each
# take one pass-sized buffer, not one the size of the design.
_PASS = 1 << 15


def _row_passes(m, n):
    """Row ranges [r0, r1) of about _PASS entries covering m rows of n.

    Every pass but the last starts and ends on a multiple of 4 rows, and a
    tail under 4 rows joins the pass before it.  OpenBLAS's gemv kernels
    take rows in fours and sum a short remainder apart, so a gemv per pass
    gives each row the bits of one gemv over all m rows (checked with the
    Haswell kernels of OpenBLAS 0.3.31).
    """
    step = max(4, _PASS // n // 4 * 4)
    bounds = [*range(0, m, step), m]
    if len(bounds) > 2 and bounds[-1] - bounds[-2] < 4:
        del bounds[-2]
    return list(zip(bounds[:-1], bounds[1:]))


def _std_normal(rng, out):
    """Fill out (1-D, or 2-D of any layout) with standard normals taken
    from rng in row-major order, one row pass at a time, and return it.

    Inverse-CDF normals from 53-bit uniforms: (i + 0.5) * 2^-53 stays in
    the open interval, so ndtri is always finite.  Each draw takes one
    64-bit output of rng, so the passes reproduce one draw of out's size.
    """
    rows = out if out.ndim == 2 else out[:, None]
    passes = _row_passes(*rows.shape)
    buf = np.empty(max(r1 - r0 for r0, r1 in passes) * rows.shape[1])
    for r0, r1 in passes:
        u = buf[:(r1 - r0) * rows.shape[1]].reshape(r1 - r0, -1)
        np.add(rng.integers(0, 1 << 53, size=u.shape, dtype=np.uint64), 0.5,
               out=u)
        u *= 2.0 ** -53
        ndtri(u, out=rows[r0:r1])
    return out


def true_coefficients(scenario_id: int, k: int, seed: int = 0) -> np.ndarray:
    """Ground-truth coefficient vector with each component repeated k times.

    Scenario 7 draws 100 standard normals (from the seed), bins them into a
    20-bin histogram over their range, and tiles the counts 2k times, so its
    length is 40k.  The other scenarios repeat their fixed base vector.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if scenario_id == 7:
        rng_x, _, _ = _child_rngs(seed)
        draws = _std_normal(rng_x, np.empty(100))
        counts, _ = np.histogram(draws, bins=20)
        return np.tile(counts.astype(np.float64), 2 * k)
    if scenario_id not in _BASE_VECTORS:
        raise ValueError(f"unknown scenario id {scenario_id}")
    return np.repeat(_BASE_VECTORS[scenario_id], k)


@dataclass(frozen=True)
class ScenarioSpec:
    scenario_id: int
    k: int
    seed: int
    m_override: Optional[int] = None
    train_fraction: float = 0.8

    def __post_init__(self):
        if self.scenario_id not in _CORRELATION:
            raise ValueError(f"unknown scenario id {self.scenario_id}")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.m_override is not None and self.m_override < 2:
            raise ValueError("m_override must be >= 2")
        if not 0.0 < self.train_fraction <= 1.0:
            raise ValueError("train_fraction must lie in (0, 1]")


@dataclass
class SyntheticProblem:
    data: ProblemData
    x_true: np.ndarray
    spec: ScenarioSpec
    sigma_noise: float
    m_total: int
    A_test: Optional[np.ndarray] = None
    b_test: Optional[np.ndarray] = None


def _correlated_rows(rng, blocks, scenario_id, k):
    """Fill the row blocks (train, then test if any) with the scenario's
    rows: Z first, all of it, then the factors g, then the correlation in
    place, element by element, so the bits do not depend on the split."""
    kind, level = _CORRELATION[scenario_id]
    for X in blocks:
        _std_normal(rng, X)
    if kind == "ar1":
        # X_j = level X_{j-1} + c Z_j
        c = np.sqrt(1.0 - level * level)
        for X in blocks:
            for j in range(1, X.shape[1]):
                col = X[:, j]
                col *= c
                col += level * X[:, j - 1]
        return
    # X = sqrt(level) g + sqrt(1 - level) Z on the kind's columns, one g
    # per group of 3k columns for blocks; altsign flips g on odd columns
    groups = ([slice(b * 3 * k, (b + 1) * 3 * k) for b in range(3)]
              if kind == "blocks" else [slice(None)])
    for cols in groups:
        g = np.sqrt(level) * _std_normal(rng, np.empty(sum(map(len, blocks))))
        for X, gx in zip(blocks, np.split(g[:, None], [len(blocks[0])])):
            X[:, cols] *= np.sqrt(1.0 - level)
            if kind == "altsign":
                X[:, 0::2] += gx
                X[:, 1::2] -= gx
            else:
                X[:, cols] += gx


def _rows_times(blocks, v, order):
    """(stacked blocks) @ v, each row summed as gemv sums it over the
    whole stacked design in order "F" or "C": the row passes are copied
    into one pass-sized buffer of that layout."""
    m = sum(map(len, blocks))
    passes = _row_passes(m, len(v))
    buf = np.empty((max(r1 - r0 for r0, r1 in passes), len(v)), order=order)
    starts = np.cumsum([0, *map(len, blocks)])
    out = np.empty(m)
    for r0, r1 in passes:
        for X, s0 in zip(blocks, starts):
            lo, hi = max(r0, s0), min(r1, s0 + len(X))
            if lo < hi:
                buf[lo - r0:hi - r0] = X[lo - s0:hi - s0]
        out[r0:r1] = buf[:r1 - r0] @ v
    return out


def generate_scenario(spec: ScenarioSpec) -> SyntheticProblem:
    """Draw one synthetic problem; deterministic given the ScenarioSpec.

    Rows: m = max(80000, 0.5 n k) unless m_override is set.  The response
    is b = A x_true + noise scaled so ||noise|| = 0.1 ||A x_true||.  The
    first round(train_fraction * m) rows are the training split.  Both
    splits are drawn straight into their own column-major arrays.
    """
    x_true = true_coefficients(spec.scenario_id, spec.k, spec.seed)
    n = x_true.shape[0]
    if spec.m_override is not None:
        m_total = int(spec.m_override)
    else:
        m_total = int(max(80000, np.ceil(0.5 * n * spec.k)))
    m_train = int(round(spec.train_fraction * m_total))
    m_train = min(max(m_train, 1), m_total)
    blocks = [np.empty((m, n), order="F")
              for m in (m_train, m_total - m_train) if m]
    _, rng_a, rng_eps = _child_rngs(spec.seed)
    _correlated_rows(rng_a, blocks, spec.scenario_id, spec.k)
    # gemv sums a row in another order in F than in C layout; AR(1) rows
    # are summed as F rows, the others as C rows, which fixes b's bits
    kind, _ = _CORRELATION[spec.scenario_id]
    ax = _rows_times(blocks, x_true, "F" if kind == "ar1" else "C")
    eps = _std_normal(rng_eps, np.empty(m_total))
    nrm_eps = float(np.linalg.norm(eps))
    sigma_noise = 0.1 * float(np.linalg.norm(ax)) / nrm_eps if nrm_eps else 0.0
    b = ax + sigma_noise * eps

    data = ProblemData(A=DesignMatrix(blocks[0]), b=b[:m_train])
    out = SyntheticProblem(data=data, x_true=x_true, spec=spec,
                           sigma_noise=sigma_noise, m_total=m_total)
    if m_train < m_total:
        out.A_test = blocks[1]
        out.b_test = b[m_train:]
    return out


def penalties_from_alphas(alpha1: float, alpha2: float,
                          data: ProblemData) -> Penalties:
    """beta = alpha1 * ||A^T b||_inf, rho = alpha2 * beta."""
    if not 0.0 < alpha1 < 1.0:
        raise ValueError("alpha1 must lie in (0, 1)")
    if alpha2 < 0.0:
        raise ValueError("alpha2 must be nonnegative")
    scale = float(np.max(np.abs(data.A.tmatvec(data.b))))
    if scale == 0.0:
        raise ValueError("A^T b is zero; cannot derive penalty levels")
    beta = alpha1 * scale
    return Penalties(beta=beta, rho=alpha2 * beta)
