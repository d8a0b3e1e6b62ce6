"""Problem input: LIBSVM-format files and the synthetic scenario generator.

The seven scenarios each fix a base coefficient vector and a predictor
correlation structure; every base component is repeated k times
consecutively and rows are drawn from the matching Gaussian.  All
randomness flows through independent child streams of one seed, with
normal variates produced by inverse CDF so runs reproduce bit-for-bit
across platforms.
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
    """
    if n_features is not None and n_features < 1:
        raise ValueError("n_features must be >= 1")
    labels = []
    rows = []
    indices = []
    values = []
    n = 0
    with open(path, "r", encoding="ascii") as fh:
        for line_no, line in enumerate(fh, start=1):
            toks = line.split()
            if not toks:
                continue
            try:
                labels.append(float(toks[0]))
            except ValueError:
                raise LibsvmParseError("bad label", line_no, toks[0]) from None
            seen = set()
            for tok in toks[1:]:
                idx, sep, val = tok.partition(":")
                if not sep:
                    raise LibsvmParseError("missing ':'", line_no, tok)
                try:
                    j = int(idx)
                    v = float(val)
                except ValueError:
                    raise LibsvmParseError("bad index:value pair", line_no,
                                           tok) from None
                if j < 1:
                    raise LibsvmParseError("indices are 1-based", line_no, tok)
                if n_features is not None and j > n_features:
                    raise LibsvmParseError(
                        f"index above n_features = {n_features}", line_no,
                        tok)
                if j in seen:
                    raise LibsvmParseError("repeated index", line_no, tok)
                seen.add(j)
                rows.append(len(labels) - 1)
                indices.append(j - 1)
                values.append(v)
                n = max(n, j)
    m = len(labels)
    if m == 0:
        raise LibsvmParseError("empty file", 0)
    if n_features is not None:
        n = n_features
    A = np.zeros((m, n), order="F")
    A[rows, indices] = values
    return DesignMatrix(A), np.asarray(labels, dtype=np.float64)


def write_libsvm(path, A, b) -> None:
    """Write (A, b) in LIBSVM format; zeros are skipped, indices 1-based.
    A may be an array, a DesignMatrix or a scipy sparse matrix (anything
    with `toarray`)."""
    b = np.asarray(b, dtype=np.float64)
    dense = A.toarray() if hasattr(A, "toarray") else np.asarray(A)
    with open(path, "w", encoding="ascii") as fh:
        for i in range(dense.shape[0]):
            row = dense[i]
            nz = np.flatnonzero(row)
            feats = " ".join(f"{j + 1}:{row[j]:.17g}" for j in nz)
            fh.write(f"{b[i]:.17g} {feats}".rstrip() + "\n")


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


def _std_normal(rng, size):
    # inverse-CDF normals from 53-bit uniforms; (i + 0.5) * 2^-53 stays in
    # the open interval so ndtri is always finite
    u = (rng.integers(0, 1 << 53, size=size, dtype=np.uint64) + 0.5) * 2.0 ** -53
    return ndtri(u)


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
        draws = _std_normal(rng_x, 100)
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


def _correlated_rows(rng, m, n, scenario_id, k):
    kind, level = _CORRELATION[scenario_id]
    Z = _std_normal(rng, (m, n))
    if kind == "ar1":
        X = np.empty((m, n), order="F")
        X[:, 0] = Z[:, 0]
        c = np.sqrt(1.0 - level * level)
        for j in range(1, n):
            X[:, j] = level * X[:, j - 1] + c * Z[:, j]
        return X
    if kind == "const":
        g = _std_normal(rng, (m, 1))
        return np.sqrt(level) * g + np.sqrt(1.0 - level) * Z
    if kind == "altsign":
        g = _std_normal(rng, (m, 1))
        signs = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
        return np.sqrt(level) * g * signs + np.sqrt(1.0 - level) * Z
    if kind == "blocks":
        X = Z.copy()
        for blk in range(3):
            g = _std_normal(rng, (m, 1))
            cols = slice(blk * 3 * k, (blk + 1) * 3 * k)
            X[:, cols] = np.sqrt(level) * g + np.sqrt(1.0 - level) * Z[:, cols]
        return X
    raise AssertionError(kind)


def generate_scenario(spec: ScenarioSpec) -> SyntheticProblem:
    """Draw one synthetic problem; deterministic given the ScenarioSpec.

    Rows: m = max(80000, 0.5 n k) unless m_override is set.  The response
    is b = A x_true + noise scaled so ||noise|| = 0.1 ||A x_true||.  The
    first round(train_fraction * m) rows are the training split.
    """
    x_true = true_coefficients(spec.scenario_id, spec.k, spec.seed)
    n = x_true.shape[0]
    if spec.m_override is not None:
        m_total = int(spec.m_override)
    else:
        m_total = int(max(80000, np.ceil(0.5 * n * spec.k)))
    _, rng_a, rng_eps = _child_rngs(spec.seed)
    X = _correlated_rows(rng_a, m_total, n, spec.scenario_id, spec.k)
    ax = X @ x_true
    eps = _std_normal(rng_eps, m_total)
    nrm_eps = float(np.linalg.norm(eps))
    sigma_noise = 0.1 * float(np.linalg.norm(ax)) / nrm_eps if nrm_eps else 0.0
    b = ax + sigma_noise * eps

    m_train = int(round(spec.train_fraction * m_total))
    m_train = min(max(m_train, 1), m_total)
    data = ProblemData(A=DesignMatrix(X[:m_train]), b=b[:m_train])
    out = SyntheticProblem(data=data, x_true=x_true, spec=spec,
                           sigma_noise=sigma_noise, m_total=m_total)
    if m_train < m_total:
        out.A_test = X[m_train:]
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
