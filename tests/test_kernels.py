"""Checks on the raw pool-adjacent-violators sweep.

``pav_nonincreasing`` returns the unmerged ``(sums, counts)`` stack that
``project_nonincreasing`` turns into a projection; the projection itself is
checked against the active-set QP oracle in ``test_prox.py``.  Here the
sweep is held bitwise to the array-stack `oracles.pav_reference` and
checked for its structure.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

import clusterlasso
from clusterlasso.prox import pav_nonincreasing
from oracles import pav_reference


def _pools_to_vector(sums, counts, n):
    out = np.empty(n)
    pos = 0
    for s, c in zip(sums, counts):
        out[pos:pos + int(c)] = s / c
        pos += int(c)
    return out


class TestKernelEquivalence:
    @pytest.mark.parametrize("seed", range(25))
    def test_fallback_matches_jitted(self, seed):
        """The list-stack sweep reproduces the reference bit for bit."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 200))
        v = rng.normal(size=n) * rng.choice([1e-3, 1.0, 1e6])
        if seed % 4 == 0:
            v = np.round(v, 1)
        s1, c1 = pav_nonincreasing(v)
        s2, c2 = pav_reference(v)
        np.testing.assert_array_equal(s1, s2)
        np.testing.assert_array_equal(c1, c2)

    def test_counts_cover_input(self):
        rng = np.random.default_rng(99)
        v = rng.normal(size=64)
        _, counts = pav_nonincreasing(v)
        assert int(np.sum(counts)) == 64

    def test_block_means_nonincreasing(self):
        rng = np.random.default_rng(100)
        v = rng.normal(size=80)
        sums, counts = pav_nonincreasing(v)
        means = sums / counts
        assert np.all(np.diff(means) < 1e-15)

    def test_sorted_input_stays_split(self):
        v = np.array([4.0, 3.0, 2.0, 1.0])
        sums, counts = pav_nonincreasing(v)
        np.testing.assert_array_equal(counts, [1, 1, 1, 1])
        np.testing.assert_array_equal(sums, v)

    def test_exact_ties_stay_split(self):
        # the sweep pools only on strict violations; blocks with equal
        # means still project to equal values
        sums, counts = pav_nonincreasing(np.array([1.0, 1.0]))
        np.testing.assert_array_equal(counts, [1, 1])
        np.testing.assert_array_equal(sums, [1.0, 1.0])

    def test_increasing_input_fully_pools(self):
        v = np.array([1.0, 2.0, 3.0])
        sums, counts = pav_nonincreasing(v)
        assert len(counts) == 1
        assert sums[0] == pytest.approx(6.0)

    def test_projection_matches_mean_pooling(self):
        rng = np.random.default_rng(5)
        v = rng.normal(size=37)
        sums, counts = pav_nonincreasing(v)
        direct = _pools_to_vector(sums, counts, 37)
        # isotone projection is idempotent and sum-preserving per block
        assert direct.sum() == pytest.approx(v.sum())
        assert np.all(np.diff(direct) <= 1e-12)


class TestImportFootprint:
    def test_no_jit_or_scipy_optimize(self):
        """Importing the package loads neither numba, scipy.optimize nor
        scipy.sparse.

        scipy.optimize pulls in scipy.spatial, scipy.fft and
        scipy.sparse.linalg, which raises a solver process's peak RSS by
        about a fifth on the small benchmark instances.  The design is
        dense, so nothing needs scipy.sparse, which alone adds about
        1.7 MB of peak RSS on top of scipy.linalg and scipy.special.
        """
        code = (
            "import importlib, pkgutil, sys\n"
            "import clusterlasso\n"
            "for m in pkgutil.iter_modules(clusterlasso.__path__):\n"
            "    importlib.import_module('clusterlasso.' + m.name)\n"
            "loaded = sorted(n for n in ('numba', 'scipy.optimize',\n"
            "                            'scipy.sparse') if n in sys.modules)\n"
            "assert not loaded, loaded\n"
        )
        src = os.path.dirname(os.path.dirname(clusterlasso.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        subprocess.run([sys.executable, "-c", code], check=True, env=env)
