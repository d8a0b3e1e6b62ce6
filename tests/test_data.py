"""Tests for LIBSVM IO and the synthetic scenario generator."""

import json
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import clusterlasso
from clusterlasso.data import (
    SCENARIO_IDS,
    LibsvmParseError,
    ScenarioSpec,
    generate_scenario,
    penalties_from_alphas,
    read_libsvm,
    true_coefficients,
    write_libsvm,
)
from clusterlasso.linalg import DesignMatrix
from clusterlasso.problem import ProblemData
from clusterlasso.prox import Penalties


class TestLibsvmRead:
    def test_basic(self, tmp_path):
        p = tmp_path / "toy.libsvm"
        p.write_text("1.5 1:2.0 3:4.0\n-0.5 2:1.0\n")
        A, b = read_libsvm(p)
        np.testing.assert_array_equal(b, [1.5, -0.5])
        np.testing.assert_allclose(
            A.toarray(), [[2.0, 0.0, 4.0], [0.0, 1.0, 0.0]])
        # read into a dense, column-major float64 array
        assert type(A.raw) is np.ndarray and A.raw.dtype == np.float64
        assert A.raw.flags.f_contiguous

    def test_blank_lines_skipped(self, tmp_path):
        p = tmp_path / "gaps.libsvm"
        p.write_text("\n1.0 1:1 2:1\n\n2.0 2:3\n")
        A, b = read_libsvm(p)
        assert b.shape == (2,)

    def test_zero_rows_allowed(self, tmp_path):
        p = tmp_path / "zrow.libsvm"
        p.write_text("1.0 2:5.0\n3.0\n")
        A, b = read_libsvm(p)
        np.testing.assert_allclose(A.toarray(), [[0.0, 5.0], [0.0, 0.0]])

    def test_bad_label(self, tmp_path):
        p = tmp_path / "bad.libsvm"
        p.write_text("1.0 1:1 2:2\nxyz 1:1\n")
        with pytest.raises(LibsvmParseError) as ei:
            read_libsvm(p)
        assert ei.value.line_no == 2
        assert "xyz" in str(ei.value)

    def test_missing_colon(self, tmp_path):
        p = tmp_path / "bad2.libsvm"
        p.write_text("1.0 1:1 2:1\n1.0 17\n")
        with pytest.raises(LibsvmParseError) as ei:
            read_libsvm(p)
        assert ei.value.line_no == 2

    def test_zero_index_rejected(self, tmp_path):
        p = tmp_path / "bad3.libsvm"
        p.write_text("1.0 0:3.0 2:2.0\n")
        with pytest.raises(LibsvmParseError):
            read_libsvm(p)

    def test_repeated_index_rejected(self, tmp_path):
        # the dense fill would silently keep only one of the two values
        p = tmp_path / "dup.libsvm"
        p.write_text("1.0 1:1.0\n1.0 2:1.0 2:3.0\n")
        with pytest.raises(LibsvmParseError) as ei:
            read_libsvm(p)
        assert ei.value.line_no == 2
        assert "2:3.0" in str(ei.value)

    def test_unsorted_distinct_indices_accepted(self, tmp_path):
        p = tmp_path / "unsorted.libsvm"
        p.write_text("1.0 3:4.0 1:2.0\n")
        A, _ = read_libsvm(p)
        np.testing.assert_array_equal(A.toarray(), [[2.0, 0.0, 4.0]])

    def test_bad_value(self, tmp_path):
        p = tmp_path / "bad4.libsvm"
        p.write_text("1.0 1:zz 2:2.0\n")
        with pytest.raises(LibsvmParseError):
            read_libsvm(p)

    def test_index_above_n_features_rejected(self, tmp_path):
        p = tmp_path / "wide.libsvm"
        p.write_text("1.0 1:1.0\n2.0 2:1.0 4:3.0\n")
        with pytest.raises(LibsvmParseError) as ei:
            read_libsvm(p, n_features=3)
        assert ei.value.line_no == 2
        assert "4:3.0" in str(ei.value)
        with pytest.raises(ValueError, match="n_features"):
            read_libsvm(p, n_features=0)

    @pytest.mark.parametrize("tok", ["1:2:3", ":5", "3:", "4:1:"])
    def test_malformed_pair_rejected(self, tmp_path, tok):
        # each of these splits into the wrong number of index/value parts
        p = tmp_path / "pair.libsvm"
        p.write_text(f"1.0 1:1.0\n2.0 2:1.0 {tok} 7\n")
        with pytest.raises(LibsvmParseError) as ei:
            read_libsvm(p)
        assert ei.value.line_no == 2
        assert tok in str(ei.value)

    def test_index_beyond_int64_rejected(self, tmp_path):
        p = tmp_path / "huge.libsvm"
        p.write_text("1.0 1:1.0\n2.0 100000000000000000000:1.0\n")
        for n_features in (None, 3):
            with pytest.raises(LibsvmParseError) as ei:
                read_libsvm(p, n_features=n_features)
            assert ei.value.line_no == 2

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.libsvm"
        p.write_text("")
        with pytest.raises(LibsvmParseError):
            read_libsvm(p)


class TestLibsvmRoundTrip:
    def test_trailing_zero_columns_kept_with_n_features(self, tmp_path):
        # LIBSVM stores no column count: without n_features the last,
        # all-zero column is lost
        M = np.array([[1.0, 2.0, 0.0], [0.5, 0.0, 0.0]])
        p = tmp_path / "zcol.libsvm"
        write_libsvm(p, M, np.ones(2))
        assert read_libsvm(p)[0].shape == (2, 2)
        A, _ = read_libsvm(p, n_features=3)
        assert A.shape == (2, 3)
        np.testing.assert_array_equal(A.toarray(), M)

    def test_text_layout(self, tmp_path):
        # label, then the nonzero entries as index:value, 17 digits each;
        # an all-zero row is its label alone
        p = tmp_path / "layout.libsvm"
        write_libsvm(p, np.array([[2.0, 0.0, 0.1], [0.0, 0.0, 0.0]]),
                     [1.5, -0.5])
        assert p.read_text() == "1.5 1:2 3:0.10000000000000001\n-0.5\n"

    def test_label_count_must_match_rows(self, tmp_path):
        p = tmp_path / "short.libsvm"
        for b in (np.ones(1), np.ones(3)):
            with pytest.raises(ValueError, match="one label per row"):
                write_libsvm(p, np.eye(2), b)
        assert not p.exists()

    def test_dense_matrix(self, tmp_path):
        rng = np.random.default_rng(0)
        M = np.round(rng.normal(size=(5, 4)), 6)
        M[1, 2] = 0.0
        b = rng.normal(size=5)
        p = tmp_path / "rt.libsvm"
        write_libsvm(p, M, b)
        A2, b2 = read_libsvm(p)
        np.testing.assert_allclose(A2.toarray(), M, atol=0)
        np.testing.assert_allclose(b2, b, atol=0)

    def test_design_matrix_input(self, tmp_path):
        rng = np.random.default_rng(1)
        M = rng.normal(size=(3, 3))
        p = tmp_path / "rt2.libsvm"
        write_libsvm(p, DesignMatrix(M), np.arange(3.0))
        A2, b2 = read_libsvm(p)
        np.testing.assert_allclose(A2.toarray(), M)
        # the design's column-major array is written as the array is
        write_libsvm(tmp_path / "array.libsvm", M, np.arange(3.0))
        assert p.read_bytes() == (tmp_path / "array.libsvm").read_bytes()

    def test_scipy_sparse_input(self, tmp_path):
        M = sp.random(6, 5, density=0.4, format="csr", random_state=2)
        b = np.linspace(-1.0, 1.0, 6)
        p = tmp_path / "rt_sparse.libsvm"
        write_libsvm(p, M, b)
        A2, b2 = read_libsvm(p)
        np.testing.assert_array_equal(A2.toarray(), M.toarray())
        np.testing.assert_array_equal(b2, b)

    def test_full_precision_survives(self, tmp_path):
        M = np.array([[np.pi, 1 / 3], [np.e, 2 / 7]])
        p = tmp_path / "rt3.libsvm"
        write_libsvm(p, M, np.array([1 / 9, np.sqrt(2)]))
        A2, b2 = read_libsvm(p)
        np.testing.assert_array_equal(A2.toarray(), M)
        np.testing.assert_array_equal(b2, [1 / 9, np.sqrt(2)])

    @pytest.mark.parametrize("wrap", [np.asarray, DesignMatrix],
                             ids=["array", "design"])
    def test_writing_holds_less_than_the_design(self, tmp_path, wrap):
        # rows are formatted one pass at a time: formatting the whole
        # design at once peaked at 17 times its bytes, and copying a
        # DesignMatrix's array first at 1.55 times
        rng = np.random.default_rng(3)
        M = rng.normal(size=(20000, 80))
        b = rng.normal(size=20000)
        A = wrap(M)
        tracemalloc.start()
        try:
            write_libsvm(tmp_path / "big.libsvm", A, b)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= M.nbytes, peak / M.nbytes


class TestTrueCoefficients:
    def test_scenario_ids(self):
        assert SCENARIO_IDS == (1, 2, 3, 4, 5, 6, 7)

    def test_scenario1_values(self):
        x = true_coefficients(1, 2)
        np.testing.assert_array_equal(
            x, np.repeat([3.0, 1.5, 0.0, 0.0, 0.0, 2.0, 0.0, 0.0], 2))

    def test_lengths_scale_with_k(self):
        base_len = {1: 8, 2: 20, 3: 20, 4: 13, 5: 13, 6: 16}
        for sid, ln in base_len.items():
            assert true_coefficients(sid, 1).shape == (ln,)
            assert true_coefficients(sid, 3).shape == (3 * ln,)

    def test_scenarios_4_and_5_share_base(self):
        np.testing.assert_array_equal(
            true_coefficients(4, 2), true_coefficients(5, 2))

    def test_scenario7_histogram(self):
        x = true_coefficients(7, 1, seed=3)
        assert x.shape == (40,)
        # counts of a 20-bin histogram of 100 draws, tiled twice
        assert x[:20].sum() == 100.0
        np.testing.assert_array_equal(x[:20], x[20:])
        assert np.all(x >= 0)
        assert np.all(x == np.floor(x))

    def test_scenario7_scales_with_k(self):
        assert true_coefficients(7, 3, seed=0).shape == (120,)

    def test_scenario7_depends_on_seed(self):
        a = true_coefficients(7, 1, seed=0)
        b = true_coefficients(7, 1, seed=1)
        assert not np.array_equal(a, b)

    def test_unknown_scenario(self):
        with pytest.raises(ValueError):
            true_coefficients(8, 1)

    def test_bad_k(self):
        with pytest.raises(ValueError):
            true_coefficients(1, 0)


class TestScenarioSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            ScenarioSpec(scenario_id=0, k=1, seed=0)
        with pytest.raises(ValueError):
            ScenarioSpec(scenario_id=1, k=0, seed=0)
        with pytest.raises(ValueError):
            ScenarioSpec(scenario_id=1, k=1, seed=0, m_override=1)
        with pytest.raises(ValueError):
            ScenarioSpec(scenario_id=1, k=1, seed=0, train_fraction=0.0)


class TestGenerateScenario:
    def test_shapes_with_override(self):
        prob = generate_scenario(ScenarioSpec(1, 2, 0, m_override=100))
        assert prob.m_total == 100
        assert prob.data.A.shape == (80, 16)
        assert prob.data.b.shape == (80,)
        assert prob.A_test.shape == (20, 16)
        assert prob.b_test.shape == (20,)

    def test_bitwise_determinism(self):
        spec = ScenarioSpec(4, 1, 7, m_override=60)
        a = generate_scenario(spec)
        b = generate_scenario(spec)
        np.testing.assert_array_equal(a.data.A.toarray(), b.data.A.toarray())
        np.testing.assert_array_equal(a.data.b, b.data.b)
        np.testing.assert_array_equal(a.x_true, b.x_true)

    def test_seeds_differ(self):
        a = generate_scenario(ScenarioSpec(1, 1, 0, m_override=50))
        b = generate_scenario(ScenarioSpec(1, 1, 1, m_override=50))
        assert not np.array_equal(a.data.A.toarray(), b.data.A.toarray())

    def test_noise_ratio_is_one_tenth(self):
        prob = generate_scenario(ScenarioSpec(2, 1, 3, m_override=200))
        X = np.vstack([prob.data.A.toarray(), prob.A_test])
        b = np.concatenate([prob.data.b, prob.b_test])
        ax = X @ prob.x_true
        noise = b - ax
        ratio = np.linalg.norm(noise) / np.linalg.norm(ax)
        assert ratio == pytest.approx(0.1, rel=1e-10)

    def test_train_fraction_one_keeps_all_rows(self):
        prob = generate_scenario(
            ScenarioSpec(1, 1, 0, m_override=40, train_fraction=1.0))
        assert prob.data.A.shape[0] == 40
        assert prob.A_test is None and prob.b_test is None

    def test_default_m_floor(self):
        # without an override small scenarios get the 80000-row floor
        spec = ScenarioSpec(1, 1, 0)
        x = true_coefficients(1, 1)
        m = max(80000, int(np.ceil(0.5 * x.size * 1)))
        assert m == 80000

    @pytest.mark.parametrize("sid,level", [(1, 0.9), (4, 0.5)])
    def test_ar1_column_correlation(self, sid, level):
        # adjacent columns of the AR(1) designs correlate near the level
        prob = generate_scenario(ScenarioSpec(sid, 1, 0, m_override=4000))
        X = prob.data.A.toarray()
        cors = [np.corrcoef(X[:, j], X[:, j + 1])[0, 1]
                for j in range(min(5, X.shape[1] - 1))]
        assert np.mean(cors) == pytest.approx(level, abs=0.05)

    def test_const_column_correlation(self):
        prob = generate_scenario(ScenarioSpec(2, 1, 0, m_override=4000))
        X = prob.data.A.toarray()
        c = np.corrcoef(X[:, 0], X[:, 10])[0, 1]
        assert c == pytest.approx(0.3, abs=0.05)

    def test_altsign_correlation(self):
        prob = generate_scenario(ScenarioSpec(6, 1, 0, m_override=4000))
        X = prob.data.A.toarray()
        c1 = np.corrcoef(X[:, 0], X[:, 1])[0, 1]
        c2 = np.corrcoef(X[:, 0], X[:, 2])[0, 1]
        assert c1 == pytest.approx(-0.8, abs=0.05)
        assert c2 == pytest.approx(0.8, abs=0.05)

    def test_blocks_correlation(self):
        prob = generate_scenario(ScenarioSpec(3, 2, 0, m_override=4000))
        X = prob.data.A.toarray()
        inside = np.corrcoef(X[:, 0], X[:, 5])[0, 1]   # same block of 6
        across = np.corrcoef(X[:, 0], X[:, 7])[0, 1]   # different block
        assert inside == pytest.approx(0.9, abs=0.05)
        assert abs(across) <= 0.08

    def test_unit_column_variance(self):
        prob = generate_scenario(ScenarioSpec(1, 1, 0, m_override=6000))
        X = prob.data.A.toarray()
        assert np.std(X[:, 0]) == pytest.approx(1.0, abs=0.06)
        assert np.std(X[:, 7]) == pytest.approx(1.0, abs=0.06)


# The first 16 hex digits of SHA-256 over the shape and the C-order bytes
# of A, b, A_test, b_test and x_true (k = 2, seed 0), per
# "scenario/m_override/train_fraction", recorded with OpenBLAS 0.3.31
# (Haswell kernels, one thread) on x86-64.  m = 5003 and 20000 span
# several row passes of every n drawn here (16 to 80 columns).
_DIGESTS = {
    "1/60/0.8": "fa71b722c8511ff0",
    "1/60/1.0": "a45d2965b809ddea",
    "1/5003/0.8": "72d2ad63a3585034",
    "1/5003/1.0": "8057128b7c20ad3d",
    "1/20000/0.8": "cdc9444d8cc5a3e1",
    "1/20000/1.0": "6ac87c4af7dba99e",
    "2/60/0.8": "4a7ee410a190a55a",
    "2/60/1.0": "de9fe87ce7f2c748",
    "2/5003/0.8": "7014b0a4cbfd33f1",
    "2/5003/1.0": "e7655748f4f9321a",
    "2/20000/0.8": "5bb164634914c1f6",
    "2/20000/1.0": "4f1ae16a59e7ae03",
    "3/60/0.8": "4c3089a7084b234b",
    "3/60/1.0": "426063d0b4b1ef91",
    "3/5003/0.8": "8523496f5468cd00",
    "3/5003/1.0": "41fbdfcc4bbbf819",
    "3/20000/0.8": "d62c0cc589e128d7",
    "3/20000/1.0": "47c1213a425d1b2a",
    "4/60/0.8": "75ff9dbf3fdca8b4",
    "4/60/1.0": "adb88f4d755efb64",
    "4/5003/0.8": "9f6a3afd92b225c1",
    "4/5003/1.0": "1ec99bff794e487e",
    "4/20000/0.8": "d85253bc4d4c9fc4",
    "4/20000/1.0": "2d58e592d4c84107",
    "5/60/0.8": "f577717b6c20f7ff",
    "5/60/1.0": "28d0beb4546940a3",
    "5/5003/0.8": "e34525b3941f2a93",
    "5/5003/1.0": "11786c5898cc57eb",
    "5/20000/0.8": "eb2433aafe73d060",
    "5/20000/1.0": "aeb4dfb16eea217a",
    "6/60/0.8": "7d76e18cd59c6fa0",
    "6/60/1.0": "29c06e36e3bbaba2",
    "6/5003/0.8": "dc1614713df8ee4a",
    "6/5003/1.0": "2f3dac1db789947e",
    "6/20000/0.8": "6e6306eca8036aa0",
    "6/20000/1.0": "bb5c07560bbaae44",
    "7/60/0.8": "58c9e59088c70eab",
    "7/60/1.0": "4496f7d81f319b0e",
    "7/5003/0.8": "7569ca562735c27c",
    "7/5003/1.0": "81a6076ad47efb84",
    "7/20000/0.8": "9a29f5ee686be858",
    "7/20000/1.0": "a5d661db1f5e1cd4",
}

_DIGEST_CODE = textwrap.dedent("""
    import hashlib, json
    import numpy as np
    from clusterlasso.data import ScenarioSpec, generate_scenario
    out = {}
    for key in json.loads(input()):
        sid, m, frac = key.split("/")
        p = generate_scenario(ScenarioSpec(int(sid), 2, 0, m_override=int(m),
                                           train_fraction=float(frac)))
        h = hashlib.sha256()
        for a in (p.data.A.raw, p.data.b, p.A_test, p.b_test, p.x_true):
            h.update(b"-" if a is None else
                     repr(a.shape).encode() + np.ascontiguousarray(a).tobytes())
        out[key] = h.hexdigest()[:16]
    print(json.dumps(out))
""")


class TestGeneratorDigests:
    def test_instances_are_bit_identical_to_the_record(self):
        # one BLAS thread: a threaded gemv splits rows differently, which
        # moves the last bits of A x_true and so of b
        src = str(Path(clusterlasso.__file__).resolve().parent.parent)
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   MKL_NUM_THREADS="1")
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")]))
        out = subprocess.run([sys.executable, "-c", _DIGEST_CODE], env=env,
                             input=json.dumps(list(_DIGESTS)),
                             capture_output=True, text=True, check=True)
        got = json.loads(out.stdout)
        assert {k: v for k, v in got.items() if v != _DIGESTS[k]} == {}


class TestGeneratorMemory:
    @pytest.mark.parametrize("sid, k", [(1, 10), (7, 2), (6, 5), (3, 4)],
                             ids=["ar1", "const", "altsign", "blocks"])
    def test_peak_is_near_the_returned_design(self, sid, k):
        # 20000 x 80 designs: the rows go straight into the train and test
        # blocks, so the peak is those blocks plus row-pass buffers and a
        # few m-vectors
        spec = ScenarioSpec(sid, k, 0, m_override=20000)
        tracemalloc.start()
        try:
            prob = generate_scenario(spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert prob.data.A.shape == (16000, 80)
        design = prob.data.A.raw.nbytes + prob.A_test.nbytes
        assert peak <= 1.25 * design, peak / design


class TestPenaltiesFromAlphas:
    def test_values(self):
        A = DesignMatrix(np.array([[2.0, 0.0], [0.0, 1.0]]))
        b = np.array([1.0, 1.0])
        data = ProblemData(A, b)
        pen = penalties_from_alphas(0.5, 0.25, data)
        # ||A^T b||_inf = 2
        assert pen.beta == pytest.approx(1.0)
        assert pen.rho == pytest.approx(0.25)

    def test_alpha_ranges(self):
        A = DesignMatrix(np.eye(2))
        data = ProblemData(A, np.ones(2))
        with pytest.raises(ValueError):
            penalties_from_alphas(0.0, 0.1, data)
        with pytest.raises(ValueError):
            penalties_from_alphas(1.0, 0.1, data)
        with pytest.raises(ValueError):
            penalties_from_alphas(0.5, -0.1, data)

    def test_zero_gradient_rejected(self):
        A = DesignMatrix(np.eye(2))
        data = ProblemData(A, np.zeros(2))
        with pytest.raises(ValueError):
            penalties_from_alphas(0.5, 0.1, data)
