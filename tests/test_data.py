"""Tests for LIBSVM IO and the synthetic scenario generator."""

import numpy as np
import pytest
import scipy.sparse as sp

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
