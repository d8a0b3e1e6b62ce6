"""End-to-end tests of the command-line interface."""

import csv
import json
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from clusterlasso import first_order
from clusterlasso.cli import (SOLVERS, _run_solver, main, read_vector,
                              write_vector)
from clusterlasso.data import (ScenarioSpec, generate_scenario,
                               penalties_from_alphas, read_libsvm,
                               write_libsvm)
from clusterlasso.first_order import (FirstOrderConfig, d_admm_solve,
                                      p_admm_solve)
from clusterlasso.ssnal_dual import PHASE1_ITERS

README = Path(__file__).resolve().parents[1] / "README.md"


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVectorFormat:
    def test_round_trip(self, tmp_path):
        p = tmp_path / "v.bin"
        x = np.random.default_rng(0).normal(size=37)
        write_vector(p, x)
        np.testing.assert_array_equal(read_vector(p), x)

    def test_empty_vector(self, tmp_path):
        p = tmp_path / "e.bin"
        write_vector(p, np.zeros(0))
        assert read_vector(p).shape == (0,)

    def test_layout(self, tmp_path):
        # 8-byte little-endian length header then packed float64
        p = tmp_path / "l.bin"
        write_vector(p, np.array([1.0, -2.0]))
        raw = p.read_bytes()
        assert len(raw) == 8 + 16
        assert int.from_bytes(raw[:8], "little") == 2
        np.testing.assert_array_equal(
            np.frombuffer(raw[8:], dtype="<f8"), [1.0, -2.0])

    def test_truncated_payload_raises(self, tmp_path):
        # header declares 5 values, payload holds 3
        p = tmp_path / "t.bin"
        p.write_bytes(np.array([5], dtype="<u8").tobytes()
                      + np.arange(3.0).astype("<f8").tobytes())
        with pytest.raises(ValueError, match="declares 5"):
            read_vector(p)

    def test_trailing_bytes_raise(self, tmp_path):
        p = tmp_path / "x.bin"
        write_vector(p, np.array([1.0, -2.0]))
        with open(p, "ab") as fh:
            fh.write(b"\0")
        with pytest.raises(ValueError, match="declares 2"):
            read_vector(p)

    def test_missing_header_raises(self, tmp_path):
        p = tmp_path / "h.bin"
        p.write_bytes(b"\1\0\0")
        with pytest.raises(ValueError, match="header"):
            read_vector(p)


class TestSolve:
    def test_synthetic_scenario_to_stdout(self, capsys):
        # Full-scale end-to-end run; the pinned counts were produced by this
        # exact invocation and are bitwise reproducible from the seed.
        code, out, _ = _run(
            capsys, "solve", "--scenario", "1", "--k", "2", "--seed", "1",
            "--alpha1", "1e-3", "--alpha2", "1e-2", "--solver", "ssnal-p")
        assert code == 0
        rec = json.loads(out)
        assert rec["status"] == "converged"
        assert rec["solver"] == "ssnal-p"
        assert rec["m"] == 64000 and rec["n"] == 16
        assert rec["eta_kkt"] <= 1e-6
        assert rec["nnz"] == 7
        assert rec["gnnz"] == 4
        assert rec["form"] == "square_root"

    def test_out_files(self, capsys, tmp_path):
        out = tmp_path / "run.json"
        code, _, _ = _run(
            capsys, "solve", "--scenario", "1", "--k", "1", "--seed", "0",
            "--m-override", "100", "--alpha1", "1e-2", "--alpha2", "1e-2",
            "--out", str(out))
        assert code == 0
        rec = json.loads(out.read_text())
        x = read_vector(tmp_path / "run.x.bin")
        assert x.shape == (rec["n"],)

    def test_explicit_beta_rho(self, capsys, tmp_path):
        libsvm = tmp_path / "toy.libsvm"
        libsvm.write_text("1.0 1:1.0\n-1.0 2:1.0\n0.5 1:1.0 2:1.0\n")
        code, out, _ = _run(
            capsys, "solve", "--input", str(libsvm),
            "--beta", "100.0", "--rho", "0.0", "--solver", "ssnal-d")
        assert code == 0
        rec = json.loads(out)
        # beta dominates ||A^T b||_inf so the solution is exactly zero
        assert rec["nnz"] == 0
        assert rec["pobj"] == pytest.approx(
            0.5 * (1.0 + 1.0 + 0.25), rel=1e-12)

    @pytest.mark.parametrize("solver", ["apg", "admm-d"])
    def test_zero_design_solves_to_zero(self, capsys, tmp_path, solver):
        # four label-only rows: every feature of the design is zero
        libsvm = tmp_path / "zero.libsvm"
        libsvm.write_text("1.0\n-1.0\n0.5\n2.0\n")
        code, out, _ = _run(
            capsys, "solve", "--input", str(libsvm), "--n-features", "5",
            "--beta", "0.1", "--rho", "0.01", "--solver", solver)
        assert code == 0
        rec = json.loads(out)
        assert rec["status"] == "converged"
        assert rec["nnz"] == 0

    def test_each_named_solver_runs(self, capsys):
        for solver in ("ssnal-d", "ssnal-p", "admm-d", "admm-p", "apg"):
            code, out, _ = _run(
                capsys, "solve", "--scenario", "1", "--k", "1", "--seed", "0",
                "--m-override", "60", "--alpha1", "5e-2", "--alpha2", "1e-2",
                "--solver", solver, "--tol", "1e-6")
            assert code == 0, solver
            assert json.loads(out)["solver"] == solver

    def test_phase1_iters_reported(self, capsys):
        # the dual SSNAL's d-ADMM phase I iterations; 0 for the others
        want = {"ssnal-d": PHASE1_ITERS, "ssnal-p": 0, "admm-d": 0, "apg": 0}
        for solver, iters in want.items():
            code, out, _ = _run(
                capsys, "solve", "--scenario", "1", "--k", "1", "--seed", "0",
                "--m-override", "60", "--alpha1", "5e-2", "--alpha2", "1e-2",
                "--solver", solver)
            assert code == 0, solver
            assert json.loads(out)["phase1_iters"] == iters, solver

    def test_readme_lists_the_solver_names(self):
        # the backticked names of the README's "Solvers:" paragraph, less
        # the option names it mentions, are the CLI's solver names
        text = README.read_text(encoding="utf-8")
        para = re.search(r"^Solvers:(.*?)(?:\n\n|\Z)", text,
                         re.MULTILINE | re.DOTALL)
        assert para is not None
        named = [w for w in re.findall(r"`([^`]+)`", para.group(1))
                 if not w.startswith("-")]
        assert named == list(SOLVERS)

    def test_removed_solver_name_exits_2(self, capsys):
        # names of removed d-ADMM variants and of the shape rule that
        # picked an SSNAL
        for name in ("ladmm", "iadmm", "auto"):
            with pytest.raises(SystemExit) as exc:
                main(["solve", "--scenario", "1", "--alpha1", "0.1",
                      "--alpha2", "0.1", "--solver", name])
            assert exc.value.code == 2
            assert "invalid choice" in capsys.readouterr().err

    @pytest.mark.parametrize("solver", ["ssnal-d", "admm-d"])
    def test_nan_tol_exits_2(self, capsys, solver):
        code, out, err = _run(
            capsys, "solve", "--scenario", "1", "--k", "1", "--seed", "0",
            "--m-override", "60", "--alpha1", "5e-2", "--alpha2", "1e-2",
            "--solver", solver, "--tol", "nan", "--max-iters", "3")
        assert code == 2
        assert out == ""
        assert "tol" in err

    @pytest.mark.parametrize("command, flags", [
        ("solve", ["--alpha1", "5e-2", "--alpha2", "1e-2", "--solver"]),
        ("bench", ["--alphas", "5e-2:1e-2", "--solvers"])],
        ids=["solve", "bench"])
    def test_negative_max_time_exits_2(self, capsys, command, flags):
        # a budget that has run out before the solve is a bad argument
        for solver in SOLVERS:
            code, out, err = _run(
                capsys, command, "--scenario", "1", "--k", "1", "--seed",
                "0", "--m-override", "60", *flags, solver,
                "--max-time", "-1")
            assert code == 2, solver
            assert out == ""
            assert "max_time" in err

    def test_missing_penalties_exits_2(self, capsys):
        code, _, err = _run(capsys, "solve", "--scenario", "1")
        assert code == 2
        assert "penalty" in err

    def test_conflicting_penalties_exit_2(self, capsys):
        code, _, err = _run(
            capsys, "solve", "--scenario", "1", "--alpha1", "0.1",
            "--alpha2", "0.1", "--beta", "1.0")
        assert code == 2

    def test_rho_without_beta_exits_2(self, capsys):
        code, out, err = _run(
            capsys, "solve", "--scenario", "1", "--k", "1", "--seed", "1",
            "--m-override", "60", "--alpha1", "1e-3", "--alpha2", "1e-3",
            "--rho", "5")
        assert code == 2
        assert out == ""
        assert "--rho" in err and "--beta" in err

    @pytest.mark.parametrize("command", ["solve", "bench"])
    def test_input_with_scenario_exits_2(self, capsys, tmp_path, command):
        # --scenario and each flag that only describes a scenario instance
        libsvm = tmp_path / "toy.libsvm"
        libsvm.write_text("1.0 1:1.0\n-1.0 2:1.0\n0.5 1:1.0 2:1.0\n")
        for flags in (["--scenario", "7", "--k", "3"], ["--k", "3"],
                      ["--seed", "9"], ["--m-override", "50"]):
            argv = ["--input", str(libsvm), *flags]
            if command == "solve":
                argv += ["--alpha1", "1e-2", "--alpha2", "1e-2"]
            code, out, err = _run(capsys, command, *argv)
            assert code == 2, flags
            assert out == ""
            assert "--input" in err and flags[0] in err

    def test_n_features_keeps_trailing_zero_columns(self, capsys, tmp_path):
        libsvm = tmp_path / "toy.libsvm"
        libsvm.write_text("1.0 1:1.0\n-1.0 2:1.0\n0.5 1:1.0 2:1.0\n")
        argv = ["solve", "--input", str(libsvm), "--alpha1", "1e-2",
                "--alpha2", "1e-2", "--solver", "ssnal-d"]
        assert json.loads(_run(capsys, *argv)[1])["n"] == 2
        code, out, _ = _run(capsys, *argv, "--n-features", "4")
        assert code == 0
        assert json.loads(out)["n"] == 4
        code, out, err = _run(capsys, *argv, "--n-features", "1")
        assert code == 2
        assert "n_features" in err

    def test_n_features_with_scenario_exits_2(self, capsys):
        code, out, err = _run(
            capsys, "solve", "--scenario", "1", "--n-features", "8",
            "--alpha1", "1e-2", "--alpha2", "1e-2")
        assert code == 2
        assert "--n-features" in err

    def test_missing_problem_exits_2(self, capsys):
        code, _, err = _run(capsys, "solve", "--alpha1", "0.1",
                            "--alpha2", "0.1")
        assert code == 2
        assert "--input" in err or "--scenario" in err

    def test_missing_input_file_exits_2(self, capsys):
        code, _, err = _run(capsys, "solve", "--input", "/nonexistent.libsvm",
                            "--alpha1", "0.1", "--alpha2", "0.1")
        assert code == 2

    @pytest.mark.parametrize("solver", ["ssnal-d", "ssnal-p", "apg"])
    def test_zero_max_iters_exits_2(self, capsys, solver):
        code, out, err = _run(
            capsys, "solve", "--scenario", "1", "--k", "1", "--seed", "0",
            "--m-override", "60", "--alpha1", "5e-2", "--alpha2", "1e-2",
            "--solver", solver, "--max-iters", "0")
        assert code == 2
        assert out == ""
        assert "must be >= 1" in err

    def test_nonconverged_exits_1(self, capsys):
        code, out, _ = _run(
            capsys, "solve", "--scenario", "1", "--k", "1", "--seed", "0",
            "--m-override", "100", "--alpha1", "1e-3", "--alpha2", "1e-2",
            "--solver", "apg", "--max-iters", "3", "--tol", "1e-12")
        assert code == 1
        assert json.loads(out)["status"] == "max_iters"


class TestFirstOrderSchedule:
    # both factor (exact solves): min(m, n) is below DENSE_CAP
    @pytest.mark.parametrize("name, runner", [
        pytest.param("admm-d", d_admm_solve, id="admm-d-d_admm_solve-exact"),
        pytest.param("admm-p", p_admm_solve, id="admm-p-p_admm_solve-exact")])
    def test_admm_solvers_balance_sigma(self, name, runner):
        # the CLI's ADMMs run the adaptive sigma schedule the benchmark runs
        data = generate_scenario(ScenarioSpec(7, 2, 1, m_override=400)).data
        data = data.with_penalties(penalties_from_alphas(1e-3, 1e-3, data))
        cli_sol = _run_solver(name, data, 1e-5, 60.0, None)
        sol = runner(data, FirstOrderConfig(
            tol=1e-5, max_time=60.0, adaptive_sigma=True))
        assert cli_sol.status == sol.status == "converged"
        assert cli_sol.outer_iters == sol.outer_iters


class TestBench:
    def test_csv_rows(self, capsys, tmp_path):
        out = tmp_path / "bench.csv"
        code, _, _ = _run(
            capsys, "bench", "--scenario", "1", "--k", "1", "--seed", "0",
            "--m-override", "80", "--solvers", "ssnal-d,ssnal-p,admm-p",
            "--alphas", "1e-2:1e-2,5e-2:1e-3", "--out", str(out))
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 6  # 3 solvers x 2 alpha pairs
        assert {r["solver"] for r in rows} == {"ssnal-d", "ssnal-p", "admm-p"}
        ref_rows = [r for r in rows if r["solver"] == "ssnal-d"]
        assert all(float(r["eta_rel"]) == 0.0 for r in ref_rows)
        base_rows = [r for r in rows if r["solver"] == "admm-p"]
        assert all(abs(float(r["eta_rel"])) <= 1e-4 for r in base_rows)
        # the SSNAL rows name the problem they solved; 64 x 8 is tall
        assert {r["solver"]: r["form"] for r in rows} == {
            "ssnal-d": "square_root", "ssnal-p": "square_root", "admm-p": ""}

    def test_rel_tol_zero_reaches_the_baseline(self, capsys, monkeypatch):
        # --rel-tol is the baselines' tol against ref_pobj, 0 included
        seen = []
        apg = first_order.apg_solve

        def record(data, cfg):
            seen.append(cfg)
            return apg(data, replace(cfg, max_iters=5))

        monkeypatch.setattr(first_order, "apg_solve", record)
        _run(capsys, "bench", "--scenario", "1", "--k", "1", "--seed", "0",
             "--m-override", "60", "--solvers", "apg", "--rel-tol", "0",
             "--alphas", "1e-2:1e-2")
        assert len(seen) == 1
        assert seen[0].tol == 0.0 and seen[0].ref_pobj is not None

    def test_stdout_default(self, capsys):
        code, out, _ = _run(
            capsys, "bench", "--scenario", "1", "--k", "1", "--seed", "0",
            "--m-override", "60", "--solvers", "ssnal-d",
            "--alphas", "1e-2:1e-2")
        assert code == 0
        header = out.splitlines()[0]
        assert header.startswith("solver,instance,m,n")

    def test_bad_solver_name_exits_2(self, capsys):
        code, _, err = _run(
            capsys, "bench", "--scenario", "1", "--solvers", "sgd",
            "--alphas", "1e-2:1e-2")
        assert code == 2

    def test_bad_rel_tol_exits_2(self, capsys):
        # a negative tolerance is refused before any solve runs
        code, out, err = _run(
            capsys, "bench", "--scenario", "1", "--k", "1", "--seed", "0",
            "--m-override", "60", "--solvers", "admm-p", "--rel-tol", "-1",
            "--alphas", "1e-2:1e-2")
        assert code == 2
        assert out == ""
        assert "tol" in err

    def test_zero_tol_with_an_ssnal_exits_2(self, capsys):
        # the SSNALs need tol > 0; the reference ssnal-d runs on --tol
        code, out, err = _run(
            capsys, "bench", "--scenario", "1", "--k", "1", "--seed", "0",
            "--m-override", "60", "--solvers", "ssnal-p", "--tol", "0",
            "--alphas", "1e-2:1e-2")
        assert code == 2
        assert out == ""
        assert "tol must be positive" in err

    def test_bad_alphas_exit_2(self, capsys):
        code, _, err = _run(
            capsys, "bench", "--scenario", "1", "--solvers", "ssnal-d",
            "--alphas", "banana")
        assert code == 2


class TestGen:
    def test_writes_data_and_sidecar(self, capsys, tmp_path):
        prefix = str(tmp_path / "out")
        code, out, _ = _run(
            capsys, "gen", "--scenario", "2", "--k", "1", "--seed", "5",
            "--m-override", "50", "--out-prefix", prefix)
        assert code == 0
        A, b = read_libsvm(prefix + ".libsvm")
        meta = json.loads((tmp_path / "out.json").read_text())
        assert A.shape == (50, meta["n"])
        assert meta["m_total"] == 50
        assert meta["m_train"] == 40
        assert meta["scenario"] == 2 and meta["seed"] == 5
        assert len(meta["x_true"]) == meta["n"]

    def test_deterministic(self, capsys, tmp_path):
        p1 = str(tmp_path / "a")
        p2 = str(tmp_path / "b")
        for p in (p1, p2):
            _run(capsys, "gen", "--scenario", "1", "--k", "1", "--seed", "3",
                 "--m-override", "30", "--out-prefix", p)
        assert (tmp_path / "a.libsvm").read_text() == \
            (tmp_path / "b.libsvm").read_text()

    def test_generated_file_round_trips_losslessly(self, capsys, tmp_path):
        from clusterlasso.data import ScenarioSpec, generate_scenario

        prefix = str(tmp_path / "g")
        _run(capsys, "gen", "--scenario", "4", "--k", "1", "--seed", "2",
             "--m-override", "40", "--out-prefix", prefix)
        A, b = read_libsvm(prefix + ".libsvm")
        prob = generate_scenario(ScenarioSpec(4, 1, 2, m_override=40))
        full = np.vstack([prob.data.A.toarray(), prob.A_test])
        np.testing.assert_array_equal(A.toarray(), full)

    def test_missing_prefix_exits_nonzero(self, capsys):
        with pytest.raises(SystemExit):
            main(["gen", "--scenario", "1"])


class TestDefaultSolver:
    @pytest.mark.parametrize("m", [5, 60], ids=["wide", "tall"])
    def test_solve_runs_the_dual(self, capsys, tmp_path, m):
        # the dual SSNAL, whatever the shape: it was faster than the
        # primal on every design family measured
        libsvm = tmp_path / "design.libsvm"
        rng = np.random.default_rng(0)
        write_libsvm(libsvm, rng.normal(size=(m, 9)), rng.normal(size=m))
        code, out, _ = _run(
            capsys, "solve", "--input", str(libsvm), "--alpha1", "0.5",
            "--alpha2", "0.1")
        assert code == 0
        assert json.loads(out)["solver"] == "ssnal-d"


# the first instance of each seed-1 benchmark pool: (scenario, k, m_override,
# seed), the seed being np.random.SeedSequence(1).generate_state(1)[0]
POOL_SPECS = {"tall": (1, 10, 20000, 1835504127),
              "wide": (7, 20, 200, 1835504127)}


@pytest.fixture(scope="class")
def written_pools(tmp_path_factory):
    """Each pool instance's training (A, b) written to a LIBSVM file,
    with its in-memory problem."""
    out = {}
    for name, spec in POOL_SPECS.items():
        data = generate_scenario(ScenarioSpec(*spec[:2], spec[3],
                                              m_override=spec[2])).data
        path = tmp_path_factory.mktemp(name) / f"{name}.libsvm"
        write_libsvm(path, data.A, data.b)
        out[name] = path, data
    return out


class TestInputRoundTrip:
    @pytest.mark.parametrize("pool, solver", [
        ("tall", "ssnal-d"), ("tall", "ssnal-p"), ("wide", "ssnal-d")])
    def test_solve_input_repeats_the_in_memory_solve(
            self, capsys, tmp_path, written_pools, pool, solver):
        # the file is read into the same dense design, so a solve from it
        # gives the in-memory solve's bytes and counts
        path, data = written_pools[pool]
        out = tmp_path / "run.json"
        code, _, _ = _run(capsys, "solve", "--input", str(path),
                          "--n-features", str(data.n), "--alpha1", "1e-3",
                          "--alpha2", "1e-3", "--solver", solver,
                          "--out", str(out))
        assert code == 0
        data = data.with_penalties(penalties_from_alphas(1e-3, 1e-3, data))
        want = _run_solver(solver, data, 1e-6, 10800.0, None)
        rec = json.loads(out.read_text())
        assert read_vector(tmp_path / "run.x.bin").tobytes() == \
            want.x.tobytes()
        assert (rec["iterations"], rec["newton_iters"]) == \
            (want.outer_iters, want.total_newton_iters)
