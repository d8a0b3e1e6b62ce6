"""End-to-end acceptance suite.

Twelve numbered criteria, one test each.  Every test prints a single
PASS/FAIL verdict line carrying the measured quantities and then asserts on
those same numbers, so a verbose run doubles as a release checklist.  The
expensive sweep (seven synthetic scenarios, three seeds, both Newton
solvers) is shared across the convergence, cross-solver and superlinearity
checks through module-scoped fixtures.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from clusterlasso.common import CONVERGED, SolverConfig
from clusterlasso.data import (
    ScenarioSpec,
    generate_scenario,
    penalties_from_alphas,
)
from clusterlasso.first_order import (
    FirstOrderConfig,
    apg_solve,
    d_admm_solve,
    p_admm_solve,
)
from clusterlasso.jacobian import build_jacobian, design_factors
from clusterlasso.linalg import DesignMatrix
from clusterlasso.metrics import eta_rel, gnnz
from clusterlasso.problem import ProblemData
from clusterlasso.prox import (
    Penalties,
    ordered_weights,
    project_nonincreasing,
    prox_clustered,
    prox_conjugate,
    prox_pairwise,
)
from clusterlasso.ssnal_dual import solve as dual_solve
from clusterlasso.ssnal_primal import solve_primal
from oracles import (
    dense_jacobian_oracle,
    dense_matrix_from_apply,
    isotone_qp_oracle,
    pairwise_penalty,
    prox_oracle,
)

SCENARIO_IDS = tuple(range(1, 8))
SEEDS = (1, 2, 3)
GRID_K = 10
GRID_M_OVERRIDE = 2000
GRID_ALPHAS = (1e-3, 1e-3)


def _verdict(num, label, ok, detail):
    print(f"[criterion {num:02d}] {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num:02d} {label}: {detail}"


def _grid_instance(scenario_id, seed):
    prob = generate_scenario(
        ScenarioSpec(scenario_id, GRID_K, seed, m_override=GRID_M_OVERRIDE))
    pen = penalties_from_alphas(*GRID_ALPHAS, prob.data)
    return replace(prob.data, penalties=pen)


@pytest.fixture(scope="module")
def newton_grid():
    """(scenario, seed) -> (data, dual solution, primal solution) + wall time."""
    runs = {}
    t0 = time.perf_counter()
    for sid in SCENARIO_IDS:
        for seed in SEEDS:
            data = _grid_instance(sid, seed)
            runs[(sid, seed)] = (data, dual_solve(data), solve_primal(data))
    return runs, time.perf_counter() - t0


@pytest.fixture(scope="module")
def admm_grid(newton_grid):
    """(scenario, seed, variant) -> ADMM run stopped on the relative gap."""
    runs, _ = newton_grid
    out = {}
    for (sid, seed), (data, _, sol_p) in runs.items():
        cfg = FirstOrderConfig(tol=1e-4, ref_pobj=sol_p.pobj,
                               max_iters=20000, adaptive_sigma=True,
                               check_every=10)
        out[(sid, seed, "p-admm")] = p_admm_solve(data, cfg)
        out[(sid, seed, "d-admm")] = d_admm_solve(data, cfg)
    return out


def _prox_objective(x, y, beta, rho):
    return 0.5 * float(np.sum((x - y) ** 2)) + pairwise_penalty(x, beta, rho)


def _generic_point(rng, margin=1e-6):
    """Rejection-sample (y, penalties) with strict-complementarity margins.

    Sorted-input gaps, isotone block separations, active-constraint
    multipliers and the soft-threshold boundary all clear `margin`, so the
    prox is affine on a neighborhood wider than the probe step.
    """
    while True:
        n = int(rng.integers(2, 11))
        y = rng.normal(size=n) * 2.0
        beta = float(rng.uniform(0.1, 1.2))
        rho = float(rng.uniform(0.02, 0.4))
        ys = np.sort(y)[::-1]
        if n > 1 and float(np.min(-np.diff(ys))) <= margin:
            continue
        shifted = ys - rho * ordered_weights(n)
        proj, part = project_nonincreasing(shifted)
        lam = -np.cumsum(proj - shifted)[:-1]
        gaps = -np.diff(proj)
        if not np.all((gaps > margin) | (lam < -margin)):
            continue
        if float(np.min(np.abs(np.abs(part.value) - beta))) <= margin:
            continue
        return y, Penalties(beta, rho)


def _final_residual_pair(sol):
    """Last two inner-Newton gradient norms of the run."""
    for res in reversed(sol.newton_residuals):
        if len(res) >= 2:
            return res[-2], res[-1]
    return None


class TestAcceptance:
    def test_criterion_01_prox_matches_first_order_oracle(self):
        """200 small instances: objective within 1e-6 and argument within 1e-4 of an ADMM oracle."""
        rng = np.random.default_rng(10)
        t0 = time.perf_counter()
        max_dobj = 0.0
        max_darg = 0.0
        for _ in range(200):
            n = int(rng.integers(2, 9))
            y = rng.normal(size=n) * float(rng.uniform(0.5, 3.0))
            beta = float(rng.uniform(0.0, 1.5))
            rho = float(rng.uniform(0.0, 0.8))
            x_lib = prox_clustered(y, Penalties(beta, rho)).prox
            x_orc = prox_oracle(y, beta, rho)
            max_dobj = max(max_dobj, abs(_prox_objective(x_lib, y, beta, rho)
                                         - _prox_objective(x_orc, y, beta, rho)))
            max_darg = max(max_darg, float(np.linalg.norm(x_lib - x_orc)))
        wall = time.perf_counter() - t0
        ok = max_dobj <= 1e-6 and max_darg <= 1e-4 and wall < 60.0
        _verdict(1, "prox vs first-order oracle", ok,
                 f"max obj diff {max_dobj:.2e}, max arg diff {max_darg:.2e}, "
                 f"{wall:.1f} s")

    def test_criterion_02_isotone_projection_matches_qp_oracle(self):
        """200 projections, n <= 10, match the active-set QP oracle to 1e-9."""
        rng = np.random.default_rng(11)
        worst = 0.0
        for i in range(200):
            n = int(rng.integers(1, 11))
            v = rng.normal(size=n) * float(rng.uniform(0.5, 4.0))
            if i % 4 == 0:
                v = np.round(v)  # exact ties exercise the pooled KKT branch
            proj, _ = project_nonincreasing(v)
            worst = max(worst, float(np.max(np.abs(proj - isotone_qp_oracle(v)))))
        ok = worst <= 1e-9
        _verdict(2, "isotone projection vs QP oracle", ok,
                 f"max abs diff {worst:.2e}")

    def test_criterion_03_prox_scales_like_n_log_n(self):
        """time(prox, 1e6) / time(prox, 1e5) <= 15."""
        rng = np.random.default_rng(12)
        pen = Penalties(0.1, 1e-6)
        t0 = time.perf_counter()

        def best_time(n, reps):
            y = rng.normal(size=n)
            best = float("inf")
            for _ in range(reps):
                t = time.perf_counter()
                prox_clustered(y, pen)
                best = min(best, time.perf_counter() - t)
            return best

        t_small = best_time(10 ** 5, 5)
        t_big = best_time(10 ** 6, 3)
        ratio = t_big / t_small
        wall = time.perf_counter() - t0
        ok = ratio <= 15.0 and wall < 30.0
        _verdict(3, "prox cost ratio 1e6/1e5", ok,
                 f"ratio {ratio:.1f} ({t_small * 1e3:.1f} ms -> "
                 f"{t_big * 1e3:.1f} ms), {wall:.1f} s")

    def test_criterion_04_jacobian_is_exact_directional_derivative(self):
        """100 generic points: prox(y+hd) - prox(y) - h M d vanishes to 1e-12(1+||y||)."""
        rng = np.random.default_rng(13)
        h = 1e-7
        worst = 0.0
        for _ in range(100):
            y, pen = _generic_point(rng)
            pr = prox_clustered(y, pen)
            jac = build_jacobian(pr, pen)
            d = rng.normal(size=y.size)
            d /= np.linalg.norm(d)
            err = np.linalg.norm(prox_clustered(y + h * d, pen).prox
                                 - pr.prox - h * jac.apply(d))
            worst = max(worst, float(err) / (1.0 + float(np.linalg.norm(y))))
        ok = worst <= 1e-12
        _verdict(4, "Jacobian affine exactness", ok,
                 f"max scaled residual {worst:.2e}")

    def test_criterion_05_jacobian_and_complement_are_psd_contractions(self):
        """Eigenvalues of dense M and I - M stay in [-1e-10, 1+1e-10], ties forced."""
        rng = np.random.default_rng(14)
        lo, hi, worst_asym = 0.0, 1.0, 0.0
        for i in range(100):
            n = int(rng.integers(2, 11))
            y = rng.normal(size=n) * 2.0
            if i % 3 == 0:
                y[int(rng.integers(1, n))] = y[0]  # exact tie in the input
            beta = float(rng.uniform(0.05, 1.0))
            rho = float(rng.uniform(0.0, 0.5))
            if i % 5 == 0:
                s, _, part = prox_pairwise(y, rho)
                vals = np.abs(part.value) if part is not None else np.abs(s)
                vals = vals[vals > 1e-8]
                if vals.size:
                    # land the soft threshold exactly on a block value
                    beta = float(vals[int(rng.integers(vals.size))])
            pen = Penalties(beta, rho)
            jac = build_jacobian(prox_clustered(y, pen), pen)
            M = dense_matrix_from_apply(jac.apply, n)
            worst_asym = max(worst_asym, float(np.max(np.abs(M - M.T))))
            sym = 0.5 * (M + M.T)
            w = np.concatenate([np.linalg.eigvalsh(sym),
                                np.linalg.eigvalsh(np.eye(n) - sym)])
            lo = min(lo, float(w.min()))
            hi = max(hi, float(w.max()))
        ok = lo >= -1e-10 and hi <= 1.0 + 1e-10 and worst_asym <= 1e-12
        _verdict(5, "M and I-M spectra in [0, 1]", ok,
                 f"eig range [{lo:.1e}, {hi:.10f}], asymmetry {worst_asym:.1e}")

    def test_criterion_06_structured_factors_match_dense_congruence(self):
        """W W^T, with W = AP the thin factor, equals A M A^T from the dense oracle."""
        rng = np.random.default_rng(15)
        worst = 0.0
        bad_shapes = 0
        for _ in range(50):
            m = int(rng.integers(2, 16))
            n = int(rng.integers(2, 16))
            A = rng.normal(size=(m, n))
            y = rng.normal(size=n) * 2.0
            beta = float(rng.uniform(0.05, 1.0))
            rho = float(rng.uniform(0.01, 0.5))
            pen = Penalties(beta, rho)
            jac = build_jacobian(prox_clustered(y, pen), pen)
            W = design_factors(jac, DesignMatrix(A))
            bad_shapes += W.shape != (m, jac.free_idx.shape[0] + jac.npools)
            lhs = W @ W.T
            rhs = A @ dense_jacobian_oracle(y, beta, rho) @ A.T
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
        ok = worst <= 1e-9 and bad_shapes == 0
        _verdict(6, "structured factor vs dense A M A^T", ok,
                 f"max abs diff {worst:.2e}, {bad_shapes} of 50 factors "
                 "not m x (|free| + pools)")

    def test_criterion_07_newton_solvers_converge_on_scenario_grid(self, newton_grid):
        """Both Newton solvers reach max eta <= 1e-6 within 100 outers on all 21 instances."""
        runs, wall = newton_grid
        worst_eta = 0.0
        worst_outer = 0
        failures = []
        for (sid, seed), (_, sol_d, sol_p) in sorted(runs.items()):
            for name, sol in (("d", sol_d), ("p", sol_p)):
                worst_eta = max(worst_eta, sol.max_eta)
                worst_outer = max(worst_outer, sol.outer_iters)
                if not (sol.status == CONVERGED and sol.max_eta <= 1e-6
                        and sol.outer_iters <= 100):
                    failures.append(f"s{sid}.{seed}{name}")
        ok = not failures and wall < 300.0
        _verdict(7, "SSNAL convergence on the scenario grid", ok,
                 f"42 runs, worst eta {worst_eta:.2e}, worst outers "
                 f"{worst_outer}, {wall:.1f} s" +
                 (f", failed: {failures}" if failures else ""))

    def test_criterion_08_admm_baselines_agree_with_newton_objective(
            self, newton_grid, admm_grid):
        """Both ADMMs hit eta_rel <= 1e-4 in <= 20000 iterations; all objectives agree pairwise."""
        runs, _ = newton_grid
        worst_ref = 0.0
        worst_pair = 0.0
        failures = []
        for (sid, seed), (_, sol_d, sol_p) in sorted(runs.items()):
            admm_p = admm_grid[(sid, seed, "p-admm")]
            admm_d = admm_grid[(sid, seed, "d-admm")]
            for name, sol in (("p-admm", admm_p), ("d-admm", admm_d)):
                worst_ref = max(worst_ref, abs(eta_rel(sol.pobj, sol_p.pobj)))
                if not (sol.status == CONVERGED and sol.outer_iters <= 20000):
                    failures.append(f"s{sid}.{seed} {name}")
            objs = [sol_d.pobj, sol_p.pobj, admm_p.pobj, admm_d.pobj]
            for a in objs:
                for b in objs:
                    worst_pair = max(worst_pair, abs(eta_rel(a, b)))
        iters = {name: [sol.outer_iters for key, sol in admm_grid.items()
                        if key[2] == name] for name in ("d-admm", "p-admm")}
        ok = not failures and worst_ref <= 1e-4 and worst_pair <= 1e-4
        _verdict(8, "ADMM agreement with SSNAL", ok,
                 f"worst eta_rel vs reference {worst_ref:.2e}, worst pairwise "
                 f"{worst_pair:.2e}, iterations " +
                 ", ".join(f"{name} {sum(its)} (worst {max(its)})"
                           for name, its in iters.items()) +
                 (f", failed: {failures}" if failures else ""))

    def test_criterion_09_inner_newton_tail_is_superlinear(self, newton_grid):
        """On >= 80% of grid runs the final residual pair obeys g_+ <= g^1.2 once g <= 1e-3."""
        runs, _ = newton_grid
        satisfied = 0
        total = 0
        for (_, _), (_, sol_d, sol_p) in sorted(runs.items()):
            for sol in (sol_d, sol_p):
                total += 1
                pair = _final_residual_pair(sol)
                if pair is None or pair[0] > 1e-3:
                    satisfied += 1  # rule only binds once the residual is small
                elif pair[1] <= pair[0] ** 1.2:
                    satisfied += 1
        frac = satisfied / total
        ok = frac >= 0.80
        _verdict(9, "inner Newton superlinear tail", ok,
                 f"{satisfied}/{total} runs = {100 * frac:.0f}%")

    def test_criterion_10_scenario_one_recovers_three_groups(self):
        """Scenario 1 at alpha1=1e-3, alpha2=1/n recovers gnnz=3 with values {3, 1.5, 2}."""
        prob = generate_scenario(ScenarioSpec(1, GRID_K, 1,
                                              m_override=GRID_M_OVERRIDE))
        n = prob.data.A.n
        pen = penalties_from_alphas(1e-3, 1.0 / n, prob.data)
        sol = solve_primal(replace(prob.data, penalties=pen))
        assert sol.status == CONVERGED
        x = sol.x
        groups = {3.0: x[0:10], 1.5: x[10:20], 2.0: x[50:60]}
        off_max = float(np.max(np.abs(np.r_[x[20:50], x[60:]])))
        means = {v: float(np.mean(seg)) for v, seg in groups.items()}
        # The qualitative claim holds: each true group's recovered mean sits
        # inside the 5/6..6/5 grouping band of its value and dominates
        # everything off the true support.
        assert all(5.0 / 6.0 <= means[v] / v <= 6.0 / 5.0 for v in groups)
        assert off_max < min(means.values())
        g = gnnz(x)
        ok = g == 3 and off_max < 1e-4
        _verdict(10, "scenario 1 group structure", ok,
                 f"gnnz {g} (want 3), group means "
                 f"{[round(means[v], 3) for v in (3.0, 1.5, 2.0)]}, "
                 f"max off-support |x| {off_max:.3f} (want < 1e-4)")

    def test_criterion_11_moreau_identity_holds(self):
        """1000 draws: prox_tp(y) + t prox_conj(y/t) - y vanishes to 1e-12(1+||y||)."""
        rng = np.random.default_rng(16)
        worst = 0.0
        for _ in range(1000):
            n = int(rng.integers(1, 21))
            y = rng.normal(size=n) * float(rng.uniform(0.3, 5.0))
            t = float(10.0 ** rng.uniform(-2, 1))
            pen = Penalties(float(rng.uniform(0.0, 2.0)),
                            float(rng.uniform(0.0, 0.5)))
            prox_tp = prox_clustered(
                y, Penalties(t * pen.beta, t * pen.rho)).prox
            err = np.linalg.norm(prox_tp + t * prox_conjugate(y / t, t, pen)
                                 - y)
            worst = max(worst, float(err) / (1.0 + float(np.linalg.norm(y))))
        ok = worst <= 1e-12
        _verdict(11, "Moreau identity", ok, f"max scaled residual {worst:.2e}")

    def test_criterion_12_apg_objective_meets_worst_case_envelope(self):
        """APG gap at k in {10, 100, 1000} stays under 2L||x*||^2/(k+1)^2 with 10% slack."""
        rng = np.random.default_rng(7)
        A = rng.normal(size=(100, 50))
        b = rng.normal(size=100)
        scale = float(np.max(np.abs(A.T @ b)))
        data = ProblemData(DesignMatrix(A), b,
                           Penalties(0.1 * scale, 0.01 * scale))
        ref = solve_primal(data, SolverConfig(tol=1e-10))
        assert ref.status == CONVERGED
        lip = float(np.linalg.eigvalsh(A.T @ A)[-1])
        dist2 = float(ref.x @ ref.x)  # APG starts from the origin
        worst = -np.inf
        for k in (10, 100, 1000):
            # a run capped at k steps ends at the k-th iterate
            sol = apg_solve(data, FirstOrderConfig(max_iters=k,
                                                   check_every=10 ** 6),
                            lipschitz=lip)
            envelope = 2.0 * lip * dist2 / (k + 1) ** 2
            worst = max(worst, (sol.pobj - ref.pobj) / envelope)
        ok = worst <= 1.1
        _verdict(12, "APG worst-case envelope", ok,
                 f"max gap/envelope ratio {worst:.2e} (allowed 1.1)")
