"""Workloads, solver runs and answer checks for the solver benchmark.

Every workload draws a pool of synthetic instances from the run's seed,
solves each instance with each of its solvers in turn (a closed loop: one
solve at a time in one process), checks every answer, and keeps the wall
time of the solves that converged and passed.  A solve that raises, stops
without converging, or fails a check is counted as failed and its time is
never used.
"""

import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
if not (SRC / "clusterlasso" / "__init__.py").is_file():
    raise ImportError(f"clusterlasso sources not found under {SRC}")
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import clusterlasso  # noqa: E402
from clusterlasso import (data, first_order, linalg, metrics, prox,  # noqa: E402
                          ssnal_dual, ssnal_primal)
from clusterlasso.common import CONVERGED, SolverConfig  # noqa: E402

if not Path(clusterlasso.__file__).resolve().is_relative_to(SRC):
    raise ImportError(f"clusterlasso imported from {clusterlasso.__file__}, "
                      f"not from {SRC}")

PACKAGES = {"data": data, "first_order": first_order, "linalg": linalg,
            "metrics": metrics, "prox": prox, "ssnal_dual": ssnal_dual,
            "ssnal_primal": ssnal_primal}

# beta = ALPHAS[0] * ||A^T b||_inf, rho = ALPHAS[1] * beta
ALPHAS = (1e-3, 1e-3)
NEWTON_TOL = 1e-6
FIRST_ORDER_TOL = 1e-5
# Guard so that one pathological solve cannot push a run past its time
# limit; a solve that reaches it ends with status max_time and is counted
# as failed.
MAX_SOLVE_S = 30.0
# eta_kkt <= tol bounds the natural-map residual, not the objective, so a
# solve without a duality-gap certificate (p-ADMM reports pobj at its x
# iterate: 1.2e-4 relative above APG and d-ADMM at tol 1e-5) is only held
# to this relative excess over the certified objective.
UNCERTIFIED_EXCESS = 1e-3

NEWTON_CFG = SolverConfig(tol=NEWTON_TOL, max_time=MAX_SOLVE_S)


def _fo_cfg(adaptive):
    return first_order.FirstOrderConfig(
        tol=FIRST_ORDER_TOL, check_every=10, adaptive_sigma=adaptive,
        max_time=MAX_SOLVE_S)


SOLVERS = {
    "ssnal_d": (lambda d: ssnal_dual.solve(d, NEWTON_CFG), NEWTON_TOL),
    "ssnal_p": (lambda d: ssnal_primal.solve_primal(d, NEWTON_CFG),
                NEWTON_TOL),
    "apg": (lambda d: first_order.apg_solve(d, _fo_cfg(False)),
            FIRST_ORDER_TOL),
    "admm_p": (lambda d: first_order.p_admm_solve(d, _fo_cfg(True)),
               FIRST_ORDER_TOL),
    "admm_d": (lambda d: first_order.d_admm_solve(d, _fo_cfg(True)),
               FIRST_ORDER_TOL),
}
NEWTON_SOLVERS = ("ssnal_d", "ssnal_p")


@dataclass(frozen=True)
class Workload:
    """One instance family and the solvers run on it.

    m is the total row count before the 80/20 train split (the solvers see
    the training rows).  timed lists the solvers whose medians make up
    solve_s; a solver outside it is still run, checked and counted.  pool
    is the number of instances set up per run: enough that a run rarely
    solves one twice, and many set-ups for a steady setup_s median.
    """

    name: str
    scenario: int
    k: int
    m: int
    solvers: tuple
    timed: tuple
    pool: int


# The reason for each workload is recorded in BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in (
    Workload(
        "tall", scenario=1, k=10, m=20000, solvers=NEWTON_SOLVERS,
        timed=NEWTON_SOLVERS, pool=10),
    Workload(
        "wide", scenario=7, k=20, m=200, solvers=NEWTON_SOLVERS,
        timed=("ssnal_d",), pool=12),
    Workload(
        "first_order", scenario=7, k=5, m=1000,
        solvers=("apg", "admm_p", "admm_d"),
        timed=("apg", "admm_p", "admm_d"), pool=12),
)}


@dataclass
class Instance:
    seed: int
    data: object
    setup_s: float


def instance_seeds(seed, count):
    """Per-instance generator seeds, all derived from the run seed."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def make_instance(wl, inst_seed):
    """Generate one instance and derive its penalties; times both."""
    t0 = time.perf_counter()
    spec = data.ScenarioSpec(wl.scenario, wl.k, inst_seed, m_override=wl.m)
    problem = data.generate_scenario(spec).data
    pen = data.penalties_from_alphas(ALPHAS[0], ALPHAS[1], problem)
    problem = problem.with_penalties(pen)
    return Instance(inst_seed, problem, time.perf_counter() - t0)


@dataclass
class Outcome:
    solver: str
    seconds: float
    sol: object = None
    error: str = ""
    check: str = ""

    @property
    def ok(self):
        return not self.error and not self.check


def solve(solver, inst, call=None):
    """Run one solver on one instance; exceptions become failed outcomes.

    call(fn, data) runs the solve (the tracer passes its root-span runner);
    by default fn(data) is called directly.
    """
    fn, _ = SOLVERS[solver]
    t0 = time.perf_counter()
    try:
        sol = call(fn, inst.data) if call else fn(inst.data)
    except Exception as exc:  # counted as a failed solve, run goes on
        seconds = time.perf_counter() - t0
        print(f"solve failed: {solver} on instance {inst.seed}: "
              f"{type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc(limit=2, file=sys.stderr)
        return Outcome(solver, seconds, error=type(exc).__name__)
    seconds = time.perf_counter() - t0
    if sol.status != CONVERGED:
        return Outcome(solver, seconds, sol, error=f"status {sol.status}")
    return Outcome(solver, seconds, sol)


def check_round(inst, outcomes):
    """Check every converged solve of one instance; marks failures in place.

    1. Each solve meets its own stopping rule, recomputed from the returned
       iterates: max(eta_gap, eta_d, eta_kkt) <= tol for the Newton
       solvers, eta_kkt <= tol for the first-order ones.
    2. A solve whose returned pair meets the gap and dual-feasibility
       tolerance certifies its objective to within its duality gap.  Two
       certified solves must agree on pobj within the sum of their gaps.
    3. A solve with no certificate may not sit below a certified
       objective by more than that solve's gap, nor above it by more than
       UNCERTIFIED_EXCESS relative.
    """
    gaps = {}
    for o in outcomes:
        if not o.ok:
            continue
        _, tol = SOLVERS[o.solver]
        pobj, dobj, e_gap, e_d = metrics.duality_metrics(
            o.sol.x, o.sol.xi, o.sol.u, inst.data)
        kkt = metrics.eta_kkt(o.sol.x, inst.data)
        own = max(kkt, e_gap, e_d) if o.solver in NEWTON_SOLVERS else kkt
        if not own <= tol:
            o.check = f"stopping rule: {own:.3e} > {tol:.0e}"
        elif max(e_gap, e_d) <= tol:
            gaps[id(o)] = e_gap * (1.0 + abs(pobj) + abs(dobj))
    done = [o for o in outcomes if o.ok]
    for a in done:
        ga = gaps.get(id(a))
        for b in done:
            if a is b or ga is None:
                continue
            diff = b.sol.pobj - a.sol.pobj
            gb = gaps.get(id(b))
            if gb is not None:
                bad = abs(diff) > ga + gb
            else:
                bad = (diff < -ga
                       or diff > UNCERTIFIED_EXCESS * (1.0 + abs(a.sol.pobj)))
            if bad:
                b.check = (f"pobj {b.sol.pobj!r} vs {a.solver} "
                           f"{a.sol.pobj!r}")
    for o in outcomes:
        if o.check:
            print(f"check failed: {o.solver} on instance {inst.seed}: "
                  f"{o.check}", file=sys.stderr)


class Tally:
    """Attempted/failed counts, failed checks and successful solve times."""

    def __init__(self, solvers):
        self.times = {s: [] for s in solvers}
        self.attempted = {s: 0 for s in solvers}
        self.failed = {s: 0 for s in solvers}
        self.bad_checks = 0

    def add(self, outcomes):
        for o in outcomes:
            self.attempted[o.solver] += 1
            if o.ok:
                self.times[o.solver].append(o.seconds)
            else:
                self.failed[o.solver] += 1
                self.bad_checks += bool(o.check)

    @property
    def total_attempted(self):
        return sum(self.attempted.values())

    @property
    def total_failed(self):
        return sum(self.failed.values())

    def summary_lines(self):
        for s, ts in self.times.items():
            med = f"{statistics.median(ts):.4f} s" if ts else "missing"
            yield (f"{s}: median {med} over {len(ts)} ok of "
                   f"{self.attempted[s]} attempted ({self.failed[s]} failed)")
