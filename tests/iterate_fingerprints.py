"""Iterate fingerprints: hashes of what the solvers return, to check that a
refactor leaves every iterate byte-identical.

Solves, one line each:

* every benchmark solver on each workload's seed-1 pool (the instances
  `perfbench/workloads.py` draws with `instance_seeds` and
  `make_instance`, solved as the benchmark solves them);
* the dual and primal SSNAL and both ADMMs on the acceptance grid
  (scenarios 1-7, seeds 1-3, k = 10, m = 2000, alphas (1e-3, 1e-3)), the
  ADMMs stopped as in criterion 08: relative objective gap 1e-4 against
  the primal SSNAL's pobj, checked every 10 iterations.

Each line gives the status, the outer, Newton, CG and phase-I counts and
a short SHA-256 of the bytes of x, xi, u, z and pobj.  Two checkouts that
print the same output return the same iterates; a solve that raises
prints its exception's name, and nothing goes to stderr, so output kept
with ``2>&1`` compares across checkouts too.

pytest does not collect this file.  Run it from the root of a source
checkout (BLAS is pinned to one thread here, before numpy loads):

    python tests/iterate_fingerprints.py > fingerprints.txt
"""

import contextlib
import hashlib
import io
import itertools
import os
import sys
from dataclasses import replace
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import numpy as np  # noqa: E402
import workloads  # noqa: E402

from clusterlasso import first_order, ssnal_dual, ssnal_primal  # noqa: E402
from clusterlasso.data import (ScenarioSpec, generate_scenario,  # noqa: E402
                               penalties_from_alphas)

POOL_SEED = 1
GRID_SCENARIOS = range(1, 8)
GRID_SEEDS = (1, 2, 3)
GRID_K = 10
GRID_M = 2000
GRID_ALPHAS = (1e-3, 1e-3)


def digest(value) -> str:
    if value is None:
        return "-"
    raw = np.ascontiguousarray(value, dtype=np.float64).tobytes()
    return hashlib.sha256(raw).hexdigest()[:16]


def fingerprint(label, sol) -> str:
    return (f"{label}: {sol.status} outer={sol.outer_iters} "
            f"newton={sol.total_newton_iters} cg={sol.total_cg_iters} "
            f"phase1={sol.phase1_iters} x={digest(sol.x)} "
            f"xi={digest(sol.xi)} u={digest(sol.u)} z={digest(sol.z)} "
            f"pobj={digest(sol.pobj)}")


def pool_lines():
    for wl in workloads.WORKLOADS.values():
        for seed in workloads.instance_seeds(POOL_SEED, wl.pool):
            inst = workloads.make_instance(wl, seed)
            for solver in wl.solvers:
                label = f"{wl.name} {seed} {solver}"
                # a raising solve logs a traceback, which names the
                # checkout's own path, to stderr; the line names the error
                with contextlib.redirect_stderr(io.StringIO()):
                    out = workloads.solve(solver, inst)
                yield (fingerprint(label, out.sol) if out.sol is not None
                       else f"{label}: raised {out.error}")


def grid_lines():
    for sid in GRID_SCENARIOS:
        for seed in GRID_SEEDS:
            prob = generate_scenario(
                ScenarioSpec(sid, GRID_K, seed, m_override=GRID_M))
            data = replace(prob.data, penalties=penalties_from_alphas(
                *GRID_ALPHAS, prob.data))
            label = f"grid s{sid} seed{seed}"
            yield fingerprint(f"{label} dual", ssnal_dual.solve(data))
            primal = ssnal_primal.solve_primal(data)
            yield fingerprint(f"{label} primal", primal)
            cfg = first_order.FirstOrderConfig(
                tol=1e-4, ref_pobj=primal.pobj, check_every=10)
            yield fingerprint(f"{label} p-admm",
                              first_order.p_admm_solve(data, cfg))
            yield fingerprint(f"{label} d-admm",
                              first_order.d_admm_solve(data, cfg))


def main():
    for line in itertools.chain(pool_lines(), grid_lines()):
        print(line, flush=True)


if __name__ == "__main__":
    main()
