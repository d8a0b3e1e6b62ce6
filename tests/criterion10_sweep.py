"""Criterion 10 sweep: scenario 1 groups by dual SSNAL over (m, alpha1).

Criterion 10 of the acceptance suite solves scenario 1 (k=10, seed 1,
m = 2000 rows before the 80/20 split) at alpha1 = 1e-3, alpha2 = 1/n and
asks for gnnz 3 and every off-support |x| below 1e-4.  This script solves
the same scenario with the dual SSNAL on a small grid of m (80000 is the
generator's default) and alpha1 (alpha2 = 1/n throughout) and prints, per
point, the solver status, gnnz, the mean of x over each true group (in the
order the groups appear in x_true) and the largest |x| off the true
support.

pytest does not collect this file.  Run it from the root of a source
checkout:

    PYTHONPATH=src python tests/criterion10_sweep.py
"""

from dataclasses import replace

import numpy as np

from clusterlasso.data import (ScenarioSpec, generate_scenario,
                               penalties_from_alphas)
from clusterlasso.metrics import gnnz
from clusterlasso.ssnal_dual import solve

M_GRID = (2000, 8000, 20000, 80000)
ALPHA1_GRID = (1e-3, 1e-2, 3e-2, 1e-1)


def sweep_point(m, alpha1):
    """(status, gnnz, group means, max off-support |x|) at one grid point."""
    prob = generate_scenario(ScenarioSpec(1, 10, 1, m_override=m))
    n = prob.data.A.n
    pen = penalties_from_alphas(alpha1, 1.0 / n, prob.data)
    sol = solve(replace(prob.data, penalties=pen))
    truth = prob.x_true
    values = list(dict.fromkeys(v for v in truth if v != 0.0))
    means = [float(np.mean(sol.x[truth == v])) for v in values]
    off_max = float(np.max(np.abs(sol.x[truth == 0.0])))
    return sol.status, gnnz(sol.x), values, means, off_max


def main():
    print(f"{'m':>6} {'alpha1':>7} {'status':>10} {'gnnz':>5}  "
          f"group means (true value: mean)  max off-support |x|")
    for m in M_GRID:
        for alpha1 in ALPHA1_GRID:
            status, g, values, means, off_max = sweep_point(m, alpha1)
            groups = ", ".join(f"{v:g}: {mu:.3f}"
                               for v, mu in zip(values, means))
            print(f"{m:>6} {alpha1:>7g} {status:>10} {g:>5}  "
                  f"{groups}  {off_max:.3e}")


if __name__ == "__main__":
    main()
