#!/usr/bin/env python3
"""Solver benchmark: time to solution of the clusterlasso solvers.

    python3 perfbench/run.py --workload tall --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``, nothing needs installing.  One process runs one workload as a
closed loop (one solve at a time) with BLAS pinned to one thread.

--trace 0 draws a pool of instances from the seed, then cycles through
it, solving each instance with every solver of the workload, until
--seconds have passed (the round in flight finishes).  It prints the
end-to-end metrics: solve_s (sum over the timed solvers of each one's
median successful solve time), setup_s (median instance set-up),
peak_rss_mb and ok_frac (solves that converged and passed every check,
over solves attempted).

--trace 1 solves the first TRACE_INSTANCES instances of the same pool,
each solve once untraced and once under the outside-in tracer, and prints
the per-layer metrics; trace.overhead_s is the traced minus the untraced
time of those solves.  It also checks the tracer against the solvers' own
counters.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The lines before it give the
environment and a per-solver summary; failures are logged to stderr.
"""

import os

BLAS_THREADS = "1"
# Must happen before numpy is imported: OpenBLAS reads these at load time.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

TRACE_INSTANCES = 2


def environment(seed):
    import numpy as np
    import scipy

    import workloads

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    kernels = getattr(workloads.clusterlasso, "_kernels", None)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "numba_active": getattr(kernels, "NUMBA_ENABLED", None),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": int(BLAS_THREADS),
        "seed": seed,
    }


def peak_rss_mb():
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_untraced(wl, seed, seconds):
    import workloads

    pool = [workloads.make_instance(wl, s)
            for s in workloads.instance_seeds(seed, wl.pool)]
    tally = workloads.Tally(wl.solvers)
    t_end = time.perf_counter() + seconds
    r = 0
    while True:
        inst = pool[r % len(pool)]
        outcomes = [workloads.solve(s, inst) for s in wl.solvers]
        workloads.check_round(inst, outcomes)
        tally.add(outcomes)
        r += 1
        if time.perf_counter() >= t_end:
            break
    for line in tally.summary_lines():
        print(line)
    metrics = {"setup_s": (statistics.median(i.setup_s for i in pool), "s"),
               "peak_rss_mb": (peak_rss_mb(), "MB"),
               "ok_frac": ((tally.total_attempted - tally.total_failed)
                           / tally.total_attempted, "ratio")}
    if all(tally.times[s] for s in wl.timed):
        metrics["solve_s"] = (sum(statistics.median(tally.times[s])
                                  for s in wl.timed), "s")
    else:
        print("solve_s missing: a timed solver had no successful solve",
              file=sys.stderr)
    return tally, metrics


def run_traced(wl, seed, instances=TRACE_INSTANCES):
    import tracer as tr
    import workloads

    tracer = tr.Tracer(workloads.PACKAGES)
    with tracer.installed():
        pool = [workloads.make_instance(wl, s) for s in
                workloads.instance_seeds(seed, wl.pool)[:instances]]
    tally = workloads.Tally(wl.solvers)
    solves = []
    overhead = 0.0
    for inst in pool:
        plain = [workloads.solve(s, inst) for s in wl.solvers]
        traced = []
        for s in wl.solvers:
            with tracer.installed():
                out = workloads.solve(
                    s, inst, lambda fn, d, _s=s: tracer.root(_s, fn, d))
            traced.append(out)
            solves.append((s, tracer.last_root, out.sol))
        overhead += sum(o.seconds for o in traced) - sum(
            o.seconds for o in plain)
        for outcomes in (plain, traced):
            workloads.check_round(inst, outcomes)
            tally.add(outcomes)

    builds = tr.builds_per_solve(tracer)
    if "jacobian.build" in tracer.available:
        for s, root, sol in solves:
            if s in workloads.NEWTON_SOLVERS and sol is not None:
                if builds.get(root, 0) != sol.total_newton_iters:
                    tally.bad_checks += 1
                    print(f"tracer self-check failed: {s} jacobian builds "
                          f"{builds.get(root, 0)} != total_newton_iters "
                          f"{sol.total_newton_iters}", file=sys.stderr)
    metrics = tr.layer_metrics(tracer, solves,
                               workloads.NEWTON_CFG.ssn.max_newton)
    metrics["trace.overhead_s"] = (overhead, "s")
    for line in tally.summary_lines():
        print(line)
    return tally, metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        import workloads
    except ImportError as exc:
        print(f"cannot load the package to benchmark: {exc}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    print(json.dumps({"environment": environment(args.seed),
                      "workload": wl.name, "trace": args.trace}))
    if args.trace:
        tally, metrics = run_traced(wl, args.seed)
    else:
        tally, metrics = run_untraced(wl, args.seed, args.seconds)
    print(json.dumps({
        "correct": tally.bad_checks == 0,
        "attempted": tally.total_attempted,
        "failed": tally.total_failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
