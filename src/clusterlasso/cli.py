"""Command-line interface: solve one problem, benchmark solvers, or emit
synthetic data sets.

Exit codes: 0 success, 1 solver did not converge, 2 bad arguments.
"""

import argparse
import csv
import json
import os
import sys
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from . import first_order, ssnal_dual, ssnal_primal
from .common import CONVERGED, SolverConfig
from .data import (ScenarioSpec, generate_scenario, penalties_from_alphas,
                   read_libsvm, write_libsvm)
from .first_order import FirstOrderConfig
from .metrics import eta_rel, gnnz, nnz
from .problem import ProblemData
from .prox import Penalties

# CLI name -> (module, function, config class).  The function is read off
# the module at call time, so a name patched there is the one that runs.
SOLVERS = {
    "ssnal-d": (ssnal_dual, "solve", SolverConfig),
    "ssnal-p": (ssnal_primal, "solve_primal", SolverConfig),
    "admm-d": (first_order, "d_admm_solve", FirstOrderConfig),
    "admm-p": (first_order, "p_admm_solve", FirstOrderConfig),
    "apg": (first_order, "apg_solve", FirstOrderConfig),
}


@dataclass
class RunRecord:
    solver: str
    instance: str
    m: int
    n: int
    beta: float
    rho: float
    status: str
    iterations: int
    newton_iters: int
    phase1_iters: int
    cg_iters: int
    wall_time_s: float
    pobj: float
    dobj: float
    eta_gap: float
    eta_d: float
    eta_kkt: float
    nnz: int
    gnnz: int
    train_mse: float
    eta_rel: Optional[float] = None
    alpha1: Optional[float] = None
    alpha2: Optional[float] = None
    form: Optional[str] = None


def write_vector(path, x) -> None:
    """Binary vector: 8-byte little-endian length, then float64 LE values."""
    x = np.asarray(x, dtype=np.float64)
    with open(path, "wb") as fh:
        fh.write(np.array([x.size], dtype="<u8").tobytes())
        fh.write(x.astype("<f8").tobytes())


def read_vector(path) -> np.ndarray:
    """Inverse of `write_vector`; raises ValueError unless the file holds
    the 8-byte header and exactly as many values as it declares."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 8:
        raise ValueError(f"{path}: missing the 8-byte length header")
    size = int(np.frombuffer(raw[:8], dtype="<u8")[0])
    if len(raw) - 8 != 8 * size:
        raise ValueError(f"{path}: header declares {size} values, "
                         f"payload holds {len(raw) - 8} bytes")
    return np.frombuffer(raw[8:], dtype="<f8").copy()


def _run_solver(name: str, data, tol: float, max_time: float,
                max_iters: Optional[int], ref_pobj: Optional[float] = None):
    module, function, cls = SOLVERS[name]
    kwargs = dict(tol=tol, max_time=max_time)
    if max_iters is not None:
        kwargs["max_outer" if cls is SolverConfig else "max_iters"] = max_iters
    if ref_pobj is not None:
        kwargs["ref_pobj"] = ref_pobj
    return getattr(module, function)(data, cls(**kwargs))


def _record(name, instance, data, sol, alpha1=None, alpha2=None,
            ref_pobj=None) -> RunRecord:
    pen = data.penalties
    r = data.A.matvec(sol.x) - data.b
    return RunRecord(
        solver=name, instance=instance, m=data.m, n=data.n,
        beta=pen.beta, rho=pen.rho, status=sol.status,
        iterations=sol.outer_iters, newton_iters=sol.total_newton_iters,
        phase1_iters=sol.phase1_iters, cg_iters=sol.total_cg_iters,
        wall_time_s=sol.wall_time,
        pobj=sol.pobj, dobj=sol.dobj, eta_gap=sol.eta_gap, eta_d=sol.eta_d,
        eta_kkt=sol.eta_kkt, nnz=nnz(sol.x), gnnz=gnnz(sol.x),
        train_mse=float(r @ r) / data.m,
        eta_rel=None if ref_pobj is None else eta_rel(sol.pobj, ref_pobj),
        alpha1=alpha1, alpha2=alpha2, form=sol.form)


def _load_problem(args):
    """Build ProblemData from --input or --scenario flags; returns (data, instance_name)."""
    if args.input is not None:
        given = [flag for flag, value in (
            ("--scenario", args.scenario), ("--k", args.k),
            ("--seed", args.seed), ("--m-override", args.m_override))
            if value is not None]
        if given:
            raise ValueError(
                f"--input cannot be combined with {', '.join(given)}")
        A, b = read_libsvm(args.input, args.n_features)
        return ProblemData(A=A, b=b), os.path.basename(args.input)
    if args.scenario is None:
        raise ValueError("either --input or --scenario is required")
    if args.n_features is not None:
        raise ValueError("--n-features applies to --input only")
    k = 1 if args.k is None else args.k
    seed = 0 if args.seed is None else args.seed
    spec = ScenarioSpec(scenario_id=args.scenario, k=k, seed=seed,
                        m_override=args.m_override)
    prob = generate_scenario(spec)
    return prob.data, f"s{args.scenario}k{k}seed{seed}"


def _apply_penalties(args, data):
    if args.rho is not None and args.beta is None:
        raise ValueError("--rho needs --beta; with --alpha1/--alpha2, "
                         "--alpha2 sets rho")
    if args.beta is not None:
        if args.alpha1 is not None or args.alpha2 is not None:
            raise ValueError("give either --alpha1/--alpha2 or --beta/--rho")
        return data.with_penalties(
            Penalties(beta=args.beta, rho=args.rho or 0.0)), None, None
    if args.alpha1 is None or args.alpha2 is None:
        raise ValueError("penalty levels missing: --alpha1/--alpha2 or --beta/--rho")
    pen = penalties_from_alphas(args.alpha1, args.alpha2, data)
    return data.with_penalties(pen), args.alpha1, args.alpha2


def cmd_solve(args) -> int:
    data, instance = _load_problem(args)
    data, a1, a2 = _apply_penalties(args, data)
    sol = _run_solver(args.solver, data, args.tol, args.max_time,
                      args.max_iters)
    rec = _record(args.solver, instance, data, sol, a1, a2)
    payload = {k: v for k, v in asdict(rec).items() if v is not None}
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        stem, _ = os.path.splitext(args.out)
        write_vector(stem + ".x.bin", sol.x)
    else:
        json.dump(payload, sys.stdout, indent=2)
        sys.stdout.write("\n")
    return 0 if sol.status == CONVERGED else 1


def _parse_alphas(text):
    pairs = []
    for part in text.split(","):
        a1, sep, a2 = part.strip().partition(":")
        if not sep:
            raise ValueError(f"bad --alphas entry '{part}' (want a1:a2)")
        try:
            pairs.append((float(a1), float(a2)))
        except ValueError:
            raise ValueError(f"bad --alphas entry '{part}'") from None
    return pairs


def cmd_bench(args) -> int:
    data0, instance = _load_problem(args)
    solvers = [s.strip() for s in args.solvers.split(",") if s.strip()]
    for s in solvers + [args.ref_solver]:
        if s not in SOLVERS:
            raise ValueError(f"bad solver name '{s}'")
    # a bad tolerance or time budget is a bad argument, not a failed solve:
    # none may be negative or NaN, and an SSNAL needs a positive --tol
    for tol in (args.tol, args.rel_tol):
        FirstOrderConfig(tol=tol, max_time=args.max_time)
    if SolverConfig in {SOLVERS[s][2] for s in [*solvers, args.ref_solver]}:
        SolverConfig(tol=args.tol, max_time=args.max_time)
    records = []
    any_failed = False
    for a1, a2 in _parse_alphas(args.alphas):
        pen = penalties_from_alphas(a1, a2, data0)
        data = data0.with_penalties(pen)
        try:
            ref = _run_solver(args.ref_solver, data, args.tol, args.max_time,
                              None)
        except Exception as exc:  # noqa: BLE001 - record, keep benching
            print(f"[bench] {args.ref_solver} failed on {a1}:{a2}: {exc}",
                  file=sys.stderr)
            any_failed = True
            continue
        records.append(_record(args.ref_solver, instance, data, ref, a1, a2,
                               ref.pobj))
        any_failed |= ref.status != CONVERGED
        for name in solvers:
            if name == args.ref_solver:
                continue
            newton = SOLVERS[name][2] is SolverConfig
            try:
                sol = _run_solver(name, data,
                                  args.tol if newton else args.rel_tol,
                                  args.max_time, None,
                                  None if newton else ref.pobj)
            except Exception as exc:  # noqa: BLE001
                print(f"[bench] {name} failed on {a1}:{a2}: {exc}",
                      file=sys.stderr)
                any_failed = True
                continue
            any_failed |= sol.status != CONVERGED
            records.append(_record(name, instance, data, sol, a1, a2,
                                   ref.pobj))
    fieldnames = list(RunRecord.__dataclass_fields__)
    out = open(args.out, "w", newline="", encoding="ascii") if args.out \
        else sys.stdout
    try:
        writer = csv.DictWriter(out, fieldnames=fieldnames)
        writer.writeheader()
        for rec in records:
            writer.writerow(asdict(rec))
    finally:
        if args.out:
            out.close()
    return 1 if any_failed else 0


def cmd_gen(args) -> int:
    spec = ScenarioSpec(scenario_id=args.scenario, k=args.k, seed=args.seed,
                        m_override=args.m_override,
                        train_fraction=args.train_fraction)
    prob = generate_scenario(spec)
    rows = prob.data.A.raw
    b = prob.data.b
    if prob.A_test is not None:
        rows = np.vstack([rows, prob.A_test])
        b = np.concatenate([b, prob.b_test])
    path = args.out_prefix + ".libsvm"
    write_libsvm(path, rows, b)
    sidecar = {
        "scenario": spec.scenario_id,
        "k": spec.k,
        "seed": spec.seed,
        "n": int(prob.x_true.shape[0]),
        "m_total": prob.m_total,
        "m_train": prob.data.m,
        "train_fraction": spec.train_fraction,
        "sigma_noise": prob.sigma_noise,
        "x_true": prob.x_true.tolist(),
    }
    with open(args.out_prefix + ".json", "w", encoding="ascii") as fh:
        json.dump(sidecar, fh, indent=2)
        fh.write("\n")
    print(f"wrote {path} ({prob.m_total} rows) and {args.out_prefix}.json")
    return 0


def _add_problem_flags(p):
    p.add_argument("--input", help="LIBSVM file with the design and response")
    p.add_argument("--n-features", type=int,
                   help="column count of the --input design (default: its "
                        "largest index, which drops trailing zero columns)")
    p.add_argument("--scenario", type=int, choices=range(1, 8),
                   help="synthetic scenario id")
    p.add_argument("--k", type=int,
                   help="replication factor (--scenario only; default 1)")
    p.add_argument("--seed", type=int,
                   help="generator seed (--scenario only; default 0)")
    p.add_argument("--m-override", type=int,
                   help="total row count override (--scenario only)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="clusterlasso",
        description="Clustered lasso solvers (l1 plus all-pairs difference penalty)")
    sub = ap.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="solve one problem and report metrics")
    _add_problem_flags(ps)
    ps.add_argument("--alpha1", type=float, help="beta = alpha1 * ||A^T b||_inf")
    ps.add_argument("--alpha2", type=float, help="rho = alpha2 * beta")
    ps.add_argument("--beta", type=float, help="explicit l1 level")
    ps.add_argument("--rho", type=float, help="explicit pairwise level")
    ps.add_argument("--solver", choices=SOLVERS, default="ssnal-d")
    ps.add_argument("--tol", type=float, default=1e-6)
    ps.add_argument("--max-time", type=float, default=10800.0)
    ps.add_argument("--max-iters", type=int, default=None)
    ps.add_argument("--out", help="write the run record JSON here "
                                  "(solution vector goes to <out stem>.x.bin)")
    ps.set_defaults(func=cmd_solve)

    pb = sub.add_parser("bench", help="run several solvers over an alpha grid")
    _add_problem_flags(pb)
    pb.add_argument("--solvers", default=",".join(SOLVERS))
    pb.add_argument("--alphas", default="1e-3:1e-2",
                    help="comma list of alpha1:alpha2 pairs")
    pb.add_argument("--ref-solver", default="ssnal-d", choices=SOLVERS)
    pb.add_argument("--tol", type=float, default=1e-6,
                    help="tolerance for the Newton solvers and the reference")
    pb.add_argument("--rel-tol", type=float, default=1e-4,
                    help="relative-objective stop for the baselines")
    pb.add_argument("--max-time", type=float, default=10800.0)
    pb.add_argument("--out", help="CSV output path (default stdout)")
    pb.set_defaults(func=cmd_bench)

    pg = sub.add_parser("gen", help="generate a synthetic data set")
    pg.add_argument("--scenario", type=int, choices=range(1, 8), required=True)
    pg.add_argument("--k", type=int, default=1)
    pg.add_argument("--seed", type=int, default=0)
    pg.add_argument("--m-override", type=int, default=None)
    pg.add_argument("--train-fraction", type=float, default=0.8)
    pg.add_argument("--out-prefix", required=True)
    pg.set_defaults(func=cmd_gen)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
