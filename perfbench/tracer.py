"""Outside-in tracer for the clusterlasso solvers.

The solvers import their helpers by name (``from .prox import
prox_clustered``), so a helper is timed by replacing the name in the
namespace that calls it, not in the module that defines it.  Each hook
records a span (name, parent, start, end, plus a few facts about the call);
self times and per-layer totals are derived from the spans afterwards.
Nothing under ``src/`` is modified: the hooks are installed for the length
of a ``with tracer.installed():`` block and the originals are put back on
exit, even when the traced call raises.

A hooked name that the package no longer defines is skipped with a warning;
every metric that needs its span is then left out of the report instead of
being reported as zero.
"""

import statistics
import sys
import time
from contextlib import contextmanager

# (module under clusterlasso, attribute, span name).  A span name is only
# reported when every hook that feeds it was installed, so a partial rename
# cannot silently shrink a total.
HOOKS = (
    ("ssnal_dual", "prox_clustered", "prox"),
    ("ssnal_primal", "prox_clustered", "prox"),
    ("first_order", "prox_clustered", "prox"),
    ("prox", "pav_nonincreasing", "pav"),
    ("ssnal_dual", "build_jacobian", "jacobian.build"),
    ("ssnal_primal", "build_jacobian", "jacobian.build"),
    ("ssnal_dual", "design_factors", "jacobian.factors"),
    ("ssnal_dual", "solve_newton_system", "nsys"),
    ("ssnal_primal", "solve_newton_system_primal", "nsys"),
    ("ssnal_dual", "cg_solve", "cg"),
    ("ssnal_primal", "cg_solve", "cg"),
    ("first_order", "cg_solve", "cg"),
    ("linalg", "DesignMatrix.matvec", "matvec"),
    ("linalg", "DesignMatrix.tmatvec", "matvec"),
    ("linalg", "DesignMatrix.gram", "gram"),
    ("ssnal_dual", "duality_metrics", "metrics"),
    ("ssnal_dual", "eta_kkt", "metrics"),
    ("ssnal_primal", "duality_metrics", "metrics"),
    ("ssnal_primal", "eta_kkt", "metrics"),
    ("first_order", "duality_metrics", "metrics"),
    ("first_order", "eta_kkt", "metrics"),
    ("first_order", "eta_rel", "metrics"),
    ("first_order", "primal_objective", "metrics"),
    ("data", "generate_scenario", "data.generate"),
    ("data", "penalties_from_alphas", "data.penalties"),
)

FIRST_ORDER_SOLVERS = ("apg", "admm_p", "admm_d")


class Span:
    __slots__ = ("name", "parent", "root", "t0", "t1", "error", "kdim", "m",
                 "iters")

    def __init__(self, name, parent, root, t0):
        self.name = name
        self.parent = parent
        self.root = root
        self.t0 = t0
        self.t1 = t0
        self.error = None
        self.kdim = None
        self.m = None
        self.iters = 0

    @property
    def dur(self):
        return self.t1 - self.t0


def _kdim(jac):
    """Newton-system size |free| + pools of a Jacobian element."""
    return int(jac.free_idx.shape[0]) + int(jac.npools)


class Tracer:
    """Collects spans from hooked clusterlasso functions.

    ``packages`` maps a module name from HOOKS to the imported module.
    Spans are only recorded inside ``installed()``; root spans (one per
    solve) are opened with ``root()``.
    """

    def __init__(self, packages):
        self.packages = packages
        self.spans = []
        self._stack = []
        self.available = None  # span names whose hooks all exist
        self.last_root = -1

    def _resolve(self, module, attr):
        owner = self.packages.get(module)
        *path, name = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        if owner is None or not hasattr(owner, name):
            return None, name
        return owner, name

    def _open(self, name):
        stack = self._stack
        parent = stack[-1] if stack else -1
        root = stack[0] if stack else len(self.spans)
        span = Span(name, parent, root, time.perf_counter())
        stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span):
        span.t1 = time.perf_counter()
        self._stack.pop()

    def _wrap(self, span_name, orig):
        tracer = self

        def hooked(*args, **kwargs):
            span = tracer._open(span_name)
            if span_name == "cg":
                apply = args[0]

                def counted(v):
                    span.iters += 1
                    return apply(v)
                args = (counted,) + args[1:]
            elif span_name == "nsys" and hasattr(args[0], "free_idx"):
                span.kdim = _kdim(args[0])
                span.m = getattr(args[1], "m", None)
            try:
                out = orig(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                tracer._close(span)
            if span_name == "jacobian.build" and hasattr(out, "free_idx"):
                span.kdim = _kdim(out)
            return out

        return hooked

    @contextmanager
    def installed(self):
        """Install every hook that resolves; restore the originals on exit."""
        saved = []
        found = set()
        lost = set()
        try:
            for module, attr, span_name in HOOKS:
                owner, name = self._resolve(module, attr)
                if owner is None:
                    lost.add(span_name)
                    if self.available is None:
                        print(f"warning: trace hook {module}.{attr} not found;"
                              f" metrics from span '{span_name}' are omitted",
                              file=sys.stderr)
                    continue
                orig = getattr(owner, name)
                saved.append((owner, name, orig))
                setattr(owner, name, self._wrap(span_name, orig))
                found.add(span_name)
            if self.available is None:
                self.available = found - lost
            yield self
        finally:
            for owner, name, orig in reversed(saved):
                setattr(owner, name, orig)

    def root(self, name, fn, *args):
        """Run fn(*args) under a new root span; its index goes to last_root."""
        span = self._open(name)
        self.last_root = len(self.spans) - 1
        try:
            return fn(*args)
        finally:
            self._close(span)


def self_times(spans):
    """Per-span duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.dur
    return [s.dur - c for s, c in zip(spans, child)]


def builds_per_solve(tracer):
    """Number of Jacobian builds under each root span, by root index."""
    counts = {}
    for s in tracer.spans:
        if s.name == "jacobian.build":
            counts[s.root] = counts.get(s.root, 0) + 1
    return counts


def layer_metrics(tracer, solves, newton_cap):
    """Per-layer metrics from the spans plus the solves' own counters.

    solves: (solver name, root span index, Solution or None) per traced
    solve; newton_cap is the inner Newton iteration cap the solves ran
    with.  Returns {metric: (value, unit)}; metrics whose spans are not
    available are omitted.

    Newton-system routes are read off the spans: a system that ran CG is
    the CG route; otherwise the primal one is the dense Gram route, and the
    dual one is SMW when |free| + pools < m (including the trivial
    |free| + pools = 0) and dense-m when not.
    """
    spans = tracer.spans
    avail = tracer.available or set()
    own = self_times(spans)
    by_name = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)
    out = {}

    def put(name, need, value, unit):
        if all(n in avail for n in need):
            out[name] = (value, unit)

    def named(name, root=None):
        idx = by_name.get(name, [])
        if root is None:
            return idx
        return [i for i in idx if spans[spans[i].root].name == root]

    def total(idx):
        return float(sum(spans[i].dur for i in idx))

    def self_total(idx):
        return float(sum(own[i] for i in idx))

    prox = named("prox")
    pav_in_prox = [i for i in named("pav")
                   if spans[i].parent >= 0
                   and spans[spans[i].parent].name == "prox"]
    put("prox.calls", ["prox"], len(prox), "count")
    put("prox.s", ["prox"], total(prox), "s")
    put("prox.pav_s", ["prox", "pav"], total(pav_in_prox), "s")

    builds = named("jacobian.build")
    kdims = [spans[i].kdim for i in builds if spans[i].kdim is not None]
    put("jacobian.builds", ["jacobian.build"], len(builds), "count")
    put("jacobian.build_s", ["jacobian.build"], total(builds), "s")
    put("jacobian.factors_s", ["jacobian.factors"],
        total(named("jacobian.factors")), "s")
    put("jacobian.kdim_mean", ["jacobian.build"],
        float(statistics.fmean(kdims)) if kdims else 0.0, "count")

    mv = named("matvec")
    cg = named("cg")
    put("linalg.matvecs", ["matvec"], len(mv), "count")
    put("linalg.matvec_s", ["matvec"], total(mv), "s")
    put("linalg.gram_s", ["gram"], total(named("gram")), "s")
    put("linalg.cg_calls", ["cg"], len(cg), "count")
    put("linalg.cg_iters", ["cg"], sum(spans[i].iters for i in cg), "count")
    put("linalg.cg_maxiter_raises", ["cg"],
        sum(spans[i].error == "MaxItersExceeded" for i in cg), "count")

    sols = {}
    roots = {}
    for solver, root, sol in solves:
        roots.setdefault(solver, []).append(root)
        if sol is not None:
            sols.setdefault(solver, []).append(sol)

    cg_parents = {spans[i].parent for i in cg}

    def routes(root):
        count = {"smw": 0, "dense_m": 0, "dense_gram": 0, "cg": 0}
        for i in named("nsys", root):
            s = spans[i]
            if i in cg_parents:
                count["cg"] += 1
            elif root == "ssnal_p":
                count["dense_gram"] += 1
            elif s.kdim is not None and s.m is not None and s.kdim < s.m:
                count["smw"] += 1
            else:
                count["dense_m"] += 1
        return count

    d_sols = sols.get("ssnal_d", [])
    d_newton = len(named("jacobian.build", "ssnal_d"))
    # an inner solve that used the whole Newton budget is discarded by the
    # outer loop (no multiplier update), so its steps are wasted work
    capped = useful = 0
    for sol in d_sols:
        for res in sol.newton_residuals:
            steps = len(res) - 1
            if steps >= newton_cap:
                capped += 1
            else:
                useful += steps
    d_steps = sum(sol.total_newton_iters for sol in d_sols)
    put("ssnal_d.outer_iters", [], sum(s.outer_iters for s in d_sols), "count")
    put("ssnal_d.newton_iters", ["jacobian.build"], d_newton, "count")
    put("ssnal_d.capped_inner", [], capped, "count")
    put("ssnal_d.useful_newton_frac", [],
        useful / d_steps if d_steps else 0.0, "ratio")
    put("ssnal_d.ls_trials_per_step", ["prox", "jacobian.build"],
        len(named("prox", "ssnal_d")) / d_newton if d_newton else 0.0,
        "ratio")
    put("ssnal_d.nsys_self_s", ["nsys"], self_total(named("nsys", "ssnal_d")),
        "s")
    r = routes("ssnal_d")
    for key in ("smw", "dense_m", "cg"):
        put(f"ssnal_d.route.{key}", ["nsys", "cg"], r[key], "count")

    p_sols = sols.get("ssnal_p", [])
    put("ssnal_p.outer_iters", [], sum(s.outer_iters for s in p_sols), "count")
    put("ssnal_p.newton_iters", ["jacobian.build"],
        len(named("jacobian.build", "ssnal_p")), "count")
    put("ssnal_p.nsys_self_s", ["nsys"], self_total(named("nsys", "ssnal_p")),
        "s")
    r = routes("ssnal_p")
    for key in ("dense_gram", "cg"):
        put(f"ssnal_p.route.{key}", ["nsys", "cg"], r[key], "count")

    for solver in FIRST_ORDER_SOLVERS:
        put(f"{solver}.iters", [],
            sum(s.outer_iters for s in sols.get(solver, [])), "count")
    put("first_order.self_s", ["prox", "matvec", "metrics", "gram", "cg"],
        self_total([i for solver in FIRST_ORDER_SOLVERS
                    for i in roots.get(solver, [])]), "s")

    met = named("metrics")
    put("metrics.calls", ["metrics"], len(met), "count")
    put("metrics.s", ["metrics"], total(met), "s")

    for key in ("generate", "penalties"):
        durs = [spans[i].dur for i in named(f"data.{key}")]
        put(f"data.{key}_s", [f"data.{key}"],
            float(statistics.median(durs)) if durs else 0.0, "s")
    return out
