"""Self-checks of the solver benchmark and its tracer.

    python3 -m pytest perfbench

They run the benchmark's own code paths on scaled-down copies of the
workloads so that they finish in seconds.
"""

import dataclasses
import types

import pytest

import run
import tracer as tr
import workloads

SMALL = {
    "tall": dataclasses.replace(workloads.WORKLOADS["tall"], m=2000, pool=2),
    # at smaller sizes ssnal_p runs into its time limit instead of failing
    # fast, and a time-limited solve has no repeatable counts
    "wide": workloads.WORKLOADS["wide"],
    "first_order": dataclasses.replace(workloads.WORKLOADS["first_order"],
                                       k=2, m=200, pool=2),
}


def _counts(metrics):
    return {k: v for k, (v, unit) in metrics.items() if unit == "count"}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_counts_match_solvers_and_repeat(name):
    wl = SMALL[name]
    tally, first = run.run_traced(wl, seed=3, instances=1)
    assert tally.bad_checks == 0
    assert tally.total_attempted == 2 * len(wl.solvers)
    _, second = run.run_traced(wl, seed=3, instances=1)
    assert _counts(first) == _counts(second)
    assert set(first) == set(second)


def test_jacobian_builds_equal_newton_iters():
    wl = SMALL["tall"]
    inst = workloads.make_instance(wl, 11)
    tracer = tr.Tracer(workloads.PACKAGES)
    solves = []
    for s in wl.solvers:
        with tracer.installed():
            out = workloads.solve(
                s, inst, lambda fn, d, _s=s: tracer.root(_s, fn, d))
        assert out.ok
        solves.append((s, tracer.last_root, out.sol))
    builds = tr.builds_per_solve(tracer)
    for _, root, sol in solves:
        assert builds[root] == sol.total_newton_iters > 0
    m = tr.layer_metrics(tracer, solves, workloads.NEWTON_CFG.ssn.max_newton)
    assert m["jacobian.builds"][0] == sum(
        sol.total_newton_iters for _, _, sol in solves)
    assert m["ssnal_d.newton_iters"][0] == solves[0][2].total_newton_iters
    routes = [m[f"ssnal_d.route.{r}"][0] for r in ("smw", "dense_m", "cg")]
    assert sum(routes) == solves[0][2].total_newton_iters


def test_hooks_are_restored_after_a_raise():
    originals = {(mod, attr): getattr(workloads.PACKAGES[mod], attr)
                 for mod, attr, _ in tr.HOOKS if "." not in attr}
    matvec = workloads.linalg.DesignMatrix.matvec
    tracer = tr.Tracer(workloads.PACKAGES)
    with pytest.raises(RuntimeError):
        with tracer.installed():
            assert workloads.linalg.DesignMatrix.matvec is not matvec
            raise RuntimeError("boom")
    for (mod, attr), fn in originals.items():
        assert getattr(workloads.PACKAGES[mod], attr) is fn
    assert workloads.linalg.DesignMatrix.matvec is matvec


def test_missing_hook_omits_its_metrics(capsys):
    packages = dict(workloads.PACKAGES)
    # a stand-in prox module without pav_nonincreasing
    packages["prox"] = types.SimpleNamespace()
    tracer = tr.Tracer(packages)
    inst = workloads.make_instance(SMALL["first_order"], 5)
    with tracer.installed():
        out = workloads.solve(
            "apg", inst, lambda fn, d: tracer.root("apg", fn, d))
    assert "prox.pav_nonincreasing" in capsys.readouterr().err
    m = tr.layer_metrics(tracer, [("apg", tracer.last_root, out.sol)],
                         workloads.NEWTON_CFG.ssn.max_newton)
    assert "prox.pav_s" not in m
    assert m["prox.calls"][0] == out.sol.outer_iters


def test_failures_are_counted_not_raised(monkeypatch):
    def broken(data):
        raise workloads.linalg.MaxItersExceeded(None, 1.0, 5)

    monkeypatch.setitem(workloads.SOLVERS, "ssnal_p",
                        (broken, workloads.NEWTON_TOL))
    inst = workloads.make_instance(SMALL["tall"], 2)
    outcomes = [workloads.solve(s, inst) for s in ("ssnal_d", "ssnal_p")]
    workloads.check_round(inst, outcomes)
    tally = workloads.Tally(("ssnal_d", "ssnal_p"))
    tally.add(outcomes)
    assert (tally.total_attempted, tally.total_failed) == (2, 1)
    assert tally.bad_checks == 0
    assert tally.times["ssnal_p"] == [] and len(tally.times["ssnal_d"]) == 1


def test_objective_disagreement_fails_the_check():
    inst = workloads.make_instance(SMALL["tall"], 4)
    outcomes = [workloads.solve(s, inst) for s in ("ssnal_d", "ssnal_p")]
    workloads.check_round(inst, outcomes)
    assert all(o.ok for o in outcomes)
    d, p = outcomes
    p.sol = dataclasses.replace(p.sol, pobj=p.sol.pobj * (1 + 1e-4))
    workloads.check_round(inst, [d, p])
    assert p.check and not p.ok
