"""Guard on the public surface: every export resolves, and names that were
removed from the package stay removed."""

import dataclasses
import inspect

import numpy as np
import pytest

import clusterlasso
from clusterlasso.common import SolverConfig, Solution, SsnControls
from clusterlasso.first_order import FirstOrderConfig


def test_every_export_resolves():
    missing = [n for n in clusterlasso.__all__ if not hasattr(clusterlasso, n)]
    assert missing == []
    assert len(set(clusterlasso.__all__)) == len(clusterlasso.__all__)


def test_removed_warm_start_types_are_gone():
    for name in ("DualState", "PrimalState"):
        assert name not in clusterlasso.__all__
        assert not hasattr(clusterlasso, name)
        assert not hasattr(clusterlasso.common, name)


def test_scaled_prox_wrappers_are_gone():
    # the solvers scale penalty levels inline; no wrapper is exported
    assert "prox_scaled" not in clusterlasso.__all__
    assert not hasattr(clusterlasso.prox, "prox_scaled")
    assert not hasattr(clusterlasso.Penalties, "scaled")


def test_solver_config_has_no_schedule_knobs():
    fields = {f.name for f in dataclasses.fields(SolverConfig)}
    assert fields == {"tol", "max_outer", "max_time", "ssn"}
    for gone in ("sigma0", "sigma_growth", "sigma_max", "sigma_shrink",
                 "sigma_min", "eps0", "delta0", "ties_tol", "cg",
                 "dense_cap"):
        assert not hasattr(SolverConfig(), gone)


def test_first_order_config_has_no_constant_knobs():
    from clusterlasso import first_order

    fields = {f.name for f in dataclasses.fields(FirstOrderConfig)}
    assert fields == {"tol", "ref_pobj", "max_iters", "max_time", "variant",
                      "adaptive_sigma", "check_every"}
    for gone in ("kappa", "sigma", "lin_tau", "cg", "tol_metric"):
        assert gone not in fields
        assert not hasattr(FirstOrderConfig(), gone)
    # the sigma-balancing cadence is a module constant, and balancing is on
    # unless a caller turns it off
    assert isinstance(first_order.SIGMA_EVERY, int)
    assert FirstOrderConfig().adaptive_sigma


def test_apg_restart_is_not_a_setting():
    # the gradient restart rule has no parameter, so nothing turns it off
    from clusterlasso.first_order import apg_solve

    fields = {f.name for f in dataclasses.fields(FirstOrderConfig)}
    params = set(inspect.signature(apg_solve).parameters)
    assert not [n for n in fields | params if "restart" in n]
    assert not hasattr(FirstOrderConfig(), "restart")


def test_cg_controls_are_gone():
    from clusterlasso import linalg

    assert "CgControls" not in clusterlasso.__all__
    assert not hasattr(clusterlasso, "CgControls")
    assert not hasattr(linalg, "CgControls")


def test_estimate_lipschitz_is_one_function():
    # defined in linalg (the dual's sigma0 uses it); the baselines module and
    # the package re-export the same object
    from clusterlasso import first_order, linalg

    assert (clusterlasso.estimate_lipschitz is linalg.estimate_lipschitz
            is first_order.estimate_lipschitz)


def test_ssn_controls_hold_only_the_step_cap():
    # the line-search and inexact-direction constants are module constants
    # of `common`; perfbench reads SolverConfig().ssn.max_newton
    from clusterlasso import common

    assert {f.name for f in dataclasses.fields(SsnControls)} == {"max_newton"}
    for gone in ("mu", "eta_bar", "tau", "ls_shrink", "max_linesearch",
                 "ls_clip_low", "ls_clip_high", "ls_noise"):
        assert not hasattr(SsnControls(), gone)
        assert not hasattr(SolverConfig(), gone)
        assert hasattr(common, gone.upper())


@pytest.mark.parametrize("cap", [0, -1])
def test_ssn_controls_reject_a_cap_below_one(cap):
    # without a Newton step no inner solve can move its iterate, and the
    # outer loop would run to max_outer
    with pytest.raises(ValueError, match="max_newton"):
        SsnControls(max_newton=cap)


def test_linearized_d_admm_is_gone():
    with pytest.raises(ValueError):
        FirstOrderConfig(variant="linearized")


def test_removed_parameters_stay_removed():
    from clusterlasso import (common, jacobian, linalg, metrics, ssnal_dual,
                              ssnal_primal)

    def params(fn):
        return set(inspect.signature(fn).parameters)

    assert "cfg" not in params(ssnal_dual.solve_newton_system)
    assert "cfg" not in params(ssnal_primal.solve_newton_system_primal)
    assert "ties_tol" not in params(jacobian.build_jacobian)
    assert "seed" not in params(linalg.estimate_lipschitz)
    assert params(metrics.nnz) == params(metrics.gnnz) == {"x"}
    # the measures form their own products; the steps take the form the
    # outer loop builds
    assert params(metrics.primal_objective) == {"x", "data"}
    assert params(metrics.duality_metrics) == {"x", "xi", "u", "data"}
    assert "aux0" not in params(common.newton)
    assert "lsq" not in params(ssnal_primal.PrimalSubproblem)
    for step in (ssnal_dual.DualStep, ssnal_primal.PrimalStep):
        form = inspect.signature(step).parameters["form"]
        assert form.default is inspect.Parameter.empty
    # a Newton route returns its step and CG count, and `newton` lifts the
    # step itself; conjugate gradients return their operator applications
    assert "counter" not in params(ssnal_dual.solve_newton_system)
    assert "counter" not in params(ssnal_primal.solve_newton_system_primal)
    for sub in (ssnal_dual.DualSubproblem, ssnal_primal.PrimalSubproblem):
        direction = inspect.signature(sub.direction).parameters
        assert list(direction) == ["self", "pr", "g"]
    out = linalg.cg_solve(lambda v: v, np.ones(3), 1e-12, 5)
    assert isinstance(out, tuple) and len(out) == 2 and out[1] == 1
    fields = {f.name for f in dataclasses.fields(FirstOrderConfig)}
    assert "track_objective" not in fields
    assert "obj_trace" not in {f.name for f in dataclasses.fields(Solution)}
