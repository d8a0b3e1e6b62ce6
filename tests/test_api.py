"""Guard on the public surface: every export resolves, and names that were
removed from the package stay removed."""

import dataclasses

import clusterlasso
from clusterlasso.common import SolverConfig
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


def test_solver_config_has_no_schedule_knobs():
    fields = {f.name for f in dataclasses.fields(SolverConfig)}
    assert fields == {"tol", "max_outer", "max_time", "ssn"}
    for gone in ("sigma0", "sigma_growth", "sigma_max", "sigma_shrink",
                 "sigma_min", "eps0", "delta0", "ties_tol", "cg",
                 "dense_cap"):
        assert not hasattr(SolverConfig(), gone)


def test_first_order_config_has_no_constant_knobs():
    fields = {f.name for f in dataclasses.fields(FirstOrderConfig)}
    for gone in ("kappa", "sigma", "lin_tau", "cg"):
        assert gone not in fields
        assert not hasattr(FirstOrderConfig(), gone)


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
