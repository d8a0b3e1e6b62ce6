"""Guard on the public surface: every export resolves, and names that were
removed from the package stay removed."""

import dataclasses

import clusterlasso
from clusterlasso.common import SolverConfig


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
    assert fields == {"tol", "max_outer", "max_time", "ssn", "cg",
                      "dense_cap"}
    for gone in ("sigma0", "sigma_growth", "sigma_max", "sigma_shrink",
                 "sigma_min", "eps0", "delta0", "ties_tol"):
        assert not hasattr(SolverConfig(), gone)


def test_estimate_lipschitz_is_one_function():
    # defined in linalg (the dual's sigma0 uses it); the baselines module and
    # the package re-export the same object
    from clusterlasso import first_order, linalg

    assert (clusterlasso.estimate_lipschitz is linalg.estimate_lipschitz
            is first_order.estimate_lipschitz)
