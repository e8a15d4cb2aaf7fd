"""The public surface: ``starphase.__all__`` is pinned, and every name
in it imports, so that a deletion cannot drop a public name unnoticed."""

import starphase

PUBLIC = {
    "BoundReport", "ConvergenceError", "DomainError", "EquilibriumData",
    "Family", "H", "HypothesisError", "IntegratorConfig", "KappaConstants",
    "LevelSetGrid", "MassRadiusTable", "ModelSpec", "PhysicalProfile",
    "StabilityReport", "StarphaseError", "SystemModel", "Trajectory",
    "TrapRegionReport", "bound_X", "check_trap_region", "closed_form_X",
    "equilibrium", "eval_field", "excess_E", "find_w", "find_x0", "find_z",
    "invert_H", "isocline_x", "jacobian_fd", "kappa_constants",
    "kappa_sweep", "lambert_w", "level_set_grid", "linearize_interior",
    "linearize_origin", "lyapunov_derivative", "lyapunov_gradient",
    "lyapunov_value", "make_model", "mass_radius_table", "model",
    "r_factor", "shoot_heteroclinic", "stability_report", "to_physical",
    "verify_lyapunov_monotone",
}


def test_all_is_pinned():
    assert len(starphase.__all__) == len(set(starphase.__all__))
    assert set(starphase.__all__) == PUBLIC


def test_every_public_name_imports():
    namespace = {}
    exec("from starphase import *", namespace)
    assert PUBLIC <= set(namespace)
    for name in PUBLIC:
        assert namespace[name] is getattr(starphase, name)
