"""Deformed oscillator and Kepler Hamiltonians on conformally flat planes.

A family catalog of position-dependent-mass systems with extra integrals
of motion, a forward-mode bracket engine that certifies each conservation
claim numerically, an adaptive Dormand-Prince 8(5,3) integrator with
invariant monitors, and flat-plane cross-checks of the n = 0 reductions.
"""

import importlib

from .dual import Dual
from .dynamics import (COMPLETED, SINGULARITY, STEP_FAILURE, DriftReport,
                       IntegratorConfig, Trajectory, drift_report,
                       final_state_distance, fixed_step_config,
                       hamilton_vector_field, integrate, time_reversal_defect)
from .errors import PdmError
from .catalog import CATALOG
from .families import (euclidean_potential, flat_twin, hamiltonian, kinetic,
                       potential, twin_box)
from .geometry import (curvature_R1212, killing_components,
                       lie_derivative_metric, metric, noether_p1, noether_p2)
from .observables import family_integrals, integral
from .phase import (FAMILIES, DomainBox, ModelParams, PhasePoint,
                    SampleConfig, polar_to_cartesian, sample_points)

__version__ = "0.1.0"

_LAZY = {
    "brackets": ("BRACKET_TOL", "gradient", "gradient_fd", "poisson_bracket",
                 "poisson_bracket_fd", "scaled_residual"),
    "certify": ("Certificate", "CheckResult", "bracket_residual_suite",
                "certificate", "involution_check", "killing_tensor_check"),
}


def __getattr__(name):
    # PEP 562: `brackets` and `certify`, and numpy with them, load when
    # one of them or of their names is first read
    for module, names in _LAZY.items():
        if name == module or name in names:
            mod = importlib.import_module(f".{module}", __name__)
            return mod if name == module else getattr(mod, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "BRACKET_TOL", "CATALOG", "COMPLETED", "Certificate", "CheckResult",
    "DomainBox", "DriftReport", "Dual", "FAMILIES", "IntegratorConfig",
    "ModelParams", "PdmError", "PhasePoint", "SINGULARITY", "STEP_FAILURE",
    "SampleConfig", "Trajectory", "bracket_residual_suite", "certificate",
    "curvature_R1212", "drift_report", "euclidean_potential",
    "family_integrals", "final_state_distance", "fixed_step_config",
    "flat_twin", "gradient", "gradient_fd", "hamilton_vector_field",
    "hamiltonian", "integral", "integrate", "involution_check",
    "killing_components", "killing_tensor_check", "kinetic",
    "lie_derivative_metric", "metric", "noether_p1", "noether_p2",
    "poisson_bracket", "poisson_bracket_fd", "polar_to_cartesian", "potential",
    "sample_points", "scaled_residual", "time_reversal_defect", "twin_box",
]
