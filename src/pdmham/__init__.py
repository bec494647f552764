"""Deformed oscillator and Kepler Hamiltonians on conformally flat planes.

A family catalog of position-dependent-mass systems with extra integrals
of motion, a forward-mode bracket engine that certifies each conservation
claim numerically, an adaptive symplectic-flow integrator with invariant
monitors, and flat-plane cross-checks of the n = 0 reductions.
"""

from .brackets import (BRACKET_TOL, gradient, gradient_fd, poisson_bracket,
                       poisson_bracket_fd, scaled_residual)
from .certify import (Certificate, CheckResult, SampleConfig,
                      bracket_residual_suite, certificate, involution_check,
                      killing_tensor_check)
from .dual import Dual
from .dynamics import (COMPLETED, SINGULARITY, STEP_FAILURE, DriftReport,
                       IntegratorConfig, Trajectory, drift_report,
                       final_state_distance, fixed_step_config,
                       hamilton_vector_field, integrate, time_reversal_defect)
from .errors import PdmError
from .catalog import CATALOG
from .families import (euclidean_potential, flat_twin, hamiltonian, kinetic,
                       potential, twin_box)
from .geometry import (curvature_R1212, killing_vector, lie_derivative_metric,
                       metric, noether_momentum)
from .observables import family_integrals, integral
from .phase import (FAMILIES, DomainBox, ModelParams, PhasePoint,
                    polar_to_cartesian, sample_points)

__version__ = "0.1.0"

__all__ = [
    "BRACKET_TOL", "CATALOG", "COMPLETED", "Certificate", "CheckResult",
    "DomainBox", "DriftReport", "Dual", "FAMILIES", "IntegratorConfig",
    "ModelParams", "PdmError", "PhasePoint", "SINGULARITY", "STEP_FAILURE",
    "SampleConfig", "Trajectory", "bracket_residual_suite", "certificate",
    "curvature_R1212", "drift_report", "euclidean_potential",
    "family_integrals", "final_state_distance", "fixed_step_config",
    "flat_twin", "gradient", "gradient_fd", "hamilton_vector_field",
    "hamiltonian", "integral", "integrate", "involution_check",
    "killing_tensor_check", "killing_vector", "kinetic",
    "lie_derivative_metric", "metric", "noether_momentum", "poisson_bracket",
    "poisson_bracket_fd", "polar_to_cartesian", "potential", "sample_points",
    "scaled_residual", "time_reversal_defect", "twin_box",
]
