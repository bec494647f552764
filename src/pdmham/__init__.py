"""Deformed oscillator and Kepler Hamiltonians on conformally flat planes.

A family catalog of position-dependent-mass systems with extra integrals
of motion and the Noether momenta of the metric's Killing fields, a
certifier that checks each conservation claim numerically on traced
gradient rows, an adaptive Dormand-Prince 8(5,3) integrator with
invariant monitors, and flat-plane cross-checks of the n = 0 reductions.
Every exported name has a reader in the program; the independent oracles
of the tests live with them, in `tests/oracles.py`."""

import importlib

from .dual import Dual
from .dynamics import (COMPLETED, SINGULARITY, STEP_FAILURE, IntegratorConfig,
                       Trajectory, drift_report, hamilton_vector_field,
                       integrate)
from .errors import PdmError
from .catalog import CATALOG
from .families import (euclidean_potential, flat_twin, hamiltonian, kinetic,
                       potential, twin_box)
from .geometry import noether_p1, noether_p2
from .observables import family_integrals, integral
from .phase import (DomainBox, ModelParams, PhasePoint, SampleConfig,
                    sample_points)

__version__ = "0.1.0"

_LAZY = {
    "brackets": ("BRACKET_TOL", "poisson_bracket", "scaled_residual"),
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
    "DomainBox", "Dual", "IntegratorConfig", "ModelParams", "PdmError",
    "PhasePoint", "SINGULARITY", "STEP_FAILURE", "SampleConfig", "Trajectory",
    "bracket_residual_suite", "certificate", "drift_report",
    "euclidean_potential", "family_integrals", "flat_twin",
    "hamilton_vector_field", "hamiltonian", "integral", "integrate",
    "involution_check", "killing_tensor_check", "kinetic", "noether_p1",
    "noether_p2", "poisson_bracket", "potential", "sample_points",
    "scaled_residual", "twin_box",
]
