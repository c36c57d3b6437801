"""Finite-dimensional open-quantum-system simulation toolkit.

Deterministic master-equation dynamics, their stochastic unraveling with
correlated Wiener increments, a first-order operator-valued differential
algebra that checks the two agree, and completely positive one-step
channels with Choi certificates.
"""

from .channels import apply_kraus, build_infinitesimal_kraus, choi_of
from .ito import DerivationResult, derive_stochastic_evolution, ito_mul
from .lindblad import (
    LindbladModel,
    NoiseBasis,
    NumericalError,
    OdeTrajectory,
    ValidationReport,
    drift_operator,
    integrate_ode,
    lindblad_rhs,
)
from .operators import adjoint, hermitian_part
from .presets import PRESET_NAMES, preset_model, uniform_superposition
from .unraveling import (
    EnsembleDiagnostics,
    EnsembleStats,
    Trajectory,
    run_ensemble,
    run_trajectory,
    trajectory_rng,
)

__version__ = "0.1.0"
