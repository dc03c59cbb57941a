"""Simulator for laser-driven (N+1)-level systems with a fast-decaying
excited state, and for their closed-form slow reduction.

The package builds Lindblad master equations for Lambda-type systems,
derives the reduced slow equation on the ground manifold, integrates
both with a fixed-step RK4 scheme, and checks the error scaling of the
reduction against the time-scale separation parameter.
"""

__version__ = "0.1.0"

from .linalg import (
    DensityReport,
    frobenius_norm,
    herm_to_vec,
    hermiticity_error,
    random_density,
    validate_density,
    vec_to_herm,
)
from .models import (
    DriveSpec,
    LambdaParams,
    LindbladModel,
    ThreeScaleParams,
    build_three_scale,
    build_two_scale,
    effective_hamiltonian,
    liouvillian,
    rwa_effective,
    slow_timescale,
)
from .reduction import (
    ReducedModel,
    SlowFastSplit,
    as_lindblad,
    bright_dark_states,
    embed_ground,
    merge,
    reduce_model,
    rho_f_first_order,
    slow_output,
    split_slow_fast,
    standard_form,
)
from .tikhonov import (
    TikhonovSystem,
    expansion_residuals,
    fit_loglog_slope,
    manifold_first_order,
    manifold_second_order,
)
from .sim import (
    CompareResult,
    IntegrationError,
    SweepResult,
    Trajectory,
    auto_dt,
    compare_full_vs_slow,
    convergence_order,
    dt_max,
    epsilon_sweep,
    equilibrium_check,
    integrate,
    rwa_comparison,
)
from .kernels import backend_name

__all__ = [
    "__version__",
    "DensityReport",
    "frobenius_norm",
    "herm_to_vec",
    "hermiticity_error",
    "random_density",
    "validate_density",
    "vec_to_herm",
    "DriveSpec",
    "LambdaParams",
    "LindbladModel",
    "ThreeScaleParams",
    "build_three_scale",
    "build_two_scale",
    "effective_hamiltonian",
    "liouvillian",
    "rwa_effective",
    "slow_timescale",
    "ReducedModel",
    "SlowFastSplit",
    "as_lindblad",
    "bright_dark_states",
    "embed_ground",
    "merge",
    "reduce_model",
    "rho_f_first_order",
    "slow_output",
    "split_slow_fast",
    "standard_form",
    "TikhonovSystem",
    "expansion_residuals",
    "fit_loglog_slope",
    "manifold_first_order",
    "manifold_second_order",
    "CompareResult",
    "IntegrationError",
    "SweepResult",
    "Trajectory",
    "auto_dt",
    "compare_full_vs_slow",
    "convergence_order",
    "dt_max",
    "epsilon_sweep",
    "equilibrium_check",
    "integrate",
    "rwa_comparison",
    "backend_name",
]
