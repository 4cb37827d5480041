"""Gaussian correlations of two ultrastrongly coupled bosonic modes.

Normal-mode (polariton) diagonalization of the bilinear two-mode model
with mixing, squeezing and diamagnetic interactions; steady-state
covariance matrices under a common Ohmic reservoir; logarithmic
negativity, Gaussian EPR steering, purities and occupations; and the
dissipative second-moment dynamics behind the steady state.
"""

from .model import (
    DegenerateSpectrumError,
    InstabilityError,
    ModelParams,
    PolaritonBasis,
    bogoliubov_diagonalize,
    build_dynamical_matrix,
    critical_coupling,
    general,
    hopfield,
    hopfield_basis,
    no_a2,
    no_a2_basis,
    polariton_frequencies,
)
from .states import (
    CovarianceMatrix,
    Environment,
    ground_state_covariance_closed,
    ground_state_covariance_generic,
    no_a2_covariance_closed,
    polariton_to_bare_transform,
    quadrature_transform,
    steady_state_covariance,
    thermal_covariance_closed,
    thermal_occupation,
)
from .measures import (
    CorrelationReport,
    SteeringClass,
    SymplecticInvariants,
    average_occupations,
    classify_steering,
    correlation_report,
    gaussian_steering,
    ground_state_log_negativity_closed,
    ground_state_steering_closed,
    log_negativity,
    purities,
    second_order_correlators,
    symplectic_invariants,
)
from .dynamics import (
    NoSteadyStateError,
    RateSet,
    SecondMoments,
    asymmetry_diagnostic,
    collective_rates,
    evolve_second_moments,
    local_representation_coefficients,
    resonant_balance_frequency,
    steady_state_second_moments,
)
from .scenarios import SCENARIOS, Axis, SweepSpec, resolve_scenario
from .sweep import CSV_HEADER, ResultRow, run_point, run_sweep, sweep_csv

__version__ = "0.1.0"
