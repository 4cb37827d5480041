"""Gaussian correlations of two ultrastrongly coupled bosonic modes.

Normal-mode (polariton) diagonalization of the bilinear two-mode model
with mixing, squeezing and diamagnetic interactions; steady-state
covariance matrices under a common Ohmic reservoir; logarithmic
negativity, Gaussian EPR steering, purities and occupations; and the
dissipative second-moment dynamics behind the steady state.  The names
here are those the commands run; ``hopfield_gaussian.oracles`` holds the
second routes that ``verify`` checks them against.
"""

from .model import InstabilityError, ModelParams, PolaritonBasis, hopfield
from .states import Environment, thermal_occupation
from .measures import (
    CorrelationReport,
    SteeringClass,
    classify_steering,
    correlation_report,
)
from .dynamics import RateSet, SecondMoments, collective_rates, evolve_trajectory
from .scenarios import SCENARIOS, Axis, SweepSpec, resolve_scenario
from .sweep import CSV_HEADER, ResultRow, diagonalize_params, run_point, sweep_csv

__version__ = "0.1.0"
