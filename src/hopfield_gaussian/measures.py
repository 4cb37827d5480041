"""Entanglement, EPR steering, purities and occupations of two-mode states.

All measures reduce to the four determinant invariants of the block
partition Gamma = [[A, C^T], [C, B]] and the partial-transpose symplectic
eigenvalues d~_-, d~_+.  Sweeps and ``point`` take them from the x-p
sectors of the state (``_sector_invariants``), in closed forms free of
differences of nearly equal terms.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple

import numpy as np

from .states import covariance_overflow

__all__ = [
    "SteeringClass",
    "SymplecticInvariants",
    "CorrelationReport",
    "STEERING_THRESHOLD",
    "classify_steering",
    "correlation_report",
]

# strict-positivity threshold for calling a steering value nonzero
STEERING_THRESHOLD = 1e-12


class SteeringClass(str, Enum):
    NO_WAY = "no-way"
    ONE_WAY_A_TO_B = "one-way-a-to-b"
    ONE_WAY_B_TO_A = "one-way-b-to-a"
    TWO_WAY = "two-way"


# the class of (G_ab above threshold) + 2 * (G_ba above threshold)
_STEERING_CLASSES = (
    SteeringClass.NO_WAY,
    SteeringClass.ONE_WAY_A_TO_B,
    SteeringClass.ONE_WAY_B_TO_A,
    SteeringClass.TWO_WAY,
)


def _steering_class_index(g_ab, g_ba):
    """Index into ``_STEERING_CLASSES``; floats or equal-length arrays."""
    return (g_ab > STEERING_THRESHOLD) + 2 * (g_ba > STEERING_THRESHOLD)


class SymplecticInvariants(NamedTuple):
    """Block determinants and partial-transpose pair; every measure follows."""

    i_a: float
    i_b: float
    i_c: float
    i_ab: float
    d_minus: float
    d_plus: float

    def log_negativity(self) -> float:
        return _log_negativity(self.d_minus)

    def steering_raw(self) -> tuple[float, float]:
        return _steering_raw(self.i_a, self.i_b, self.i_ab)

    def steering(self) -> tuple[float, float]:
        raw_ab, raw_ba = self.steering_raw()
        return _clip(raw_ab), _clip(raw_ba)

    def purities(self) -> tuple[float, float, float]:
        return _purities(self.i_a, self.i_b, self.i_ab)


def _clip(value: float) -> float:
    """max(0.0, value): -0.0 and NaN give 0.0 too."""
    return value if value > 0.0 else 0.0


def _log_negativity(d_minus: float) -> float:
    """E_N = max(0, -ln(2 d~_-)) of a float d~_-."""
    if not d_minus > 0.0:
        raise ValueError(
            "the partial transpose of the covariance is singular to "
            "rounding, at the stability edge"
        )
    return _clip(-math.log(2.0 * d_minus))


def _steering_raw(i_a, i_b, i_ab):
    """(G_ab, G_ba) before clipping, 0.5 ln(det A / 4 det Gamma); floats or arrays."""
    log = np.log if isinstance(i_ab, np.ndarray) else math.log
    return 0.5 * log(i_a / (4.0 * i_ab)), 0.5 * log(i_b / (4.0 * i_ab))


def _purities(i_a, i_b, i_ab):
    """(mu_a, mu_b, mu_ab) = 1/(4 det A), 1/(4 det B), 1/(16 det Gamma); floats or arrays."""
    return 1.0 / (4.0 * i_a), 1.0 / (4.0 * i_b), 1.0 / (16.0 * i_ab)


class CorrelationReport(NamedTuple):
    e_n: float
    g_ab: float
    g_ba: float
    mu_a: float
    mu_b: float
    mu_ab: float
    n_a: float
    n_b: float
    classification: SteeringClass


def _check_determinants(i_a, i_b, i_c, i_ab, disc_sq) -> None:
    finite = math.isfinite
    if not (finite(i_a) and finite(i_b) and finite(i_c) and finite(i_ab) and finite(disc_sq)):
        raise covariance_overflow()
    # checked before any physicality test, which such a matrix fails too, so
    # that a point at the stability edge is reported as what it is
    if not (i_a > 0.0 and i_b > 0.0 and i_ab > 0.0):
        raise ValueError(
            "a block determinant of the covariance is not positive: it is "
            "singular to rounding, at the stability edge"
        )


def _sector_invariants(gxx, gpp, c_u, c_l, det_xx):
    """(det A, det B, det C, det Gamma, discriminant, d~_-, d~_+) of Gamma_xx ⊕ Gamma_pp.

    det A = Gxx_aa Gpp_aa, det C = Gxx_ab Gpp_ab, det Gamma = (c_U c_L)^2;
    d~_+- are the singular values of F^T G, Gamma_xx = F F^T, P Gamma_pp P =
    G G^T (Cholesky), free of differences of nearly equal terms.
    """
    sqrt = np.sqrt if isinstance(c_u, np.ndarray) else math.sqrt
    nu, root_det = c_u * c_l, sqrt(det_xx)
    i_a, i_b, i_c = gxx[0] * gpp[0], gxx[2] * gpp[2], gxx[1] * gpp[1]
    # F^T G times sqrt(det A)
    k11, k12, k21, k22 = i_a - i_c, gxx[1] * nu / root_det, -gpp[1] * root_det, nu
    q = sqrt((k11 + k22) * (k11 + k22) + (k12 - k21) * (k12 - k21))
    r = sqrt((k11 - k22) * (k11 - k22) + (k12 + k21) * (k12 + k21))
    d_plus = 0.5 * (q + r) / sqrt(i_a)
    # (q r / det A)^2 = (d~_+^2 - d~_-^2)^2 = delta~^2 - 4 det Gamma
    disc = q * r / i_a
    return i_a, i_b, i_c, nu * nu, disc * disc, nu / d_plus, d_plus


def classify_steering(g_ab: float, g_ba: float) -> SteeringClass:
    if g_ab < 0 or g_ba < 0:
        raise ValueError("steering values are clipped at zero by definition")
    return _STEERING_CLASSES[_steering_class_index(g_ab, g_ba)]


def _occupations(xa, pa, xb, pb):
    """(N_a, N_b) from the four quadrature variances; floats or arrays."""
    return 0.5 * (xa + pa - 1.0), 0.5 * (xb + pb - 1.0)


def _report(i_a, i_b, i_ab, d_minus, n_a, n_b) -> CorrelationReport:
    """Every correlation measure from the invariants of ``SymplecticInvariants``
    and the occupations."""
    raw_ab, raw_ba = _steering_raw(i_a, i_b, i_ab)
    g_ab, g_ba = _clip(raw_ab), _clip(raw_ba)
    mu_a, mu_b, mu_ab = _purities(i_a, i_b, i_ab)
    return CorrelationReport(
        _log_negativity(d_minus),
        g_ab,
        g_ba,
        mu_a,
        mu_b,
        mu_ab,
        n_a,
        n_b,
        _STEERING_CLASSES[_steering_class_index(g_ab, g_ba)],
    )


def correlation_report(sectors) -> CorrelationReport:
    """Every correlation measure of a state given by its x-p sectors
    (``states._sector_covariance``).

    Its symplectic eigenvalues c_U, c_L >= 1/2 need no physicality check;
    a covariance that overflows or is singular to rounding raises
    ValueError.  N_a and N_b are read off the sector diagonals.
    """
    i_a, i_b, i_c, i_ab, disc_sq, d_minus, _ = _sector_invariants(*sectors)
    _check_determinants(i_a, i_b, i_c, i_ab, disc_sq)
    gxx, gpp = sectors[:2]
    return _report(i_a, i_b, i_ab, d_minus, *_occupations(gxx[0], gpp[0], gxx[2], gpp[2]))
