"""Entanglement, EPR steering, purities and occupations of two-mode states.

All measures reduce to the four determinant invariants of the block
partition Gamma = [[A, C^T], [C, B]] and the partial-transpose symplectic
eigenvalues d~_-, d~_+.  Sweeps and ``point`` take them from the x-p
sectors of the state (``_sector_invariants``), in closed forms free of
differences of nearly equal terms, each formula one expression for floats
and arrays.

One checked stage, ``_measures``, gives every measure and the steering
class of a point (``correlation_report``), a grid (``sweep.evaluate_grid``)
or any 4x4 matrix (``oracles.matrix_report``), with a fault code where the
numbers leave the float range; ``measure_error`` words each fault once.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple

import numpy as np

__all__ = [
    "SteeringClass",
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


def _steering_raw(i_a, i_b, i_ab):
    """(G_ab, G_ba) before clipping, 0.5 ln(det A / 4 det Gamma); floats
    (``_stacked_measures`` takes them for arrays)."""
    return 0.5 * math.log(i_a / (4.0 * i_ab)), 0.5 * math.log(i_b / (4.0 * i_ab))


def _purities(i_a, i_b, i_ab):
    """(mu_a, mu_b, mu_ab) = 1/(4 det A), 1/(4 det B), 1/(16 det Gamma);
    floats (``_stacked_measures`` takes them for arrays)."""
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


def _sector_invariants(gxx, gpp, c_u, c_l, det_xx):
    """(det A, det B, det C, det Gamma, discriminant, d~_-, d~_+) of Gamma_xx ⊕ Gamma_pp;
    floats or arrays, each formula one expression for both.

    det A = Gxx_aa Gpp_aa, det C = Gxx_ab Gpp_ab, det Gamma = (c_U c_L)^2;
    d~_+- are the singular values of F^T G, Gamma_xx = F F^T, P Gamma_pp P =
    G G^T (Cholesky), free of differences of nearly equal terms.
    """
    floats = not isinstance(c_u, np.ndarray)
    sqrt = math.sqrt if floats else np.sqrt
    nu, root_det = c_u * c_l, sqrt(det_xx)
    i_a, i_b, i_c = gxx[0] * gpp[0], gxx[2] * gpp[2], gxx[1] * gpp[1]
    if floats and not (root_det > 0.0 and i_a > 0.0):
        # a float division by zero raises where numpy's gives inf or NaN:
        # either way the discriminant is not finite, an overflow fault
        return i_a, i_b, i_c, nu * nu, math.nan, math.nan, math.nan
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


def _occupation(x, p):
    """N = (x + p - 1) / 2 of a mode from its two quadrature variances;
    floats or arrays."""
    return 0.5 * (x + p - 1.0)


# faults of ``_measures``, each with its message in ``measure_error``
OVERFLOW, SINGULAR_BLOCK, SINGULAR_TRANSPOSE = 1, 2, 3


def _measures(i_a, i_b, i_c, i_ab, disc_sq, d_minus, n_a, n_b, coupled=True):
    """(fault, (E_N, G_ab, G_ba, mu_a, mu_b, mu_ab, N_a, N_b), class index)
    from the invariants and the occupations; floats or equal-length arrays.
    Where ``coupled`` is false the state is a product, and E_N, G_ab and
    G_ba are exactly 0, not the rounding of their logarithms.

    The fault is 0, or the first of: an invariant is not finite
    (``OVERFLOW``); det A, det B or det Gamma is not positive
    (``SINGULAR_BLOCK``); a measure is not finite, as where d~_- rounds to
    zero (``SINGULAR_TRANSPOSE``).  Both branches decide alike; a faulty
    float has measures None and class -1.
    """
    if isinstance(i_ab, np.ndarray):
        return _stacked_measures(i_a, i_b, i_c, i_ab, disc_sq, d_minus, n_a, n_b, coupled)
    finite = math.isfinite
    if not (finite(i_a) and finite(i_b) and finite(i_c) and finite(i_ab) and finite(disc_sq)):
        return OVERFLOW, None, -1
    if not (i_a > 0.0 and i_b > 0.0 and i_ab > 0.0):
        return SINGULAR_BLOCK, None, -1
    # math.log raises at zero, where np.log gives -inf: a ratio that
    # underflows is the same fault as an infinite measure
    if not (d_minus > 0.0 and min(i_a, i_b) / (4.0 * i_ab) > 0.0):
        return SINGULAR_TRANSPOSE, None, -1
    e_n = -math.log(2.0 * d_minus)
    raw_ab, raw_ba = _steering_raw(i_a, i_b, i_ab)
    mu_a, mu_b, mu_ab = _purities(i_a, i_b, i_ab)
    if not (finite(e_n) and finite(raw_ab) and finite(raw_ba)
            and finite(mu_a) and finite(mu_b) and finite(mu_ab)):
        return SINGULAR_TRANSPOSE, None, -1
    # v if v > 0 else 0 is max(0.0, v), with -0.0 giving 0.0
    e_n = e_n if coupled and e_n > 0.0 else 0.0
    g_ab = raw_ab if coupled and raw_ab > 0.0 else 0.0
    g_ba = raw_ba if coupled and raw_ba > 0.0 else 0.0
    index = _steering_class_index(g_ab, g_ba)
    return 0, (e_n, g_ab, g_ba, mu_a, mu_b, mu_ab, n_a, n_b), index


# E_N = -ln(2 d~_-) and G = 0.5 ln(ratio): the factor of each row of logs
_LOG_FACTORS = np.array([[-1.0], [0.5], [0.5]])


def _stacked_measures(i_a, i_b, i_c, i_ab, disc_sq, d_minus, n_a, n_b, coupled):
    """``_measures`` of arrays, the measures as the rows of one (8, n) array.
    A form of its own, for arrays decide faults after ``np.log``, where
    floats must decide them before ``math.log`` raises.

    The operations of the float route on every element, E_N and those of
    ``_steering_raw`` and ``_purities`` among them: the three logarithms
    are one ``np.log`` and the purities one division.
    Where every measure is finite, every purity positive (so det A, det B
    and det Gamma lie in (0, inf)) and det C disc^2 finite, no point has a
    fault: one sum and one minimum decide it for the block, and only a
    block that fails them takes the per-point decision.
    """
    values = np.empty((8, len(i_ab)))
    logs = values[:3]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        four = 4.0 * i_ab
        np.multiply(2.0, d_minus, out=logs[0])
        np.divide(i_a, four, out=logs[1])
        np.divide(i_b, four, out=logs[2])
        np.log(logs, out=logs)
        logs *= _LOG_FACTORS
        purities = values[3:6]
        np.multiply(4.0, i_a, out=purities[0])
        np.multiply(4.0, i_b, out=purities[1])
        np.multiply(16.0, i_ab, out=purities[2])
        np.divide(1.0, purities, out=purities)
        values[6], values[7] = n_a, n_b
        # a sum is finite only where every term is: a NaN, an inf or a sum
        # that overflows sends the block to the per-point decision
        fine = (math.isfinite(values[:6].sum() + i_c @ disc_sq)
                and purities.min(initial=1.0) > 0.0)
    if fine:
        fault = np.zeros(len(i_ab), np.int8)
    else:
        finite = np.isfinite([i_a, i_b, i_c, i_ab, disc_sq]).all(axis=0)
        positive = (i_a > 0.0) & (i_b > 0.0) & (i_ab > 0.0)
        measured = SINGULAR_TRANSPOSE * ~np.isfinite(values[:6]).all(axis=0)  # 0 or 3
        fault = np.where(finite, np.where(positive, measured, SINGULAR_BLOCK), OVERFLOW)
    # v where v > 0 and the state is not a product, else 0: the float
    # branch's clip, -0.0 and NaN included
    logs[~((logs > 0.0) & coupled)] = 0.0
    return fault, values, _steering_class_index(values[1], values[2])


def measure_error(fault: int, where: str = "", omega_l: float = 0.0,
                  c_l: float = 0.5) -> ValueError:
    """The error of a ``_measures`` fault, ``where`` naming the point.  An
    overflow is put down to the temperature where the lower, more occupied
    branch is excited, c_L > 1/2, at a frequency omega_L > 0; an omega_L
    that underflowed to 0 or is NaN, or a state without excitations, puts
    it down to the parameters."""
    if fault == OVERFLOW:
        cause = "the reservoir temperature is too high" if c_l > 0.5 and omega_l > 0.0 else (
            "the mode frequencies and couplings span too many orders of magnitude")
        return ValueError(
            f"the covariance{where} overflows: its invariants are not finite, because {cause}")
    part = "a block determinant" if fault == SINGULAR_BLOCK else "the partial transpose"
    return ValueError(
        f"{part} of the covariance{where} is singular to rounding, at the stability edge")


def _sector_measures(sectors):
    """``_measures`` of a state given by its x-p sectors
    (``states._sector_covariance``); floats or arrays.  A state whose two
    sector off-diagonals are exactly 0, as at lambda1 = lambda2 = 0, is a
    product of its two modes."""
    gxx, gpp = sectors[:2]
    i_a, i_b, i_c, i_ab, disc_sq, d_minus, _ = _sector_invariants(*sectors)
    n_a, n_b = _occupation(gxx[0], gpp[0]), _occupation(gxx[2], gpp[2])
    coupled = (gxx[1] != 0.0) | (gpp[1] != 0.0)
    return _measures(i_a, i_b, i_c, i_ab, disc_sq, d_minus, n_a, n_b, coupled)


def correlation_report(sectors, omega_l: float) -> CorrelationReport:
    """Every correlation measure of a state given by its x-p sectors
    (``states._sector_covariance``) and the frequency omega_L of its lower
    branch, which names the cause of an overflow.

    Its symplectic eigenvalues c_U, c_L >= 1/2 need no physicality check;
    a covariance that overflows or is singular to rounding raises the
    ValueError of ``measure_error``.  N_a and N_b are read off the sector
    diagonals.
    """
    fault, values, index = _sector_measures(sectors)
    if fault:
        raise measure_error(fault, omega_l=omega_l, c_l=sectors[3])
    return CorrelationReport(*values, _STEERING_CLASSES[index])
