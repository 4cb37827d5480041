"""Entanglement, EPR steering, purities and occupations of two-mode states.

All measures reduce to the four determinant invariants of the block
partition Gamma = [[A, C^T], [C, B]].  The partial-transpose symplectic
eigenvalue that certifies entanglement is computed twice: from the
determinant formula and, as an independent oracle, from the spectrum of
the momentum-flipped matrix.  The formula is only trusted because the two
agree (see the acceptance suite).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .model import ModelParams, PolaritonBasis, polariton_frequencies
from .states import CovarianceMatrix, covariance_overflow, symplectic_form

__all__ = [
    "UnphysicalStateError",
    "SteeringClass",
    "SymplecticInvariants",
    "CorrelationReport",
    "STEERING_THRESHOLD",
    "symplectic_invariants",
    "ppt_symplectic_eigenvalues",
    "log_negativity",
    "gaussian_steering",
    "gaussian_steering_raw",
    "purities",
    "classify_steering",
    "average_occupations",
    "second_order_correlators",
    "covariance_from_correlators",
    "ground_state_log_negativity_closed",
    "ground_state_steering_closed",
    "correlation_report",
]

# strict-positivity threshold for calling a steering value nonzero
STEERING_THRESHOLD = 1e-12


class UnphysicalStateError(ValueError):
    """Covariance matrix violates the uncertainty bound."""


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


@dataclass(frozen=True)
class SymplecticInvariants:
    """Block determinants and partial-transpose pair; every measure follows."""

    i_a: float
    i_b: float
    i_c: float
    i_ab: float
    d_minus: float
    d_plus: float

    def log_negativity(self) -> float:
        if not self.d_minus > 0.0:
            raise ValueError(
                "the partial transpose of the covariance is singular to "
                "rounding, at the stability edge"
            )
        return max(0.0, -math.log(2.0 * self.d_minus))

    def steering_raw(self) -> tuple[float, float]:
        return (
            0.5 * math.log(self.i_a / (4.0 * self.i_ab)),
            0.5 * math.log(self.i_b / (4.0 * self.i_ab)),
        )

    def steering(self) -> tuple[float, float]:
        raw_ab, raw_ba = self.steering_raw()
        return max(0.0, raw_ab), max(0.0, raw_ba)

    def purities(self) -> tuple[float, float, float]:
        return 1.0 / (4.0 * self.i_a), 1.0 / (4.0 * self.i_b), 1.0 / (16.0 * self.i_ab)


@dataclass(frozen=True)
class CorrelationReport:
    e_n: float
    g_ab: float
    g_ba: float
    mu_a: float
    mu_b: float
    mu_ab: float
    n_a: float
    n_b: float
    classification: SteeringClass


def _require_physical(gamma: CovarianceMatrix) -> None:
    if not gamma.is_physical():
        raise UnphysicalStateError(
            "covariance matrix violates the symplectic uncertainty bound"
        )


def _clipped_root(x):
    """sqrt(max(x, 0.0)) of a float or elementwise; -0.0 and NaN pass as they are."""
    if isinstance(x, np.ndarray):
        return np.sqrt(np.where(x < 0.0, 0.0, x))
    return math.sqrt(max(x, 0.0))


def _partial_transpose_pair(i_a, i_b, i_c, i_ab):
    """(delta~^2 - 4 det Gamma, d~_-, d~_+) from the four block determinants.

    d~_{+-}^2 are the roots of s^2 - delta~ s + det(Gamma) with
    delta~ = det A + det B - 2 det C, the sign flip of det C implementing
    the momentum reversal of the second mode.  Takes floats or equal-length
    arrays and runs the same floating-point operations on both; negative
    radicands are clipped to zero, so no input raises.
    """
    delta = i_a + i_b - 2.0 * i_c
    disc_sq = delta * delta - 4.0 * i_ab
    disc = _clipped_root(disc_sq)
    d_minus = _clipped_root(0.5 * (delta - disc))
    return disc_sq, d_minus, _clipped_root(0.5 * (delta + disc))


def symplectic_invariants(gamma: CovarianceMatrix) -> SymplecticInvariants:
    """Block determinants and the partial-transpose symplectic pair."""
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        # one call for the 2x2 blocks [[A, C^T], [C, B]], the same bits as
        # one call per block
        (i_a, _), (i_c, i_b) = np.linalg.det(
            gamma.entries.reshape(2, 2, 2, 2).swapaxes(1, 2)
        ).tolist()
        i_ab = float(np.linalg.det(gamma.entries))
    disc_sq, d_minus, d_plus = _partial_transpose_pair(i_a, i_b, i_c, i_ab)
    if not all(map(math.isfinite, (i_a, i_b, i_c, i_ab, disc_sq))):
        raise covariance_overflow()
    # checked before physicality, which such a matrix fails too, so that a
    # point at the stability edge is reported as what it is
    if not min(i_a, i_b, i_ab) > 0.0:
        raise ValueError(
            "a block determinant of the covariance is not positive: it is "
            "singular to rounding, at the stability edge"
        )
    _require_physical(gamma)
    return SymplecticInvariants(i_a, i_b, i_c, i_ab, d_minus, d_plus)


def ppt_symplectic_eigenvalues(gamma: CovarianceMatrix) -> np.ndarray:
    """Oracle route: symplectic spectrum of the momentum-flipped state."""
    _require_physical(gamma)
    flip = np.diag([1.0, 1.0, 1.0, -1.0])
    tilde = flip @ gamma.entries @ flip
    ev = np.linalg.eigvals(1j * symplectic_form() @ tilde)
    return np.sort(np.abs(ev))[::2]


def log_negativity(gamma: CovarianceMatrix) -> float:
    """Entanglement monotone max(0, -ln 2 d~_-)."""
    return symplectic_invariants(gamma).log_negativity()


def gaussian_steering_raw(gamma: CovarianceMatrix) -> tuple[float, float]:
    return symplectic_invariants(gamma).steering_raw()


def gaussian_steering(gamma: CovarianceMatrix) -> tuple[float, float]:
    """(G_{a->b}, G_{b->a}), each clipped at zero."""
    return symplectic_invariants(gamma).steering()


def purities(gamma: CovarianceMatrix) -> tuple[float, float, float]:
    """Marginal and global purities 1/(4 I_a), 1/(4 I_b), 1/(16 I_ab)."""
    return symplectic_invariants(gamma).purities()


def classify_steering(g_ab: float, g_ba: float) -> SteeringClass:
    if g_ab < 0 or g_ba < 0:
        raise ValueError("steering values are clipped at zero by definition")
    return _STEERING_CLASSES[_steering_class_index(g_ab, g_ba)]


def average_occupations(gamma: CovarianceMatrix) -> tuple[float, float]:
    """Mode occupations from the quadrature variances, (x^2 + p^2 - 1)/2."""
    _require_physical(gamma)
    return _occupations(gamma.entries)


def _occupations(g: np.ndarray) -> tuple[float, float]:
    return 0.5 * (g[0, 0] + g[1, 1] - 1.0), 0.5 * (g[2, 2] + g[3, 3] - 1.0)


_MOMENT_KEYS = (
    "adag_a",
    "a_adag",
    "adag_adag",
    "a_a",
    "bdag_b",
    "b_bdag",
    "bdag_bdag",
    "b_b",
    "bdag_adag",
    "adag_b",
    "a_bdag",
    "a_b",
)


def second_order_correlators(
    basis: PolaritonBasis, occupations: tuple[float, float]
) -> dict[str, float]:
    """All twelve quadratic moments of a branch-diagonal polariton state.

    ``occupations`` are the branch fillings <p_j' p_j>; squeezing and
    cross moments of the polaritons are assumed zero, which is the steady
    state of the common-bath dynamics.
    """
    n_u, n_l = occupations
    if n_u < 0 or n_l < 0:
        raise ValueError("occupations must be non-negative")
    out = dict.fromkeys(_MOMENT_KEYS, 0.0)
    for (w, x, y, z), n in [(basis.coeffs_upper, n_u), (basis.coeffs_lower, n_l)]:
        out["adag_a"] += (w * w + y * y) * n + y * y
        out["a_adag"] += (w * w + y * y) * n + w * w
        out["adag_adag"] += -w * y * (2 * n + 1)
        out["a_a"] += -w * y * (2 * n + 1)
        out["bdag_b"] += (x * x + z * z) * n + z * z
        out["b_bdag"] += (x * x + z * z) * n + x * x
        out["bdag_bdag"] += -x * z * (2 * n + 1)
        out["b_b"] += -x * z * (2 * n + 1)
        out["bdag_adag"] += -((w * z + x * y) * n + w * z)
        out["adag_b"] += (w * x + y * z) * n + y * z
        out["a_bdag"] += (w * x + y * z) * n + w * x
        out["a_b"] += -((w * z + x * y) * n + w * z)
    return out


def covariance_from_correlators(moments: dict[str, float]) -> CovarianceMatrix:
    """Assemble the bare covariance from the quadratic-moment table."""
    m = moments
    g = np.zeros((4, 4))
    g[0, 0] = 0.5 * (m["a_a"] + m["adag_adag"] + m["a_adag"] + m["adag_a"])
    g[1, 1] = 0.5 * (m["a_adag"] + m["adag_a"] - m["a_a"] - m["adag_adag"])
    g[2, 2] = 0.5 * (m["b_b"] + m["bdag_bdag"] + m["b_bdag"] + m["bdag_b"])
    g[3, 3] = 0.5 * (m["b_bdag"] + m["bdag_b"] - m["b_b"] - m["bdag_bdag"])
    g[0, 2] = g[2, 0] = 0.5 * (m["a_b"] + m["a_bdag"] + m["adag_b"] + m["bdag_adag"])
    g[1, 3] = g[3, 1] = 0.5 * (m["a_bdag"] + m["adag_b"] - m["a_b"] - m["bdag_adag"])
    return CovarianceMatrix(g)


def _zeta(params: ModelParams, wu: float, wl: float) -> float:
    wa, wb = params.omega_a, params.omega_b
    prod = wu * wl
    return (4.0 * params.diamag * wa + wa * wa + prod) * (wb * wb + prod)


def ground_state_log_negativity_closed(params: ModelParams) -> float:
    """Closed-form ground-state entanglement of the single-coupling family."""
    wu, wl = polariton_frequencies(params)
    wa, wb, lam = params.omega_a, params.omega_b, params.coupling
    two_d = abs(2.0 * lam * math.sqrt(wa * wb) - math.sqrt(_zeta(params, wu, wl))) / (
        (wu + wl) * math.sqrt(wu * wl)
    )
    return max(0.0, -math.log(two_d))


def ground_state_steering_closed(params: ModelParams) -> float:
    """Closed-form ground-state steering, identical in both directions."""
    wu, wl = polariton_frequencies(params)
    wa, wb, lam = params.omega_a, params.omega_b, params.coupling
    zeta = _zeta(params, wu, wl)
    ratio = wu * wl * (wu + wl) ** 2 * zeta / (zeta - 4.0 * lam * lam * wa * wb) ** 2
    return max(0.0, 0.5 * math.log(ratio))


def correlation_report(gamma: CovarianceMatrix) -> CorrelationReport:
    """Every correlation measure of one bare-basis state.

    One physicality check and one set of block determinants serve every
    field, through the same formulas as the scalar functions.
    """
    inv = symplectic_invariants(gamma)
    g_ab, g_ba = inv.steering()
    mu_a, mu_b, mu_ab = inv.purities()
    n_a, n_b = _occupations(gamma.entries)
    return CorrelationReport(
        e_n=inv.log_negativity(),
        g_ab=g_ab,
        g_ba=g_ba,
        mu_a=mu_a,
        mu_b=mu_b,
        mu_ab=mu_ab,
        n_a=n_a,
        n_b=n_b,
        classification=classify_steering(g_ab, g_ba),
    )
