"""Bare-basis covariance matrices of the coupled modes.

Quadratures are ordered canonically, (x_a, p_a, x_b, p_b) in the bare
basis and (x_U, p_U, x_L, p_L) in the polariton basis, with the vacuum at
variance 1/2.  Every covariance here is a bare-basis 4x4 matrix.  The
steady state of the common-bath master equation is diagonal in the
polariton basis with coth weights, so with T the symplectic quadrature map
of the Bogoliubov coefficients it is T diag(n + 1/2) T^T, one product for
the ground state (n = 0) and the thermal state alike.  Closed-form
matrices are provided alongside as oracles and are pinned against that
generic route in ``verify`` and the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    DegenerateSpectrumError,
    ModelParams,
    PolaritonBasis,
    polariton_frequencies,
)

__all__ = [
    "CovarianceMatrix",
    "Environment",
    "symplectic_form",
    "symplectic_spectrum",
    "thermal_occupation",
    "quadrature_transform",
    "polariton_to_bare_transform",
    "ground_state_covariance_closed",
    "ground_state_covariance_generic",
    "thermal_covariance_closed",
    "no_a2_covariance_closed",
    "steady_state_covariance",
    "format_covariance",
    "format_value",
    "VALUE_FORMAT",
    "parse_covariance",
]

PHYSICALITY_TOL = 1e-10


def covariance_overflow(where: str = "") -> ValueError:
    """The error of a state whose covariance does not fit in a float."""
    return ValueError(
        f"the covariance{where} overflows: its determinants are not finite, "
        "because the reservoir temperature is too high"
    )


def symplectic_form() -> np.ndarray:
    j = np.array([[0.0, 1.0], [-1.0, 0.0]])
    return np.block([[j, np.zeros((2, 2))], [np.zeros((2, 2)), j]])


@dataclass(frozen=True)
class CovarianceMatrix:
    """Symmetric 4x4 second-moment matrix of the bare quadratures."""

    entries: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=float)
        if m.shape != (4, 4):
            raise ValueError("covariance matrix must be 4x4")
        if not np.all(np.isfinite(m)):
            raise ValueError("covariance matrix entries must be finite")
        m = 0.5 * (m + m.T)  # store an exactly symmetric matrix
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)

    def block_a(self) -> np.ndarray:
        return self.entries[:2, :2]

    def block_b(self) -> np.ndarray:
        return self.entries[2:, 2:]

    def block_c(self) -> np.ndarray:
        """Lower-left cross block (second mode rows, first mode columns)."""
        return self.entries[2:, :2]

    def symplectic_eigenvalues(self) -> np.ndarray:
        """(nu_-, nu_+); both NaN when the matrix is not positive definite."""
        return np.array(symplectic_spectrum(self.entries.tolist()))

    def is_physical(self) -> bool:
        return symplectic_spectrum(self.entries.tolist())[0] >= 0.5 - PHYSICALITY_TOL


def _root(x: float) -> float:
    return math.sqrt(x) if x > 0.0 else math.nan


def _stacked_root(x: np.ndarray) -> np.ndarray:
    return np.sqrt(np.where(x > 0.0, x, np.nan))


def symplectic_spectrum(g):
    """Symplectic eigenvalues (nu_-, nu_+) of two-mode covariances, in closed form.

    ``g`` is one matrix as a nested list of floats, or a (4, 4, n) array
    holding n matrices with the point index last; only the lower triangle
    g[i][j], i >= j, is read.  Both inputs take the same floating-point
    operations, so a matrix gets the same bits either way.

    With Gamma = L L^T (Cholesky), K = L^T Omega L is antisymmetric with
    eigenvalues +-i nu_+-.  Its self-dual and anti-self-dual parts have
    norms u = nu_+ + nu_- and v = nu_+ - nu_-, and Pf K = det L = nu_+ nu_-,
    so nu_+ = (u + v)/2 and nu_- = det L / nu_+ with no difference of two
    nearly equal numbers.  A pivot that is not positive (Gamma not positive
    definite, hence not a state) makes both values NaN, and so does a u
    that underflows to zero.  Squares of K's entries overflow for entries
    above about 1e150.
    """
    stacked = isinstance(g, np.ndarray)
    root, sqrt = (_stacked_root, np.sqrt) if stacked else (_root, math.sqrt)
    l00 = root(g[0][0])
    l10, l20, l30 = g[1][0] / l00, g[2][0] / l00, g[3][0] / l00
    l11 = root(g[1][1] - l10 * l10)
    l21 = (g[2][1] - l20 * l10) / l11
    l31 = (g[3][1] - l30 * l10) / l11
    l22 = root(g[2][2] - l20 * l20 - l21 * l21)
    l32 = (g[3][2] - l30 * l20 - l31 * l21) / l22
    l33 = root(g[3][3] - l30 * l30 - l31 * l31 - l32 * l32)
    k01 = l00 * l11 + l20 * l31 - l30 * l21
    k02 = l20 * l32 - l30 * l22
    k03 = l20 * l33
    k12 = l21 * l32 - l31 * l22
    k13 = l21 * l33
    k23 = l22 * l33
    s1, s2, s3 = k01 + k23, k02 - k13, k03 + k12
    d1, d2, d3 = k01 - k23, k02 + k13, k03 - k12
    # v is zero for a degenerate pair, so only u takes the NaN guard
    u = root(s1 * s1 + s2 * s2 + s3 * s3)
    v = sqrt(d1 * d1 + d2 * d2 + d3 * d3)
    nu_plus = 0.5 * (u + v)
    return l00 * l11 * l22 * l33 / nu_plus, nu_plus


@dataclass(frozen=True)
class Environment:
    """Common Ohmic reservoir: temperature and per-mode damping slopes."""

    temperature: float
    gamma_a: float = 0.01
    gamma_b: float = 0.01

    def __post_init__(self):
        if not all(map(math.isfinite, (self.temperature, self.gamma_a, self.gamma_b))):
            raise ValueError(f"environment values must be finite, got {self}")
        if self.temperature < 0:
            raise ValueError("temperature must be non-negative")
        if self.gamma_a <= 0 or self.gamma_b <= 0:
            raise ValueError("damping slopes must be positive")


def thermal_occupation(omega: float, temperature: float) -> float:
    """Bose occupation 1/(exp(omega/T) - 1); exactly 0 at T = 0."""
    if omega <= 0:
        raise ValueError("occupation defined for positive frequencies")
    if temperature < 0:
        raise ValueError("temperature must be non-negative")
    if temperature == 0.0:
        return 0.0
    x = omega / temperature
    if x > 700.0:  # below double-precision underflow of exp(-x)
        return 0.0
    return 1.0 / math.expm1(x)


# a1 and b1 of T diag(a1, a1, b1, b1) T^T are the symplectic eigenvalues of
# the state, so det Gamma = (a1 b1)^2 overflows past a1 b1 = 1.3e154; past
# this bound the product itself could overflow, and inf * 0 give NaN entries
_MAX_WEIGHT_PRODUCT = 1e200


def _coth_weight(omega: float, temperature: float) -> float:
    """coth(omega / 2T) evaluated overflow-free as 1 + 2 N(omega)."""
    return 1.0 + 2.0 * thermal_occupation(omega, temperature)


def quadrature_transform(basis: PolaritonBasis) -> np.ndarray:
    """Quadrature-space map assembled directly from the Bogoliubov coefficients.

    x_a picks up (w - y) of each branch, p_a picks up (w + y), and the
    matter rows the same with (x, z).  The result is symplectic because the
    coefficients are Bogoliubov-orthonormal.
    """
    wu_, xu, yu, zu = basis.coeffs_upper
    wl_, xl, yl, zl = basis.coeffs_lower
    return np.array(
        [
            [wu_ - yu, 0.0, wl_ - yl, 0.0],
            [0.0, wu_ + yu, 0.0, wl_ + yl],
            [xu - zu, 0.0, xl - zl, 0.0],
            [0.0, xu + zu, 0.0, xl + zl],
        ]
    )


def _g_plus(x: float) -> float:
    return math.sqrt(x)


def _g_minus(x: float) -> float:
    return 1.0 / math.sqrt(x)


def polariton_to_bare_transform(
    params: ModelParams, basis: PolaritonBasis
) -> np.ndarray:
    """Closed-form transform for the single-coupling family.

    Written with g+(x) = sqrt(x) and g-(x) = 1/sqrt(x): position rows scale
    with g- of (branch frequency / mode frequency), momentum rows with g+,
    and the branch mixing is the rotation by the basis angle theta.
    """
    if basis.theta is None:
        raise ValueError("closed-form transform needs a basis with a mixing angle")
    wa, wb = params.omega_a, params.omega_b
    wu, wl = basis.omega_upper, basis.omega_lower
    ct, st = math.cos(basis.theta), math.sin(basis.theta)
    return np.array(
        [
            [ct * _g_minus(wu / wa), 0.0, st * _g_minus(wl / wa), 0.0],
            [0.0, ct * _g_plus(wu / wa), 0.0, st * _g_plus(wl / wa)],
            [-st * _g_minus(wu / wb), 0.0, ct * _g_minus(wl / wb), 0.0],
            [0.0, -st * _g_plus(wu / wb), 0.0, ct * _g_plus(wl / wb)],
        ]
    )


def _polariton_diagonal_state(
    basis: PolaritonBasis, a1: float, b1: float
) -> CovarianceMatrix:
    """T diag(a1, a1, b1, b1) T^T: the grid kernel's product, for one point."""
    t = quadrature_transform(basis)
    return CovarianceMatrix((t * np.array([a1, a1, b1, b1])) @ t.T)


def ground_state_covariance_closed(params: ModelParams) -> CovarianceMatrix:
    """Closed-form bare-basis ground state for the single-coupling family.

    Valid for any diamagnetic weight; with D = lambda^2/omega_b the product
    rule omega_U omega_L = omega_a omega_b collapses the entries to the
    familiar (omega_a + omega_b) / 2(omega_U + omega_L) pattern.
    """
    wu, wl = polariton_frequencies(params)
    wa, wb, lam = params.omega_a, params.omega_b, params.coupling
    shifted = wa * wa + 4.0 * params.diamag * wa
    s, prod = wu + wl, wu * wl
    g = np.zeros((4, 4))
    g[0, 0] = wa * (wb * wb + prod) / (2.0 * prod * s)
    g[1, 1] = (shifted + prod) / (2.0 * wa * s)
    g[2, 2] = wb * (shifted + prod) / (2.0 * prod * s)
    g[3, 3] = (wb * wb + prod) / (2.0 * wb * s)
    g[0, 2] = g[2, 0] = -lam * wa * wb / (prod * s)
    g[1, 3] = g[3, 1] = lam / s
    return CovarianceMatrix(g)


def ground_state_covariance_generic(basis: PolaritonBasis) -> CovarianceMatrix:
    """Polariton vacuum pushed through the quadrature map: (1/2) T T^T."""
    return _polariton_diagonal_state(basis, 0.5, 0.5)


def thermal_covariance_closed(params: ModelParams, temperature: float) -> CovarianceMatrix:
    """Closed-form bare-basis steady state at reservoir temperature T.

    Each entry is a two-branch coth combination; the T -> 0 limit
    reproduces the ground-state matrix.  Needs a finite branch splitting.
    """
    wu, wl = polariton_frequencies(params)
    if wu - wl < 1e-10 * params.omega_b:
        raise DegenerateSpectrumError("branch splitting vanishes in the denominators")
    wa, wb, lam = params.omega_a, params.omega_b, params.coupling
    cu = _coth_weight(wu, temperature)
    cl = _coth_weight(wl, temperature)
    wu2, wl2, wb2 = wu * wu, wl * wl, wb * wb
    gap = wl2 - wu2
    g = np.zeros((4, 4))
    g[0, 0] = wa * (cl * wu * (wl2 - wb2) - cu * wl * (wu2 - wb2)) / (
        2.0 * wl * wu * gap
    )
    g[1, 1] = (cl * wl * (wl2 - wb2) - cu * wu * (wu2 - wb2)) / (2.0 * wa * gap)
    g[2, 2] = wb * (cu * wl * (wl2 - wb2) - cl * wu * (wu2 - wb2)) / (
        2.0 * wl * wu * gap
    )
    g[3, 3] = (cu * wu * (wl2 - wb2) - cl * wl * (wu2 - wb2)) / (2.0 * wb * gap)
    g[0, 2] = g[2, 0] = lam * wa * wb * (cl * wu - cu * wl) / (wl * wu * gap)
    g[1, 3] = g[3, 1] = lam * (cl * wl - cu * wu) / gap
    return CovarianceMatrix(g)


def no_a2_covariance_closed(params: ModelParams, temperature: float) -> CovarianceMatrix:
    """Closed-form steady state of the diamag = 0 model.

    Branch sums with the unnormalized coefficient combinations folded in:
    with n_j the squared Bogoliubov normalization of branch j and
    c_j = coth(omega_j / 2T),

        G11 = sum_j c_j (wb + wj)^2 / (2 n_j lam^2)
        G22 = sum_j c_j wj^2 (wb + wj)^2 / (2 n_j lam^2 wa^2)
        G33 = sum_j c_j 2 wb^2 / (n_j (wj - wb)^2)
        G44 = sum_j c_j 2 wj^2 / (n_j (wj - wb)^2)
        G13 = sum_j c_j wb (wb + wj) / (n_j lam (wj - wb))
        G24 = sum_j c_j wj^2 (wb + wj) / (n_j lam wa (wj - wb))

    At resonance the cavity and matter blocks coincide element-wise.
    """
    if params.diamag != 0.0:
        raise ValueError("closed form requires diamag = 0")
    lam = params.coupling
    if lam <= 0.0:
        raise ValueError("coupling must be positive")
    wu, wl = polariton_frequencies(params)
    if wu - wl < 1e-10 * params.omega_b:
        raise DegenerateSpectrumError("branch splitting vanishes in the denominators")
    wa, wb = params.omega_a, params.omega_b
    g = np.zeros((4, 4))
    for wj in (wu, wl):
        cj = _coth_weight(wj, temperature)
        wt = (wa + wj) * (wb + wj) / (2.0 * lam * wa)
        xt = (wj + wb) / (wj - wb)
        yt = (wj - wa) * (wb + wj) / (2.0 * lam * wa)
        n_sq = wt * wt + xt * xt - yt * yt - 1.0
        g[0, 0] += cj * (wb + wj) ** 2 / (2.0 * n_sq * lam * lam)
        g[1, 1] += cj * wj * wj * (wb + wj) ** 2 / (2.0 * n_sq * lam * lam * wa * wa)
        g[2, 2] += cj * 2.0 * wb * wb / (n_sq * (wj - wb) ** 2)
        g[3, 3] += cj * 2.0 * wj * wj / (n_sq * (wj - wb) ** 2)
        g[0, 2] += cj * wb * (wb + wj) / (n_sq * lam * (wj - wb))
        g[1, 3] += cj * wj * wj * (wb + wj) / (n_sq * lam * wa * (wj - wb))
    g[2, 0], g[3, 1] = g[0, 2], g[1, 3]
    return CovarianceMatrix(g)


def steady_state_covariance(basis: PolaritonBasis, temperature: float) -> CovarianceMatrix:
    """Generic bare-basis steady state: T diag(coth weights / 2) T^T.

    Works for every stable basis, including the general bilinear family
    where no closed form is available.
    """
    a1 = 0.5 * _coth_weight(basis.omega_upper, temperature)
    b1 = 0.5 * _coth_weight(basis.omega_lower, temperature)
    if not a1 * b1 < _MAX_WEIGHT_PRODUCT:
        raise covariance_overflow()
    return _polariton_diagonal_state(basis, a1, b1)


# 12 significant digits: the one number format of every CSV and report
VALUE_FORMAT = ".12g"


def format_value(x: float) -> str:
    return format(x, VALUE_FORMAT)


_HEADER = "basis: bare"


def format_covariance(gamma: CovarianceMatrix) -> str:
    """Plain-text serialization: one basis-tag line, then 4 row-major rows."""
    lines = [_HEADER]
    for row in gamma.entries:
        lines.append(" ".join(f"{v:.17g}" for v in row))
    return "\n".join(lines) + "\n"


def parse_covariance(text: str) -> CovarianceMatrix:
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    if len(lines) != 5 or not lines[0].startswith("basis:"):
        raise ValueError("expected a basis line followed by four matrix rows")
    if lines[0].split(":", 1)[1].strip() != "bare":
        raise ValueError(f"expected the header {_HEADER!r}, got {lines[0].strip()!r}")
    rows = [[float(tok) for tok in ln.split()] for ln in lines[1:]]
    return CovarianceMatrix(np.array(rows))
