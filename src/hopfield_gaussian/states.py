"""Bare-basis covariance matrices of the coupled modes.

Quadratures are ordered canonically, (x_a, p_a, x_b, p_b) in the bare
basis and (x_U, p_U, x_L, p_L) in the polariton basis, with the vacuum at
variance 1/2.  The steady state of the common-bath master equation is
diagonal in the polariton basis with coth weights, n + 1/2 per branch
(n = 0 for the ground state).  Sweeps and ``point`` build it as Gamma_xx
⊕ Gamma_pp from the x-p sector frames (``_sector_covariance``), on floats
and on arrays alike; on a sweep block each formula runs once over both
frames' (2, n) arrays (``_stacked_covariance``).  A frequency that
underflows to 0 gives an infinite weight on both, which the measures stage
reports as an overflow.  Only ``point --dump-cov`` assembles the 4x4 matrix
(``sector_matrix``), from the sectors whose measures ``point`` has
checked; ``format_covariance`` writes its text format and
``parse_covariance`` reads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measures import OVERFLOW, measure_error
from .model import PolaritonBasis, _frame_vectors

__all__ = [
    "CovarianceMatrix",
    "Environment",
    "thermal_occupation",
    "quadrature_transform",
    "ground_state_covariance_generic",
    "steady_state_covariance",
    "sector_matrix",
    "format_covariance",
    "format_value",
    "VALUE_FORMAT",
    "parse_covariance",
]


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
    if temperature < 0:
        raise ValueError("temperature must be non-negative")
    if omega <= 0:
        raise ValueError("occupation defined for positive frequencies")
    return _bose(omega, temperature)


def _bose(omega, temperature):
    """``thermal_occupation`` of a float, or elementwise of arrays (the
    temperature's along omega's last axis), at temperatures known to be
    non-negative.  An omega that underflows to 0 gives inf at T > 0 on both,
    which the measures stage reports.  Arrays keep a form of their own, for
    they call ``math.expm1`` per element: numpy's can differ in the last bit,
    which E_N's determinant formula magnifies to 1e-8 near separable pure
    states."""
    if isinstance(omega, np.ndarray):
        occupation = np.zeros(omega.shape)
        if temperature.any():  # a ground state is all zeros
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                # inf where it overflows, as Python's float division gives,
                # and +-inf or NaN at T = +-0, past |x| = 700 as below
                x = omega / temperature
            live = abs(x) <= 700.0
            occupation[live] = 1.0 / np.fromiter(map(math.expm1, x[live].tolist()), float)
        return occupation
    if temperature == 0.0:
        return 0.0
    x = omega / temperature
    # as on arrays: 0 past x = 700 (below the underflow of exp(-x)) and for
    # a NaN x, and inf where x underflows to zero, as numpy's 1 / 0 gives
    if not x <= 700.0:
        return 0.0
    return 1.0 / math.expm1(x) if x > 0.0 else math.inf


def _weights(frame, c_u, c_l):
    """(c_U / omega_U, c_L / omega_L) of a float frame, c >= 1/2.  An omega
    of 0 (an underflow) gives inf, as numpy's division does, where Python's
    raises: the measures stage then reports the fault the kernel reports."""
    wu, wl = frame[0]
    return (c_u / wu if wu else math.inf), (c_l / wl if wl else math.inf)


def _sector_block(frame, w_u, w_l):
    """(11, 12, 22) of sum_j w_j (A^1/2 u_j)(A^1/2 u_j)^T of a frame, floats
    or arrays."""
    (y1, y2), (z1, z2) = _frame_vectors(*frame[1:3])
    return (w_u * y1 * y1 + w_l * z1 * z1, w_u * y1 * y2 + w_l * z1 * z2,
            w_u * y2 * y2 + w_l * z2 * z2)


def _sector_covariance(frame_x, frame_p, passive, temperature):
    """(Gamma_xx, Gamma_pp, c_U, c_L, det Gamma_xx) from ``model._sector_modes``.

    A block is sum_j (c_j / omega_j) (A^1/2 u_j)(A^1/2 u_j)^T, c_j = 1/2 + n_j.
    Where V = T both are R diag(c_U, c_L) R^T = c_U I + (c_L - c_U) u_L u_L^T,
    so a number-conserving ground state is the vacuum exactly.  A float point
    computes only the form its V = T flag selects.  Arrays take frame_x as
    the pair of frames of ``_sector_modes`` (``_stacked_covariance``).
    """
    if isinstance(passive, np.ndarray):
        return _stacked_covariance(frame_x, temperature, passive)
    c_u, c_l = 0.5 + _bose(frame_p[0][0], temperature), 0.5 + _bose(frame_p[0][1], temperature)
    (u1, u2), d = frame_p[1], c_l - c_u
    same = c_u + d * u2 * u2, -d * u1 * u2, c_u + d * u1 * u1
    if passive:
        return same, same, c_u, c_l, c_u * c_l
    w_u, w_l = _weights(frame_x, c_u, c_l)
    gxx = _sector_block(frame_x, w_u, w_l)
    gpp = _sector_block(frame_p, *_weights(frame_p, c_u, c_l))
    det_xx = frame_x[3] * w_u * w_l  # det T c_U c_L / (omega_U omega_L)
    return gxx, gpp, c_u, c_l, det_xx


def _stacked_covariance(frames, temperature, passive):
    """``_sector_covariance`` of arrays: both blocks of every point are one
    ``_sector_block`` over the pair of frames.  Only c_U, c_L (of frame 1),
    the V = T form (at all, no or some points) and the split of the (2, n)
    blocks into Gamma_xx and Gamma_pp differ from floats."""
    (wu, wl), (u1, u2), _, det_a = frames
    c_u, c_l = 0.5 + _bose(np.array((wu[1], wl[1])), temperature)
    # a V = T point takes the form of its float route; a block computes only
    # the forms its points take
    passive_points = np.count_nonzero(passive)
    if passive_points:
        u1, u2, d = u1[1], u2[1], c_l - c_u
        same = np.array((c_u + d * u2 * u2, -d * u1 * u2, c_u + d * u1 * u1))
        if passive_points == len(passive):
            return same, same, c_u, c_l, c_u * c_l
    w_u, w_l = c_u / wu, c_l / wl
    blocks = _sector_block(frames, w_u, w_l)
    det_xx = det_a[0] * w_u[0] * w_l[0]
    if passive_points:
        blocks = np.where(passive, same[:, None], blocks)
        det_xx = np.where(passive, c_u * c_l, det_xx)
    gxx, gpp = zip(*blocks)
    return gxx, gpp, c_u, c_l, det_xx


def sector_matrix(sectors) -> CovarianceMatrix:
    """The 4x4 covariance of ``_sector_covariance``, in (x_a, p_a, x_b, p_b) order;
    ``point --dump-cov`` assembles it only from sectors whose measures are finite."""
    (xa, xab, xb), (pa, pab, pb), *_ = sectors
    rows = [[xa, 0.0, xab, 0.0], [0.0, pa, 0.0, pab], [xab, 0.0, xb, 0.0], [0.0, pab, 0.0, pb]]
    return CovarianceMatrix(np.array(rows))


# a1 and b1 of T diag(a1, a1, b1, b1) T^T are the symplectic eigenvalues of
# the state, so det Gamma = (a1 b1)^2 overflows past a1 b1 = 1.3e154; past
# this bound the product itself could overflow, and inf * 0 give NaN entries
_MAX_WEIGHT_PRODUCT = 1e200


def _coth_weight(omega: float, temperature: float) -> float:
    """coth(omega / 2T) evaluated overflow-free as 1 + 2 N(omega)."""
    return 1.0 + 2.0 * thermal_occupation(omega, temperature)


# The 4x4 route T diag(n + 1/2) T^T from a basis, which no command runs:
# ``verify`` and the tests pin the closed forms of ``oracles`` and the
# sector route to it.


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


def _polariton_diagonal_state(
    basis: PolaritonBasis, a1: float, b1: float
) -> CovarianceMatrix:
    """T diag(a1, a1, b1, b1) T^T."""
    t = quadrature_transform(basis)
    return CovarianceMatrix((t * np.array([a1, a1, b1, b1])) @ t.T)


def ground_state_covariance_generic(basis: PolaritonBasis) -> CovarianceMatrix:
    """Polariton vacuum pushed through the quadrature map: (1/2) T T^T."""
    return _polariton_diagonal_state(basis, 0.5, 0.5)


def steady_state_covariance(basis: PolaritonBasis, temperature: float) -> CovarianceMatrix:
    """Generic bare-basis steady state: T diag(coth weights / 2) T^T.

    Works for every stable basis, including the general bilinear family
    where no closed form is available.
    """
    a1 = 0.5 * _coth_weight(basis.omega_upper, temperature)
    b1 = 0.5 * _coth_weight(basis.omega_lower, temperature)
    if not a1 * b1 < _MAX_WEIGHT_PRODUCT:
        raise measure_error(OVERFLOW, omega_l=basis.omega_lower, c_l=b1)
    return _polariton_diagonal_state(basis, a1, b1)


# 12 significant digits: the one number format of every CSV and report
VALUE_FORMAT = ".12g"


def format_value(x: float) -> str:
    return format(x, VALUE_FORMAT)


# '%.12g' % x is format(x, '.12g') for every float, -0.0, inf and nan included
_CELL = "%" + VALUE_FORMAT


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
