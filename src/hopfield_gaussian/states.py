"""Bare-basis covariance matrices of the coupled modes.

Quadratures are ordered canonically, (x_a, p_a, x_b, p_b) in the bare
basis and (x_U, p_U, x_L, p_L) in the polariton basis, with the vacuum at
variance 1/2.  A state diagonal in the polariton basis is fixed by its
symplectic eigenvalues c_j = n_j + 1/2, which the caller computes;
``_thermal_spectrum`` gives those of the common-bath steady state (n_j
the Bose numbers, 0 in the ground state).  Every command holds the state
as Gamma_xx ⊕ Gamma_pp, the x-p sector blocks (``_sector_covariance``),
on floats and arrays alike; on a sweep block each formula runs once over
both frames' (2, n) arrays (``_stacked_covariance``).  A frequency that
underflows to 0 gives an infinite weight on both, which the measures stage
reports as an overflow.  ``point --dump-cov`` prints the sectors in the
bare 4x4 layout (``sector_rows``), from sectors whose measures ``point``
has checked, in the text format of ``format_covariance``.  The 4x4
matrix type, its reader and the 4x4 route from a basis are second routes
for ``verify`` and the tests (``oracles.CovarianceMatrix``,
``oracles.parse_covariance``, ``oracles.steady_state_covariance``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import _frame_vectors

__all__ = [
    "Environment",
    "thermal_occupation",
    "sector_rows",
    "format_covariance",
    "format_value",
    "VALUE_FORMAT",
]


# the default damping slope of each mode
_SLOPE = 0.01


# Built once per point, with the handwritten __init__ of ``ModelParams``, for
# the same reason: one chained range test admits the common case, and only
# what it does not admit runs the checks of ``_refuse``.
@dataclass(frozen=True, init=False)
class Environment:
    """Common Ohmic reservoir: temperature and per-mode damping slopes."""

    temperature: float
    gamma_a: float = _SLOPE
    gamma_b: float = _SLOPE

    def __init__(self, temperature, gamma_a=_SLOPE, gamma_b=_SLOPE):
        state = self.__dict__
        state["temperature"] = temperature
        state["gamma_a"] = gamma_a
        state["gamma_b"] = gamma_b
        try:
            if (0.0 <= temperature < math.inf and 0.0 < gamma_a < math.inf
                    and 0.0 < gamma_b < math.inf):
                return
        except TypeError:  # not a number: math.isfinite words it below
            pass
        self._refuse()

    def _refuse(self):
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
    which the measures stage reports.  Both take numpy's ``expm1``: numpy's
    and ``math.expm1`` can differ in the last bit, which E_N's determinant
    formula magnifies to 1e-8 near separable pure states, and numpy's of a
    float is its array result bit for bit, so a point and its sweep row
    share every occupation."""
    if isinstance(omega, np.ndarray):
        if not temperature.any():  # a ground state is all zeros
            return np.zeros(omega.shape)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            # x is inf where omega / T overflows, as Python's float division
            # gives, and an x that underflows to 0 gives inf, as on floats
            x = omega / temperature
            occupation = 1.0 / np.expm1(x)
        # 0 past |x| = 700, at T = +-0 and for a NaN x, as on floats
        live = abs(x) <= 700.0
        if not live.all():
            occupation[~live] = 0.0
        return occupation
    if temperature == 0.0:
        return 0.0
    x = omega / temperature
    # as on arrays: 0 past x = 700 (below the underflow of exp(-x)) and for
    # a NaN x, and inf where x underflows to zero, as numpy's 1 / 0 gives
    if not x <= 700.0:
        return 0.0
    return 1.0 / float(np.expm1(x)) if x > 0.0 else math.inf


def _thermal_spectrum(omegas, temperature):
    """(c_U, c_L) = 1/2 + ``_bose`` of (omega_U, omega_L): the symplectic
    eigenvalues of the common-bath steady state at T >= 0, 1/2 at T = 0 (the
    ground state); two floats, or the rows of one (2, n) array."""
    if isinstance(temperature, np.ndarray):
        return 0.5 + _bose(np.array(omegas), temperature)
    return 0.5 + _bose(omegas[0], temperature), 0.5 + _bose(omegas[1], temperature)


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


def _sector_covariance(frame_x, frame_p, passive, c_u, c_l):
    """(Gamma_xx, Gamma_pp, c_U, c_L, det Gamma_xx) of the state with symplectic
    eigenvalues c_U, c_L >= 1/2, from ``model._sector_modes``.

    A block is sum_j (c_j / omega_j) (A^1/2 u_j)(A^1/2 u_j)^T.  Where V = T
    both are R diag(c_U, c_L) R^T = c_U I + (c_L - c_U) u_L u_L^T, so a
    number-conserving ground state is the vacuum exactly.  A float point
    computes only the form its V = T flag selects.  Arrays take frame_x as
    the pair of frames of ``_sector_modes`` (``_stacked_covariance``).
    """
    if isinstance(passive, np.ndarray):
        return _stacked_covariance(frame_x, passive, c_u, c_l)
    (u1, u2), d = frame_p[1], c_l - c_u
    same = c_u + d * u2 * u2, -d * u1 * u2, c_u + d * u1 * u1
    if passive:
        return same, same, c_u, c_l, c_u * c_l
    w_u, w_l = _weights(frame_x, c_u, c_l)
    gxx = _sector_block(frame_x, w_u, w_l)
    gpp = _sector_block(frame_p, *_weights(frame_p, c_u, c_l))
    det_xx = frame_x[3] * w_u * w_l  # det T c_U c_L / (omega_U omega_L)
    return gxx, gpp, c_u, c_l, det_xx


def _stacked_covariance(frames, passive, c_u, c_l):
    """``_sector_covariance`` of arrays: both blocks of every point are one
    ``_sector_block`` over the pair of frames.  Only the V = T form (at all,
    no or some points) and the split of the (2, n) blocks into Gamma_xx and
    Gamma_pp differ from floats."""
    (wu, wl), (u1, u2), _, det_a = frames
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


def sector_rows(sectors) -> list[list[float]]:
    """The rows of the 4x4 covariance of ``_sector_covariance``, in (x_a, p_a,
    x_b, p_b) order: the one place that lays the six sector entries out in
    the bare basis.  Symmetric by construction."""
    (xa, xab, xb), (pa, pab, pb), *_ = sectors
    return [[xa, 0.0, xab, 0.0], [0.0, pa, 0.0, pab], [xab, 0.0, xb, 0.0], [0.0, pab, 0.0, pb]]


# 12 significant digits: the one number format of every CSV and report
VALUE_FORMAT = ".12g"


def format_value(x: float) -> str:
    return format(x, VALUE_FORMAT)


# '%.12g' % x is format(x, '.12g') for every float, -0.0, inf and nan included
_CELL = "%" + VALUE_FORMAT


_HEADER = "basis: bare"


def format_covariance(rows) -> str:
    """Plain-text serialization of 4 rows of floats: one basis-tag line, then
    the rows, each entry to 17 significant digits."""
    lines = [_HEADER]
    for row in rows:
        lines.append(" ".join(f"{v:.17g}" for v in row))
    return "\n".join(lines) + "\n"
