"""Batched grid kernel: a whole sweep grid as one array pass.

``evaluate_grid`` takes resolved parameters as arrays (one entry per grid
point) and returns every CSV column as an array.  It follows the scalar
route of ``sweep.run_point`` step by step.  Where a formula is shared, the
kernel calls the scalar route's own function on arrays, which runs the
same floating-point operations as on floats:

- closed-form frequencies, mixing angles and Bogoliubov coefficients of
  the single-coupling family from ``model._closed_frequencies`` and
  ``model._closed_coefficients``, as ``model.hopfield_basis`` does;
  points past the stability edge become unstable rows,
- one stacked eigendecomposition of the dynamical matrices for general
  couplings, the uncoupled model and closed-form points with a degenerate
  spectrum, followed by every rule of ``model.bogoliubov_diagonalize`` as
  array operations (bit for bit its frequencies and coefficients; the
  scalar solver stays separate as the test reference),
- every covariance T diag(coth weights) T^T with one batched matrix
  product, bit for bit the product of ``states.steady_state_covariance``,
- the four block determinants per point, then the partial-transpose pair
  of ``measures._partial_transpose_pair``, the physicality check of
  ``states.symplectic_spectrum``, every measure, and the steering class
  from ``measures._steering_class_index``.

Each point's result depends on that point alone, so any contiguous split
of a grid yields the same rows; ``sweep.run_sweep``'s blocks rely on this.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, fields
from itertools import repeat

import numpy as np

from .measures import (
    _STEERING_CLASSES,
    UnphysicalStateError,
    _partial_transpose_pair,
    _steering_class_index,
)
from .model import (
    DEGENERACY_TOL,
    DEGENERATE_MIX_TOL,
    IMAG_TOL,
    PHASE_TOL,
    SIGN_TOL,
    ModelParams,
    _by_math,
    _closed_coefficients,
    _closed_frequencies,
)
from .states import (
    PHYSICALITY_TOL,
    VALUE_FORMAT,
    covariance_overflow,
    symplectic_spectrum,
)

__all__ = ["GridPoints", "GridResult", "evaluate_grid"]

_MEASURES = (
    "omega_upper",
    "omega_lower",
    "e_n",
    "g_ab",
    "g_ba",
    "mu_a",
    "mu_b",
    "mu_ab",
    "n_a",
    "n_b",
)
# (w, x, y, z) of a right eigenvector (a, b, a', b'), and the Bogoliubov metric
_FLIP = np.array([1.0, 1.0, -1.0, -1.0])
# measure cells, class and stable flag of an unstable row
_UNSTABLE_TAIL = "," * (len(_MEASURES) + 2) + "false"


@dataclass(frozen=True)
class GridPoints:
    """Model parameters and temperature of each grid point, as float arrays."""

    omega_a: np.ndarray
    omega_b: np.ndarray
    lambda1: np.ndarray
    lambda2: np.ndarray
    diamag: np.ndarray
    temperature: np.ndarray

    def __post_init__(self):
        # csv_rows reads each column's float64 bits
        for f in fields(self):
            object.__setattr__(self, f.name, np.asarray(getattr(self, f.name), float))

    def __len__(self) -> int:
        return len(self.omega_a)

    def chunk(self, start: int, stop: int) -> GridPoints:
        """The contiguous run of points [start, stop)."""
        return GridPoints(*(getattr(self, f.name)[start:stop] for f in fields(self)))

    def params(self, i: int) -> ModelParams:
        return ModelParams(
            float(self.omega_a[i]),
            float(self.omega_b[i]),
            float(self.lambda1[i]),
            float(self.lambda2[i]),
            float(self.diamag[i]),
        )


@dataclass(frozen=True)
class GridResult:
    """Every CSV column of a grid; measures are NaN and class None when unstable."""

    lam: np.ndarray
    wa: np.ndarray
    wb: np.ndarray
    temperature: np.ndarray
    stable: np.ndarray
    omega_upper: np.ndarray
    omega_lower: np.ndarray
    e_n: np.ndarray
    g_ab: np.ndarray
    g_ba: np.ndarray
    mu_a: np.ndarray
    mu_b: np.ndarray
    mu_ab: np.ndarray
    n_a: np.ndarray
    n_b: np.ndarray
    classification: np.ndarray

    def csv_rows(self) -> list[str]:
        """One row per point, in the format of ``ResultRow.to_csv``."""

        def cells(values: np.ndarray) -> list[str]:
            # grids repeat many values (axes, zero measures): format each
            # distinct bit pattern once, which also keeps -0.0 apart from 0.0
            bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
            distinct = bits.view(np.float64).tolist()
            text = np.array(list(map(format, distinct, repeat(VALUE_FORMAT))), object)
            return text[inverse].tolist()

        head = map(
            ",".join,
            zip(*(cells(c) for c in (self.lam, self.wa, self.wb, self.temperature))),
        )
        ok = self.stable
        measures = [cells(getattr(self, name)[ok]) for name in _MEASURES]
        tails = iter(
            map(",".join, zip(*measures, self.classification[ok], repeat("true")))
        )
        return [
            f"{h},{next(tails)}" if s else h + _UNSTABLE_TAIL
            for h, s in zip(head, ok.tolist())
        ]


def _bose(omega: np.ndarray, temperature: np.ndarray) -> np.ndarray:
    """``states.thermal_occupation`` elementwise: 0 at T = 0 and past exp underflow."""
    occupation = np.zeros_like(omega)
    hot = np.flatnonzero(temperature > 0.0)
    with np.errstate(over="ignore"):  # inf, as Python's float division gives
        x = omega[hot] / temperature[hot]
    live = x <= 700.0
    occupation[hot[live]] = 1.0 / _by_math(math.expm1, x[live])
    return occupation


def _bogoliubov_inner(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``model._bogoliubov_inner`` of each row pair.

    A stacked matmul reproduces the scalar route's dot product bit for bit,
    where an ``einsum`` changed the last bit at about 1 point in 10.
    """
    return (np.conj(u)[:, None, :] @ (_FLIP * v)[:, :, None])[:, 0, 0]


def _fix_phase(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``model._fix_phase`` of each row.

    Returns the real coefficient rows and whether each row was real up to a
    phase (where it was not, the scalar route raises InstabilityError).
    """
    lead = c[np.arange(len(c)), np.abs(c).argmax(axis=1)]
    phase = lead / np.abs(lead)
    # numpy's scalar abs and division, which the scalar route takes, differ
    # from its array loops in the last bit on a complex lead (not a real one)
    for i in np.flatnonzero(lead.imag).tolist():
        phase[i] = lead[i] / abs(lead[i])
    c = c * np.conj(phase)[:, None]
    real = ~(np.abs(c.imag).max(axis=1) > PHASE_TOL * np.abs(c).max(axis=1))
    c = c.real
    head = SIGN_TOL * np.abs(c).max(axis=1)
    negate = (c[:, 0] < -head) | ((np.abs(c[:, 0]) <= head) & (c[:, 1] < 0))
    return np.where(negate[:, None], -c, c), real


def _numeric_form(wa, wb, l1, l2, dd):
    """``model.bogoliubov_diagonalize`` on a stack.

    Builds the dynamical matrices with the entries of
    ``model.build_dynamical_matrix``, takes one ``eig`` over the stack and
    applies every rule of the scalar solver row by row.  Returns (stable,
    omega_U, omega_L, upper (4, n), lower (4, n)); a point is unstable
    exactly where the scalar solver raises InstabilityError, and its
    frequencies and coefficients are then meaningless.
    """
    n = len(wa)
    zero = np.zeros(n)
    d2 = 2 * dd
    cavity = wa + d2
    m = np.array(
        [
            (cavity, l1, d2, l2),
            (l1, wb, l2, zero),
            (-d2, -l2, -cavity, -l1),
            (-l2, zero, -l1, -wb),
        ]
    ).transpose(2, 0, 1)
    evals, evecs = np.linalg.eig(m)
    stable = ~(np.abs(evals.imag).max(axis=1) > IMAG_TOL * wb)
    freqs = evals.real
    positive = freqs > (IMAG_TOL * wb)[:, None]
    stable &= positive.sum(axis=1) == 2
    # the two positive frequencies in index order; the larger is the upper
    # branch, and on a tie the later one (the scalar route's stable argsort,
    # reversed)
    rows = np.arange(n)
    first, second = np.argsort(~positive, axis=1, kind="stable")[:, :2].T
    first_is_upper = freqs[rows, first] > freqs[rows, second]
    i_u = np.where(first_is_upper, first, second)
    i_l = np.where(first_is_upper, second, first)
    wu, wl = freqs[rows, i_u], freqs[rows, i_l]

    c_u = _FLIP * evecs[rows, :, i_u].astype(complex)
    c_l = _FLIP * evecs[rows, :, i_l].astype(complex)
    mix = stable & (wu - wl < DEGENERATE_MIX_TOL * wb)
    if mix.any():
        u, v = c_u[mix], c_l[mix]
        ratio = _by_math(
            operator.truediv,
            _bogoliubov_inner(u, v),
            _bogoliubov_inner(u, u),
            dtype=complex,
        )
        c_l[mix] = v - ratio[:, None] * u

    coeffs = []
    for c in (c_u, c_l):
        norm_sq = _bogoliubov_inner(c, c).real
        stable &= ~(norm_sq <= 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):  # on unstable rows
            fixed, real = _fix_phase(c / np.sqrt(norm_sq)[:, None])
        stable &= real
        coeffs.append(fixed.T)
    return stable, wu, wl, coeffs[0], coeffs[1]


def evaluate_grid(points: GridPoints, state_kind: str) -> GridResult:
    """Rows of every grid point, each equal to ``run_point`` on that point.

    ``state_kind`` is 'ground' (polariton vacuum) or 'thermal' (common-bath
    steady state at each point's temperature).  Raises ValueError when a
    stable point's covariance is singular to rounding or its measures are
    not finite, and UnphysicalStateError when it violates the uncertainty
    bound; the message names the first such point.
    """
    if state_kind not in ("ground", "thermal"):
        raise ValueError("state_kind must be 'ground' or 'thermal'")
    n = len(points)
    wa, wb, l1, l2 = points.omega_a, points.omega_b, points.lambda1, points.lambda2
    temperature = points.temperature if state_kind == "thermal" else np.zeros(n)
    stable = np.ones(n, dtype=bool)
    freqs = np.empty((2, n))  # omega_U, omega_L
    coeffs = np.empty((2, 4, n))  # (w, x, y, z) of the upper and lower branch

    closed = np.flatnonzero((l1 == l2) & (l1 > 0.0))
    args = wa[closed], wb[closed], l1[closed], points.diamag[closed]
    product, wu, wl = _closed_frequencies(*args)
    ok = product > 0.0
    degenerate = ok & (wu - wl < DEGENERACY_TOL * wb[closed])
    with np.errstate(divide="ignore", invalid="ignore"):  # on degenerate points
        _, upper, lower = _closed_coefficients(*args, wu, wl)
    stable[closed[~ok]] = False
    keep = ok & ~degenerate
    done = closed[keep]
    freqs[:, done] = wu[keep], wl[keep]
    coeffs[0][:, done] = np.array(upper)[:, keep]
    coeffs[1][:, done] = np.array(lower)[:, keep]

    is_numeric = np.ones(n, dtype=bool)
    is_numeric[closed[~degenerate]] = False
    numeric = np.flatnonzero(is_numeric)
    if numeric.size:
        ok, wu, wl, upper, lower = _numeric_form(
            wa[numeric], wb[numeric], l1[numeric], l2[numeric], points.diamag[numeric]
        )
        stable[numeric[~ok]] = False
        done = numeric[ok]
        freqs[:, done] = wu[ok], wl[ok]
        coeffs[0][:, done] = upper[:, ok]
        coeffs[1][:, done] = lower[:, ok]

    live = np.flatnonzero(stable)
    (w_u, x_u, y_u, z_u), (w_l, x_l, y_l, z_l) = coeffs[:, :, live]
    t = np.zeros((live.size, 4, 4))
    t[:, 0, 0], t[:, 0, 2] = w_u - y_u, w_l - y_l
    t[:, 1, 1], t[:, 1, 3] = w_u + y_u, w_l + y_l
    t[:, 2, 0], t[:, 2, 2] = x_u - z_u, x_l - z_l
    t[:, 3, 1], t[:, 3, 3] = x_u + z_u, x_l + z_l
    omega_u, omega_l = freqs[:, live]
    t_live = temperature[live]
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        a1 = 0.5 * (1.0 + 2.0 * _bose(omega_u, t_live))
        b1 = 0.5 * (1.0 + 2.0 * _bose(omega_l, t_live))
        weights = np.stack([a1, a1, b1, b1], axis=1)
        gamma = (t * weights[:, None, :]) @ t.transpose(0, 2, 1)
        gamma = 0.5 * (gamma + gamma.transpose(0, 2, 1))
        i_a = np.linalg.det(gamma[:, :2, :2])
        i_b = np.linalg.det(gamma[:, 2:, 2:])
        i_c = np.linalg.det(gamma[:, 2:, :2])
        i_ab = np.linalg.det(gamma)
        disc_sq, d_minus, _ = _partial_transpose_pair(i_a, i_b, i_c, i_ab)
    # the checks of measures.symplectic_invariants in its order, on the same
    # closed-form spectrum as CovarianceMatrix.is_physical, so both routes
    # take the same decision at every point; the first point failing one is
    # named
    overflow = ~np.isfinite([i_a, i_b, i_c, i_ab, disc_sq]).all(axis=0)
    if overflow.any():
        params = points.params(int(live[np.argmax(overflow)]))
        raise covariance_overflow(f" at {params}")
    singular = ~((i_a > 0.0) & (i_b > 0.0) & (i_ab > 0.0))
    nu_minus, _ = symplectic_spectrum(np.ascontiguousarray(gamma.transpose(1, 2, 0)))
    rejected = singular | ~(nu_minus >= 0.5 - PHYSICALITY_TOL)
    if rejected.any():
        first = int(np.argmax(rejected))
        params = points.params(int(live[first]))
        if singular[first]:
            raise ValueError(
                f"a block determinant of the covariance at {params} is not "
                "positive: it is singular to rounding, at the stability edge"
            )
        raise UnphysicalStateError(
            f"the covariance at {params} violates the symplectic uncertainty bound"
        )

    with np.errstate(divide="ignore", invalid="ignore"):
        e_n = -np.log(2.0 * d_minus)
        raw_ab = 0.5 * np.log(i_a / (4.0 * i_ab))
        raw_ba = 0.5 * np.log(i_b / (4.0 * i_ab))
        purities = 1.0 / (4.0 * i_a), 1.0 / (4.0 * i_b), 1.0 / (16.0 * i_ab)
    # a partial-transpose eigenvalue rounded to zero, where the scalar
    # route's SymplecticInvariants.log_negativity raises
    finite = np.isfinite([e_n, raw_ab, raw_ba, *purities]).all(axis=0)
    if not finite.all():
        params = points.params(int(live[np.argmin(finite)]))
        raise ValueError(
            f"correlation measures are not finite at {params}: its partial "
            "transpose is singular to rounding, at the stability edge"
        )
    # where(v > 0, v, 0) is max(0.0, v) of the scalar route, -0.0 included
    e_n = np.where(e_n > 0.0, e_n, 0.0)
    g_ab = np.where(raw_ab > 0.0, raw_ab, 0.0)
    g_ba = np.where(raw_ba > 0.0, raw_ba, 0.0)
    index = _steering_class_index(g_ab, g_ba)
    labels = np.array([c.value for c in _STEERING_CLASSES], dtype=object)[index]

    def column(values: np.ndarray, fill=np.nan, dtype=float) -> np.ndarray:
        out = np.full(n, fill, dtype=dtype)
        out[live] = values
        return out

    return GridResult(
        lam=np.where(l2 > l1, l2, l1),
        wa=wa,
        wb=wb,
        temperature=temperature,
        stable=stable,
        omega_upper=column(omega_u),
        omega_lower=column(omega_l),
        e_n=column(e_n),
        g_ab=column(g_ab),
        g_ba=column(g_ba),
        mu_a=column(purities[0]),
        mu_b=column(purities[1]),
        mu_ab=column(purities[2]),
        n_a=column(0.5 * (gamma[:, 0, 0] + gamma[:, 1, 1] - 1.0)),
        n_b=column(0.5 * (gamma[:, 2, 2] + gamma[:, 3, 3] - 1.0)),
        classification=column(labels, None, object),
    )
