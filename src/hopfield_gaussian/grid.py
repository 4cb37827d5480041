"""Batched grid kernel: a whole sweep grid as one array pass.

``evaluate_grid`` takes resolved parameters as arrays (one entry per grid
point) and returns every CSV column as an array.  It follows the scalar
route of ``sweep.run_point`` step by step, calling the scalar route's own
functions on arrays, which run the same floating-point operations as on
floats.  A point takes one of two routes:

- lambda1 = lambda2 > 0 with a split spectrum: the closed-form basis of
  ``model._closed_coefficients``, the covariance T diag(coth weights) T^T of
  ``states.steady_state_covariance``, its block determinants,
  ``measures._partial_transpose_pair`` and ``states.symplectic_spectrum``;
- every other point: Gamma = Gamma_xx ⊕ Gamma_pp in 2x2 closed forms, in
  the stages ``model._sector_modes``, ``states._sector_covariance`` and
  ``measures._sector_invariants``.

A point whose product invariant, det V or det T is not positive is an
unstable row.

Each point's result depends on that point alone, so any contiguous split
of a grid yields the same rows; ``sweep.run_sweep``'s blocks rely on this.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .measures import (
    _STEERING_CLASSES,
    UnphysicalStateError,
    _occupations,
    _partial_transpose_pair,
    _sector_invariants,
    _steering_class_index,
)
from .model import (
    DEGENERACY_TOL,
    ModelParams,
    _closed_coefficients,
    _closed_frequencies,
    _sector_modes,
    _stability_determinants,
)
from .states import (
    PHYSICALITY_TOL,
    VALUE_FORMAT,
    _bose,
    _sector_covariance,
    covariance_overflow,
    symplectic_spectrum,
)

__all__ = ["GridPoints", "GridResult", "evaluate_grid"]


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
        # the kernel computes in float64, as the scalar route does
        for f in fields(self):
            object.__setattr__(self, f.name, np.asarray(getattr(self, f.name), float))

    def __len__(self) -> int:
        return len(self.omega_a)

    def chunk(self, start: int, stop: int) -> GridPoints:
        """The contiguous run of points [start, stop)."""
        return GridPoints(*(getattr(self, f.name)[start:stop] for f in fields(self)))

    def params(self, i: int) -> ModelParams:
        return ModelParams(*(float(getattr(self, f.name)[i]) for f in fields(self)[:5]))


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
        columns = [self.lam, self.wa, self.wb, self.temperature]
        table = np.stack(columns + [getattr(self, m) for m in _MEASURES], axis=1)
        return [
            _STABLE_ROW % (*row, label) if ok else _HEAD % tuple(row[:4]) + _UNSTABLE_TAIL
            for row, ok, label in zip(
                table.tolist(), self.stable.tolist(), self.classification.tolist()
            )
        ]


# the measure cells of a row, in the order of GridResult's fields and the CSV
_MEASURES = tuple(f.name for f in fields(GridResult))[5:-1]
# '%.12g' % x is format(x, '.12g') for every float, -0.0, inf and nan included
_HEAD = ",".join(["%" + VALUE_FORMAT] * 4)
_STABLE_ROW = ",".join([_HEAD, *["%" + VALUE_FORMAT] * len(_MEASURES), "%s", "true"])
# measure cells, class and stable flag of an unstable row
_UNSTABLE_TAIL = "," * (len(_MEASURES) + 2) + "false"


def _closed_columns(wa, wb, lam, dd, wu, wl, temperature):
    """``evaluate_grid``'s columns of stable lambda1 = lambda2 points, split spectrum."""
    _, upper, lower = _closed_coefficients(wa, wb, lam, dd, wu, wl)
    (w_u, x_u, y_u, z_u), (w_l, x_l, y_l, z_l) = upper, lower
    t = np.zeros((len(wa), 4, 4))
    t[:, 0, 0], t[:, 0, 2] = w_u - y_u, w_l - y_l
    t[:, 1, 1], t[:, 1, 3] = w_u + y_u, w_l + y_l
    t[:, 2, 0], t[:, 2, 2] = x_u - z_u, x_l - z_l
    t[:, 3, 1], t[:, 3, 3] = x_u + z_u, x_l + z_l
    a1, b1 = (0.5 * (1.0 + 2.0 * _bose(w, temperature)) for w in (wu, wl))
    gamma = (t * np.stack([a1, a1, b1, b1], axis=1)[:, None, :]) @ t.transpose(0, 2, 1)
    gamma = 0.5 * (gamma + gamma.transpose(0, 2, 1))
    i_a = np.linalg.det(gamma[:, :2, :2])
    i_b = np.linalg.det(gamma[:, 2:, 2:])
    i_c = np.linalg.det(gamma[:, 2:, :2])
    i_ab = np.linalg.det(gamma)
    nu_minus, _ = symplectic_spectrum(np.ascontiguousarray(gamma.transpose(1, 2, 0)))
    return (
        wu, wl, i_a, i_b, i_c, i_ab, *_partial_transpose_pair(i_a, i_b, i_c, i_ab)[:2],
        *_occupations(*(gamma[:, k, k] for k in range(4))), nu_minus,
    )


def _sector_columns(wa, wb, l1, l2, dd, det_v, det_t, temperature):
    """``evaluate_grid``'s columns of stable points on the x-p sector route."""
    frame_x, frame_p, passive = _sector_modes(wa, wb, l1, l2, dd, det_v, det_t)
    sectors = _sector_covariance(frame_x, frame_p, passive, temperature)
    gxx, gpp, c_u, c_l, _ = sectors
    return (
        *frame_p[:2], *_sector_invariants(*sectors)[:6],
        *_occupations(gxx[0], gpp[0], gxx[2], gpp[2]), np.minimum(c_u, c_l),
    )


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
    wa, wb, l1, l2, dd = (getattr(points, f.name) for f in fields(points)[:5])
    temperature = points.temperature if state_kind == "thermal" else np.zeros(n)
    stable = np.ones(n, dtype=bool)
    # per stable point: omega_U, omega_L, det A, det B, det C, det Gamma, the
    # discriminant, d~_-, N_a, N_b and nu_-; NaN where unstable
    cols = np.full((11, n), np.nan)

    closed = np.flatnonzero((l1 == l2) & (l1 > 0.0))
    product, wu, wl = _closed_frequencies(wa[closed], wb[closed], l1[closed], dd[closed])
    ok = product > 0.0
    keep = ok & ~(wu - wl < DEGENERACY_TOL * wb[closed])
    stable[closed[~ok]] = False
    done = closed[keep]
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        if done.size:
            cols[:, done] = _closed_columns(
                wa[done], wb[done], l1[done], dd[done], wu[keep], wl[keep], temperature[done]
            )
        sector = np.ones(n, dtype=bool)
        sector[closed[keep | ~ok]] = False
        sector = np.flatnonzero(sector)
        args = wa[sector], wb[sector], l1[sector], l2[sector], dd[sector]
        det_v, det_t = _stability_determinants(*args)
        ok = (det_v > 0.0) & (det_t > 0.0)
        stable[sector[~ok]] = False
        done = sector[ok]
        if done.size:
            cols[:, done] = _sector_columns(
                *(a[ok] for a in args), det_v[ok], det_t[ok], temperature[done]
            )

    live = np.flatnonzero(stable)
    _, _, i_a, i_b, i_c, i_ab, disc_sq, d_minus, _, _, nu_minus = cols[:, live]
    # the checks of measures.symplectic_invariants in its order, on the same
    # spectrum as the scalar route (CovarianceMatrix.is_physical on the closed
    # form, c_U and c_L on the sector route), so both routes take the same
    # decision at every point; the first point failing one is named
    overflow = ~np.isfinite([i_a, i_b, i_c, i_ab, disc_sq]).all(axis=0)
    if overflow.any():
        params = points.params(int(live[np.argmax(overflow)]))
        raise covariance_overflow(f" at {params}")
    singular = ~((i_a > 0.0) & (i_b > 0.0) & (i_ab > 0.0))
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
        omega_upper=cols[0],
        omega_lower=cols[1],
        e_n=column(e_n),
        g_ab=column(g_ab),
        g_ba=column(g_ba),
        mu_a=column(purities[0]),
        mu_b=column(purities[1]),
        mu_ab=column(purities[2]),
        n_a=cols[8],
        n_b=cols[9],
        classification=column(labels, None, object),
    )
