"""Point evaluation and deterministic grid sweeps emitting CSV rows.

A sweep resolves its grid in row-major axis order to parameter arrays and
evaluates it with the array kernel (``grid.evaluate_grid``), one block of
points at a time.  Rows use a fixed 12-significant-digit float format, so
the byte output is reproducible across runs.  A point is stable when det V
and det T of its x and p sectors are positive; an unstable point becomes a
row with empty measure fields and stable=false.  Every stable point takes
one route, the x-p sector stages.  ``run_point`` is the scalar route for
one point through the same stage functions, and the reference the grid
kernel is tested against.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .grid import GridPoints, evaluate_grid
from .measures import correlation_report
from .model import (
    DEGENERACY_TOL,
    InstabilityError,
    ModelParams,
    PolaritonBasis,
    _frame_coefficients,
    _mixing_angle,
    _sector_modes,
    _stability_determinants,
    hopfield,
    natural_diamag,
)
from .scenarios import FULL, MIX_ONLY, SQUEEZE_ONLY, SweepSpec
from .states import (
    CovarianceMatrix,
    Environment,
    _sector_covariance,
    format_value,
    sector_matrix,
)
# not used here: the benchmark's traced run wraps these by name on this module
from .states import ground_state_covariance_generic, steady_state_covariance  # noqa: F401

__all__ = [
    "CSV_HEADER",
    "ResultRow",
    "diagonalize_params",
    "grid_points",
    "point_state",
    "result_row",
    "run_point",
    "run_sweep",
    "sweep_csv",
    "resolve_params",
    "spec_to_params",
]

CSV_HEADER = (
    "lambda,wa,wb,T,omega_U,omega_L,E_N,G_ab,G_ba,"
    "mu_a,mu_b,mu_ab,N_a,N_b,class,stable"
)


@dataclass(frozen=True)
class ResultRow:
    """One evaluated grid point; measure fields are None when unstable."""

    lam: float
    wa: float
    wb: float
    temperature: float
    omega_upper: float | None
    omega_lower: float | None
    e_n: float | None = None
    g_ab: float | None = None
    g_ba: float | None = None
    mu_a: float | None = None
    mu_b: float | None = None
    mu_ab: float | None = None
    n_a: float | None = None
    n_b: float | None = None
    classification: str | None = None
    stable: bool = True

    def to_csv(self) -> str:
        cells = [format_value(v) for v in (self.lam, self.wa, self.wb, self.temperature)]
        for v in (
            self.omega_upper,
            self.omega_lower,
            self.e_n,
            self.g_ab,
            self.g_ba,
            self.mu_a,
            self.mu_b,
            self.mu_ab,
            self.n_a,
            self.n_b,
        ):
            cells.append("" if v is None else format_value(v))
        cells.append(self.classification or "")
        cells.append("true" if self.stable else "false")
        return ",".join(cells)


def _stable_sectors(params: ModelParams) -> tuple:
    """(wa, wb, lambda1, lambda2, D, det V, det T); raises InstabilityError
    unless det V > 0 and det T > 0, the one stability rule of every command."""
    args = (params.omega_a, params.omega_b, params.lambda1, params.lambda2, params.diamag)
    det_v, det_t = _stability_determinants(*args)
    if not (det_v > 0.0 and det_t > 0.0):
        raise InstabilityError("the x or p sector of the Hamiltonian is not positive definite")
    return (*args, det_v, det_t)


def diagonalize_params(params: ModelParams) -> PolaritonBasis:
    """Normal modes of ``diagonalize`` and ``dynamics``, from the x-p sector
    frames of ``point_state``: its frequencies, and the Bogoliubov
    coefficients of ``model._frame_coefficients``.

    theta, a display field, is the mixing angle of the lambda1 = lambda2 > 0
    family where its branches are split, and None elsewhere.  A point past
    the stability edge raises InstabilityError.
    """
    wa, wb, l1, l2, dd, *_ = args = _stable_sectors(params)
    frame_x, frame_p, passive = _sector_modes(*args)
    wu, wl = frame_p[:2]
    split = l1 == l2 > 0.0 and wu - wl >= DEGENERACY_TOL * wb
    theta = _mixing_angle(wa, wb, l1, dd, wu, wl) if split else None
    return PolaritonBasis(wu, wl, *_frame_coefficients(frame_x, passive), theta)


class PointState(NamedTuple):
    """A point's frequencies, covariance and x-p sectors."""

    omega_upper: float
    omega_lower: float
    covariance: CovarianceMatrix
    sectors: tuple


def point_state(
    params: ModelParams, env: Environment | None, state_kind: str
) -> PointState:
    """The requested state by the x-p sector route of ``grid.evaluate_grid``;
    raises InstabilityError past the stability edge."""
    if state_kind not in ("ground", "thermal"):
        raise ValueError("state_kind must be 'ground' or 'thermal'")
    temperature = env.temperature if (env and state_kind == "thermal") else 0.0
    frame_x, frame_p, passive = _sector_modes(*_stable_sectors(params))
    sectors = _sector_covariance(frame_x, frame_p, passive, temperature)
    return PointState(frame_p[0], frame_p[1], sector_matrix(sectors), sectors)


def result_row(
    params: ModelParams,
    env: Environment | None,
    state_kind: str,
    state: PointState | None,
) -> ResultRow:
    """Row of one point from its ``point_state``; None flags an unstable point."""
    lam = max(params.lambda1, params.lambda2)
    temperature = env.temperature if (env and state_kind == "thermal") else 0.0
    if state is None:
        return ResultRow(
            lam, params.omega_a, params.omega_b, temperature, None, None, stable=False
        )
    report = correlation_report(state.covariance, state.sectors)
    return ResultRow(
        lam=lam,
        wa=params.omega_a,
        wb=params.omega_b,
        temperature=temperature,
        omega_upper=state.omega_upper,
        omega_lower=state.omega_lower,
        e_n=report.e_n,
        g_ab=report.g_ab,
        g_ba=report.g_ba,
        mu_a=report.mu_a,
        mu_b=report.mu_b,
        mu_ab=report.mu_ab,
        n_a=report.n_a,
        n_b=report.n_b,
        classification=report.classification.value,
        stable=True,
    )


def run_point(
    params: ModelParams, env: Environment | None, state_kind: str
) -> ResultRow:
    """Full pipeline for one point; instability becomes a flagged row."""
    try:
        state = point_state(params, env, state_kind)
    except InstabilityError:
        state = None
    return result_row(params, env, state_kind, state)


# (mixing lambda1, squeezing lambda2) terms that each coupling structure drives
_DRIVES = {FULL: (True, True), SQUEEZE_ONLY: (False, True), MIX_ONLY: (True, False)}


def _driven_terms(lam, coupling: str):
    """(lambda1, lambda2) set by a coupling strength; elementwise on arrays."""
    try:
        mixing, squeezing = _DRIVES[coupling]
    except KeyError:
        raise ValueError(f"unknown coupling structure {coupling!r}") from None
    return (lam if mixing else 0.0), (lam if squeezing else 0.0)


def resolve_params(
    wa: float | None = None,
    wb: float | None = None,
    lam: float | None = None,
    lambda1: float | None = None,
    lambda2: float | None = None,
    coupling: str = FULL,
    diamag: str | float | None = None,
) -> ModelParams:
    """Model parameters from user-level inputs.

    ``lam`` drives the interaction terms that ``coupling`` selects;
    ``lambda1``/``lambda2`` set the mixing and squeezing terms directly
    instead.  ``diamag`` is 'auto' (lambda^2/wb, which needs equal
    couplings), 'zero' or a value.  Unset frequencies default to 1,
    unset couplings to 0 and an unset diamag to 'auto'.
    """
    if lam is not None and (lambda1 is not None or lambda2 is not None):
        raise ValueError("give either lambda or lambda1/lambda2, not both")
    if lam is None:
        l1, l2 = float(lambda1 or 0.0), float(lambda2 or 0.0)
    else:
        l1, l2 = _driven_terms(float(lam), coupling)
    wa = 1.0 if wa is None else float(wa)
    wb = 1.0 if wb is None else float(wb)
    diamag = "auto" if diamag is None else diamag
    # validated before the 'auto' rule reads the couplings, so bad input is
    # reported as such, not as unequal couplings or a division by zero
    value = 0.0 if diamag in ("auto", "zero") else float(diamag)
    params = ModelParams(wa, wb, l1, l2, value)
    if diamag != "auto":
        return params
    if l1 != l2:
        raise ValueError("diamag 'auto' needs equal mixing and squeezing couplings")
    return hopfield(wa, wb, l1)


def spec_to_params(spec: SweepSpec, point: dict) -> tuple[ModelParams, float]:
    """Materialize one grid point of a sweep into model parameters."""
    values = dict(spec.fixed)
    values.update(point)
    params = resolve_params(
        values.get("wa"),
        values.get("wb"),
        values.get("lambda", 0.0),
        coupling=spec.coupling,
        diamag=spec.diamag_mode,
    )
    return params, float(values.get("T", 0.0))


def grid_points(spec: SweepSpec, env: Environment) -> GridPoints:
    """Resolved parameters of every grid point, in row-major order.

    Applies the rules of ``resolve_params`` elementwise.  A point that
    ``spec_to_params`` or ``Environment`` rejects is reported with their
    message before any point is computed.
    """
    values = [np.asarray(axis.values, dtype=float) for axis in spec.axes]
    names = [axis.name for axis in spec.axes]
    swept = dict(zip(names, np.meshgrid(*values, indexing="ij")))
    size = int(np.prod([len(v) for v in values]))

    def column(name: str, default: float) -> np.ndarray:
        if name in swept:
            return swept[name].ravel()
        value = spec.fixed.get(name)
        return np.full(size, default if value is None else float(value))

    wa, wb, temperature = column("wa", 1.0), column("wb", 1.0), column("T", 0.0)
    l1, l2 = (
        np.broadcast_to(v, (size,)).copy()
        for v in _driven_terms(column("lambda", 0.0), spec.coupling)
    )
    valid = (wa > 0) & (wb > 0) & (l1 >= 0) & (l2 >= 0) & (temperature >= 0)
    if spec.diamag_mode == "auto":
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            diamag = natural_diamag(l1, wb)
        valid &= l1 == l2
    else:
        value = 0.0 if spec.diamag_mode == "zero" else float(spec.diamag_mode)
        diamag = np.full(size, value)
    valid &= (diamag >= 0) & np.isfinite([wa, wb, l1, l2, diamag, temperature]).all(0)
    bad = np.flatnonzero(~valid)
    if bad.size:
        point = next(itertools.islice(spec.grid(), int(bad[0]), None))
        _, temp = spec_to_params(spec, point)
        Environment(temp, env.gamma_a, env.gamma_b)
        raise ValueError(f"invalid grid point {point}")
    return GridPoints(wa, wb, l1, l2, diamag, temperature)


# points per kernel call: bounds the temporaries of the kernel and of the
# CSV writer, at no measurable cost in speed; traced on a 1,024-point fig3a
# block, they peak at 490 bytes per point in the kernel and 780 in
# GridResult.csv_text, the block's text (175 bytes per point) included
_BLOCK_POINTS = 1024


def run_sweep(spec: SweepSpec, env: Environment | None = None) -> list[str]:
    """Evaluate the whole grid; returns CSV rows in deterministic order."""
    return sweep_csv(spec, env).split("\n")[1:-1]


def sweep_csv(spec: SweepSpec, env: Environment | None = None) -> str:
    """Header plus rows, every line newline-terminated.

    The kernel runs on contiguous blocks of ``_BLOCK_POINTS`` points, and
    every point's row depends on that point alone.
    """
    points = grid_points(spec, env or Environment(0.0))
    blocks = (
        points.chunk(start, start + _BLOCK_POINTS)
        for start in range(0, len(points), _BLOCK_POINTS)
    )
    return "".join([CSV_HEADER + "\n", *(evaluate_grid(b, spec.state).csv_text() for b in blocks)])
