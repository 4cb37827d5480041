"""Point evaluation and deterministic grid sweeps emitting CSV rows.

A sweep resolves its grid in row-major axis order to parameter arrays and
evaluates it with the array kernel (``grid.evaluate_grid``), one block of
points at a time, each block one float table from the kernel to its text.
Every cell is format(x, '.12g'), whichever writer prints it, so the byte
output is reproducible across runs.  A point is stable when det V
and det T of its x and p sectors are positive; an unstable point becomes a
row with empty measure fields and stable=false.  Every stable point takes
one route, the x-p sector stages.

``evaluate_point`` is the scalar route for one point through the kernel's
own stage functions, and the reference the kernel is tested against; its
row is ``run_point``'s, and its x-p sectors are what ``point --dump-cov``
writes, so ``point`` evaluates a point once with or without the dump.  It
reads stability off the determinants, so an unstable point is a row, not
a raised and caught ``InstabilityError``.  Each point is one
``ResultRow``, formatted by one ``%`` with the kernel's row template.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .grid import _CELLS, _ECHO, GridPoints, evaluate_grid
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
from .states import _CELL, Environment, _sector_covariance
# not used here: the benchmark's traced run wraps these by name on this module,
# until ROADMAP item 1 points its spans at the sector stages and deletes this
from .states import ground_state_covariance_generic, steady_state_covariance  # noqa: F401

__all__ = [
    "CSV_HEADER",
    "ResultRow",
    "diagonalize_params",
    "evaluate_point",
    "grid_points",
    "run_point",
    "sweep_csv",
    "resolve_params",
    "spec_to_params",
]

CSV_HEADER = (
    "lambda,wa,wb,T,omega_U,omega_L,E_N,G_ab,G_ba,"
    "mu_a,mu_b,mu_ab,N_a,N_b,class,stable"
)

# the '%' templates of ``ResultRow.to_csv``: the echoed inputs, a stable
# row, and the measure cells, class and stable flag of an unstable row
_HEAD = ",".join([_CELL] * _ECHO)
_STABLE_ROW = ",".join([_CELL] * len(_CELLS) + ["%s", "true"])
_UNSTABLE_TAIL = "," * (len(_CELLS) - _ECHO + 2) + "false"


class ResultRow(NamedTuple):
    """One evaluated grid point; measure fields are None when unstable.

    A stable row has every field set; an unstable row is its four inputs
    and ``stable=False``.
    """

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
        """The row as ``grid.GridResult.csv_text`` prints it: each cell
        format(x, '.12g'), by one '%' per row."""
        if self.stable:
            return _STABLE_ROW % self[:-1]
        return _HEAD % self[:_ECHO] + _UNSTABLE_TAIL


def _sector_args(params: ModelParams) -> tuple[tuple, bool]:
    """((wa, wb, lambda1, lambda2, D, det V, det T), stable): a point is
    stable iff det V > 0 and det T > 0, the one stability rule of every command."""
    args = (params.omega_a, params.omega_b, params.lambda1, params.lambda2, params.diamag)
    det_v, det_t = _stability_determinants(*args)
    return (*args, det_v, det_t), det_v > 0.0 and det_t > 0.0


def diagonalize_params(params: ModelParams) -> PolaritonBasis:
    """Normal modes of ``diagonalize`` and ``dynamics``, from the x-p sector
    frames of ``evaluate_point``: its frequencies, and the Bogoliubov
    coefficients of ``model._frame_coefficients``.

    theta, a display field, is the mixing angle of the lambda1 = lambda2 > 0
    family where its branches are split, and None elsewhere.  A point past
    the stability edge raises InstabilityError.
    """
    args, stable = _sector_args(params)
    if not stable:
        raise InstabilityError()
    wa, wb, l1, l2, dd, *_ = args
    frame_x, frame_p, passive = _sector_modes(*args)
    wu, wl = frame_p[:2]
    split = l1 == l2 > 0.0 and wu - wl >= DEGENERACY_TOL * wb
    theta = _mixing_angle(wa, wb, l1, dd, wu, wl) if split else None
    return PolaritonBasis(wu, wl, *_frame_coefficients(frame_x, passive), theta)


def evaluate_point(
    params: ModelParams, env: Environment | None, state_kind: str
) -> tuple[ResultRow, tuple | None]:
    """(row, x-p sectors) of one point by the stages of ``grid.evaluate_grid``.

    The sectors are those of ``states._sector_covariance``, and None past the
    stability edge, where the row is flagged unstable: decided by the
    determinants alone, with no exception raised.  A stable point whose
    measures fault raises the ValueError of ``correlation_report``.
    """
    if state_kind == "thermal":
        temperature = 0.0 if env is None else env.temperature
    elif state_kind == "ground":
        temperature = 0.0
    else:
        raise ValueError("state_kind must be 'ground' or 'thermal'")
    l1, l2 = params.lambda1, params.lambda2
    # lambda is max(lambda1, lambda2)
    head = (l2 if l2 > l1 else l1, params.omega_a, params.omega_b, temperature)
    args, stable = _sector_args(params)
    if not stable:
        return ResultRow(*head, None, None, stable=False), None
    frame_x, frame_p, passive = _sector_modes(*args)
    sectors = _sector_covariance(frame_x, frame_p, passive, temperature)
    report = correlation_report(sectors, frame_p[1])
    row = ResultRow(*head, frame_p[0], frame_p[1], *report[:-1], report.classification.value)
    return row, sectors


def run_point(
    params: ModelParams, env: Environment | None, state_kind: str
) -> ResultRow:
    """The row of ``evaluate_point``: one point through the full pipeline."""
    return evaluate_point(params, env, state_kind)[0]


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

    Applies the rules of ``resolve_params`` elementwise.  The first point
    that ``spec_to_params`` or ``Environment`` rejects is reported with
    their message and its axis values before any point is computed.
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
        point = {name: swept[name].flat[bad[0]].item() for name in names}
        try:
            _, temp = spec_to_params(spec, point)
            Environment(temp, env.gamma_a, env.gamma_b)
        except ValueError as exc:
            raise ValueError(f"{exc} at grid point {point}") from None
        raise ValueError(f"invalid grid point {point}")
    return GridPoints(wa, wb, l1, l2, diamag, temperature)


# points per kernel call.  Every preset (at most 2,925 points) is one call,
# since each call has a fixed cost of 330-440 us (a one-point call, best of
# 900, on a 2-core box).  The blocks bound the temporaries of the kernel and
# of the CSV writer on larger grids: traced with tracemalloc on a 4,096-point
# block (64 x 64 points over the fig3a extent), they peak at 550 bytes per
# point in the kernel and 500 in GridResult.csv_text, the block's text (197
# bytes per point) included
_BLOCK_POINTS = 4096


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
