"""Point evaluation and deterministic grid sweeps emitting CSV rows.

A sweep resolves its grid in row-major axis order to parameter arrays
(``grid_points``) and evaluates it with the array kernel
(``evaluate_grid``), one block of points at a time, each block one float
table from the kernel to its text.  Every cell is format(x, '.12g'),
whichever writer prints it, so the byte output is reproducible across
runs.  A point is stable when det V and det T of its x and p sectors are
positive; an unstable point becomes a row with empty measure fields and
stable=false.  Every stable point takes one route, the x-p sector stages
``model._sector_modes``, ``states._sector_covariance`` and
``measures._sector_measures``, the covariance stage fed the state's
symplectic eigenvalues by ``states._thermal_spectrum``.

``evaluate_point`` is that route for one point on floats, and the
reference the kernel is tested against; its row is ``run_point``'s, and
its x-p sectors are what ``point --dump-cov`` writes, so ``point``
evaluates a point once with or without the dump.  It reads stability off
the determinants, so an unstable point is a row, not a raised and caught
``InstabilityError``.  Each point is one ``ResultRow``, formatted by one
``%`` with the row template.

``evaluate_grid`` runs the same stage functions on arrays, which run the
same floating-point operations as on floats, numpy's ``expm1`` and
``log`` among them, so every cell of a stable row is ``run_point``'s bit
for bit.  Both shapes take each rule of a row from one place: the state's
temperature (``_state_temperature``), the stage arguments and the
stability decision (``_sector_args``), and the echoed cells (``_echo``).
A block's cost is mostly a fixed count of numpy calls, so each stage
formula runs once over the (2, n) arrays of both frames of every point,
the (T, V) frame of Gamma_xx and the (V, T) frame of Gamma_pp; a block
with no unstable point skips the gather of its stable points.  A point
and a block decide their measures alike, by the fault code of
``measures._sector_measures``, worded by ``measures.measure_error``; a
block raises it for its first point with a fault.  Each point's result
depends on that point alone, so any contiguous split of a grid yields
the same rows; ``sweep_csv``'s blocks rely on this.

``GridResult`` holds a block's rows as one float table, ``cells``, which
``csv_text`` prints with every cell as format(x, '.12g'), the cell of
``ResultRow.to_csv``, by ``csvwriter.write_rows`` in chunks of at most
``_WRITER_CHUNK`` rows.  It formats no cell it does not print: an unstable
row's measure cells, NaN in ``cells``, are never formatted, and print
empty.  Why the writer's cells are exact is in the ``csvwriter`` docstring.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# ``correlation_report`` is imported for the traced benchmark alone, which
# wraps it by this name; no command calls it.  ROADMAP item 1 deletes this,
# with the module ``__getattr__`` below
from .measures import _STEERING_CLASSES, _sector_measures, correlation_report, measure_error
from .model import (
    DEGENERACY_TOL,
    InstabilityError,
    ModelParams,
    PolaritonBasis,
    _frame_coefficients,
    _mixing_angle,
    _sector_modes,
    _stability_determinants,
    _where,
    hopfield,
    natural_diamag,
)
from .scenarios import FULL, MIX_ONLY, SQUEEZE_ONLY, SweepSpec
from .states import _CELL, Environment, _sector_covariance, _thermal_spectrum

__all__ = [
    "CSV_HEADER",
    "GridPoints",
    "GridResult",
    "ResultRow",
    "diagonalize_params",
    "evaluate_grid",
    "evaluate_point",
    "grid_points",
    "run_point",
    "sweep_csv",
    "resolve_params",
    "spec_to_params",
]


def __getattr__(name: str):
    # the traced benchmark wraps these names, which no command calls; resolved on
    # access, so that no command loads ``oracles``.  ROADMAP item 1 deletes this
    if name not in ("ground_state_covariance_generic", "steady_state_covariance"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .oracles import steady_state_covariance
    return steady_state_covariance


CSV_HEADER = (
    "lambda,wa,wb,T,omega_U,omega_L,E_N,G_ab,G_ba,"
    "mu_a,mu_b,mu_ab,N_a,N_b,class,stable"
)


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
        """The row as ``GridResult.csv_text`` prints it: each cell
        format(x, '.12g'), by one '%' per row."""
        if self.stable:
            return _STABLE_ROW % self[:-1]
        return _HEAD % self[:_ECHO] + _UNSTABLE_TAIL


# the float cells of a row, in the order of the CSV: four echoed inputs,
# then the measures that unstable rows leave empty
_CELLS = ResultRow._fields[:-2]
_ECHO = 4
# the '%' templates of ``ResultRow.to_csv``: the echoed inputs, a stable
# row, and the measure cells, class and stable flag of an unstable row
_HEAD = ",".join([_CELL] * _ECHO)
_STABLE_ROW = ",".join([_CELL] * len(_CELLS) + ["%s", "true"])
_UNSTABLE_TAIL = "," * (len(_CELLS) - _ECHO + 2) + "false"
# the class cell of each index of ``measures._STEERING_CLASSES``
_CLASS_NAMES = tuple(c.value for c in _STEERING_CLASSES)


# x > 0 is x >= the smallest subnormal: the lower bound of each row of a
# ``GridPoints`` table, each read with >=, and NaN fails it
_LOWER = np.array([[5e-324], [5e-324], [0.0], [0.0], [0.0], [0.0]])


def _valid_columns(table: np.ndarray) -> np.ndarray:
    """Whether ``ModelParams`` and ``Environment`` take each column of a
    (6, n) ``GridPoints`` table: finite, with positive frequencies and the
    other fields non-negative."""
    return ((table >= _LOWER) & (table < math.inf)).all(0)


class GridPoints:
    """Model parameters and temperature of each grid point: ``table`` holds
    one float64 row per field (omega_a, omega_b, lambda1, lambda2, diamag,
    temperature) and one column per point, and each field is a view of its
    row.

    The constructor refuses the first column that ``ModelParams`` or
    ``Environment`` refuses, with their message and the column's index;
    ``of_table`` and ``chunk`` take a table as it is.
    """

    __slots__ = ("table", "omega_a", "omega_b", "lambda1", "lambda2", "diamag", "temperature")

    def __init__(self, omega_a, omega_b, lambda1, lambda2, diamag, temperature):
        # the kernel computes in float64, as the scalar route does
        self._set(np.array((omega_a, omega_b, lambda1, lambda2, diamag, temperature), float))
        if self.table.ndim != 2:
            raise ValueError("each field of GridPoints is a 1-D sequence, one value per point")
        valid = _valid_columns(self.table)
        if not valid.all():
            i = int(np.argmin(valid))
            try:
                self.params(i)
                Environment(self.temperature[i].item())
            except ValueError as exc:
                raise ValueError(f"{exc} at column {i}") from None

    def _set(self, table: np.ndarray) -> None:
        self.table = table
        (self.omega_a, self.omega_b, self.lambda1, self.lambda2, self.diamag,
         self.temperature) = table

    @classmethod
    def of_table(cls, table: np.ndarray) -> GridPoints:
        """The points whose (6, n) float64 ``table`` is given, not copied."""
        points = cls.__new__(cls)
        points._set(table)
        return points

    def __len__(self) -> int:
        return self.table.shape[1]

    def chunk(self, start: int, stop: int) -> GridPoints:
        """The contiguous run of points [start, stop), a view."""
        return GridPoints.of_table(self.table[:, start:stop])

    def params(self, i: int) -> ModelParams:
        return ModelParams(*self.table[:5, i].tolist())


@dataclass(frozen=True)
class GridResult:
    """The rows of a grid: ``cells`` holds one row of ``_CELLS`` values per
    point, NaN past the echoed inputs where the point is unstable, and each
    ``_CELLS`` name reads its column.

    ``classification`` is the steering class as an index into
    ``measures._STEERING_CLASSES``, -1 where unstable.
    """

    cells: np.ndarray
    stable: np.ndarray
    classification: np.ndarray

    def __getattr__(self, name: str) -> np.ndarray:
        if name not in _CELLS:
            raise AttributeError(name)
        return self.cells[:, _CELLS.index(name)]

    def csv_text(self) -> str:
        """One row per point, each ``ResultRow.to_csv`` of its values and
        ended by a newline."""
        # imported on the first sweep block: single points never build its tables
        from . import csvwriter

        n = len(self.cells)
        pieces = -(-n // _WRITER_CHUNK)
        parts = (slice(i * n // pieces, (i + 1) * n // pieces) for i in range(pieces))
        return "".join(
            csvwriter.write_rows(self.cells[p], self.stable[p], self.classification[p], _ECHO)
            for p in parts
        )


# rows per writer call: a block is cut into near-equal parts of at most
# this many.  A call has a fixed cost of about 70 us (one row).  Past the
# writer's kept buffers (480 bytes per row, up to 448 more for the compact
# run of a block with unstable rows, and the output, 180 bytes a fig3a
# row), a call's temporaries peak at 911 bytes per row on 1,024 all-stable
# fig3a rows, in ``cell_words``, and at 453-641 on the four 1,024-row calls
# of a 4,096-point block past the stability edge (576-840 rows unstable,
# whose measure cells are never formatted; tracemalloc, second call):
# 1.6-1.7 MB in all, which stay in a core's 2 MB L2 cache; a whole
# 2,925-row block in one call is 30-40% slower
_WRITER_CHUNK = 1024


def _state_temperature(state_kind: str, temperature):
    """The temperature of the state: the reservoir's in the 'thermal'
    (common-bath steady) state, 0 in the 'ground' state (the polariton
    vacuum), which refuses a positive one as ``SweepSpec`` does; a float or
    an array."""
    if state_kind == "thermal":
        return temperature
    if state_kind != "ground":
        raise ValueError("state_kind must be 'ground' or 'thermal'")
    array = isinstance(temperature, np.ndarray)
    if (temperature > 0.0).any() if array else temperature > 0.0:
        raise ValueError("a ground state takes no temperature but 0: the ground state is at "
                         "T = 0; give state_kind 'thermal'")
    return np.zeros_like(temperature) if array else 0.0


def _sector_args(p: ModelParams | GridPoints):
    """((wa, wb, lambda1, lambda2, D, det V, det T), stable) of a point or,
    as arrays, of a grid: a point is stable iff det V > 0 and det T > 0, the
    one stability rule of every command."""
    args = (p.omega_a, p.omega_b, p.lambda1, p.lambda2, p.diamag)
    det_v, det_t = _stability_determinants(*args)
    return (*args, det_v, det_t), (det_v > 0.0) & (det_t > 0.0)


def _echo(p: ModelParams | GridPoints, temperature):
    """The echoed cells of a point's or a grid's rows: lambda = max(lambda1,
    lambda2), wa, wb and the state's temperature."""
    return _where(p.lambda2 > p.lambda1, p.lambda2, p.lambda1), p.omega_a, p.omega_b, temperature


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
    wu, wl = frame_p[0]
    split = l1 == l2 > 0.0 and wu - wl >= DEGENERACY_TOL * wb
    theta = _mixing_angle(wa, wb, l1, dd, wu, wl) if split else None
    return PolaritonBasis(wu, wl, *_frame_coefficients(frame_x, passive), theta)


def evaluate_point(
    params: ModelParams, env: Environment | None, state_kind: str
) -> tuple[ResultRow, tuple | None]:
    """(row, x-p sectors) of one point by the stages of ``evaluate_grid``.

    The sectors are those of ``states._sector_covariance``, and None past the
    stability edge, where the row is flagged unstable: decided by the
    determinants alone, with no exception raised.  A stable point whose
    measures fault (``measures._sector_measures``) raises the ValueError of
    ``measures.measure_error``, as ``evaluate_grid`` does.
    """
    temperature = _state_temperature(state_kind, 0.0 if env is None else env.temperature)
    head = _echo(params, temperature)
    args, stable = _sector_args(params)
    if not stable:
        return ResultRow(*head, None, None, stable=False), None
    frame_x, frame_p, passive = _sector_modes(*args)
    spectrum = _thermal_spectrum(frame_p[0], temperature)
    sectors = _sector_covariance(frame_x, frame_p, passive, *spectrum)
    fault, measures, index = _sector_measures(sectors)
    if fault:
        raise measure_error(fault, omega_l=frame_p[0][1], c_l=sectors[3])
    return ResultRow(*head, *frame_p[0], *measures, _CLASS_NAMES[index]), sectors


def evaluate_grid(points: GridPoints, state_kind: str) -> GridResult:
    """Rows of every grid point, each ``run_point``'s on that point, bit for bit.

    ``state_kind`` is 'ground' or 'thermal' (``_state_temperature``).  A
    stable point whose measures fault (``measures._measures``) raises the
    ValueError that ``run_point`` raises there, with the first such point
    named.  Where every point is stable the stages take the block as it is;
    otherwise they take its stable points.
    """
    temperature = _state_temperature(state_kind, points.temperature)
    cells = np.empty((len(points), len(_CELLS)))
    columns = cells.T  # one row per cell of _CELLS
    columns[:_ECHO] = _echo(points, temperature)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # faults raised below
        args, stable = _sector_args(points)
        every = bool(stable.all())
        live = slice(None) if every else stable
        if not every:
            args, temperature = tuple(a[live] for a in args), temperature[live]
        frame_x, frame_p, passive = _sector_modes(*args)
        spectrum = _thermal_spectrum(frame_p[0], temperature)
        sectors = _sector_covariance(frame_x, frame_p, passive, *spectrum)
        fault, measures, classes = _sector_measures(sectors)
    # the decision of evaluate_point, taken at every point
    if fault.any():
        i = int(np.argmax(fault > 0))
        where = f" at {points.params(int(np.flatnonzero(stable)[i]))}"
        raise measure_error(int(fault[i]), where, float(frame_p[0][1][i]), float(sectors[3][i]))

    # the measures of _sector_measures come in the order of the report's
    # fields, which _CELLS follows
    classification = classes
    if not every:
        columns[_ECHO:, ~stable] = np.nan
        classification = np.full(len(points), -1, np.intp)
        classification[live] = classes
    columns[_ECHO:_ECHO + 2, live] = frame_p[0]
    columns[_ECHO + 2:, live] = measures
    return GridResult(cells, stable, classification)


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


# the row of GridPoints.table that each swept or fixed input sets, and its
# default; "lambda" sets lambda1 and is then driven into the coupling terms
_INPUT_ROWS = {"wa": (0, 1.0), "wb": (1, 1.0), "lambda": (2, 0.0), "T": (5, 0.0)}


def grid_points(spec: SweepSpec) -> GridPoints:
    """Resolved parameters of every grid point, in row-major order.

    Applies the rules of ``resolve_params`` elementwise; each point's
    temperature is the spec's (its T axis or fixed value, 0 by default).
    The first point that ``spec_to_params`` or ``Environment`` rejects is
    reported with their message and its axis values before any point is
    computed.
    """
    values = [np.asarray(axis.values, dtype=float) for axis in spec.axes]
    shape = tuple(map(len, values))
    table = np.empty((6, math.prod(shape)))
    for name, (row, default) in _INPUT_ROWS.items():
        value = spec.fixed.get(name)
        table[row] = default if value is None else float(value)
    for k, (axis, v) in enumerate(zip(spec.axes, values)):
        # axis k varies along dimension k of the row-major grid
        along = [1] * len(shape)
        along[k] = -1
        table[_INPUT_ROWS[axis.name][0]].reshape(shape)[...] = v.reshape(along)
    wa, wb, l1, l2, diamag, _ = table
    mixed, squeezed = _driven_terms(l1, spec.coupling)
    l2[...] = squeezed
    l1[...] = mixed
    if spec.diamag_mode == "auto":
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            diamag[...] = natural_diamag(l1, wb)
    else:
        diamag[...] = 0.0 if spec.diamag_mode == "zero" else float(spec.diamag_mode)
    valid = _valid_columns(table)
    if spec.diamag_mode == "auto":
        valid &= l1 == l2
    if not valid.all():
        at = np.unravel_index(np.flatnonzero(~valid)[0], shape)
        point = {axis.name: v[i].item() for axis, v, i in zip(spec.axes, values, at)}
        try:
            _, temp = spec_to_params(spec, point)
            Environment(temp)
        except ValueError as exc:
            raise ValueError(f"{exc} at grid point {point}") from None
        raise ValueError(f"invalid grid point {point}")
    return GridPoints.of_table(table)


# points per kernel call.  Every preset (at most 2,925 points) is one call,
# since each call has a fixed cost of 150-170 us, and its text 70-80 us more
# (a one-point block, best of 3,000, on a 2-core box).  The blocks bound the
# temporaries of the kernel and of the CSV writer on larger grids: traced
# with tracemalloc on a 4,096-point block (64 x 64 points over the fig3a
# extent), they peak at 647 bytes per point in the kernel and 394 in
# GridResult.csv_text, the block's text (197 bytes per point) included
_BLOCK_POINTS = 4096


def sweep_csv(spec: SweepSpec, env: Environment | None = None) -> str:
    """Header plus rows, every line newline-terminated.

    A sweep's temperature is its spec's, and its state the steady state of
    that temperature, which the damping slopes do not set: ``env`` is not
    read (it is kept for callers that pass one).  The kernel runs on
    contiguous blocks of ``_BLOCK_POINTS`` points, and every point's row
    depends on that point alone.
    """
    points = grid_points(spec)
    blocks = (
        points.chunk(start, start + _BLOCK_POINTS)
        for start in range(0, len(points), _BLOCK_POINTS)
    )
    return "".join([CSV_HEADER + "\n", *(evaluate_grid(b, spec.state).csv_text() for b in blocks)])
