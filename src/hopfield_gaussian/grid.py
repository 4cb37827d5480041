"""Batched grid kernel: a whole sweep grid as one array pass.

``evaluate_grid`` takes resolved parameters as arrays (one entry per grid
point) and returns every CSV column as an array.  It follows the scalar
route of ``sweep.run_point`` step by step, calling the scalar route's own
functions on arrays, which run the same floating-point operations as on
floats.  Every point takes one route: a point whose det V or det T
(``model._stability_determinants``) is not positive is an unstable row;
every other point is Gamma = Gamma_xx ⊕ Gamma_pp in 2x2 closed forms, in
the stages ``model._sector_modes``, ``states._sector_covariance`` and
``measures._sector_invariants``.

Each point's result depends on that point alone, so any contiguous split
of a grid yields the same rows; ``sweep.sweep_csv``'s blocks rely on this.

``GridResult.csv_text`` prints every float cell as format(x, '.12g'), the
cell of ``ResultRow.to_csv``.  A block of ``_WRITER_ROWS`` rows or more is
written by the array operations of ``csvwriter``; a smaller block, and
every row with a cell the arrays leave alone, by ``_template_rows``, one
format() call per cell.  The array cells are exact for this reason:

- The digits are the integer nearest s = |x| 10^(11 - k).  The computed s
  carries two roundings, of the correctly rounded power of ten and of the
  product, so its relative error is below 2^-52 and, as s < 10^12, its
  absolute error below 2.3e-4.  rint(s) is thus the rounding of the exact
  s, as format() rounds it, unless the exact fraction lies within 2.3e-4
  of 1/2.
- A cell whose computed fraction lies within ``csvwriter.TIE_MARGIN`` =
  1e-3 of 1/2 is left to format(); the margin is four times that error.
  So are inf, nan and every nonzero |x| below 1e-295 (past the power
  table), subnormals among them.  On the presets that is 0.13% of the
  cells.
- The exponent k is checked, not trusted: a k that puts s outside [1e11,
  1e12) is moved by one and s taken again, and 12 digits that round to
  10^12 carry into k, as the exact rounding does.

Oracle tests compare the writer with format() on every float class, edge
cases and 10^6 random bit patterns (``tests/test_csv_writer.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .measures import (
    _STEERING_CLASSES,
    _occupations,
    _purities,
    _sector_invariants,
    _steering_class_index,
    _steering_raw,
)
from .model import ModelParams, _sector_modes, _stability_determinants
from .states import VALUE_FORMAT, _sector_covariance, covariance_overflow

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
    """Every CSV column of a grid; measures are NaN when unstable.

    ``classification`` is the steering class as an index into
    ``measures._STEERING_CLASSES``, -1 where unstable.
    """

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
        """One row per point, each equal to ``ResultRow.to_csv`` of its values."""
        return self.csv_text().split("\n")[:-1]

    def csv_text(self) -> str:
        """The rows of ``csv_rows``, each ended by a newline."""
        table = np.stack([getattr(self, name) for name in _CELLS], axis=1)
        n = len(table)
        classes = self.classification
        if n < _WRITER_ROWS:
            rows = _template_rows(table, self.stable, classes)
            return "\n".join(rows) + "\n" if rows else ""
        # imported on the first large block: single points and small
        # sweeps never build its tables
        from . import csvwriter

        pieces = -(-n // _WRITER_CHUNK)
        texts = []
        for i in range(pieces):
            part = slice(i * n // pieces, (i + 1) * n // pieces)
            cells, stable = table[part], self.stable[part]
            text, redo = csvwriter.write_rows(cells, stable, classes[part], _ECHO)
            if redo.size:
                rows = text.split("\n")
                exact = _template_rows(cells[redo], stable[redo], classes[part][redo])
                for j, row in zip(redo.tolist(), exact):
                    rows[j] = row
                text = "\n".join(rows)
            texts.append(text)
        return "".join(texts)


# the cells of a row formatted with VALUE_FORMAT, in the order of the CSV:
# four echoed inputs, then the measures that unstable rows leave empty
_CELLS = tuple(f.name for f in fields(GridResult) if f.name not in ("stable", "classification"))
_ECHO = 4
# '%.12g' % x is format(x, '.12g') for every float, -0.0, inf and nan included
_HEAD = ",".join(["%" + VALUE_FORMAT] * _ECHO)
_STABLE_ROW = ",".join(["%" + VALUE_FORMAT] * len(_CELLS) + ["%s", "true"])
# measure cells, class and stable flag of an unstable row
_UNSTABLE_TAIL = "," * (len(_CELLS) - _ECHO + 2) + "false"
# the class cell of each index; an enum's .value costs about 0.3 us a row
_LABELS = tuple(c.value for c in _STEERING_CLASSES)


def _template_rows(table: np.ndarray, stable: np.ndarray, classes: np.ndarray) -> list[str]:
    """Rows of ``table`` (one row of ``_CELLS`` values per point) and their
    class indices, one ``format`` call per cell: the writer's per-row exact path."""
    return [
        _STABLE_ROW % (*row, _LABELS[c]) if ok
        else _HEAD % tuple(row[:_ECHO]) + _UNSTABLE_TAIL
        for row, ok, c in zip(table.tolist(), stable.tolist(), classes.tolist())
    ]


# blocks of fewer rows take _template_rows: with caches cold from other work,
# as in a sweep of many presets, the array writer's ~100 numpy calls cost
# about as much as formatting 70 to 110 rows cell by cell
_WRITER_ROWS = 128
# rows per writer call: a block is cut into near-equal parts of at most
# this many, whose temporaries stay in cache and in the heap
_WRITER_CHUNK = 384


def evaluate_grid(points: GridPoints, state_kind: str) -> GridResult:
    """Rows of every grid point, each equal to ``run_point`` on that point.

    ``state_kind`` is 'ground' (polariton vacuum) or 'thermal' (common-bath
    steady state at each point's temperature).  Raises ValueError when a
    stable point's covariance overflows, is singular to rounding or gives
    measures that are not finite; the message names the first such point.
    """
    if state_kind not in ("ground", "thermal"):
        raise ValueError("state_kind must be 'ground' or 'thermal'")
    n = len(points)
    wa, wb, l1, l2, dd = (getattr(points, f.name) for f in fields(points)[:5])
    temperature = points.temperature if state_kind == "thermal" else np.zeros(n)
    det_v, det_t = _stability_determinants(wa, wb, l1, l2, dd)
    stable = (det_v > 0.0) & (det_t > 0.0)
    live = np.flatnonzero(stable)
    args = (a[live] for a in (wa, wb, l1, l2, dd, det_v, det_t))
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        frame_x, frame_p, passive = _sector_modes(*args)
        sectors = _sector_covariance(frame_x, frame_p, passive, temperature[live])
        i_a, i_b, i_c, i_ab, disc_sq, d_minus, _ = _sector_invariants(*sectors)
    gxx, gpp = sectors[:2]
    # the checks of measures.correlation_report in its order, so both routes
    # take the same decision at every point; the first point failing one is named
    overflow = ~np.isfinite([i_a, i_b, i_c, i_ab, disc_sq]).all(axis=0)
    if overflow.any():
        params = points.params(int(live[np.argmax(overflow)]))
        raise covariance_overflow(f" at {params}")
    singular = ~((i_a > 0.0) & (i_b > 0.0) & (i_ab > 0.0))
    if singular.any():
        params = points.params(int(live[np.argmax(singular)]))
        raise ValueError(
            f"a block determinant of the covariance at {params} is not "
            "positive: it is singular to rounding, at the stability edge"
        )

    with np.errstate(divide="ignore", invalid="ignore"):
        e_n = -np.log(2.0 * d_minus)
        raw_ab, raw_ba = _steering_raw(i_a, i_b, i_ab)
        purities = _purities(i_a, i_b, i_ab)
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
    n_a, n_b = _occupations(gxx[0], gpp[0], gxx[2], gpp[2])

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
        omega_upper=column(frame_p[0]),
        omega_lower=column(frame_p[1]),
        e_n=column(e_n),
        g_ab=column(g_ab),
        g_ba=column(g_ba),
        mu_a=column(purities[0]),
        mu_b=column(purities[1]),
        mu_ab=column(purities[2]),
        n_a=column(n_a),
        n_b=column(n_b),
        classification=column(_steering_class_index(g_ab, g_ba), -1, np.intp),
    )
