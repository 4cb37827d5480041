"""Batched grid kernel: a whole sweep grid as one array pass.

``evaluate_grid`` takes resolved parameters as arrays (one entry per grid
point) and returns every CSV cell in one table.  It follows the scalar
route of ``sweep.run_point`` step by step, calling the scalar route's own
functions on arrays, which run the same floating-point operations as on
floats.  Every point takes one route: a point whose det V or det T
(``model._stability_determinants``) is not positive is an unstable row;
every other point is Gamma = Gamma_xx ⊕ Gamma_pp in 2x2 closed forms, in
the stages ``model._sector_modes``, ``states._sector_covariance`` and
``measures._sector_measures``.  The first two take the (T, V) frame of
Gamma_xx and the (V, T) frame of Gamma_pp of every point as one (2, n)
pass, so that ``_sector_frame``, ``_bose``, ``_weights`` and
``_sector_block`` each run once per block; on each element they run the
operations of the float route.  The last is the checked measures stage of
``run_point`` too: the kernel keeps no check or message of its own, and
raises ``measures.measure_error`` for the first point with a fault.

Each point's result depends on that point alone, so any contiguous split
of a grid yields the same rows; ``sweep.sweep_csv``'s blocks rely on this.

``GridResult`` holds a block's rows as one float table, ``cells``, which
``csv_text`` prints with every cell as format(x, '.12g'), the cell of
``ResultRow.to_csv``, by ``csvwriter.write_rows`` in chunks of at most
``_WRITER_CHUNK`` rows.  It formats no cell it does not print: an unstable
row's measure cells, NaN in ``cells``, are never formatted, and print
empty.  The writer's array cells are exact for this reason:

- The digits are the integer nearest s = |x| 10^(11 - k).  The computed s
  carries two roundings, of the correctly rounded power of ten and of the
  product, so its relative error is below 2^-52 and, as s < 10^12, its
  absolute error below 2.3e-4.  rint(s) is thus the rounding of the exact
  s, as format() rounds it, unless the exact fraction lies within 2.3e-4
  of 1/2.
- The writer prints a cell whose computed fraction lies within
  ``csvwriter.TIE_MARGIN`` = 1e-3 of 1/2 with format(); the margin is four
  times that error.  So it prints inf, nan and every nonzero |x| below
  1e-295 (past the power table), subnormals among them.  On the presets
  that is 0.13% of the cells.
- The exponent k is checked, not trusted: a k that puts s outside [1e11,
  1e12) is moved by one and s taken again, and 12 digits that round to
  10^12 carry into k, as the exact rounding does.

Oracle tests compare the writer with format() on every float class, edge
cases and 10^6 random bit patterns (``tests/test_csv_writer.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .measures import _sector_measures, measure_error
from .model import ModelParams, _sector_modes, _stability_determinants
from .states import _sector_covariance

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


# the float cells of a row, in the order of the CSV: four echoed inputs,
# then the measures that unstable rows leave empty
_CELLS = ("lam", "wa", "wb", "temperature", "omega_upper", "omega_lower",
          "e_n", "g_ab", "g_ba", "mu_a", "mu_b", "mu_ab", "n_a", "n_b")
_ECHO = 4


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
# this many.  A call has a fixed cost of about 120 us (one row), and its
# temporaries peak at 1,391 bytes per row on 1,024 all-stable fig3a rows and
# at 1,258 on 1,024 rows of which 704 are unstable, whose measure cells are
# never formatted (tracemalloc): 1.4 MB that stay in a core's 2 MB L2 cache;
# a whole 2,925-row block in one call is 30-40% slower
_WRITER_CHUNK = 1024


def evaluate_grid(points: GridPoints, state_kind: str) -> GridResult:
    """Rows of every grid point, each equal to ``run_point`` on that point.

    ``state_kind`` is 'ground' (polariton vacuum) or 'thermal' (common-bath
    steady state at each point's temperature).  A stable point whose
    measures fault (``measures._measures``) raises the ValueError that
    ``run_point`` raises there, with the first such point named.
    """
    if state_kind not in ("ground", "thermal"):
        raise ValueError("state_kind must be 'ground' or 'thermal'")
    n = len(points)
    wa, wb, l1, l2, dd = (getattr(points, f.name) for f in fields(points)[:5])
    temperature = points.temperature if state_kind == "thermal" else np.zeros(n)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # faults raised below
        det_v, det_t = _stability_determinants(wa, wb, l1, l2, dd)
        stable = (det_v > 0.0) & (det_t > 0.0)
        live = np.flatnonzero(stable)
        args = (a[live] for a in (wa, wb, l1, l2, dd, det_v, det_t))
        frame_x, frame_p, passive = _sector_modes(*args)
        sectors = _sector_covariance(frame_x, frame_p, passive, temperature[live])
        fault, measures, classes = _sector_measures(sectors)
    # the decision of measures.correlation_report, taken at every point
    if fault.any():
        i = int(np.argmax(fault > 0))
        where = f" at {points.params(int(live[i]))}"
        raise measure_error(int(fault[i]), where, float(frame_p[1][i]), float(sectors[3][i]))

    cells = np.full((n, len(_CELLS)), np.nan)
    cells[:, :_ECHO] = np.transpose((np.where(l2 > l1, l2, l1), wa, wb, temperature))
    # the measures of _sector_measures come in the order of the report's
    # fields, which _CELLS follows
    cells[live, _ECHO:] = np.transpose((frame_p[0], frame_p[1], *measures))
    classification = np.full(n, -1, np.intp)
    classification[live] = classes
    return GridResult(cells, stable, classification)
