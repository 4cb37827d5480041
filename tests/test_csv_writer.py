"""The array CSV writer of ``GridResult`` against format(x, '.12g'), cell by cell."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hopfield_gaussian import csvwriter, grid
from hopfield_gaussian.grid import GridResult
from hopfield_gaussian.measures import _STEERING_CLASSES, _steering_class_index

WIDTH = len(grid._CELLS)


def result_of(table: np.ndarray) -> GridResult:
    """A stable grid whose CSV cells are the rows of ``table``."""
    columns = dict(zip(grid._CELLS, table.T))
    classes = _steering_class_index(columns["g_ab"], columns["g_ba"])
    return GridResult(stable=np.ones(len(table), bool), classification=classes, **columns)


def written(values) -> list[str]:
    """Each value as the writer prints it, in a row of its own (enough rows
    for the array writer), in a column that cycles through all 14."""
    values = np.asarray(values, dtype=float)
    rows = max(len(values), grid._WRITER_ROWS)
    table = np.full((rows, WIDTH), 0.5)
    at = np.arange(len(values))
    table[at, at % WIDTH] = values
    lines = result_of(table).csv_rows()
    return [lines[i].split(",")[i % WIDTH] for i in at.tolist()]


def cell_words(values: np.ndarray) -> tuple[list, np.ndarray]:
    """The array route alone: each cell's text and the mask it leaves to format()."""
    words = np.empty((len(values), 3), np.uint64)
    lengths = np.empty(len(values), np.intp)
    left = csvwriter.cell_words(values, words, lengths)
    raw = words.view(np.uint8)
    return [raw[i, :n].tobytes().decode("ascii") for i, n in enumerate(lengths)], left


def random_bits(seed: int, n: int) -> np.ndarray:
    return np.random.default_rng(seed).integers(0, 2**64, n, dtype=np.uint64).view(np.float64)


# named cases: a tie, the two carries, the notation switches at 1e-5, 1e-4,
# 1e11 and 1e12 with their neighbours, three-digit exponents, zeros
EXPECTED = {
    123456789012.5: "123456789012",
    9.99999999999951e-05: "0.0001",
    999999999999.5: "1e+12",
    1e-5: "1e-05",
    1e-4: "0.0001",
    1e11: "100000000000",
    1e12: "1e+12",
    5e-324: "4.94065645841e-324",
    1.7976931348623157e308: "1.79769313486e+308",
    0.0: "0",
}
EDGES = [
    *EXPECTED,
    *(math.nextafter(x, toward) for x in (1e-5, 1e-4, 1e11, 1e12) for toward in (0.0, math.inf)),
    99999999999.95, 99999999999.5, 9.999999999995e-5, 0.1, 0.5, 1.0, 2.5, 1e-300, 1e300,
    2.2250738585072014e-308, 1e-310, math.inf, math.nan,
]
EDGES += [-x for x in EDGES]


class TestCells:
    @pytest.mark.parametrize("x", EDGES)
    def test_edges(self, x):
        [cell] = written([x])
        assert cell == format(x, ".12g")
        if abs(x) in EXPECTED:
            assert cell == ("-" if math.copysign(1.0, x) < 0 else "") + EXPECTED[abs(x)]

    def test_edges_the_array_route_writes_itself(self):
        # a carry, a three-digit exponent, both zeros and the notation
        # switches; ties, subnormals, inf and nan are left to format()
        exact = [9.99999999999951e-05, 1.7976931348623157e308, 0.0, -0.0, 1e-5, 1e-4,
                 1e11, 1e12, -2.5, 1e-295]
        left = [123456789012.5, 999999999999.5, 5e-324, 1e-310, 1e-296, math.inf, math.nan]
        texts, mask = cell_words(np.array(exact + left))
        assert not mask[: len(exact)].any() and mask[len(exact):].all()
        assert texts[: len(exact)] == [format(x, ".12g") for x in exact]

    @settings(max_examples=2000, deadline=None)
    @given(st.lists(st.floats(), min_size=1, max_size=40))
    @example([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324])
    def test_any_float(self, values):
        assert written(values) == [format(x, ".12g") for x in values]

    def test_a_million_random_bit_patterns(self):
        table = random_bits(7, WIDTH * 71_429).reshape(-1, WIDTH)  # 10^6 cells
        for part in np.array_split(table, 10):
            values = part.ravel()
            ref = [format(x, ".12g") for x in values.tolist()]
            texts, left = cell_words(values)
            # subnormals, |x| < 1e-295, inf and nan (2.2% of the bit
            # patterns) and near ties
            assert left.mean() < 0.025
            assert [t for t, gone in zip(texts, left) if not gone] == [
                r for r, gone in zip(ref, left) if not gone
            ]
            lines = result_of(part).csv_rows()
            assert [cell for line in lines for cell in line.split(",")[:WIDTH]] == ref


class TestRows:
    def test_small_blocks_take_the_template(self, monkeypatch):
        def fail(*args):
            raise AssertionError("the array writer ran")

        monkeypatch.setattr(csvwriter, "write_rows", fail)
        table = np.full((grid._WRITER_ROWS - 1, WIDTH), 0.25)
        assert len(result_of(table).csv_rows()) == grid._WRITER_ROWS - 1

    @pytest.mark.parametrize("rows", [grid._WRITER_ROWS, grid._WRITER_CHUNK + 1, 1000])
    def test_every_split_into_chunks(self, rows):
        table = random_bits(rows, rows * WIDTH).reshape(rows, WIDTH)
        stable = np.arange(rows) % 3 > 0
        columns = dict(zip(grid._CELLS, table.T))
        classes = np.where(stable, _steering_class_index(columns["g_ab"], columns["g_ba"]), -1)
        result = GridResult(stable=stable, classification=classes, **columns)
        template = grid._template_rows(table, stable, classes)
        for row, ok, c in zip(template, stable.tolist(), classes.tolist()):
            assert row.split(",")[WIDTH] == (_STEERING_CLASSES[c].value if ok else "")
        assert result.csv_rows() == template
        assert result.csv_text() == "".join(row + "\n" for row in template)
