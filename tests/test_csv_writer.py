"""The array CSV writer of ``GridResult`` against format(x, '.12g'), cell by cell."""

import dataclasses
import hashlib
import math
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hopfield_gaussian import csvwriter, scenarios, sweep
from hopfield_gaussian.measures import _STEERING_CLASSES, _steering_class_index
from hopfield_gaussian.states import Environment
from hopfield_gaussian.sweep import GridResult, ResultRow

WIDTH = len(sweep._CELLS)


def result_of(table: np.ndarray, stable: np.ndarray | None = None) -> GridResult:
    """A grid whose CSV cells are the rows of ``table``, stable unless ``stable`` says."""
    stable = np.ones(len(table), bool) if stable is None else stable
    result = GridResult(table, stable, np.full(len(table), -1, np.intp))
    classes = _steering_class_index(result.g_ab, result.g_ba)
    result.classification[stable] = classes[stable]
    return result


def written(values) -> list[str]:
    """Each value as the writer prints it, in a row of its own, in a column
    that cycles through all 14."""
    values = np.asarray(values, dtype=float)
    table = np.full((len(values), WIDTH), 0.5)
    at = np.arange(len(values))
    table[at, at % WIDTH] = values
    lines = result_of(table).csv_text().splitlines()
    return [lines[i].split(",")[i % WIDTH] for i in at.tolist()]


def to_csv_text(table: np.ndarray, stable: np.ndarray, classes: np.ndarray) -> str:
    """The rows of ``table`` by ``ResultRow.to_csv``, one '%' per row: the
    route of single points, and the reference of the writer."""
    rows = [
        ResultRow(*cells, _STEERING_CLASSES[c].value) if ok
        else ResultRow(*cells[:sweep._ECHO], None, None, stable=False)
        for cells, ok, c in zip(table.tolist(), stable.tolist(), classes.tolist())
    ]
    return "".join(row.to_csv() + "\n" for row in rows)


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


class TestTables:
    def test_digit_tables_equal_their_loop_definitions(self):
        # the four ASCII digits of each group as a little-endian word, and
        # the significant digits of a cell whose group is the first, second
        # or third, built one group at a time
        group = np.frombuffer(("%04d" * 10_000 % tuple(range(10_000))).encode(), "<u4")
        significant = [len(f"{g:04d}".rstrip("0")) for g in range(10_000)]
        assert csvwriter._GROUP.dtype == np.uint64
        assert csvwriter._GROUP.tolist() == group.tolist()
        assert csvwriter._SIGNIFICANT.tolist() == significant
        assert csvwriter._SIG_AT.dtype == np.uint8 and len(csvwriter._SIG_AT) == 3
        for i, sig_at in enumerate(csvwriter._SIG_AT):
            assert sig_at.tolist() == [n and n + 4 * i for n in significant]


    def test_exponent_tables_equal_their_comprehensions(self):
        # the tables by exponent k, as Python loops built them one entry at
        # a time, each a reference for its array build
        k0 = csvwriter._K0
        ks = list(range(-k0, 12))
        prefixes = ["0." + "0" * (-k - 1) if k < 0 else "" for k in ks]
        references = {
            "_SCALE": [float(f"1e{11 - k}") for k in ks],
            "_SPLIT": [k + 1 if k >= 0 else 0 for k in ks],
            "_POINT_ALL": [-(k < 0) for k in ks],
            "_PREFIX": [int.from_bytes(t.encode("ascii"), "little") for t in prefixes],
            "_PREFIX_LEN": [len(t) for t in prefixes],
            "_PREFIX_BITS": [8 * len(t) for t in prefixes],
        }
        dtypes = {"_SCALE": np.float64, "_SPLIT": np.intp, "_POINT_ALL": np.intp,
                  "_PREFIX_LEN": np.intp}
        assert len(csvwriter._SCALE) <= 20
        for name, reference in references.items():
            table = getattr(csvwriter, name)
            assert table.dtype == dtypes.get(name, np.uint64), name
            if name == "_SCALE":  # bit for bit
                assert table.tobytes() == np.array(reference).tobytes(), name
            else:
                assert table.tolist() == reference, name


class TestCells:
    @pytest.mark.parametrize("x", EDGES)
    def test_edges(self, x):
        [cell] = written([x])
        assert cell == format(x, ".12g")
        if abs(x) in EXPECTED:
            assert cell == ("-" if math.copysign(1.0, x) < 0 else "") + EXPECTED[abs(x)]

    def test_edges_the_array_route_writes_itself(self):
        # +0 and fixed notation from 1e-4 up to 999999999999.5, a carry
        # into k among them; ties, the exponent form, negative cells, -0.0,
        # subnormals, inf and nan are left to format()
        exact = [0.0, 1e-4, math.nextafter(1e-4, 1.0), 9.99999999999999e-4, 0.5, 2.5,
                 99999999999.5, 99999999999.99, 1e11]
        left = [123456789012.5, 999999999999.5, math.nextafter(999999999999.5, 0.0),
                math.nextafter(1e12, 0.0), 1e12, 1.7976931348623157e308, -0.0, 1e-5, -2.5,
                1e-295, 9.99999999999951e-05, 5e-324, 1e-310, 1e-296, math.inf, math.nan]
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
        fixed_cells = fixed_left = 0
        for part in np.array_split(table, 10):
            values = part.ravel()
            ref = [format(x, ".12g") for x in values.tolist()]
            texts, left = cell_words(values)
            # every cell but +0 and those in [1e-4, 999999999999.5):
            # negative, outside the range, inf and nan; and near ties
            fixed = (values >= 1e-4) & (values < 999999999999.5)
            assert left[~fixed & (values.view(np.int64) != 0)].all()
            fixed_cells += fixed.sum()
            fixed_left += left[fixed].sum()
            assert [t for t, gone in zip(texts, left) if not gone] == [
                r for r, gone in zip(ref, left) if not gone
            ]
            lines = result_of(part).csv_text().splitlines()
            assert [cell for line in lines for cell in line.split(",")[:WIDTH]] == ref
        # near ties: 19 of the 12,984 cells in the range
        assert fixed_left <= 0.003 * fixed_cells


class TestRows:
    @pytest.mark.parametrize("rows", [1, 2, 70, 127, 128, sweep._WRITER_CHUNK + 1, 1000])
    def test_every_split_into_chunks(self, rows):
        table = random_bits(rows, rows * WIDTH).reshape(rows, WIDTH)
        stable = np.arange(rows) % 3 > 0
        result = result_of(table, stable)
        classes = result.classification
        reference = to_csv_text(table, stable, classes)
        for row, ok, c in zip(reference.splitlines(), stable.tolist(), classes.tolist()):
            assert row.split(",")[WIDTH] == (_STEERING_CLASSES[c].value if ok else "")
        assert result.csv_text() == reference

    def test_no_rows_no_text(self):
        assert result_of(np.empty((0, WIDTH))).csv_text() == ""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 200), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
    def test_any_block_writes_the_to_csv_rows(self, rows, share, seed):
        # random stable masks, and columns that hold one value, as the
        # echoed inputs of a preset do
        rng = np.random.default_rng(seed)
        table = random_bits(seed, rows * WIDTH).reshape(rows, WIDTH)
        ordinary = rng.random(table.shape) < 0.5
        table[ordinary] = rng.standard_normal(ordinary.sum()) * 10.0 ** rng.integers(-8, 14)
        constant = rng.random(WIDTH) < 0.4
        table[:, constant] = table[0, constant]
        stable = rng.random(rows) >= share
        result = result_of(table, stable)
        assert result.csv_text() == to_csv_text(table, stable, result.classification)

    @pytest.mark.parametrize("rows", [70, 127, 128, sweep._WRITER_CHUNK + 1])
    def test_mixed_block_with_cells_left_to_format(self, rows):
        # every cell class that cell_words leaves alone, in stable rows, in
        # the echoed cells of unstable rows and past them, where a row's
        # cells are empty; the writer prints them and writes to no input
        special = [math.inf, -math.inf, math.nan, 5e-324, -1e-310, 1e-296, 123456789012.5,
                   0.1234567890125, 999999999999.5]
        table = random_bits(3, rows * WIDTH).reshape(rows, WIDTH)
        at = np.arange(rows * WIDTH).reshape(rows, WIDTH) % 7 == 0
        table[at] = np.resize(special, at.sum())
        stable = np.arange(rows) % 5 > 1
        result = result_of(table, stable)
        before = result.cells.copy()
        left = cell_words(result.cells.ravel())[1].reshape(rows, WIDTH)
        assert left[stable].any() and left[~stable, :sweep._ECHO].any()
        text = result.csv_text()
        assert text == to_csv_text(before, stable, result.classification)
        assert result.csv_text() == text
        assert result.cells.tobytes() == before.tobytes()


def counted_cell_words(monkeypatch) -> list:
    """Patches ``csvwriter.cell_words`` to record the size of each call."""
    sizes, cell_words = [], csvwriter.cell_words

    def counted(x, words, lengths):
        sizes.append(x.size)
        return cell_words(x, words, lengths)

    monkeypatch.setattr(csvwriter, "cell_words", counted)
    return sizes


class TestPresetTraffic:
    def test_presets_print_few_cells_left_to_format(self, monkeypatch):
        # the writer lays out fixed notation only; the presets, fig5 without
        # the diamagnetic term among them, print no negative cell and leave
        # few to format() (265 of 132,236)
        calls, cell_words = [], csvwriter.cell_words

        def spied(x, words, lengths):
            left = cell_words(x, words, lengths)
            calls.append((x.copy(), left.copy()))
            return left

        monkeypatch.setattr(csvwriter, "cell_words", spied)
        specs = [*scenarios.SCENARIOS.values(),
                 dataclasses.replace(scenarios.SCENARIOS["fig5"], diamag_mode="zero")]
        for spec in specs:
            sweep.sweep_csv(spec, Environment(float(spec.fixed.get("T", 0.0))))
        cells = np.concatenate([x.ravel() for x, _ in calls])
        left = np.concatenate([gone.ravel() for _, gone in calls])
        assert cells.size > 100_000
        assert not np.signbit(cells).any()
        assert left.sum() <= 0.005 * cells.size


class TestPrintedCells:
    """``write_rows`` formats the cells it prints and no other: the echoed
    inputs of every row and the measures of the stable rows, in one call."""

    @pytest.mark.parametrize("rows", [1, 2, 70, 127, 128])
    @pytest.mark.parametrize("kind", ["all unstable", "one stable", "one unstable", "all stable"])
    def test_one_call_on_the_printed_cells(self, kind, rows, monkeypatch):
        table = random_bits(11, rows * WIDTH).reshape(rows, WIDTH)
        stable = np.full(rows, kind in ("one unstable", "all stable"))
        if kind.startswith("one"):
            stable[rows // 3] = not stable[rows // 3]
        result = result_of(table, stable)
        sizes = counted_cell_words(monkeypatch)
        text = result.csv_text()
        k = int(stable.sum())
        assert sizes == [rows * sweep._ECHO + k * (WIDTH - sweep._ECHO)]
        assert text == to_csv_text(table, stable, result.classification)
        lines = text.splitlines()
        assert [line.endswith(",false") for line in lines] == (~stable).tolist()
        for line, ok in zip(lines, stable.tolist()):
            assert ok or line.split(",")[sweep._ECHO:] == [""] * (WIDTH - sweep._ECHO + 1) + ["false"]

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, 5e-324, -1e-310,
                                       1e-296, 123456789012.5, 0.1234567890125, 999999999999.5])
    def test_unprinted_cells_of_any_class_stay_empty(self, value, monkeypatch):
        # cells that cell_words would leave to format(), past the echoed
        # inputs of unstable rows: neither routine sees them
        rows = 129
        table = random_bits(5, rows * WIDTH).reshape(rows, WIDTH)
        stable = np.arange(rows) % 4 > 0
        table[~stable, sweep._ECHO:] = value
        result = result_of(table, stable)
        printed = np.concatenate((table[stable].ravel(), table[~stable, :sweep._ECHO].ravel()))
        left = cell_words(printed)[1]
        formatted = []
        monkeypatch.setattr(csvwriter, "format", lambda x, spec: formatted.append(x) or
                            format(x, spec), raising=False)
        sizes = counted_cell_words(monkeypatch)
        text = result.csv_text()
        assert text == to_csv_text(table, stable, result.classification)
        assert sizes == [printed.size]
        assert len(formatted) == left.sum()

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 300), st.sampled_from([0.0, 0.02, 0.3, 0.5, 0.9, 1.0]),
           st.integers(0, 2**32 - 1))
    def test_any_stable_mask_writes_the_template_rows(self, rows, share, seed):
        rng = np.random.default_rng(seed)
        table = random_bits(seed, rows * WIDTH).reshape(rows, WIDTH)
        # some ordinary cells, whose digits take the array route
        ordinary = rng.random(table.shape) < 0.5
        table[ordinary] = rng.standard_normal(ordinary.sum()) * 10.0 ** rng.integers(-8, 14)
        stable = rng.random(rows) >= share
        result = result_of(table, stable)
        before = table.copy()
        text = csvwriter.write_rows(table, stable, result.classification, sweep._ECHO)
        assert text == to_csv_text(before, stable, result.classification)
        assert table.tobytes() == before.tobytes()


# a cell of each printed length from 1 to 19 bytes; format()'s longest text,
# '-1.23456789012e-308', has 19, and an unstable row's empty cells have 0
BY_LENGTH = [float("123456789012"[:n]) for n in range(1, 13)] + [
    1.23456789012, 0.123456789012, 0.0123456789012, 0.00123456789012, 0.000123456789012,
    -0.000123456789012, -1.23456789012e-308]
STABLE_MASKS = {
    "all stable": lambda rows: np.ones(rows, bool),
    "every third unstable": lambda rows: np.arange(rows) % 3 > 0,
    "all unstable": lambda rows: np.zeros(rows, bool),
}


class TestOrderedScatter:
    """``write_rows`` writes every slot whole, 24 bytes, at its byte offset
    in the output with one integer-index assignment, so each slot's unused
    bytes land where the next slot's text goes.  The rows are right only if
    numpy applies the assignment in index order, which it does not document:
    these tests pin it, on slots of every length next to each other."""

    def test_numpy_assigns_overlapping_items_in_index_order(self):
        slot = csvwriter._SLOT
        rng = np.random.default_rng(37)
        at = np.cumsum(rng.integers(1, slot + 1, 2000)) - 1
        items = rng.integers(0, 256, (len(at), slot), dtype=np.uint8)
        out = np.zeros(at[-1] + slot, np.uint8)
        view = np.ndarray(at[-1] + 1, csvwriter._CELL, out, strides=(1,))
        view[at] = items.view(csvwriter._CELL)[:, 0]
        reference = bytearray(len(out))
        for offset, item in zip(at.tolist(), items):
            reference[offset:offset + slot] = item.tobytes()
        assert out.tobytes() == bytes(reference)

    @pytest.mark.parametrize("mask", STABLE_MASKS)
    def test_every_length_next_to_every_length(self, mask):
        # row (a, b) holds in column c the cell of index a c + b (mod 19),
        # so each length sits before each other in some row; with unstable
        # rows, runs of empty cells follow them
        n = len(BY_LENGTH)
        assert sorted(len(format(x, ".12g")) for x in BY_LENGTH) == list(range(1, 20))
        a, b = np.divmod(np.arange(n * n), n)
        table = np.take(BY_LENGTH, (a[:, None] * np.arange(WIDTH) + b[:, None]) % n)
        assert_rows_match(table, STABLE_MASKS[mask](len(table)))

    @pytest.mark.parametrize("mask", STABLE_MASKS)
    def test_long_cells_next_to_empty_cells(self, mask):
        table = np.full((90, WIDTH), 0.000123456789012)  # 17 bytes each
        table[::4, ::3] = 0.0
        assert_rows_match(table, STABLE_MASKS[mask](len(table)))

    def test_no_rows_after_a_block(self):
        # the kept buffers hold an earlier block's bytes, and a cumsum of no
        # slots has no last offset
        csvwriter.write_rows(*mixed_block(6), sweep._ECHO)
        no_rows = csvwriter.write_rows(np.empty((0, WIDTH)), np.empty(0, bool),
                                       np.empty(0, np.intp), sweep._ECHO)
        assert no_rows == ""


def assert_rows_match(table: np.ndarray, stable: np.ndarray) -> None:
    """``write_rows`` of the block, and of each of its rows as a block of
    one, against ``ResultRow.to_csv``."""
    classes = result_of(table, stable).classification
    reference = to_csv_text(table, stable, classes)
    assert csvwriter.write_rows(table, stable, classes, sweep._ECHO) == reference
    rows = [csvwriter.write_rows(table[i:i + 1], stable[i:i + 1], classes[i:i + 1], sweep._ECHO)
            for i in range(len(table))]
    assert rows == reference.splitlines(keepends=True)


def mixed_block(seed: int, rows: int = 480, unstable: int = 160):
    """A seeded block of ordinary cells, ``unstable`` of its rows past the
    stability edge: the (table, stable, classes) of one writer call."""
    rng = np.random.default_rng(seed)
    table = np.exp(rng.uniform(-8.0, 6.0, (rows, WIDTH)))
    stable = np.ones(rows, bool)
    stable[rng.choice(rows, unstable, replace=False)] = False
    return table, stable, result_of(table, stable).classification


def in_new_thread(work):
    """``work()`` in a thread of its own, which starts with no kept buffers."""
    out = []
    thread = threading.Thread(target=lambda: out.append(work()))
    thread.start()
    thread.join(timeout=120)
    assert not thread.is_alive() and len(out) == 1
    return out[0]


class TestKeptBuffers:
    """``write_rows`` keeps its slot tables between calls, per thread; no
    byte of an earlier call, or of another thread, reaches a row."""

    def test_threads_write_their_own_rows(self):
        tables = [mixed_block(1, 300, 100), mixed_block(2, 120, 0)]
        tables[1][0][:] = 0.000123456789012  # every cell 17 bytes long
        serial = [csvwriter.write_rows(*block, sweep._ECHO) for block in tables]
        results = [[], []]
        start = threading.Barrier(2)

        def write(i):
            start.wait(timeout=60)
            for _ in range(50):
                results[i].append(csvwriter.write_rows(*tables[i], sweep._ECHO))

        threads = [threading.Thread(target=write, args=(i,)) for i in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for i in range(2):
            assert results[i] == [serial[i]] * 50

    def test_long_cells_do_not_reach_a_later_block(self):
        # slots and the compact run filled with 17-byte cells, then a
        # smaller block of short cells and unstable rows
        assert written([0.000123456789012]) == ["0.000123456789012"]
        for stable in (np.ones(200, bool), np.arange(200) % 3 > 0):
            table = np.full((200, WIDTH), 0.000123456789012)
            csvwriter.write_rows(table, stable, result_of(table, stable).classification,
                                 sweep._ECHO)
        table = np.resize([0.5, 1.0, 0.0, 2.25, 10.0, 0.125], (90, WIDTH))
        stable = np.arange(90) % 4 > 1
        classes = result_of(table, stable).classification
        rows = csvwriter.write_rows(table, stable, classes, sweep._ECHO).splitlines()
        assert rows == to_csv_text(table, stable, classes).splitlines()

    def test_presets_in_reverse_after_a_mixed_block(self):
        digests = dict(line.split()[::-1] for line in (
            Path(__file__).parent / "figure_data.sha256").read_text().splitlines())
        jobs = {f"{name}.csv": spec for name, spec in scenarios.SCENARIOS.items()}
        jobs["fig5_no_diamag.csv"] = dataclasses.replace(
            scenarios.SCENARIOS["fig5"], diamag_mode="zero")
        assert sorted(jobs) == sorted(digests)

        def sweep_all():
            csvwriter.write_rows(*mixed_block(3), sweep._ECHO)
            return {name: hashlib.sha256(sweep.sweep_csv(jobs[name]).encode()).hexdigest()
                    for name in sorted(jobs, reverse=True)}

        assert in_new_thread(sweep_all) == digests

    def test_second_call_peak(self):
        # the slot tables are kept, so a second call on a 480-row block with
        # 160 unstable rows allocates only its own temporaries (about
        # 390 KB; 780 KB with fresh slot tables)
        block = mixed_block(5)
        csvwriter.write_rows(*block, sweep._ECHO)
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            csvwriter.write_rows(*block, sweep._ECHO)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak <= 450_000

    def test_sweep_keeps_at_most_a_chunk(self):
        # a 4,096-point block past the stability edge, written in four calls
        # of 1,024 rows: the kept buffers hold slots and lengths (32 bytes a
        # cell and tail), the compact run's words and sizes (32 a cell) and
        # the output of the longest call, with room for its last whole slot
        spec = dataclasses.replace(
            scenarios.SCENARIOS["fig3a"], diamag_mode="zero",
            axes=(scenarios.Axis.linspace("wa", 0.1, 2.0, 64),
                  scenarios.Axis.linspace("lambda", 0.02, 1.5, 64)))

        def sweep_4096():
            text = sweep.sweep_csv(spec)
            return text, {name: b.nbytes for name, b in vars(csvwriter._STORE).items()}

        text, kept = in_new_thread(sweep_4096)
        assert text.count("false") > 1000 and len(text.splitlines()) == 4097
        assert sorted(kept) == ["lengths", "out", "sizes", "slots", "words"]
        rows = text.splitlines(keepends=True)[1:]
        calls = [rows[i:i + sweep._WRITER_CHUNK] for i in range(0, len(rows), sweep._WRITER_CHUNK)]
        assert kept.pop("out") == max(len("".join(c)) for c in calls) + csvwriter._SLOT
        assert sum(kept.values()) <= sweep._WRITER_CHUNK * (2 * WIDTH + 1) * 32
