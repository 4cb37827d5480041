"""The rows of ``sweep.GridResult`` written by array operations.

``write_rows`` prints a table of float cells as CSV rows in which each cell
is format(x, '.12g').  ``cell_words`` lays out by array operations the
cells of fixed notation, +0 and every x in [1e-4, 999999999999.5), each in
a slot of three little-endian uint64 words; every other cell (negative,
-0.0, below 1e-4 or from 999999999999.5 up, inf and nan) it leaves to
format(), as it does near ties.  On every preset that is 0.2% of the
printed cells, and no preset prints a negative cell.  A slot also holds
the longest text of format() ('-1.23456789012e-308') and its separator.
The layout of a cell:

- The exponent k comes from log10 x; s = x 10^(11 - k) from a table of
  correctly rounded powers of ten, one fix-up of k where s falls outside
  [1e11, 1e12), and the 12 digits d = rint(s), carrying into k at 10^12.
  As x < 999999999999.5 rounds to at most 12 nines, -4 <= k < 12.
- The digits come from three 4-digit groups of d through a 10,000-entry
  table of ASCII words, their count without trailing zeros from a second.
- Each layout is a few shifts and ors on whole arrays: the '.' after digit
  k + 1 (0 <= k < 12), or '0.' and -k - 1 zeros before the digits
  (-4 <= k < 0).  The rare fix-up of k works on the indices of its cells
  only.

``write_rows`` formats only the cells it prints, in one ``cell_words``
call: the whole table where every row is stable, and otherwise a compact
run of the echoed inputs of every row and the measures of the stable rows,
whose slots are then scattered back; an unstable row's measure cells are
never formatted and print empty.  It writes the printed cells that
``cell_words`` leaves alone with format() into their slots, then the
separator at each cell's length, and keeps each slot up to it with one
boolean mask.  The module is imported on the first sweep block, so single
points never build its tables.

The slots and lengths, and the compact run's words and sizes, are views of
four flat buffers that each thread keeps between calls (``_STORE``, a
``threading.local``); a buffer grows only when a bigger block asks for it,
and is never shrunk.  glibc would hand fresh arrays back to the OS after
each call and fault them in again on the next: a benchmark round of the
six 480-point ``general-coupling`` sweeps took a median of 704-727 minor
page faults with them (seeds 5 and 131), and takes 0 with the kept
buffers.  A sweep's writer calls, of at most ``sweep._WRITER_CHUNK`` =
1,024 rows of 14 cells, keep at most 950 KB per thread.  Every byte of a
slot that reaches the output is written by the call itself, so no earlier
call's byte is printed, and the output is a new ``str``.  The writer is
thread-safe but not reentrant within one thread.

Every cell of the array operations is exact, format()'s own:

- The digits are the integer nearest s = x 10^(11 - k).  The computed s
  carries two roundings, of the correctly rounded power of ten and of the
  product, so its relative error is below 2^-52 and, as s < 10^12, its
  absolute error below 2.3e-4.  rint(s) is thus the rounding of the exact
  s, as format() rounds it, unless the exact fraction lies within 2.3e-4
  of 1/2.
- A cell whose computed fraction lies within ``TIE_MARGIN`` = 1e-3 of 1/2
  is printed with format(); the margin is four times that error.
- The exponent k is checked, not trusted: a k that puts s outside [1e11,
  1e12) is moved by one and s taken again, and 12 digits that round to
  10^12 carry into k, as the exact rounding does.

Oracle tests compare the writer with format() on every float class, edge
cases and 10^6 random bit patterns (``tests/test_csv_writer.py``).
"""

from __future__ import annotations

import math
import threading

import numpy as np

from .measures import _STEERING_CLASSES

__all__ = ["cell_words", "write_rows"]

_SLOT = 24  # bytes per cell
_CELL = np.dtype((np.void, _SLOT))  # a slot as one item, to move it whole


def _words(texts) -> np.ndarray:
    """Each ASCII text of up to 8 bytes as a little-endian integer."""
    return np.array([int.from_bytes(t.encode("ascii"), "little") for t in texts], np.uint64)


# the four digits of each of 0..9999, first digit first; their ASCII bytes
# as a little-endian word, and how many of a cell's 12 digits are
# significant, trailing zeros dropped, when the group is the first, second
# or third (a group of zeros adds none)
_DIGITS = np.indices((10, 10, 10, 10), np.uint8).reshape(4, -1)
_GROUP = np.ascontiguousarray(_DIGITS.T + np.uint8(ord("0"))).view("<u4")[:, 0].astype(np.uint64)
_SIGNIFICANT = np.max(np.arange(1, 5, dtype=np.uint8)[:, None] * (_DIGITS != 0), axis=0)
_SIG_AT = np.where(_SIGNIFICANT > 0, _SIGNIFICANT + np.arange(0, 12, 4, dtype=np.uint8)[:, None],
                   np.uint8(0))

# the cells of fixed notation; +0 is exact as well, and every other cell
# (negative, -0.0, outside this range, inf and nan) is left to format().
# The top is the largest float below 999999999999.5, which rounds to 1e12
_LOW = 1e-4
_TOP = np.nextafter(999999999999.5, 0.0)
# s carries two roundings, an error below 2.3e-4: a fraction of s this
# close to 1/2 may round either way, so format() decides
TIE_MARGIN = 1e-3
# tables by exponent k sit at k + _K0, for -5 <= k < 12: the cells take
# -4 <= k < 12, and k = -5 serves a log10 that errs below -4
_K0 = 5
_K = np.arange(-_K0, 12)
# the layouts of exponent k: the '.' after digit k + 1 for 0 <= k < 12;
# '0.' and -k - 1 zeros before the digits for k < 0
_SMALL = _K < 0
_SPLIT = np.where(_SMALL, 0, _K + 1)
_POINT_ALL = -_SMALL.astype(np.intp)
_ZEROS = np.where(_SMALL, -_K, 0)  # 1 + the number of zeros after '0.'
_PREFIX = _words(["", "0.", "0.0", "0.00", "0.000", "0.0000"]).take(_ZEROS)
_PREFIX_LEN = np.where(_SMALL, _ZEROS + 1, 0)
_PREFIX_BITS = (8 * _PREFIX_LEN).astype(np.uint64)
# 10^(11 - k), correctly rounded
_SCALE = np.array([float(f"1e{11 - k}") for k in _K.tolist()])
# split of the 12 digit bytes (8 low, 4 high) after byte q: the bytes
# below q, and '.' at byte q
_BELOW = [(1 << 8 * q) - 1 for q in range(13)]
_LOW_BELOW = np.array([m & (2**64 - 1) for m in _BELOW], np.uint64)
_HIGH_BELOW = np.array([m >> 64 for m in _BELOW], np.uint64)
_DOT = [ord(".") << 8 * q for q in range(13)]
_LOW_DOT = np.array([d & (2**64 - 1) for d in _DOT], np.uint64)
_HIGH_DOT = np.array([d >> 64 for d in _DOT], np.uint64)


def cell_words(x: np.ndarray, words: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """format(v, '.12g') of each v of a float64 array, laid out.

    Writes each cell's three words (bytes 0-7, 8-15 and 16-23, little
    endian) to the last axis of ``words`` and its length to ``lengths``;
    bytes at and past the length are unspecified.  Returns the mask of the
    cells left to format(): every cell but +0 and those in [1e-4,
    999999999999.5), and near ties.
    """
    zero = x.view(np.int64) == 0  # +0 only: -0.0 has its sign bit set
    # negative cells, nan and the rest outside [_LOW, _TOP] move, so are left
    c = np.fmax(x, _LOW)
    np.fmin(c, _TOP, out=c)
    left = c != x
    left ^= zero
    s = np.log10(c)
    s += _K0  # positive, so truncation is the floor
    k = s.astype(np.intp)
    _SCALE.take(k, out=s)
    s *= c
    d = np.rint(s)
    # log10 errs by less than an ulp, so k is within one of the exponent;
    # 12 digits rounding up to 10^12 carry into the exponent
    if s.min(initial=1e11) < 1e11 or d.max(initial=0.0) >= 1e12:
        off = np.nonzero((s < 1e11) | (d >= 1e12))
        ko, so = k[off], s[off]
        ko += (so >= 1e12).astype(np.intp) - (so < 1e11)
        so = c[off] * _SCALE.take(ko)
        do = np.rint(so)
        left[off] |= np.abs(so - do) > 0.5 - TIE_MARGIN
        carry = do >= 1e12
        ko += carry
        do[carry] = 1e11
        k[off], s[off], d[off] = ko, do, do  # their ties are decided
    del c
    s -= d
    np.abs(s, out=s)
    left |= s > 0.5 - TIE_MARGIN
    del s
    k[zero] = _K0
    d[zero] = 0.0
    del zero

    # the 12 digits in three groups of four: bytes 0-7 in lo, 8-11 in hi
    rest = d.astype(np.int64)
    del d
    group = rest // 100_000_000
    lo = _GROUP.take(group)
    body = _SIG_AT[0].take(group)
    rest -= group * 100_000_000
    np.floor_divide(rest, 10_000, out=group)
    lo |= _GROUP.take(group) << np.uint64(32)
    np.maximum(body, _SIG_AT[1].take(group), out=body)
    rest -= group * 10_000
    hi = _GROUP.take(rest)
    np.maximum(body, _SIG_AT[2].take(rest), out=body)
    del group, rest

    # '.' after digit q: k + 1 when k >= 0, and past the last significant
    # digit (so not shown) after '0.'
    q = _POINT_ALL.take(k)
    q &= body
    np.maximum(q, _SPLIT.take(k), out=q)
    body += body > q
    body = np.maximum(body, q)
    kept = _LOW_BELOW.take(q)
    kept &= lo
    lo ^= kept  # the digits after the '.', moved up a byte
    carried = lo >> 56
    lo <<= 8
    lo |= kept
    lo |= _LOW_DOT.take(q)
    _HIGH_BELOW.take(q, out=kept)
    kept &= hi
    hi ^= kept
    hi <<= 8
    hi |= kept
    hi |= carried
    hi |= _HIGH_DOT.take(q)
    del kept, carried, q

    # the prefix, then the digits
    shift = _PREFIX_BITS.take(k)
    w0, w1, w2 = words[..., 0], words[..., 1], words[..., 2]
    np.left_shift(lo, shift, out=w0)
    np.left_shift(hi, shift, out=w1)
    np.subtract(64, shift, out=shift)
    np.right_shift(hi, shift, out=w2)
    lo >>= shift
    w1 |= lo
    w0 |= _PREFIX.take(k)
    np.add(_PREFIX_LEN.take(k), body, out=lengths)
    return left


# the class cell and stable flag of a row by steering class, then of an
# unstable row, each with its newline
_TAILS = [c.value + ",true\n" for c in _STEERING_CLASSES] + [",false\n"]
_TAIL = np.array(
    [
        [int.from_bytes(t.encode(), "little") >> 64 * j & (2**64 - 1) for j in range(3)]
        for t in _TAILS
    ],
    np.uint64,
)
_TAIL_END = np.array([len(t) - 1 for t in _TAILS], np.intp)
# the bytes of a slot kept for each length: a cell and its separator, or a
# tail through its newline
_KEEP = (np.arange(_SLOT) <= np.arange(_SLOT)[:, None]).view(np.uint64)


# each thread's flat buffers behind ``write_rows``' arrays, by name
_STORE = threading.local()


def _kept(name: str, shape: tuple, dtype) -> np.ndarray:
    """An uninitialized array of ``shape``, a view of this thread's buffer
    ``name``, which grows only when a bigger array is asked for."""
    size = math.prod(shape)
    buffer = getattr(_STORE, name, None)
    if buffer is None or buffer.size < size:
        buffer = np.empty(size, dtype)
        setattr(_STORE, name, buffer)
    return buffer[:size].reshape(shape)


def write_rows(table: np.ndarray, stable: np.ndarray, classes: np.ndarray, echo: int) -> str:
    """CSV rows of ``table``, each ended by a newline; ``table`` is left as it is.

    A row is its cells, then its steering class (an index into
    ``measures._STEERING_CLASSES``) and 'true', or, for an unstable row,
    its first ``echo`` cells, empty cells and 'false'.  Only printed cells
    are formatted, by one ``cell_words`` call, and those it leaves alone by
    format(): an unstable row's other cells are never read.

    The slots, lengths, words and sizes are views of this thread's kept
    buffers, which grow to the largest block written and stay: 928 bytes a
    row of 14 cells at most, 950 KB for a chunk of 1,024 rows.  A call
    must not start while another runs in the same thread.
    """
    n, width = table.shape
    slots = _kept("slots", (n, width + 1, 3), "<u8")
    lengths = _kept("lengths", (n, width + 1), np.intp)
    if stable.all():
        left = cell_words(table, slots[:, :width], lengths[:, :width])
    else:
        # the printed cells as one compact run, each slot scattered back
        # whole; an unstable row's measure cells keep length 0, so print empty
        printed = np.ones((n, width), bool)
        printed[~stable, echo:] = False
        cells = table[printed]
        words = _kept("words", (len(cells), 3), "<u8")
        sizes = _kept("sizes", (len(cells),), np.intp)
        left = np.zeros((n, width), bool)
        left[printed] = cell_words(cells, words, sizes)
        slots.view(_CELL)[:, :width, 0][printed] = words.view(_CELL)[:, 0]
        lengths[:, :width][printed] = sizes
        lengths[~stable, echo:width] = 0
    at = np.flatnonzero(left)
    if at.size:
        rows, cols = np.unravel_index(at, left.shape)
        texts = [format(x, ".12g") for x in table[rows, cols].tolist()]
        slots[rows, cols] = np.array(texts, "S24").view("<u8").reshape(-1, 3)
        lengths[rows, cols] = [len(t) for t in texts]
    tail = np.where(stable, classes, len(_STEERING_CLASSES))
    _TAIL.take(tail, axis=0, out=slots[:, width])
    _TAIL_END.take(tail, out=lengths[:, width])
    raw = slots.view(np.uint8)
    ends = np.arange(0, raw.size, _SLOT).reshape(lengths.shape)[:, :width]
    ends += lengths[:, :width]
    raw.reshape(-1)[ends] = ord(",")
    del ends
    return raw[_KEEP.take(lengths, axis=0).view(bool)].tobytes().decode("ascii")
