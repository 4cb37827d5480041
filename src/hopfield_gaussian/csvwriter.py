"""The rows of ``grid.GridResult`` written by array operations.

``write_rows`` prints a table of float cells as CSV rows in which each cell
is format(x, '.12g'), with no Python call per cell.  ``cell_words`` lays out
each cell in a slot of three little-endian uint64 words, which hold the
longest cell ('-1.23456789012e-308') and its separator:

- The exponent k comes from log10 |x|; s = |x| 10^(11 - k) from a table of
  correctly rounded powers of ten, one fix-up of k where s falls outside
  [1e11, 1e12), and the 12 digits d = rint(s), carrying into k at 10^12.
- The digits come from three 4-digit groups of d through a 10,000-entry
  table of ASCII words, their count without trailing zeros from a second.
- Each layout is a few shifts and ors on whole arrays: fixed notation with
  the '.' after digit k + 1 (0 <= k < 12), '0.' and -k - 1 zeros before the
  digits (-4 <= k < 0), or the exponent form with 'e' and the exponent.

``write_rows`` then writes the separator at each cell's length and keeps
each slot up to it with one boolean mask.  Which cells it leaves to
format() and why that makes every other cell exact is in the ``grid``
module's docstring.  The module is imported on the first block of at least
``grid._WRITER_ROWS`` rows, so single points never build its tables.
"""

from __future__ import annotations

import numpy as np

from .measures import _STEERING_CLASSES

__all__ = ["cell_words", "write_rows"]

_SLOT = 24  # bytes per cell


def _words(texts) -> np.ndarray:
    """Each ASCII text of up to 8 bytes as a little-endian integer."""
    return np.array([int.from_bytes(t.encode("ascii"), "little") for t in texts], np.uint64)


# the four ASCII digits of each of 0..9999 as a little-endian word, and how
# many of a cell's 12 digits are significant, trailing zeros dropped, when
# the group is the first, second or third (a group of zeros adds none)
_GROUP = np.frombuffer(("%04d" * 10_000 % tuple(range(10_000))).encode(), "<u4").astype(
    np.uint64
)
_SIGNIFICANT = [len(f"{g:04d}".rstrip("0")) for g in range(10_000)]
_SIG_AT = [np.array([n and n + 4 * i for n in _SIGNIFICANT], np.uint8) for i in range(3)]

# |x| in [_TINY, DBL_MAX] has 10^(11 - k) in the table for every exponent
# k within one of floor(log10 |x|); 0 is exact as well, and every other
# cell (smaller |x|, subnormals among them, inf and nan) is left to format()
_TINY = 1e-295
_HUGE = np.finfo(float).max
# s carries two roundings, an error below 2.3e-4: a fraction of s this
# close to 1/2 may round either way, so format() decides
TIE_MARGIN = 1e-3
# tables by exponent k sit at k + _K0, and at k + _K0 + _SIGNED for a
# negative cell
_K0 = 330
_SIGNED = 2 * _K0
# 10^(11 - k), correctly rounded as float('1e..') is
_SCALE = np.array([float(f"1e{11 - k}") if -297 <= k < 319 else np.nan for k in range(-_K0, _K0)])
# the layouts of exponent k: fixed, the '.' after digit k + 1, for
# 0 <= k < 12; '0.' and -k - 1 zeros before the digits for -4 <= k < 0;
# otherwise one digit, '.', the rest and 'e' with the signed exponent
_K = list(range(-_K0, _K0)) * 2
_EXP_FORM = np.array([not -4 <= k < 12 for k in _K])
_SPLIT = np.array([k + 1 if 0 <= k < 12 else 0 if -4 <= k < 0 else 1 for k in _K], np.intp)
_POINT_ALL = np.array([-(-4 <= k < 0) for k in _K], np.intp)
_PREFIXES = [
    "-" * (i >= _SIGNED) + ("0." + "0" * (-k - 1) if -4 <= k < 0 else "")
    for i, k in enumerate(_K)
]
_PREFIX = _words(_PREFIXES)
_PREFIX_LEN = np.array([len(p) for p in _PREFIXES], np.intp)
_PREFIX_BITS = (8 * _PREFIX_LEN).astype(np.uint64)
_SUFFIXES = [f"e{k:+03d}" for k in _K]
_SUFFIX = _words(_SUFFIXES)
_SUFFIX_LEN = np.array([len(t) for t in _SUFFIXES], np.intp)
# split of the 12 digit bytes (8 low, 4 high) after byte q: the bytes
# below q, and '.' at byte q
_BELOW = [(1 << 8 * q) - 1 for q in range(13)]
_LOW_BELOW = np.array([m & (2**64 - 1) for m in _BELOW], np.uint64)
_HIGH_BELOW = np.array([m >> 64 for m in _BELOW], np.uint64)
_DOT = [ord(".") << 8 * q for q in range(13)]
_LOW_DOT = np.array([d & (2**64 - 1) for d in _DOT], np.uint64)
_HIGH_DOT = np.array([d >> 64 for d in _DOT], np.uint64)
# for a suffix at byte `at` of a slot: the shifts that move it into each
# of the three words, and the bytes of each word below it
_UP_BYTES = [[min(max(at - 8 * j, 0), 8) for j in range(3)] for at in range(_SLOT)]
_UP = np.array(_UP_BYTES, np.uint64) * np.uint64(8)
_DOWN = np.array([[min(max(8 * j - at, 0), 8) for j in range(3)] for at in range(_SLOT)],
                 np.uint64) * np.uint64(8)
_CLEAR = np.array([[(1 << 8 * b) - 1 for b in row] for row in _UP_BYTES], np.uint64)


def cell_words(x: np.ndarray, words: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """format(v, '.12g') of each v of a float64 array, laid out.

    Writes each cell's three words (bytes 0-7, 8-15 and 16-23, little
    endian) to the last axis of ``words`` and its length to ``lengths``;
    bytes at and past the length are unspecified.  Returns the mask of the
    cells left to format(): near ties, subnormals, |x| < 1e-295, inf and nan.
    """
    a = np.abs(x)
    zero = a == 0.0
    # nan and inf to the range of the tables
    c = np.fmax(a, _TINY)
    np.fmin(c, _HUGE, out=c)
    left = c != a
    left ^= zero
    del a
    s = np.log10(c)
    s += _K0  # positive, so truncation is the floor
    k = s.astype(np.intp)
    _SCALE.take(k, out=s)
    s *= c
    d = np.rint(s)
    # log10 errs by less than an ulp, so k is within one of the exponent;
    # 12 digits rounding up to 10^12 carry into the exponent
    off = (s < 1e11) | (d >= 1e12)
    if off.any():
        ko, so = k[off], s[off]
        ko += (so >= 1e12).astype(np.intp) - (so < 1e11)
        so = c[off] * _SCALE.take(ko)
        do = np.rint(so)
        left[off] |= np.abs(so - do) > 0.5 - TIE_MARGIN
        carry = do >= 1e12
        ko += carry
        do[carry] = 1e11
        k[off], s[off], d[off] = ko, do, do  # their ties are decided
    del c, off
    s -= d
    np.abs(s, out=s)
    left |= s > 0.5 - TIE_MARGIN
    del s
    k[zero] = _K0
    d[zero] = 0.0
    negative = np.signbit(x)
    if negative.any():
        k += _SIGNED * negative
    del zero, negative

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

    # '.' after digit q: k + 1 when fixed, 1 in exponent form, and past the
    # last significant digit (so not shown) after '0.'
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
    del lo, hi, shift
    np.add(_PREFIX_LEN.take(k), body, out=lengths)

    exp = _EXP_FORM.take(k)
    if exp.any():
        # 'e' and the exponent at byte `at`, over the digits there
        ke, at = k[exp], lengths[exp]
        suffix = _SUFFIX.take(ke)[:, None] << _UP.take(at, axis=0)
        suffix >>= _DOWN.take(at, axis=0)
        cell = words[exp]
        cell &= _CLEAR.take(at, axis=0)
        cell |= suffix
        words[exp] = cell
        lengths[exp] = at + _SUFFIX_LEN.take(ke)
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
_KEEP = np.array([[j <= n for j in range(_SLOT)] for n in range(_SLOT)]).view(np.uint64)


def write_rows(
    table: np.ndarray, stable: np.ndarray, classes: np.ndarray, echo: int
) -> tuple[str, np.ndarray]:
    """CSV rows of ``table``, each ended by a newline, and the rows to redo.

    A row is its cells, then its steering class (an index into
    ``measures._STEERING_CLASSES``) and 'true', or, for an unstable row,
    its first ``echo`` cells, empty cells and 'false'.  The rows to redo
    hold a cell that ``cell_words`` leaves to format(); their text here is
    not that cell's.  The cells of unstable rows past ``echo`` are
    overwritten.
    """
    n, width = table.shape
    # the empty cells are formatted as 0, the cheapest cell, then cut to
    # length 0
    table[~stable, echo:] = 0.0
    slots = np.empty((n, width + 1, 3), "<u8")
    lengths = np.empty((n, width + 1), np.intp)
    left = cell_words(table, slots[:, :width], lengths[:, :width])
    lengths[~stable, echo:width] = 0
    tail = np.where(stable, classes, len(_STEERING_CLASSES))
    _TAIL.take(tail, axis=0, out=slots[:, width])
    _TAIL_END.take(tail, out=lengths[:, width])
    raw = slots.view(np.uint8)
    ends = np.arange(0, raw.size, _SLOT).reshape(lengths.shape)[:, :width]
    ends += lengths[:, :width]
    raw.reshape(-1)[ends] = ord(",")
    del ends
    text = raw[_KEEP.take(lengths, axis=0).view(bool)].tobytes().decode("ascii")
    return text, np.flatnonzero(left.any(axis=1))
