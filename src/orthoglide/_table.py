"""The library's one output-file rule and one CSV format.

`out` is a path, an open text file or None (standard output); `open_out` is
the only place that decides how it is opened.  CSV cells hold floats as
Python's `'%.12g' % v` and bools as 0/1, so identical inputs give identical
bytes.

`write_table` formats a chunk of rows at a time in numpy, byte for byte equal
to `%.12g`.  Every column is a block of whole cells, each cell a row of
4-byte words led by its own separator, so a chunk's rows are one `np.hstack`
of its columns' blocks with the first byte of each row made a newline.  A
float cell's words are the separator and sign, the integer part as three
4-digit groups with leading blanks, the dot with the first 3 fraction
digits, and 3 more fraction groups with trailing blanks.  The two higher
integer groups are left out of a chunk whose integer parts are all below
10^4.  A blank is a zero byte, and the chunk's zero bytes are dropped at the
end, so no cell needs a layout of its own.  The digits come from a 12-digit
mantissa m and the exponent e of each cell:

* A cell with 1e-5 <= |v| < 1e12 takes e = floor(log10|v|) and y =
  |v| 10^(11-e), which must lie in [1e11, 1e12) (it does unless log10
  rounded across a power of ten).  10^(11-e) is an exact double and
  y < 2^40, so the one rounding of the product leaves |y - exact| <= 2^-14,
  and m = rint(y) is the correctly rounded mantissa unless y is within 1e-3
  of a tie m +- 1/2 (the tie guard).  m = 10^12 stands for 10^(e+1) and
  prints correctly as it is.  Every later step divides float integers below
  2^53 by exact powers of ten, so each floor is exact.
* +-0 takes the same route as an integer part of 0; NaN and +-inf are
  constant strings.
* The rest -- cells near a tie, cells whose y left [1e11, 1e12), and cells
  printed in exponent notation (exponent outside [-4, 11] after rounding)
  -- are formatted one by one with `'%.12g' % v` itself.

A bool cell is one word, its separator and digit, taken from a two-entry
word table.  A column whose values repeat a few levels, such as a grid
coordinate, can be given coded, as (levels, index) for the values
levels[index]: its levels go through the formatter once, each into its own
row of words, and each chunk takes its cells' word rows by index.  A bool
column is coded the same way, with the word table as its levels.  A coded
column keeps the word width of its levels, which may differ from that of
the chunk's float columns; the zero bytes are dropped all the same.

A chunk holds `_CHUNK_CELLS` float cells, not a fixed number of rows, so a
table with more float columns gets fewer rows per chunk (coded and bool
columns do not count): 2048 rows of the grid CSV's 3 float columns, 1024 of
`diag-profile`'s 6 and 472 of `traj-check`'s 13.  Each float temporary of
`_cell_words` then holds 6,144 doubles, 48 KiB, below glibc's 128 KiB mmap
threshold, and is reused from the heap rather than mapped and faulted in
anew for every chunk.  Two arrays per chunk are larger than the threshold:
the `cells` words `_cell_words` returns, 144 KiB for 6,144 cells of width 6
and 192 KiB at width 8, and the stacked `words` of `_format_rows`, 304 KiB
for a 2048-row chunk of the grid CSV.
"""

from __future__ import annotations

import contextlib
import functools
import sys

import numpy as np

# float cells formatted per chunk, whatever the table's width: a budget of
# cells, not rows, keeps each float temporary of _cell_words at 48 KiB, under
# the mmap threshold, while a narrow table still spreads numpy's per-call cost
# over 2048 rows (see the module docstring)
_CHUNK_CELLS = 6144
# offsets of the pairs of word tables in _digit_words
_LEAD, _LEAD0, _DOT, _TRAIL = 20000.0 * np.arange(4)
# a float cell's first word, by its sign bit: the separator, and "-" in the
# last byte of a negative cell
_SIGN = np.frombuffer(b",\0\0\0,\0\0-", dtype=np.uint32)
# a bool cell's word, by its value: the separator and the digit
_BOOL = np.frombuffer(b",\0\0" b"0" b",\0\0" b"1", dtype=np.uint32)[:, None]
# exact powers of ten, 10^0 .. 10^16
_P10 = np.array([float(10**k) for k in range(17)])


@contextlib.contextmanager
def open_out(out):
    """Text file for `out`: a path is opened for writing and closed after,
    an open file is used as it is, None is standard output."""
    if out is None:
        yield sys.stdout
    elif isinstance(out, (str, bytes)) or hasattr(out, "__fspath__"):
        with open(out, "w", newline="") as f:
            yield f
    else:
        yield out


def write_table(out, header: str, columns) -> None:
    """Write equal-length 1-D columns as CSV rows under `header`.

    A column is an array, or a coded column: a tuple (levels, index) of a
    float array and an integer array, holding the values levels[index].
    """
    cols = [_column(c) for c in columns]
    lengths = [len(c[1]) if isinstance(c, tuple) else len(c) for c in cols]
    if len(set(lengths)) > 1:
        raise ValueError(f"columns differ in length: {lengths}")
    # at least one row, however many float columns
    rows = max(1, _CHUNK_CELLS // max(1, sum(not isinstance(c, tuple) for c in cols)))
    with open_out(out) as f:
        f.write(header)
        for start in range(0, lengths[0], rows):
            f.write(_format_rows(cols, slice(start, start + rows)))
        f.write("\n")


def _column(c):
    """A `write_table` column as a float64 array, or as a pair (words,
    index) whose rows are words[index]: a coded column with the
    `_cell_words` of its levels, a bool column with `_BOOL`."""
    if isinstance(c, tuple):
        levels, index = c
        return _cell_words(np.asarray(levels, dtype=float)), np.asarray(index)
    c = np.asarray(c)
    return (_BOOL, c) if c.dtype == bool else c.astype(float, copy=False)


def _format_rows(cols: list, rows: slice) -> str:
    """CSV text of the rows `rows` of the `_column`s `cols`, each row led by
    its newline."""
    floats = [c[rows] for c in cols if not isinstance(c, tuple)]
    cells = _cell_words(np.concatenate(floats or [np.zeros(0)]))
    # one block per float column (a table with none splits no cells)
    float_cells = iter(np.split(cells, len(floats) or 1))
    words = np.hstack(
        [c[0].take(c[1][rows], axis=0) if isinstance(c, tuple) else next(float_cells) for c in cols]
    )
    words.view(np.uint8)[:, 0] = ord("\n")
    return words.tobytes().translate(None, b"\0").decode("ascii")


def _cell_words(x: np.ndarray) -> np.ndarray:
    """(n, w) words of the n floats `x`, one row per cell (w = 6, or 8 when
    an integer part reaches 10^4), each led by the cell's separator."""
    a = np.abs(x)
    zero = a == 0.0
    fast = (a >= 1e-5) & (a < 1e12)  # False for NaN
    a = np.where(fast, a, 1.0)
    e = np.clip(np.floor(np.log10(a)), -5.0, 11.0)
    y = a * _P10[(11.0 - e).astype(np.intp)]
    m = np.rint(y)
    # the mantissa range, the tie guard, and the exponent of the rounded
    # value in [-4, 11]
    fast &= (y >= 1e11) & (y < 1e12) & (np.abs(y - m) < 0.499)
    fast &= (e >= -4.0) & ((m < 1e12) | (e < 11.0))
    # +-0 is an integer part of 0 with no fraction
    m[zero] = 0.0
    e[zero] = 11.0
    fast |= zero
    # fixed notation with f = 11 - e fraction digits: m = i 10^f + r, and
    # r 10^(15 - f) is the fraction's 15 digits, the first 3 of them in d
    # and the other 12 in t
    f = np.clip(11.0 - e, 0.0, 15.0).astype(np.intp)
    p = _P10[f]
    i = np.floor(m / p)
    r = (m - i * p) * _P10[15 - f]
    d = np.floor(r / 1e12)
    t = r - d * 1e12
    t0 = np.floor(t / 1e8)
    i1, t1 = np.floor(i / 1e4), np.floor(t / 1e4)
    i2, t2 = i - i1 * 1e4, t - t1 * 1e4
    t1 -= t0 * 1e4
    # each word's table + entry; the second table of a pair is zero-padded,
    # for an integer group once a higher one is nonzero, for a fraction
    # group once a lower one is
    index = [
        i2 + _LEAD0 + 1e4 * (i1 > 0),
        d + _DOT + 1e4 * (t > 0),
        t0 + _TRAIL + 1e4 * (t1 + t2 > 0),
        t1 + _TRAIL + 1e4 * (t2 > 0),
        t2 + _TRAIL,
    ]
    # the two higher integer groups, unless every integer part is below 10^4
    if i1.any():
        i0 = np.floor(i / 1e8)
        i1 -= i0 * 1e4
        index[:0] = [i0 + _LEAD, i1 + _LEAD + 1e4 * (i0 > 0)]
    lut = _digit_words()
    cells = np.empty(x.shape + (1 + len(index),), dtype=np.uint32)
    cells[..., 0] = _SIGN.take(np.signbit(x))
    for w, entry in enumerate(index, 1):
        cells[..., w] = lut[entry.astype(np.intp)]
    slow = np.nonzero(~fast)
    if slow[0].size:
        v = x[slow]
        s = np.empty(v.shape, dtype=f"S{4 * len(index)}")
        s[np.isnan(v)] = b"nan"
        s[v == np.inf] = b"inf"
        s[v == -np.inf] = b"-inf"
        rest = np.flatnonzero(np.isfinite(v))
        s[rest] = _fallback(v[rest])
        cells[slow + (0,)] = _SIGN[0]
        cells[slow + (slice(1, None),)] = s.view(np.uint32).reshape(len(v), -1)
    return cells


def _fallback(v: np.ndarray) -> list[bytes]:
    """`'%.12g' % t` for each float t of `v`, one by one."""
    return [b"%.12g" % t for t in v.tolist()]


@functools.cache
def _digit_words() -> np.ndarray:
    """The word tables, indexed by table offset + entry, zero bytes for
    blanks: 4-digit groups with leading blanks (0 is blank), zero-padded,
    with leading blanks (0 is "0"), zero-padded; a dot and 3 digits with
    trailing blanks (0 is blank, no dot), zero-padded; 4-digit groups with
    trailing blanks (0 is blank), zero-padded."""
    n = np.arange(10000)[:, None]
    chars = (ord("0") + n // np.array([1000, 100, 10, 1]) % 10).astype(np.uint8)
    nonzero = chars != ord("0")
    lead = np.cumsum(nonzero, axis=1) > 0
    trail = np.cumsum(nonzero[:, ::-1], axis=1)[:, ::-1] > 0
    lead0 = lead.copy()
    lead0[0, 3] = True
    dot = chars.copy()
    dot[:, 0] = ord(".")  # '.' and the last 3 digits
    tables = [chars * lead, chars, chars * lead0, chars, dot * trail, dot, chars * trail, chars]
    return np.stack(tables).view(np.uint32).reshape(-1)
