"""The library's one output-file rule and one CSV format.

`out` is a path, an open text file or None (standard output); `open_out` is
the only place that decides how it is opened.  CSV cells hold floats with 12
significant digits and bools as 0/1, so identical inputs give identical
bytes.
"""

from __future__ import annotations

import contextlib
import sys

import numpy as np

# rows formatted per write: bounds the temporary strings on large grids
_CHUNK_ROWS = 4096


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
    """Write equal-length 1-D columns as CSV rows under `header`."""
    cols = [np.asarray(c) for c in columns]
    row = ",".join("%d" if c.dtype == bool else "%.12g" for c in cols) + "\n"
    with open_out(out) as f:
        f.write(header + "\n")
        for start in range(0, len(cols[0]), _CHUNK_ROWS):
            chunk = [c[start : start + _CHUNK_ROWS].tolist() for c in cols]
            f.write("".join(map(row.__mod__, zip(*chunk))))
