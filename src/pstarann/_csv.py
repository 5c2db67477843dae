"""
The one CSV dialect of the panel, edge-list and heatmap files: the ``csv``
default (CRLF line ends), floats written with ``repr``; headers compared
stripped and lower-cased; blank lines skipped; the header is line 1.
"""

import csv
from itertools import compress

import numpy as np


def read_columns(path, header):
    """``(lines, columns)``: each data row's line number, and one tuple of field
    strings per header name. A wrong header or field count raises ValueError."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or [c.strip().lower() for c in rows[0]] != header:
        raise ValueError(f"{path}: expected header {','.join(header)}")
    widths = np.fromiter(map(len, rows), dtype=np.intp, count=len(rows))
    one = np.flatnonzero(widths == 1)
    widths[one] = [bool(rows[k][0].strip()) for k in one]  # a blank field: a blank line
    widths[0] = 0  # the header
    wrong = (widths > 0) & (widths != len(header))
    if wrong.any():
        k = int(np.argmax(wrong))
        raise ValueError(f"{path}: line {k + 1} has {widths[k]} fields, expected {len(header)}")
    columns = list(zip(*compress(rows, widths.tolist()))) or [()] * len(header)
    return np.flatnonzero(widths) + 1, columns


def parse_column(path, lines, fields, dtype):
    """``fields`` as one array of ``dtype``. A field parses when Python's
    ``int`` or ``float`` accepts it; else ValueError names its line."""
    try:
        return np.array(fields, dtype=dtype)
    except (ValueError, OverflowError):
        for line, field in zip(lines, fields):
            try:
                np.array(field, dtype=dtype)
            except (ValueError, OverflowError):
                raise ValueError(f"{path}: malformed value at line {line}") from None
        raise


def write_rows(path, rows):
    """Write ``rows``, each a sequence of field strings, with CRLF line ends."""
    with open(path, "w", newline="") as fh:
        fh.writelines(map("{}\r\n".format, map(",".join, rows)))
