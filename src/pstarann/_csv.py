"""
The one CSV dialect of the panel, edge-list and heatmap files: the ``csv``
default (CRLF line ends), floats written with ``repr``; headers compared
stripped and lower-cased; blank lines skipped; the header is line 1.

A file is read and written ``BLOCK_ROWS`` lines at a time, so the field
strings of one block, not of the whole file, are held at once; a reader
keeps only each block's parsed numeric columns. The error contract is that
of a whole-file read: a wrong field count anywhere in the file is reported
before any value that does not parse, and parse faults are reported column
by column in header order, each naming its column's first offending line.
"""

import csv
from itertools import compress, islice

import numpy as np

# Lines per block of a read or a write: only one block's fields are held as
# Python strings at a time.
BLOCK_ROWS = 1024


def read_columns(path, header, dtypes, blank=0):
    """``(lines, columns, filled)``: each data row's line number, one array of
    ``dtypes[k]`` per header name, and a (rows, ``blank``) bool array that
    marks the non-blank fields of the last ``blank`` columns, where a blank
    field is allowed and reads as 0. A wrong header, a wrong field count or
    a field that Python's ``int`` or ``float`` rejects raises ValueError
    naming its line."""
    lines, filled = [np.empty(0, np.intp)], [np.empty((0, blank), bool)]
    columns = [[np.empty(0, dtype)] for dtype in dtypes]
    malformed = [None] * len(header)  # each column's first line that does not parse
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        first = next(reader, None)
        if first is None or [c.strip().lower() for c in first] != header:
            raise ValueError(f"{path}: expected header {','.join(header)}")
        start = 2  # the line of the block's first row
        while block := _read_block(path, reader, start, dtypes, blank, malformed):
            rows, block_lines, values, mask = block
            start += rows
            lines.append(block_lines)
            for column, v in zip(columns, values):
                column.append(v)
            filled.append(mask)
    for line in malformed:
        if line is not None:
            raise ValueError(f"{path}: malformed value at line {line}")
    return np.concatenate(lines), [np.concatenate(c) for c in columns], np.concatenate(filled)


def _read_block(path, reader, start, dtypes, blank, malformed):
    """``(rows read, lines, columns, filled)`` for the next ``BLOCK_ROWS`` rows
    of ``reader``, the first of them on line ``start``, or None at the end of
    the file. A wrong field count raises ValueError; a column's first field
    that does not parse is recorded in ``malformed``, and a column with such
    a field is parsed no further. The field strings are freed on return."""
    rows = list(islice(reader, BLOCK_ROWS))
    if not rows:
        return None
    width, fixed = len(dtypes), len(dtypes) - blank
    widths = np.fromiter(map(len, rows), dtype=np.intp, count=len(rows))
    one = np.flatnonzero(widths == 1)
    widths[one] = [bool(rows[k][0].strip()) for k in one]  # a blank field: a blank line
    wrong = (widths > 0) & (widths != width)
    if wrong.any():
        k = int(np.argmax(wrong))
        raise ValueError(f"{path}: line {start + k} has {widths[k]} fields, expected {width}")
    lines = np.flatnonzero(widths) + start
    fields = list(zip(*compress(rows, widths.tolist()))) or [()] * width
    values, filled = [None] * width, np.empty((lines.size, blank), dtype=bool)
    for k in range(width):
        if malformed[k] is None:
            values[k], nonblank, malformed[k] = _parse(fields[k], lines, dtypes[k], k >= fixed)
            if k >= fixed:
                filled[:, k - fixed] = nonblank
    return len(rows), lines, values, filled


def _parse(fields, lines, dtype, blank):
    """``(values, filled, None)``: ``fields`` as an array of ``dtype``; with
    ``blank``, a blank field reads as 0 and ``filled`` marks the others.
    ``(None, None, line)`` names the first field that does not parse."""
    filled = None
    if blank:
        filled = np.fromiter(map(bool, map(str.strip, fields)), bool, len(fields))
        lines, fields = lines[filled], list(compress(fields, filled.tolist()))
    try:
        values = np.array(fields, dtype=dtype)
    except (ValueError, OverflowError):
        for line, field in zip(lines, fields):
            try:
                np.array(field, dtype=dtype)
            except (ValueError, OverflowError):
                return None, None, int(line)
        raise
    if blank:
        values, parsed = np.zeros(filled.size, dtype), values
        values[filled] = parsed
    return values, filled, None


def row_blocks(rows):
    """``(start, stop)`` of each block of ``BLOCK_ROWS`` in ``range(rows)``."""
    return [(r0, min(r0 + BLOCK_ROWS, rows)) for r0 in range(0, rows, BLOCK_ROWS)]


def write_rows(path, rows):
    """Write ``rows``, each a sequence of field strings, with CRLF line ends."""
    with open(path, "w", newline="") as fh:
        fh.writelines(map("{}\r\n".format, map(",".join, rows)))
