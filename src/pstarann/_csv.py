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

``read_columns`` first tries numpy's C tokenizer: each block's lines go to
one ``np.loadtxt`` call (comma delimiter, no comment or quote character,
one structured dtype), so no Python string is made per field. With
``blank`` columns, a line whose last ``blank`` fields are all empty is
handed over with zeros in their place and marked unfilled; every other line
is parsed whole. Wherever that path cannot vouch that its arrays are the
checked reader's, the checked reader (``read_columns_checked``) rereads the
file from its header, so the arrays and every error message are that
reader's alone. It defers on any exception or warning (numpy 1.23-1.26 warn
where they still accept an integer field written as ``1.0``), on a block
that yields fewer rows than it has lines (``loadtxt`` skips an empty line,
which would shift every later line number), on a header line that does not
match when split at its commas (a quoted one among them), on a line longer
than ``csv.field_size_limit()`` and on the characters U+001C-U+001F, which
``loadtxt`` strips from a field as whitespace and Python's ``int`` and
``float`` reject. So only the checked reader accepts a quoted field, a
blank or whitespace-only line, a whitespace-only blank field, and the
``int`` and ``float`` spellings that ``loadtxt`` rejects, such as
``1_000`` and non-ASCII digits.
"""

import csv
import warnings
from itertools import compress, islice

import numpy as np

# Lines per block of a read or a write: only one block's fields are held as
# Python strings at a time.
BLOCK_ROWS = 1024
# What numpy's tokenizer strips from a field as whitespace and Python's
# int() and float() do not
LOOSE_SPACE = "\x1c\x1d\x1e\x1f"


def read_columns(path, header, dtypes, blank=0):
    """``(lines, columns, filled)``: each data row's line number, one array of
    ``dtypes[k]`` per header name, and a (rows, ``blank``) bool array that
    marks the non-blank fields of the last ``blank`` columns, where a blank
    field is allowed and reads as 0. A wrong header, a wrong field count or
    a field that Python's ``int`` or ``float`` rejects raises ValueError
    naming its line. The result is ``read_columns_checked``'s, bit for bit,
    read through ``np.loadtxt`` where the file allows (module docstring)."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = _read_loadtxt(path, header, dtypes, blank)
    except Exception:  # the checked reader raises its own error, or accepts more
        result = None
    return read_columns_checked(path, header, dtypes, blank) if result is None else result


def _read_loadtxt(path, header, dtypes, blank):
    """``read_columns``' result through ``np.loadtxt``, or None (or any
    exception or warning) where it might differ from the checked reader's."""
    dtype = np.dtype([(f"c{k}", d) for k, d in enumerate(dtypes)])
    tail, zeros, limit = "," * blank, ",0" * blank, csv.field_size_limit()
    tails = tuple(tail + end for end in ("\r\n", "\n", "\r", ""))
    columns, unfilled = [[np.empty(0, d)] for d in dtypes], [np.empty(0, bool)]
    with open(path, newline="") as fh:
        first = fh.readline()
        if [c.strip().lower() for c in first.split(",")] != header:
            return None
        while lines := list(islice(fh, BLOCK_ROWS)):
            text = "".join(lines)
            if len(text) > limit and max(map(len, lines)) > limit \
                    or any(c in text for c in LOOSE_SPACE):
                return None
            empty = np.zeros(len(lines), bool)
            if blank and (tail + "\n" in text or tail + "\r" in text or text.endswith(tail)):
                # lines whose last `blank` fields are all empty: parsed as zeros
                empty = np.fromiter((line.endswith(tails) for line in lines), bool, len(lines))
                for k in np.flatnonzero(empty):
                    lines[k] = lines[k].rstrip("\r\n")[:-blank] + zeros
            values = np.loadtxt(lines, dtype, delimiter=",", comments=None, quotechar=None,
                                ndmin=1)
            if values.size != len(lines):  # an empty line was skipped
                return None
            for column, name in zip(columns, dtype.names):
                column.append(values[name].copy())
            unfilled.append(empty)
    # join one column at a time, freeing its blocks before the next is joined
    for k, column in enumerate(columns):
        columns[k] = np.concatenate(column)
    unfilled = np.concatenate(unfilled)
    filled = np.repeat(~unfilled[:, None], blank, axis=1)
    return np.arange(2, unfilled.size + 2, dtype=np.intp), columns, filled


def read_columns_checked(path, header, dtypes, blank=0):
    """``read_columns``' result through ``csv.reader`` and Python's ``int``
    and ``float``: the reference reader, and the one that names each fault's
    line."""
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
