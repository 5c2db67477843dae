"""
The one CSV dialect of the panel, edge-list and heatmap files: the ``csv``
default (CRLF line ends), floats written with ``repr``; headers compared
stripped and lower-cased; blank lines skipped; the header is line 1. A
record is one line: a quoted field may hold commas, but a quote left open
at a line's end is a fault that names the line, and so is a field longer
than ``csv.field_size_limit()``.

A file is read and written ``BLOCK_ROWS`` lines at a time, so the field
strings of one block, not of the whole file, are held at once; a reader
keeps only each block's parsed numeric columns. The error contract is that
of a whole-file read: a wrong field count anywhere in the file is reported
before any value that does not parse, and parse faults are reported column
by column in header order, each naming its column's first offending line.

``read_columns`` reads the file once, one block of lines at a time, and
parses each block one of two ways. Numpy's C tokenizer takes it where it
can vouch for the result: one ``np.loadtxt`` call on the block's lines
(comma delimiter, no comment or quote character, one structured dtype), so
no Python string is made per field. With ``blank`` columns, a line whose
last ``blank`` fields are all empty is handed over with zeros in their
place and marked unfilled; every other line is parsed whole. Elsewhere the
checked parser takes the same lines: ``csv.reader`` and Python's ``int``
and ``float``, which name each fault's line. Numpy defers on any exception
or warning (numpy 1.23-1.26 warn where they still accept an integer field
written as ``1.0``; a read records its warnings rather than showing them),
on a block that yields fewer rows than it has lines (``loadtxt`` skips an
empty line, which would shift every later line number), on a line longer
than ``csv.field_size_limit()`` and on the characters U+001C-U+001F, which
``loadtxt`` strips from a field as whitespace and Python's ``int`` and
``float`` reject. So only the checked parser accepts a quoted field, a
blank or whitespace-only line, a whitespace-only blank field, and the
``int`` and ``float`` spellings that ``loadtxt`` rejects, such as ``1_000``
and non-ASCII digits; either way a block's arrays and messages are the
checked parser's.
"""

import csv
import warnings
from itertools import chain, compress, islice

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
    field is allowed and reads as 0. A wrong header, a wrong field count, a
    quote left open at a line's end or a field that Python's ``int`` or
    ``float`` rejects raises ValueError naming its line."""
    dtype = np.dtype([(f"c{k}", d) for k, d in enumerate(dtypes)])
    columns = [[np.empty(0, d)] for d in dtypes]
    filled, skipped = [np.empty((0, blank), bool)], []  # skipped: blank lines' data indices
    ones = np.ones((BLOCK_ROWS, blank), bool)  # the filled fields of a block with no blanks
    malformed = [None] * len(header)  # each column's first line that does not parse
    with open(path, newline="") as fh, warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")  # every warning of the read goes to `caught`
        first, fault = _records([fh.readline()], 1)
        if fault or [c.strip().lower() for c in first[0]] != header:
            raise ValueError(f"{path}: expected header {','.join(header)}")
        start = 2  # the line of the block's first line
        while lines := list(islice(fh, BLOCK_ROWS)):
            values, mask, blanks = _loadtxt_block(lines, dtype, blank, caught) \
                or _checked_block(path, lines, start, dtypes, blank, malformed)
            for column, v in zip(columns, values):
                column.append(v)
            filled.append(ones[:len(lines)] if mask is None else mask)
            skipped.extend(blanks)
            start += len(lines)
    for line in malformed:
        if line is not None:
            raise ValueError(f"{path}: malformed value at line {line}")
    # join one column at a time, freeing its blocks before the next is joined
    for k, column in enumerate(columns):
        columns[k] = np.concatenate(column)
    lines = np.arange(2, start, dtype=np.intp)
    return np.delete(lines, skipped) if skipped else lines, columns, np.concatenate(filled)


def _loadtxt_block(lines, dtype, blank, caught):
    """``(columns, filled, ())`` of one block through ``np.loadtxt``, ``filled``
    None where no field is blank; or None where they might differ from the
    checked parser's, it might raise or it adds a warning to ``caught``."""
    caught.clear()
    text, tail, zeros = "".join(lines), "," * blank, ",0" * blank
    limit = csv.field_size_limit()
    if len(text) > limit and max(map(len, lines)) > limit \
            or any(c in text for c in LOOSE_SPACE):
        return None
    empty = None
    if blank and (tail + "\n" in text or tail + "\r" in text or text.endswith(tail)):
        # lines whose last `blank` fields are all empty: parsed as zeros
        tails = tuple(tail + end for end in ("\r\n", "\n", "\r", ""))
        empty = np.fromiter((line.endswith(tails) for line in lines), bool, len(lines))
        lines = lines.copy()  # the checked parser may still need the lines as read
        for k in np.flatnonzero(empty):
            lines[k] = lines[k].rstrip("\r\n")[:-blank] + zeros
    try:
        values = np.loadtxt(lines, dtype, delimiter=",", comments=None, quotechar=None, ndmin=1)
    except Exception:  # the checked parser raises its own error, or accepts more
        return None
    if caught or values.size != len(lines):  # a warning, or an empty line skipped
        return None
    filled = None if empty is None else np.repeat(~empty[:, None], blank, axis=1)
    return [values[name].copy() for name in dtype.names], filled, ()


def _checked_block(path, lines, start, dtypes, blank, malformed):
    """``(columns, filled, blanks)`` of one block through ``csv.reader`` and
    Python's ``int`` and ``float``, its first line being line ``start``, and
    ``blanks`` the indices of its blank lines among the file's data lines.
    A wrong field count or a line that does not split raises ValueError; a
    column's first field that does not parse is recorded in ``malformed``,
    and a column with such a field is parsed no further. The field strings
    are freed on return."""
    rows, fault = _records(lines, start)
    width, fixed = len(dtypes), len(dtypes) - blank
    widths = np.fromiter(map(len, rows), dtype=np.intp, count=len(rows))
    one = np.flatnonzero(widths == 1)
    widths[one] = [bool(rows[k][0].strip()) for k in one]  # a blank field: a blank line
    wrong = (widths > 0) & (widths != width)
    if wrong.any():
        k = int(np.argmax(wrong))
        raise ValueError(f"{path}: line {start + k} has {widths[k]} fields, expected {width}")
    if fault:
        raise ValueError(f"{path}: {fault}")
    lines = np.flatnonzero(widths) + start
    fields = list(zip(*compress(rows, widths.tolist()))) or [()] * width
    values, filled = [None] * width, np.empty((lines.size, blank), dtype=bool)
    for k in range(width):
        if malformed[k] is None:
            values[k], nonblank, malformed[k] = _parse(fields[k], lines, dtypes[k], k >= fixed)
            if k >= fixed:
                filled[:, k - fixed] = nonblank
    return values, filled, np.flatnonzero(widths == 0) + start - 2


def _records(lines, start):
    """``(records, None)``: each line's fields through ``csv.reader``, the
    first line being line ``start``. Where a line does not split on its own
    (a quote left open at its end, or a ``csv.Error``), the records of the
    lines before it and a message naming it."""
    reader, rows = csv.reader(chain(lines, [""])), []  # "" closes the last line
    try:
        for row in reader:
            if reader.line_num > len(rows) + 1:  # the record ran on past its line
                return rows, f"line {start + len(rows)} ends inside a quoted field"
            rows.append(row)
    except csv.Error as exc:
        return rows, f"line {start + len(rows)}: {exc}"
    return rows[:-1], None


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
