"""Trip-log ingestion.

Loads comma-separated telemetry logs (header row + one record per line,
one label column naming the driver) into an immutable :class:`TripDataset`
whose channels form an (N, d) float64 matrix in original file order.  Order
is preserved because downstream windowing treats the rows as a time series.

Driver labels are encoded once, by :func:`encode_labels`, as a sorted
alphabet plus one integer code per row: ``(label_alphabet, codes)`` is the
only label state below the package's edges (the CSV text, the
:class:`TripDataset` constructor, the ``labels`` properties).  The label
rule lives here, in two checks: an alphabet is a list or tuple of sorted,
distinct strings, none ending in a NUL (:func:`check_alphabet`), and codes
are a 1-D integer array indexing it (:func:`check_codes`).  Every layer
handed an alphabet or codes from outside runs them.

A header that names a column twice is a data error.  Bookkeeping columns
that are not sensor channels (elapsed time, path order) are dropped
through an explicit exclusion list rather than heuristics.

Memory: :func:`load_dataset` reads the records in blocks of lines holding
at most ``_PARSE_BLOCK_CELLS`` (16,384) channel cells, and parses each
block with one ``np.loadtxt`` call, numpy's C reader.  A converter codes
the labels in order of first appearance and reads every other column that
is not a channel as 0.0, so bookkeeping columns need not be numeric.  A
block goes to the :mod:`csv` code instead, from its first line to the end
of the file, when loadtxt refuses it, when a channel cell is not finite,
when its text holds a quote, a NUL or one of \x1c-\x1f, or when a line is
longer than csv's field limit; the csv code then returns the same values
or raises the same error.  The channels of every block are written into
one float64 buffer, which is cut to the rows read at the end; no parsed
block outlives its copy.  For a file, the buffer holds as many rows as the
file's size allows (:func:`_row_bound`, at most four times its size in
bytes) and is never grown; its pages are touched only as rows fill them,
so the rest costs address space, not memory.  From a stream of unknown
size it grows in place (``ndarray.resize``, a realloc), to at most twice
the channel matrix.  A load holds that buffer and the text of one block
(about 1 MB of Python strings), never the text of the whole log.  Errors
read as if the whole file were parsed at once: a ragged record anywhere
wins over a bad cell, and the bad cell reported is the first in file
order.

:func:`write_csv` formats rows in chunks of at most ``_WRITE_CHUNK_BYTES``
(64 KiB) of float64 cells: each chunk becomes Python floats through one
``tolist()``, each row one ``",".join`` of float reprs plus the line tail
of its code's class, each chunk one ``writelines``.  A write holds some
ten chunks' worth of floats and strings, never the text of the whole
matrix nor the decoded labels.  The header and each class's tail go
through :mod:`csv`, so they are quoted exactly as a per-row
``csv.writer`` quotes them.
"""

from __future__ import annotations

import csv
import io
import numbers
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import chain, islice
from typing import Sequence

import numpy as np

from .errors import (
    DriverIdError,
    EmptyDataset,
    MissingLabelColumn,
    NonNumericCell,
    RaggedRow,
    UnknownLabel,
    name_list,
    reading,
)

#: Columns excluded from the channel matrix by default: elapsed trip time and
#: the route leg counter are bookkeeping, not sensor readings.
DEFAULT_EXCLUDE_COLUMNS = ("Time(s)", "PathOrder")

DEFAULT_LABEL_COLUMN = "Class"

#: Most channel cells that :func:`load_dataset` parses at once (at least one
#: line): the text of one block, some 20 bytes a cell as lines or 60 as the
#: csv code's cells, is all of the log it holds as text.  np.loadtxt reads
#: blocks of 160 to 5,140 rows of a 51-channel log equally fast.
_PARSE_BLOCK_CELLS = 1 << 14

#: Characters that send a block to the csv code: ``np.loadtxt`` does not
#: unquote ``"``, csv before Python 3.11 refuses a NUL, and loadtxt strips
#: \x1c-\x1f around a number as whitespace where ``float`` refuses them.
_CSV_ONLY = '"\0\x1c\x1d\x1e\x1f'

#: Most bytes of float64 cells that :func:`write_csv` formats at once (at
#: least one row): as Python floats and strings one chunk takes some ten
#: times that, never the text of the whole matrix.
_WRITE_CHUNK_BYTES = 1 << 16


def encode_labels(labels, alphabet=None) -> tuple[tuple[str, ...], np.ndarray]:
    """Labels as ``(alphabet, codes)``: ``alphabet[codes[i]] == str(labels[i])``.

    ``labels`` is a list, tuple or 1-D array of strings or real numbers;
    anything else (a bare string too), or a label outside a given
    ``alphabet``, raises :class:`UnknownLabel`.  A given ``alphabet`` is kept
    in its own order; without one it is the distinct labels in ``sorted()``
    order, checked by :func:`check_alphabet`.
    """
    if not isinstance(labels, (list, tuple, np.ndarray)) or getattr(labels, "ndim", 1) != 1:
        raise UnknownLabel(f"labels must be a 1-D sequence, got a {type(labels).__name__}")
    try:
        distinct = set(labels)
    except TypeError:
        raise UnknownLabel("labels must be strings or numbers, got an unhashable one") from None
    odd = [v for v in distinct if not isinstance(v, (str, numbers.Real))]
    if odd:
        raise UnknownLabel(f"labels must be strings or numbers, got {odd[0]!r}")
    if not all(type(v) is str for v in distinct):
        # Numbers and np.str_ become text row by row: 1, 1.0 and True are equal.
        return encode_labels(list(map(str, labels)), alphabet)
    if alphabet is None:
        alphabet = check_alphabet(sorted(distinct))
    index = {label: i for i, label in enumerate(alphabet)}
    if not distinct <= index.keys():
        raise UnknownLabel(f"labels {sorted(distinct - index.keys())} are not in {list(alphabet)}")
    return tuple(alphabet), np.fromiter(map(index.__getitem__, labels), np.intp, len(labels))


def decode_labels(alphabet: Sequence[str], codes: np.ndarray) -> list[str]:
    """Inverse of :func:`encode_labels`: the label string of every code."""
    return np.asarray(alphabet, dtype=object)[codes].tolist()


def check_alphabet(alphabet) -> tuple[str, ...]:
    """``alphabet`` as a tuple, if it is a list or tuple of sorted, distinct
    strings, none ending in a NUL.  Anything else (a bare string too)
    raises :class:`DriverIdError`."""
    alphabet = name_list("label alphabet", alphabet)
    if list(alphabet) != sorted(set(alphabet)):
        raise DriverIdError(f"label alphabet {list(alphabet)} is not sorted and distinct")
    if any(label.endswith("\0") for label in alphabet):
        raise DriverIdError(f"label alphabet {list(alphabet)} has a label ending in a NUL")
    return alphabet


def holds_integers(values: np.ndarray) -> bool:
    """Whether an array holds integers only: an integer dtype (bools are not
    integers here), or no values at all."""
    return values.dtype.kind in "iu" or values.size == 0


def check_codes(alphabet: tuple[str, ...], codes) -> np.ndarray:
    """``codes`` as an intp array, if they are 1-D integers indexing
    ``alphabet``; anything else raises :class:`UnknownLabel`."""
    codes = np.asarray(codes)
    if not (codes.ndim == 1 and holds_integers(codes)) or codes.size and (
        codes.min() < 0 or codes.max() >= len(alphabet)
    ):
        raise UnknownLabel(f"label codes must be 1-D integers in [0, {len(alphabet)})")
    return codes.astype(np.intp, copy=False)


def present_classes(alphabet, codes) -> tuple[tuple[str, ...], np.ndarray]:
    """The classes of ``alphabet`` that ``codes`` uses, and the codes
    renumbered into them; both are checked first."""
    alphabet = check_alphabet(alphabet)
    codes = check_codes(alphabet, codes)
    used = np.bincount(codes, minlength=len(alphabet)) > 0
    return tuple(a for a, u in zip(alphabet, used) if u), (np.cumsum(used) - 1)[codes]


@dataclass(frozen=True, eq=False, init=False)
class TripDataset:
    """An immutable, rectangular trip log.

    ``channels`` is a read-only (N, d) float64 array and ``codes`` indexes
    each row's driver in ``label_alphabet``, which :func:`check_alphabet`
    checks and stores as a tuple.  The constructor takes label strings and
    keeps only their codes; ``labels`` decodes them on each access.  Row
    order is the original file order.
    """

    column_names: tuple[str, ...]
    channels: np.ndarray
    label_alphabet: tuple[str, ...]
    codes: np.ndarray = field(repr=False)
    label_column: str

    def __init__(self, column_names, channels, labels, label_alphabet,
                 label_column=DEFAULT_LABEL_COLUMN) -> None:
        if channels.ndim != 2:
            raise DriverIdError("channels must be a 2-D array")
        n, d = channels.shape
        if n == 0:
            raise EmptyDataset("dataset has no records")
        if d != len(column_names):
            raise DriverIdError(f"{len(column_names)} column names for {d} channel columns")
        if len(labels) != n:
            raise DriverIdError(f"{len(labels)} labels for {n} records")
        kinds = set(map(type, labels))
        if not all(issubclass(kind, str) for kind in kinds):
            raise DriverIdError(f"labels must be strings, got {sorted(k.__name__ for k in kinds)}")
        alphabet, codes = encode_labels(labels, check_alphabet(label_alphabet))
        codes.flags.writeable = False
        channels.flags.writeable = False
        object.__setattr__(self, "column_names", column_names)
        object.__setattr__(self, "channels", channels)
        object.__setattr__(self, "label_alphabet", alphabet)
        object.__setattr__(self, "codes", codes)
        object.__setattr__(self, "label_column", label_column)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(decode_labels(self.label_alphabet, self.codes))

    def __len__(self) -> int:
        return self.channels.shape[0]

    @property
    def n_channels(self) -> int:
        return self.channels.shape[1]

    def column_index(self, name: str) -> int:
        try:
            return self.column_names.index(name)
        except ValueError:
            raise DriverIdError(f"no column named {name!r}") from None


def _is_path(target) -> bool:
    return isinstance(target, (str, bytes)) or hasattr(target, "__fspath__")


def _source_name(source):
    """How an error names a path or an open stream."""
    return os.fspath(source) if _is_path(source) else getattr(source, "name", "stream")


@contextmanager
def _text_stream(target, mode: str):
    """Open a path as a UTF-8 text stream without newline translation (as
    csv wants), or pass an open stream through (the caller keeps ownership
    and it is left open)."""
    if _is_path(target):
        with open(target, mode, encoding="utf-8", newline="") as stream:
            yield stream
    else:
        yield target


def write_csv(target, column_names, rows, label_alphabet, codes, label_column) -> None:
    """Write a header and one line per row with its label, the class of its
    code, last; numeric cells use repr so that a load/save round trip is
    bit-exact.  ``codes`` must index ``label_alphabet``, one per row.

    The header and labels are quoted by :mod:`csv`; float cells never need
    quoting.
    """
    codes = check_codes(label_alphabet, codes)
    if len(codes) != len(rows):
        raise DriverIdError(f"{len(codes)} label codes for {len(rows)} rows")
    n_cols = len(column_names)
    with _text_stream(target, "w") as stream:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow([*column_names, label_column])
        # Each class's csv-quoted line tail, made once: the row ["", label]
        # is exactly the comma and the label as csv writes them after other
        # cells (a lone [label] when there are no cells).
        tails = []
        for label in label_alphabet:
            line = io.StringIO()
            csv.writer(line, lineterminator="\n").writerow(["", label] if n_cols else [label])
            tails.append(line.getvalue())
        join = ",".join
        chunk = max(1, _WRITE_CHUNK_BYTES // (8 * max(1, n_cols)))
        for lo in range(0, len(codes), chunk):
            block = np.asarray(rows[lo : lo + chunk], dtype=np.float64).tolist()
            stream.writelines(
                [join(map(repr, row)) + tails[code]
                 for row, code in zip(block, codes[lo : lo + chunk].tolist())]
            )


def load_dataset(
    source,
    *,
    label_column: str = DEFAULT_LABEL_COLUMN,
    exclude_columns: Sequence[str] = DEFAULT_EXCLUDE_COLUMNS,
) -> TripDataset:
    """Load a trip log from a path or text stream.

    The channel columns are those the header declares, less the label
    column and ``exclude_columns``.

    Raises :class:`MissingLabelColumn`, :class:`RaggedRow` (with 1-based line
    number), :class:`NonNumericCell` (line and column; empty and non-finite
    cells count as non-numeric — missing data is a hard error), and
    :class:`EmptyDataset` for a header-only file.
    """
    with reading(f"CSV {_source_name(source)}"), _text_stream(source, "r") as stream:
        lines = iter(stream)
        reader = csv.reader(lines)
        header = next(reader, None)
        if header is None:
            raise EmptyDataset("source contains no header row")
        header = [name.strip() for name in header]
        repeated = sorted({name for name in header if header.count(name) > 1})
        if repeated:
            raise DriverIdError(f"header names column(s) {repeated} more than once")
        if label_column not in header:
            raise MissingLabelColumn(
                f"no column named {label_column!r}; header has {header}"
            )
        label_at = header.index(label_column)
        drop = set(exclude_columns) | {label_column}
        channel_at = [i for i, name in enumerate(header) if name not in drop]
        column_names = tuple(header[i] for i in channel_at)

        channels = np.empty((_row_bound(stream, len(header), len(channel_at)), len(channel_at)))
        code_blocks = []
        n = 0
        seen = _FirstSeen()
        for block, codes in _record_blocks(
            lines, reader.line_num, len(header), label_at, channel_at, column_names, seen
        ):
            m = n + len(block)
            if m > len(channels):
                # A stream of unknown size: grown in place by a realloc (which
                # zero-fills the new rows); no second buffer joins the blocks.
                channels.resize((max(m, 2 * len(channels)), len(channel_at)), refcheck=False)
            channels[n:m] = block
            code_blocks.append(codes)
            n = m
        if not n:
            raise EmptyDataset("source has a header but no records")
        channels.resize((n, len(channel_at)), refcheck=False)
        labels = decode_labels(list(seen), np.concatenate(code_blocks))
        # Inside the block, so a bad label alphabet names the file too.
        return TripDataset(
            column_names=column_names,
            channels=channels,
            labels=labels,
            label_alphabet=tuple(sorted(set(labels))),
            label_column=label_column,
        )


def _row_bound(stream, n_fields: int, n_channels: int) -> int:
    """Most records a file stream can hold, or 0 when its size is unknown.

    A record takes at least one character per channel cell (an empty one
    is an error before it is stored), a comma between fields and a line
    end (but the last line), and a character takes at least one byte.
    """
    try:
        size = os.fstat(stream.fileno()).st_size
    except (AttributeError, OSError):  # io.UnsupportedOperation is an OSError
        return 0
    return (size + 1) // (n_channels + n_fields)


class _FirstSeen(dict):
    """Label → code, each new label taking the next code: ``seen[label]``
    codes a label in order of first appearance."""

    def __missing__(self, label: str) -> int:
        self[label] = code = len(self)
        return code


def _ignored(text: str) -> float:
    """The converter of a column that is not read: any text is 0.0."""
    return 0.0


def _record_blocks(lines, line_num, n_fields, label_at, channel_at, column_names, seen):
    """Yield ``(channels, codes)`` for runs of records after the header,
    which took ``line_num`` lines, with their labels coded by ``seen``.

    Blocks of at most :data:`_PARSE_BLOCK_CELLS` channel cells' worth of
    lines go through :func:`_load_block`.  From the first block that it
    refuses to the end of the file, the lines go through :mod:`csv`
    (:func:`_row_blocks`); a bad cell there is raised once every row has
    been read, so a ragged row anywhere after it wins.
    """
    converters = {i: _ignored for i in range(n_fields) if i not in channel_at}
    converters[label_at] = seen.__getitem__
    block_lines = max(1, _PARSE_BLOCK_CELLS // max(1, len(channel_at)))
    while block := list(islice(lines, block_lines)):
        parsed = _load_block(block, n_fields, converters)
        if parsed is None:
            break
        yield parsed[:, channel_at], parsed[:, label_at].astype(np.intp)
        line_num += len(block)
    else:
        return  # every block parsed
    reader = csv.reader(chain(block, lines))
    failed = None  # (cells, line numbers) of the first block that does not parse
    for labels, cells, line_numbers in _row_blocks(
        reader, line_num, n_fields, label_at, channel_at
    ):
        if failed is None:
            parsed = _parse_block(cells)
            if parsed is None:
                failed = cells, line_numbers
            else:
                yield parsed, np.fromiter(map(seen.__getitem__, labels), np.intp, len(labels))
    if failed is not None:
        _raise_non_numeric(failed[0], column_names, failed[1])


def _load_block(lines, n_fields, converters) -> np.ndarray | None:
    """The records of ``lines`` as an (n, n_fields) float64 array, parsed by
    ``np.loadtxt`` with ``converters`` for the columns that are not
    channels, or None where only :mod:`csv` reads them as the file means.

    That is when the text holds a character of :data:`_CSV_ONLY`, or a line
    is longer than csv's field limit, or loadtxt refuses a record, or it
    yields a record count or width other than csv's, or a cell that is not
    finite.  Blank lines hold no record, for both.
    """
    text = "".join(lines)
    if any(c in text for c in _CSV_ONLY) or max(map(len, lines)) > csv.field_size_limit():
        return None
    rows = len(lines) - lines.count("\n") - lines.count("\r\n") - lines.count("\r")
    if not rows:
        return np.empty((0, n_fields))  # loadtxt warns on no data
    try:
        # encoding=None: numpy 1.x's default, "bytes", hands converters bytes
        parsed = np.loadtxt(lines, delimiter=",", comments=None, dtype=np.float64, ndmin=2,
                            converters=converters, encoding=None)
    except ValueError:
        return None
    return parsed if parsed.shape == (rows, n_fields) and np.isfinite(parsed).all() else None


def _row_blocks(reader, line_num, n_fields, label_at, channel_at):
    """Yield ``(labels, cells, line numbers)`` for runs of consecutive
    records holding at most :data:`_PARSE_BLOCK_CELLS` channel cells (at
    least one record), read from a csv reader that starts after ``line_num``
    lines; blank lines are skipped and a record of the wrong width raises
    :class:`RaggedRow` with its 1-based line number."""
    rows_per_block = max(1, _PARSE_BLOCK_CELLS // max(1, len(channel_at)))
    labels: list[str] = []
    cells: list[list[str]] = []
    line_numbers: list[int] = []
    for row in reader:
        if not row:
            continue
        if len(row) != n_fields:
            raise RaggedRow(
                f"line {line_num + reader.line_num}: expected {n_fields} fields, got {len(row)}"
            )
        labels.append(row[label_at])
        cells.append([row[i] for i in channel_at])
        line_numbers.append(line_num + reader.line_num)
        if len(cells) == rows_per_block:
            yield labels, cells, line_numbers
            labels, cells, line_numbers = [], [], []
    if cells:
        yield labels, cells, line_numbers


def _parse_block(cells) -> np.ndarray | None:
    """The cells as a float64 array, or None if one is not a finite number."""
    try:
        block = np.asarray(cells, dtype=np.float64)
    except ValueError:
        return None
    return block if np.isfinite(block).all() else None


def _raise_non_numeric(cells, column_names, line_numbers) -> None:
    """Locate the first offending cell and raise with its coordinates."""
    for row, line in zip(cells, line_numbers):
        for j, text in enumerate(row):
            try:
                value = float(text)
            except ValueError:
                value = np.nan
            if not np.isfinite(value):
                raise NonNumericCell(
                    f"line {line}, column {column_names[j]!r}: {text!r} is not a finite number"
                )
    raise NonNumericCell(
        f"lines {line_numbers[0]}-{line_numbers[-1]}: a cell is not a finite number"
    )


def filter_labels(ds: TripDataset, keep) -> TripDataset:
    """Dataset restricted to rows whose label is in ``keep`` (order preserved).

    The result's label alphabet becomes exactly ``keep`` (sorted).  ``keep``
    must be a list or tuple of labels (a bare string raises
    :class:`InvalidOption`); a class absent from ``ds`` raises
    :class:`UnknownLabel`.
    """
    _, keep_codes = encode_labels(name_list("keep", keep), ds.label_alphabet)
    if keep_codes.size == 0:
        raise DriverIdError("keep set must be nonempty")
    kept = np.unique(keep_codes)
    mask = np.isin(ds.codes, kept)
    labels = decode_labels(ds.label_alphabet, ds.codes[mask])
    return TripDataset(ds.column_names, ds.channels[mask], labels,
                       decode_labels(ds.label_alphabet, kept), ds.label_column)


def class_distribution(ds) -> dict[str, float]:
    """Per-class proportion of rows, keyed in alphabet order; sums to 1.

    Works on anything with ``label_alphabet`` and ``codes`` (a TripDataset
    or a windowed feature matrix alike); classes with no rows are left out.
    """
    counts = np.bincount(ds.codes, minlength=len(ds.label_alphabet)).tolist()
    n = len(ds.codes)
    return {lab: c / n for lab, c in zip(ds.label_alphabet, counts) if c}
