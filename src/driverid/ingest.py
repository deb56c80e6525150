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
distinct strings (:func:`check_alphabet`), and codes are a 1-D integer
array indexing it (:func:`check_codes`).  Every layer handed an alphabet
or codes from outside runs them.

A header that names a column twice is a data error.  Bookkeeping columns
that are not sensor channels (elapsed time, path order) are dropped
through an explicit exclusion list rather than heuristics.

Memory: :func:`load_dataset` parses the records in blocks of at most
``_PARSE_BLOCK_CELLS`` (16,384) channel cells, each cast to float64 on its
own and all joined by one ``np.concatenate``.  It holds the text of one
block (about 1 MB of Python strings) besides the parsed blocks, so a load
peaks near twice the channel matrix plus one block, never at the text of
the whole log.  Errors read as if the whole file were parsed at once: a
ragged record anywhere wins over a bad cell, and the bad cell reported is
the first in file order.

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
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
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
#: record): the text of one block, some 60 bytes a cell as Python strings,
#: is all of the log it holds as text.
_PARSE_BLOCK_CELLS = 1 << 14

#: Most bytes of float64 cells that :func:`write_csv` formats at once (at
#: least one row): as Python floats and strings one chunk takes some ten
#: times that, never the text of the whole matrix.
_WRITE_CHUNK_BYTES = 1 << 16


def encode_labels(labels, alphabet=None) -> tuple[tuple[str, ...], np.ndarray]:
    """Labels as ``(alphabet, codes)``: ``alphabet[codes[i]] == str(labels[i])``.

    Without ``alphabet`` it is the distinct labels in ``sorted()`` order.
    A given ``alphabet`` is kept in its own order.  Labels that are not a
    1-D sequence (a bare string too), or a label outside ``alphabet``,
    raise :class:`UnknownLabel`.
    """
    labels = np.asarray(labels, dtype=str)
    if labels.ndim != 1:
        raise UnknownLabel(f"labels must be a 1-D sequence, got a {labels.ndim}-D one")
    values, codes = np.unique(labels, return_inverse=True)
    if alphabet is None:
        return tuple(values.tolist()), codes
    alphabet = tuple(alphabet)
    match = values[:, None] == np.asarray(alphabet, dtype=str)
    known = match.any(axis=1)
    if not known.all():
        raise UnknownLabel(
            f"labels {values[~known].tolist()} are not in the alphabet {list(alphabet)}"
        )
    return alphabet, match.argmax(axis=1)[codes] if match.size else codes


def decode_labels(alphabet: Sequence[str], codes: np.ndarray) -> list[str]:
    """Inverse of :func:`encode_labels`: the label string of every code."""
    return np.asarray(alphabet, dtype=object)[codes].tolist()


def check_alphabet(alphabet) -> tuple[str, ...]:
    """``alphabet`` as a tuple, if it is a list or tuple of sorted, distinct
    strings, none ending in a NUL (numpy's str arrays, which
    :func:`encode_labels` uses, drop trailing NULs).  Anything else (a bare
    string too) raises :class:`DriverIdError`."""
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
        # numpy's str arrays, which encode_labels uses, drop trailing NULs.
        odd = [label for label in labels if not isinstance(label, str) or label.endswith("\0")]
        if odd:
            raise DriverIdError(f"labels must be strings not ending in a NUL, got {odd[0]!r}")
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
        reader = csv.reader(stream)
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

        labels: list[str] = []
        blocks: list[np.ndarray] = []
        failed = None  # (cells, line numbers) of the first block that does not parse
        for block_labels, cells, line_numbers in _row_blocks(
            reader, len(header), label_at, channel_at
        ):
            labels += block_labels
            if failed is None:
                block = _parse_block(cells)
                if block is None:
                    failed = cells, line_numbers
                else:
                    blocks.append(block)
        if not labels:
            raise EmptyDataset("source has a header but no records")
        if failed is not None:
            _raise_non_numeric(failed[0], column_names, failed[1])

    return TripDataset(
        column_names=column_names,
        channels=np.concatenate(blocks),
        labels=labels,
        label_alphabet=tuple(sorted(set(labels))),
        label_column=label_column,
    )


def _row_blocks(reader, n_fields, label_at, channel_at):
    """Yield ``(labels, cells, line numbers)`` for runs of consecutive
    records holding at most :data:`_PARSE_BLOCK_CELLS` channel cells (at
    least one record); blank lines are skipped and a record of the wrong
    width raises :class:`RaggedRow` with its 1-based line number."""
    rows_per_block = max(1, _PARSE_BLOCK_CELLS // max(1, len(channel_at)))
    labels: list[str] = []
    cells: list[list[str]] = []
    line_numbers: list[int] = []
    for row in reader:
        if not row:
            continue
        if len(row) != n_fields:
            raise RaggedRow(
                f"line {reader.line_num}: expected {n_fields} fields, got {len(row)}"
            )
        labels.append(row[label_at])
        cells.append([row[i] for i in channel_at])
        line_numbers.append(reader.line_num)
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
    :class:`UnknownLabel`, and so does one ending in a NUL, which no
    alphabet holds.
    """
    keep = name_list("keep", keep)
    odd = [label for label in keep if label.endswith("\0")]
    if odd:
        raise UnknownLabel(f"label {odd[0]!r} ends in a NUL")
    _, keep_codes = encode_labels(keep, ds.label_alphabet)
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
