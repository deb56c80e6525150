"""Trip-log ingestion.

Loads delimiter-separated telemetry logs (header row + one record per line,
one label column naming the driver) into an immutable :class:`TripDataset`
whose channels form an (N, d) float64 matrix in original file order.  Order
is preserved because downstream windowing treats the rows as a time series.

Driver labels are encoded once, by :func:`encode_labels`, as a sorted
alphabet plus one integer code per row; every later layer works on
``(label_alphabet, codes)`` and turns codes back into strings only where a
label leaves the package.  Layers handed codes check them with
:func:`present_classes`.

Bookkeeping columns that are not sensor channels (elapsed time, path order)
are dropped through an explicit exclusion list rather than heuristics.

Memory: :func:`load_dataset` parses the records in blocks of at most
``_PARSE_BLOCK_CELLS`` (16,384) channel cells, each cast to float64 on its
own and all joined by one ``np.concatenate``.  It holds the text of one
block (about 1 MB of Python strings) besides the parsed blocks, so a load
peaks near twice the channel matrix plus one block, never at the text of
the whole log.  Errors read as if the whole file were parsed at once: a
ragged record anywhere wins over a bad cell, and the bad cell reported is
the first in file order.
"""

from __future__ import annotations

import csv
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
    SchemaMismatch,
    UnknownLabel,
)

#: Columns excluded from the channel matrix by default: elapsed trip time and
#: the route leg counter are bookkeeping, not sensor readings.
DEFAULT_EXCLUDE_COLUMNS = ("Time(s)", "PathOrder")

DEFAULT_LABEL_COLUMN = "Class"

#: Most channel cells that :func:`load_dataset` parses at once (at least one
#: record): the text of one block, some 60 bytes a cell as Python strings,
#: is all of the log it holds as text.
_PARSE_BLOCK_CELLS = 1 << 14


def encode_labels(labels, alphabet=None) -> tuple[tuple[str, ...], np.ndarray]:
    """Labels as ``(alphabet, codes)``: ``alphabet[codes[i]] == str(labels[i])``.

    Without ``alphabet`` it is the distinct labels in ``sorted()`` order.
    A given ``alphabet`` is kept in its own order, and a label outside it
    raises :class:`UnknownLabel`.
    """
    values, codes = np.unique(np.asarray(labels, dtype=str), return_inverse=True)
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


def present_classes(alphabet, codes) -> tuple[tuple[str, ...], np.ndarray]:
    """The classes of a sorted, distinct ``alphabet`` that ``codes`` uses, and
    the codes renumbered into them.  A bad alphabet raises :class:`DriverIdError`;
    codes that are not 1-D integers indexing it raise :class:`UnknownLabel`."""
    alphabet = tuple(alphabet)
    if list(alphabet) != sorted(set(alphabet)):
        raise DriverIdError(f"label alphabet {list(alphabet)} is not sorted and distinct")
    codes = np.asarray(codes)
    if codes.ndim != 1 or codes.size and (
        codes.dtype.kind not in "iu" or codes.min() < 0 or codes.max() >= len(alphabet)
    ):
        raise UnknownLabel(f"label codes must be 1-D integers in [0, {len(alphabet)})")
    codes = codes.astype(np.intp, copy=False)
    used = np.bincount(codes, minlength=len(alphabet)) > 0
    return tuple(a for a, u in zip(alphabet, used) if u), (np.cumsum(used) - 1)[codes]


@dataclass(frozen=True)
class TripDataset:
    """An immutable, rectangular trip log.

    ``channels`` is a read-only (N, d) float64 array; ``labels`` holds the
    per-row driver class and ``codes`` its index into ``label_alphabet``,
    which must be sorted and free of duplicates.  Row order is the original
    file order.
    """

    column_names: tuple[str, ...]
    channels: np.ndarray
    labels: tuple[str, ...]
    label_alphabet: tuple[str, ...]
    label_column: str = DEFAULT_LABEL_COLUMN
    codes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.channels.ndim != 2:
            raise DriverIdError("channels must be a 2-D array")
        n, d = self.channels.shape
        if n == 0:
            raise EmptyDataset("dataset has no records")
        if d != len(self.column_names):
            raise DriverIdError(
                f"{len(self.column_names)} column names for {d} channel columns"
            )
        if len(self.labels) != n:
            raise DriverIdError(f"{len(self.labels)} labels for {n} records")
        if list(self.label_alphabet) != sorted(set(self.label_alphabet)):
            raise DriverIdError(
                f"label alphabet {list(self.label_alphabet)} is not sorted and distinct"
            )
        _, codes = encode_labels(self.labels, self.label_alphabet)
        codes.flags.writeable = False
        object.__setattr__(self, "codes", codes)
        self.channels.flags.writeable = False

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

    def to_csv(self, target, delimiter: str = ",") -> None:
        """Write the dataset back out (see :func:`write_csv`)."""
        write_csv(
            target, self.column_names, self.channels, self.labels, self.label_column, delimiter
        )


@contextmanager
def _text_stream(target, mode: str):
    """Open a path as a UTF-8 text stream without newline translation (as
    csv wants), or pass an open stream through (the caller keeps ownership
    and it is left open)."""
    if isinstance(target, (str, bytes)) or hasattr(target, "__fspath__"):
        with open(target, mode, encoding="utf-8", newline="") as stream:
            yield stream
    else:
        yield target


def write_csv(target, column_names, rows, labels, label_column, delimiter=",") -> None:
    """Write a header and one line per row with its label last; numeric
    cells use repr so that a load/save round trip is bit-exact."""
    with _text_stream(target, "w") as stream:
        writer = csv.writer(stream, delimiter=delimiter, lineterminator="\n")
        writer.writerow([*column_names, label_column])
        for row, label in zip(rows, labels):
            writer.writerow([repr(float(v)) for v in row] + [label])


def load_dataset(
    source,
    schema: Sequence[str] | str = "infer",
    *,
    label_column: str = DEFAULT_LABEL_COLUMN,
    exclude_columns: Sequence[str] = DEFAULT_EXCLUDE_COLUMNS,
    delimiter: str = ",",
) -> TripDataset:
    """Load a trip log from a path or text stream.

    ``schema`` is either ``"infer"`` (accept whatever channel columns the
    header declares) or the exact sequence of channel names expected after
    label/exclusion removal, enforced with :class:`SchemaMismatch`.

    Raises :class:`MissingLabelColumn`, :class:`RaggedRow` (with 1-based line
    number), :class:`NonNumericCell` (line and column; empty and non-finite
    cells count as non-numeric — missing data is a hard error), and
    :class:`EmptyDataset` for a header-only file.
    """
    with _text_stream(source, "r") as stream:
        reader = csv.reader(stream, delimiter=delimiter)
        header = next(reader, None)
        if header is None:
            raise EmptyDataset("source contains no header row")
        header = [name.strip() for name in header]
        if label_column not in header:
            raise MissingLabelColumn(
                f"no column named {label_column!r}; header has {header}"
            )
        label_at = header.index(label_column)
        drop = set(exclude_columns) | {label_column}
        channel_at = [i for i, name in enumerate(header) if name not in drop]
        column_names = tuple(header[i] for i in channel_at)
        if schema != "infer":
            expected = tuple(schema)
            if column_names != expected:
                raise SchemaMismatch(
                    f"channel columns {list(column_names)} != expected {list(expected)}"
                )

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
        labels=tuple(labels),
        label_alphabet=encode_labels(labels)[0],
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

    The result's label alphabet becomes exactly ``keep`` (sorted).  Requesting
    a class absent from ``ds`` raises :class:`UnknownLabel`.
    """
    _, keep_codes = encode_labels(tuple(keep), ds.label_alphabet)
    if keep_codes.size == 0:
        raise DriverIdError("keep set must be nonempty")
    kept = np.unique(keep_codes)
    mask = np.isin(ds.codes, kept)
    return TripDataset(
        column_names=ds.column_names,
        channels=ds.channels[mask],
        labels=tuple(decode_labels(ds.label_alphabet, ds.codes[mask])),
        label_alphabet=tuple(decode_labels(ds.label_alphabet, kept)),
        label_column=ds.label_column,
    )


def class_distribution(ds) -> dict[str, float]:
    """Per-class proportion of rows, keyed in alphabet order; sums to 1.

    Works on anything with ``label_alphabet`` and ``codes`` (a TripDataset
    or a windowed feature matrix alike); classes with no rows are left out.
    """
    counts = np.bincount(ds.codes, minlength=len(ds.label_alphabet)).tolist()
    n = len(ds.codes)
    return {lab: c / n for lab, c in zip(ds.label_alphabet, counts) if c}
