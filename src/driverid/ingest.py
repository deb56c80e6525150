"""Trip-log ingestion.

Loads delimiter-separated telemetry logs (header row + one record per line,
one label column naming the driver) into an immutable :class:`TripDataset`
whose channels form an (N, d) float64 matrix in original file order.  Order
is preserved because downstream windowing treats the rows as a time series.

Bookkeeping columns that are not sensor channels (elapsed time, path order)
are dropped through an explicit exclusion list rather than heuristics.
"""

from __future__ import annotations

import csv
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence

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


@dataclass(frozen=True)
class TelemetryRecord:
    """One telemetry row: its position in the log, channel values, driver label."""

    row_index: int
    channels: np.ndarray
    label: str


@dataclass(frozen=True)
class TripDataset:
    """An immutable, rectangular trip log.

    ``channels`` is a read-only (N, d) float64 array; ``labels`` holds the
    per-row driver class.  Row order is the original file order.
    """

    column_names: tuple[str, ...]
    channels: np.ndarray
    labels: tuple[str, ...]
    label_alphabet: tuple[str, ...]
    label_column: str = DEFAULT_LABEL_COLUMN

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
        missing = set(self.labels) - set(self.label_alphabet)
        if missing:
            raise UnknownLabel(f"labels outside the alphabet: {sorted(missing)}")
        self.channels.flags.writeable = False

    def __len__(self) -> int:
        return self.channels.shape[0]

    @property
    def n_channels(self) -> int:
        return self.channels.shape[1]

    def record(self, i: int) -> TelemetryRecord:
        if not 0 <= i < len(self):
            raise IndexError(f"record index {i} out of range [0, {len(self)})")
        return TelemetryRecord(row_index=i, channels=self.channels[i], label=self.labels[i])

    def __iter__(self) -> Iterator[TelemetryRecord]:
        return (self.record(i) for i in range(len(self)))

    @cached_property
    def records(self) -> tuple[TelemetryRecord, ...]:
        return tuple(self)

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
    """Open a path as a UTF-8 CSV text stream, or pass an open stream
    through (the caller keeps ownership and it is left open)."""
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

        cells: list[list[str]] = []
        labels: list[str] = []
        line_numbers: list[int] = []
        for row in reader:
            if not row:
                continue
            if len(row) != len(header):
                raise RaggedRow(
                    f"line {reader.line_num}: expected {len(header)} fields, got {len(row)}"
                )
            labels.append(row[label_at])
            cells.append([row[i] for i in channel_at])
            line_numbers.append(reader.line_num)

    if not cells:
        raise EmptyDataset("source has a header but no records")

    try:
        channels = np.asarray(cells, dtype=np.float64)
    except ValueError:
        _raise_non_numeric(cells, column_names, line_numbers)
        raise  # unreachable
    if not np.isfinite(channels).all():
        _raise_non_numeric(cells, column_names, line_numbers)

    return TripDataset(
        column_names=column_names,
        channels=channels,
        labels=tuple(labels),
        label_alphabet=tuple(sorted(set(labels))),
        label_column=label_column,
    )


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


def filter_labels(ds: TripDataset, keep) -> TripDataset:
    """Dataset restricted to rows whose label is in ``keep`` (order preserved).

    The result's label alphabet becomes exactly ``keep`` (sorted).  Requesting
    a class absent from ``ds`` raises :class:`UnknownLabel`.
    """
    keep = set(keep)
    if not keep:
        raise DriverIdError("keep set must be nonempty")
    absent = keep - set(ds.label_alphabet)
    if absent:
        raise UnknownLabel(f"classes not in the dataset: {sorted(absent)}")
    mask = np.fromiter((lab in keep for lab in ds.labels), dtype=bool, count=len(ds))
    return TripDataset(
        column_names=ds.column_names,
        channels=ds.channels[mask].copy(),
        labels=tuple(lab for lab in ds.labels if lab in keep),
        label_alphabet=tuple(sorted(keep)),
        label_column=ds.label_column,
    )


def class_distribution(ds) -> dict[str, float]:
    """Per-class proportion of rows, keyed in sorted label order; sums to 1.

    Works on anything with ``labels`` (a TripDataset or a windowed feature
    matrix alike).
    """
    labels = ds.labels
    n = len(labels)
    counts: dict[str, int] = {}
    for lab in labels:
        counts[lab] = counts.get(lab, 0) + 1
    return {lab: counts[lab] / n for lab in sorted(counts)}
