"""Trip-log ingestion: parsing, validation, label handling."""

import csv
import dataclasses
import io
from collections import Counter

import numpy as np
import pytest

from driverid import ingest, models
from driverid.features import FeatureMatrix
from driverid.errors import (
    DriverIdError,
    EmptyDataset,
    InvalidOption,
    MissingLabelColumn,
    NonNumericCell,
    RaggedRow,
    UnknownLabel,
)

from conftest import mixed_trip_text, traced_peak, write_trip_csv


def test_load_dataset_shapes(trip_dataset):
    ds = trip_dataset
    assert len(ds) == 360
    assert ds.n_channels == 3
    assert ds.column_names == ("Fuel_consumption", "Engine_speed", "Vehicle_speed")
    assert ds.label_alphabet == ("A", "B", "C")
    assert ds.channels.shape == (360, 3)
    assert ds.channels.dtype == np.float64


def test_bookkeeping_columns_are_dropped(trip_dataset):
    assert "Time(s)" not in trip_dataset.column_names
    assert "PathOrder" not in trip_dataset.column_names


def test_load_from_stream():
    stream = io.StringIO("x,y,Class\n1,2,A\n3,4,B\n")
    ds = ingest.load_dataset(stream)
    assert len(ds) == 2
    assert ds.labels == ("A", "B")
    assert ds.channels[1, 0] == 3.0


def test_encode_labels_matches_sorted_set_oracle():
    cases = [
        ["b", "B", "a", "A", "b", "a"],
        ["9", "10", "100", "9", "1"],
        ["Ö", "O", "é", "e", "Z", "Ö"],
        [3, 10, 9, 3, 100],
        ["D"],
        [],
        # Equal as numbers, different as text.
        [1, 1.0, True, "1", 0.0, -0.0, np.float64(1.0), np.int64(1)],
    ]
    rng = np.random.default_rng(28)
    pools = (list("abAB"), ["Ö", "O", "é", "e", "ß", "中"], ["A\0B", "\0A", "A", "\0\0B"],
             list(range(-3, 12)))
    for _ in range(30):
        pool = pools[rng.integers(len(pools))]
        y = [pool[i] for i in rng.integers(len(pool), size=rng.integers(0, 30))]
        cases += [y, tuple(y), np.array(y)]
    for y in cases:
        alphabet, codes = ingest.encode_labels(y)
        expect = sorted(set(map(str, y)))
        assert alphabet == tuple(expect)
        assert all(type(c) is str for c in alphabet)
        assert codes.tolist() == [expect.index(str(v)) for v in y] and codes.dtype == np.intp
        # A given alphabet, unsorted and with a label that no row has.
        given = [(expect + ["unused"])[i] for i in rng.permutation(len(expect) + 1)]
        alphabet, codes = ingest.encode_labels(y, given)
        assert alphabet == tuple(given)
        assert codes.tolist() == [given.index(str(v)) for v in y] and codes.dtype == np.intp


def test_encode_labels_keeps_a_given_alphabet_order():
    given = ("b", "10", "A", "9", "unused")
    y = ["A", "9", "b", "10", "A"]
    alphabet, codes = ingest.encode_labels(y, given)
    assert alphabet == given
    assert codes.tolist() == [given.index(v) for v in y]
    with pytest.raises(UnknownLabel):
        ingest.encode_labels(y + ["a"], given)
    for alphabet in (None, (), given):
        codes = ingest.encode_labels([], alphabet)[1]
        assert codes.shape == (0,) and codes.dtype == np.intp


@pytest.mark.parametrize("labels", [
    "AB", b"AB", {"A": 1}, {"A", "B"}, (v for v in "AB"), 5, None,
    np.array([["A"], ["B"]]), [["A"], ["B"]], [("A",)], [np.array(["A"])],
    [None], [b"A"], [1j], ["A", None],
])
def test_encode_labels_takes_a_list_of_strings_or_numbers_only(labels):
    with pytest.raises(UnknownLabel):
        ingest.encode_labels(labels)


def test_dataset_codes_index_the_alphabet(trip_dataset):
    ds = trip_dataset
    assert ds.codes.tolist() == [ds.label_alphabet.index(v) for v in ds.labels]
    assert ingest.decode_labels(ds.label_alphabet, ds.codes) == list(ds.labels)


@pytest.mark.parametrize(
    "alphabet", [("B", "A"), ("A", "A", "B"), ("A", "B", "A"), "AB", ("A", 1)]
)
def test_dataset_rejects_unsorted_or_duplicate_alphabet(alphabet):
    with pytest.raises(DriverIdError):
        ingest.TripDataset(
            column_names=("x",),
            channels=np.zeros((2, 1)),
            labels=("A", "B"),
            label_alphabet=alphabet,
        )


def test_dataset_labels_must_be_strings():
    with pytest.raises(DriverIdError, match="labels must be strings"):
        ingest.TripDataset(("x",), np.zeros((2, 1)), (1, 2), ("1", "2"))
    # numpy's str_ is a str
    ds = ingest.TripDataset(("x",), np.zeros((2, 1)), tuple(np.array(["B", "A"])), ("A", "B"))
    assert ds.codes.tolist() == [1, 0]


def test_dataset_rejects_a_label_ending_in_a_nul():
    with pytest.raises(DriverIdError, match=r"\['A\\x00'\] are not in \['A'\]"):
        ingest.TripDataset(("x",), np.zeros((2, 1)), ["A\0", "A"], ("A",))


def test_dataset_stores_its_alphabet_as_a_tuple():
    ds = ingest.TripDataset(("x",), np.zeros((2, 1)), ("A", "B"), ["A", "B"])
    assert ds.label_alphabet == ("A", "B")


def test_dataset_keeps_codes_and_decodes_its_labels():
    ds = ingest.load_dataset(io.StringIO("x,Class\n1,b\n2,A\n3,b\n4,10\n"))
    fields = [f.name for f in dataclasses.fields(ingest.TripDataset)]
    assert fields == ["column_names", "channels", "label_alphabet", "codes", "label_column"]
    assert ds.label_alphabet == ("10", "A", "b") and ds.codes.tolist() == [2, 1, 2, 0]
    assert ds.labels == ("b", "A", "b", "10")
    assert not ds.codes.flags.writeable


def test_load_dataset_encodes_its_labels_once(monkeypatch):
    calls = []
    encode = ingest.encode_labels

    def counted(*args, **kwargs):
        calls.append(args)
        return encode(*args, **kwargs)

    monkeypatch.setattr(ingest, "encode_labels", counted)
    ds = ingest.load_dataset(io.StringIO("x,Class\n1,B\n2,A\n3,B\n"))
    assert len(calls) == 1 and ds.codes.tolist() == [1, 0, 1]


@pytest.mark.parametrize("header, row, repeated", [
    ("Speed,Speed,Class", "1.0,2.0,A", "Speed"),
    ("Class,Speed,Class", "A,1.0,B", "Class"),
    ("Time(s),Speed,Time(s),Class", "0,1.0,0,A", "Time(s)"),
])
def test_repeated_header_name_is_a_data_error_naming_the_file(tmp_path, header, row, repeated):
    path = tmp_path / "log.csv"
    # The ragged record would fail its parse: the header is checked first.
    path.write_text(f"{header}\n{row}\n1.0\n", encoding="utf-8")
    with pytest.raises(DriverIdError) as exc:
        ingest.load_dataset(path)
    assert type(exc.value) is DriverIdError
    assert str(path) in str(exc.value) and repr(repeated) in str(exc.value)


@pytest.mark.parametrize("text", ["x,Class\n1,A\0\n2,A\n", "x,Class\n1,A\0\n2,B\n"])
def test_label_ending_in_a_nul_is_a_data_error(text):
    with pytest.raises(DriverIdError, match="ending in a NUL"):
        ingest.load_dataset(io.StringIO(text))


def test_label_ending_in_a_nul_in_a_log_names_the_file(tmp_path):
    path = tmp_path / "nul.csv"
    path.write_bytes(b"Speed,Class\n1.0,A\0\n2.0,A\n")
    with pytest.raises(DriverIdError, match="ending in a NUL") as exc:
        ingest.load_dataset(path)
    assert str(path) in str(exc.value)


@pytest.mark.parametrize("enter", [
    pytest.param(lambda: ingest.encode_labels(["A\0", "A"]), id="encode_labels"),
    pytest.param(lambda: ingest.TripDataset(("x",), np.zeros((2, 1)), ["A\0", "A"], ("A",)),
                 id="TripDataset"),
    pytest.param(lambda: ingest.filter_labels(ingest.load_dataset(io.StringIO("x,Class\n1,A\n")),
                                              ["A\0"]), id="filter_labels"),
    pytest.param(lambda: ingest.load_dataset(io.StringIO("x,Class\n1,A\0\n2,A\n")),
                 id="load_dataset"),
    pytest.param(lambda: models.make("zeror").fit(np.zeros((2, 1)), ["A\0", "A"]), id="fit"),
])
def test_a_label_ending_in_a_nul_is_rejected_on_every_entry_path(enter):
    with pytest.raises(DriverIdError):
        enter()


def test_label_checks():
    assert ingest.check_alphabet(["A", "B"]) == ("A", "B")
    assert ingest.check_alphabet(()) == ()
    for alphabet in ("AB", ("A", 1), ("B", "A"), ("A", "A"), None, 5, ("A\0",), ("A", "A\0")):
        with pytest.raises(DriverIdError):
            ingest.check_alphabet(alphabet)
    codes = ingest.check_codes(("A", "B"), np.array([1, 0], dtype=np.uint8))
    assert codes.tolist() == [1, 0] and codes.dtype == np.intp
    assert ingest.check_codes((), []).shape == (0,)
    for codes in ([[0], [1]], [True, False], [0.0, 1.0], [0, 2], [-1, 0], 0, [2**70]):
        with pytest.raises(UnknownLabel):
            ingest.check_codes(("A", "B"), codes)


def test_dataset_rejects_label_outside_alphabet():
    with pytest.raises(UnknownLabel):
        ingest.TripDataset(
            column_names=("x",),
            channels=np.zeros((2, 1)),
            labels=("A", "C"),
            label_alphabet=("A", "B"),
        )


def test_channels_are_read_only():
    stream = io.StringIO("x,y,Class\n1,2,A\n3,4,B\n")
    ds = ingest.load_dataset(stream)
    with pytest.raises(ValueError):
        ds.channels[0, 0] = 99.0


def test_missing_label_column():
    stream = io.StringIO("x,y\n1,2\n")
    with pytest.raises(MissingLabelColumn):
        ingest.load_dataset(stream)


def test_custom_label_column():
    stream = io.StringIO("x,y,driver\n1,2,A\n")
    ds = ingest.load_dataset(stream, label_column="driver")
    assert ds.labels == ("A",)
    assert ds.label_column == "driver"


def test_ragged_row_reports_line_number():
    stream = io.StringIO("x,y,Class\n1,2,A\n3,B\n")
    with pytest.raises(RaggedRow) as exc:
        ingest.load_dataset(stream)
    assert "3" in str(exc.value)


@pytest.fixture
def two_row_blocks(monkeypatch):
    """Parse the two-channel logs below in blocks of two records."""
    monkeypatch.setattr(ingest, "_PARSE_BLOCK_CELLS", 4)


def test_ragged_row_after_a_non_numeric_cell_still_raises_ragged_row(two_row_blocks):
    # Every row is read before a bad cell is reported, so raggedness anywhere
    # in the file wins over a non-numeric cell in an earlier block.
    stream = io.StringIO("x,y,Class\n1,oops,A\n3,4,A\n5,6,B\n7,8,B\n9,B\n")
    with pytest.raises(RaggedRow) as exc:
        ingest.load_dataset(stream)
    assert "line 6" in str(exc.value)


def test_non_numeric_cell_in_a_later_block_names_its_line_and_column(two_row_blocks):
    # Blocks of two records: lines 2-3, 4-5, then 6-7 holds the first bad cell.
    stream = io.StringIO(
        "x,y,Class\n1,2,A\n3,4,A\n5,6,A\n7,8,B\n9,10,B\n11,oops,B\n,13,B\nnan,1,B\n"
    )
    with pytest.raises(NonNumericCell) as exc:
        ingest.load_dataset(stream)
    assert str(exc.value) == "CSV stream: line 7, column 'y': 'oops' is not a finite number"


def test_non_finite_cell_in_the_first_block_rejected(two_row_blocks):
    stream = io.StringIO("x,y,Class\n1,2,A\n-inf,4,A\n5,6,B\n7,8,B\n")
    with pytest.raises(NonNumericCell) as exc:
        ingest.load_dataset(stream)
    assert str(exc.value) == "CSV stream: line 3, column 'x': '-inf' is not a finite number"


def test_blank_lines_across_a_block_boundary_are_skipped(two_row_blocks):
    stream = io.StringIO("x,y,Class\n1,2,A\n\n3,4,A\n\n\n5,6,B\n\n7,8,B\n9,10,B\n\n")
    ds = ingest.load_dataset(stream)
    assert ds.labels == ("A", "A", "B", "B", "B")
    np.testing.assert_array_equal(ds.channels, np.arange(1.0, 11.0).reshape(5, 2))


def test_header_only_file_rejected_with_small_blocks(two_row_blocks):
    with pytest.raises(EmptyDataset):
        ingest.load_dataset(io.StringIO("x,y,Class\n\n\n"))


@pytest.mark.parametrize("rows_per_block", [1, 2, 7])
@pytest.mark.parametrize("spare_cells", [0, 3])
def test_row_blocks_match_the_default_block(monkeypatch, rows_per_block, spare_cells):
    # The default block holds this whole log, so it parses as one array.
    text = mixed_trip_text(rows_per_label=30, n_channels=4)
    want = ingest.load_dataset(io.StringIO(text))
    monkeypatch.setattr(ingest, "_PARSE_BLOCK_CELLS", rows_per_block * 4 + spare_cells)
    got = ingest.load_dataset(io.StringIO(text))
    assert np.array_equal(got.channels.view(np.int64), want.channels.view(np.int64))
    assert got.labels == want.labels
    assert got.column_names == want.column_names == ("ch0", "ch1", "ch2", "ch3")
    assert got.label_alphabet == want.label_alphabet


@pytest.mark.parametrize("rows_per_block", [1, 7, None])
def test_a_file_loads_as_the_same_log_from_a_stream(monkeypatch, tmp_path, rows_per_block):
    # A file's buffer is sized once from the file's size; a stream's grows.
    text = mixed_trip_text(rows_per_label=30, n_channels=4)
    path = tmp_path / "log.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    if rows_per_block is not None:
        monkeypatch.setattr(ingest, "_PARSE_BLOCK_CELLS", rows_per_block * 4)
    want = ingest.load_dataset(io.StringIO(text))
    got = ingest.load_dataset(str(path))
    assert got.channels.shape == want.channels.shape
    assert got.channels.tobytes() == want.channels.tobytes()
    assert got.labels == want.labels


def test_row_bound_holds_the_shortest_records(tmp_path):
    # One-character cells, an empty label and no line end after the last
    # record: no file packs its records tighter.
    path = tmp_path / "short.csv"
    path.write_bytes(b"\n".join([b"1,2,"] * 40))
    with open(path, encoding="utf-8", newline="") as stream:
        assert ingest._row_bound(stream, 3, 2) == 40
    assert ingest._row_bound(io.StringIO("1,2,\n"), 3, 2) == 0  # size unknown


def _outcome(text, newline):
    """What load_dataset makes of a log read from a stream that splits
    lines as ``newline`` says: the dataset's bits, or the error."""
    try:
        ds = ingest.load_dataset(io.StringIO(text, newline=newline))
    except DriverIdError as e:
        return type(e), str(e)
    return (ds.channels.shape, ds.channels.tobytes(), ds.labels, ds.label_alphabet,
            ds.column_names, ds.channels.flags.c_contiguous)


def _both_parsers(monkeypatch, text, n_channels, rows_per_block, newline=""):
    """``_outcome`` of a log read in blocks of ``rows_per_block`` lines (None:
    the default budget), through np.loadtxt and through the csv code alone."""
    with monkeypatch.context() as m:
        if rows_per_block is not None:
            m.setattr(ingest, "_PARSE_BLOCK_CELLS", rows_per_block * max(1, n_channels))
        fast = _outcome(text, newline)
        m.setattr(ingest, "_load_block", lambda *args: None)
        return fast, _outcome(text, newline)


# Cells that float() and np.loadtxt may read differently: whitespace,
# digit separators, non-ASCII digits, bare points, under- and overflow,
# signed zero, non-finite spellings, other bases and exponent letters,
# NULs and the separators \x1c-\x1f that loadtxt strips as whitespace.
CELL_CORPUS = ["", " 1 ", "\t1", "1_0", "１２", "١.٥", "1.", ".5", "+.5e-3", "1e-400",
               "4.9e-324", "-0", "nan", "INF", "0x10", "1d5", "1e", "1\x00", "1\x1c",
               "\x1f1", "1\x85", "1e5000", "0" * 30 + "7"]


@pytest.mark.parametrize("rows_per_block", [1, 2, 7, None])
@pytest.mark.parametrize("cell", CELL_CORPUS)
def test_loadtxt_blocks_read_a_cell_as_the_csv_code_does(monkeypatch, cell, rows_per_block):
    text = f"x,Time(s),y,Class\n1,0,2,A\n{cell},0,3,B\n4,0,{cell},A\n5,0,6,B\n"
    fast, plain = _both_parsers(monkeypatch, text, 2, rows_per_block)
    assert fast == plain


WHOLE_LOGS = {
    "crlf": "x,y,Class\r\n1.5,2,A\r\n\r\n3,4,B\r\n",
    "cr": "x,y,Class\r1.5,2,A\r\r3,4,B\r",
    "no final newline": "x,y,Class\n1,2,A\n3,4,B",
    "blank lines": "x,y,Class\n\n1,2,A\n\n\n3,4,B\n\n",
    "whitespace-only line": "x,y,Class\n1,2,A\n   \n3,4,B\n",
    "tab-only line": "x,y,Class\n1,2,A\n3,4,B\n\t\n",
    "whitespace-only label": "Class\nA\n  \nB\n",
    "quoted labels": 'x,y,Class\n1,2,"A"\n3,4,"B,C"\n5,6,"D ""q"""\n7,8,A\n',
    "quoted number": 'x,y,Class\n1,2,A\n"3",4,B\n5,"6.5",A\n',
    "spaced and non-ASCII labels": "x,Class\n1, A \n2,Ä\n3,A\n4, A \n",
    "label ending in a NUL": "x,y,Class\n1,2,A\n3,4,B\x00\n5,6,A\n",
    "NUL inside a label": "x,y,Class\n1,2,A\x00B\n3,4,A\n",
    "non-numeric PathOrder": "x,PathOrder,Class\n1,leg one,A\n2,leg two,B\n3,,B\n",
    "over-limit label": "x,Class\n1,A\n2," + "B" * 200_000 + "\n3,A\n",
    "over-limit cell": "x,Class\n1,A\n" + "0" * 200_000 + "2,B\n",
    "header only": "x,y,Class\n",
    "header and blank lines": "x,y,Class\n\n\r\n\n",
    "extra field": "x,Class\n1,A,\n2,B,\n",
    "extra numeric field": "x,Class\n1,A,7\n2,B,8\n",
    "bad cell then ragged row": "x,y,Class\n1,oops,A\n3,4,A\n5,6,B\n7,8,B\n9,B\n",
    "lone carriage return": "x,y,Class\n1,2,A\n3,4\r5,B\n",
}


@pytest.mark.parametrize("newline", ["", "\n"])  # "\n": a lone CR stays inside its line
@pytest.mark.parametrize("rows_per_block", [1, 2, 7, None])
@pytest.mark.parametrize("name", sorted(WHOLE_LOGS))
def test_loadtxt_blocks_read_a_log_as_the_csv_code_does(monkeypatch, name, rows_per_block,
                                                         newline):
    text = WHOLE_LOGS[name]
    n_channels = len(next(csv.reader(io.StringIO(text, newline="")))) - 1
    fast, plain = _both_parsers(monkeypatch, text, n_channels, rows_per_block, newline)
    assert fast == plain


def test_a_clean_log_never_reaches_the_csv_code(monkeypatch):
    # Every block of a log of plain numbers goes through np.loadtxt, into
    # one C-ordered buffer of exactly the rows read.
    text = mixed_trip_text(rows_per_label=30, n_channels=4)
    monkeypatch.setattr(ingest, "_PARSE_BLOCK_CELLS", 7 * 4)
    fast, plain = _both_parsers(monkeypatch, text, 4, None)
    assert fast == plain
    monkeypatch.setattr(ingest, "_row_blocks", None)
    ds = ingest.load_dataset(io.StringIO(text))
    assert ds.channels.shape == (102, 4) and ds.channels.flags.owndata
    assert fast[1] == ds.channels.tobytes()


def test_load_dataset_peak_memory_is_channels_plus_one_block():
    # A log 24 blocks long.  Holding the text of every cell at once, as a
    # whole-file parse does, peaks above 11x the channels here.
    n_channels = 16
    rows = 24 * ingest._PARSE_BLOCK_CELLS // n_channels
    stream = io.StringIO(mixed_trip_text(rows_per_label=rows // 3, n_channels=n_channels))
    ds, peak = traced_peak(lambda: ingest.load_dataset(stream))
    assert len(ds) >= rows
    block_text = 100 * ingest._PARSE_BLOCK_CELLS  # str objects, row lists, csv rows
    assert peak < 3 * ds.channels.nbytes + 2 * block_text


def test_non_numeric_cell_names_the_column():
    stream = io.StringIO("x,y,Class\n1,2,A\n3,oops,B\n")
    with pytest.raises(NonNumericCell) as exc:
        ingest.load_dataset(stream)
    msg = str(exc.value)
    assert "y" in msg and "oops" in msg


def test_non_finite_cells_rejected():
    stream = io.StringIO("x,y,Class\n1,inf,A\n")
    with pytest.raises(NonNumericCell):
        ingest.load_dataset(stream)


def test_empty_dataset_rejected():
    with pytest.raises(EmptyDataset):
        ingest.load_dataset(io.StringIO("x,y,Class\n"))


def test_blank_lines_are_skipped():
    stream = io.StringIO("x,y,Class\n1,2,A\n\n3,4,B\n\n")
    assert len(ingest.load_dataset(stream)) == 2


def test_filter_labels(trip_dataset):
    sub = ingest.filter_labels(trip_dataset, ("A", "C"))
    assert len(sub) == 240
    assert sub.label_alphabet == ("A", "C")
    assert set(sub.labels) == {"A", "C"}


def test_filter_labels_unknown_label(trip_dataset):
    with pytest.raises(UnknownLabel):
        ingest.filter_labels(trip_dataset, ("A", "Z"))


def test_filter_labels_rejects_a_label_ending_in_a_nul(trip_dataset):
    with pytest.raises(UnknownLabel, match=r"\['A\\x00'\] are not in"):
        ingest.filter_labels(trip_dataset, ["A\0"])


def test_filter_labels_empty_keep(trip_dataset):
    with pytest.raises(DriverIdError):
        ingest.filter_labels(trip_dataset, ())


def test_filter_labels_rejects_a_bare_string(trip_dataset):
    # "AC" is not the labels A and C; RunConfig's keep_labels says the same.
    with pytest.raises(InvalidOption, match="keep"):
        ingest.filter_labels(trip_dataset, "AC")


def test_class_distribution_sums_to_one(trip_dataset):
    dist = ingest.class_distribution(trip_dataset)
    assert sorted(dist) == ["A", "B", "C"]
    assert abs(sum(dist.values()) - 1.0) < 1e-12
    assert dist["A"] == 120 / 360


def _random_dataset(seed, n=500):
    rng = np.random.default_rng(seed)
    names = ("b", "A", "10", "9", "é", "a")
    labels = tuple(names[i] for i in rng.integers(0, len(names), n))
    return ingest.TripDataset(
        column_names=("x", "y"),
        channels=rng.normal(size=(n, 2)),
        labels=labels,
        label_alphabet=tuple(sorted(set(labels))),
    )


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_class_distribution_matches_counter_oracle(seed):
    ds = _random_dataset(seed)
    counts = Counter(ds.labels)
    expect = {lab: counts[lab] / len(ds) for lab in sorted(counts)}
    dist = ingest.class_distribution(ds)
    assert dist == expect
    assert list(dist) == list(expect)


@pytest.mark.parametrize("keep", [("A",), ("é", "9", "b"), ("10", "a", "a")])
def test_filter_labels_matches_comprehension_oracle(keep):
    ds = _random_dataset(3)
    sub = ingest.filter_labels(ds, keep)
    rows = [i for i, lab in enumerate(ds.labels) if lab in keep]
    assert sub.labels == tuple(ds.labels[i] for i in rows)
    assert all(type(lab) is str for lab in sub.labels)
    assert sub.label_alphabet == tuple(sorted(set(keep)))
    np.testing.assert_array_equal(sub.channels, ds.channels[rows])
    assert sub.codes.tolist() == [sub.label_alphabet.index(lab) for lab in sub.labels]


def test_to_csv_round_trip(tmp_path, trip_dataset):
    path = str(tmp_path / "echo.csv")
    ds = trip_dataset
    ingest.write_csv(
        path, ds.column_names, ds.channels, ds.label_alphabet, ds.codes, ds.label_column
    )
    back = ingest.load_dataset(path, exclude_columns=())
    assert back.column_names == trip_dataset.column_names
    assert back.labels == trip_dataset.labels
    np.testing.assert_array_equal(back.channels, trip_dataset.channels)


@pytest.mark.parametrize("n_codes", [2, 4])
def test_write_csv_needs_one_code_per_row(tmp_path, n_codes):
    path = tmp_path / "m.csv"
    with pytest.raises(DriverIdError, match=f"{n_codes} label codes for 3 rows"):
        ingest.write_csv(path, ("x",), np.zeros((3, 1)), ("A",), np.zeros(n_codes, int), "Class")
    assert not path.exists()
    with pytest.raises(UnknownLabel):
        ingest.write_csv(path, ("x",), np.zeros((3, 1)), ("A",), np.ones(3, int), "Class")


def test_grouped_layout_from_helper(tmp_path):
    # labels arrive as contiguous runs, like real per-driver trips
    path = write_trip_csv(str(tmp_path / "t.csv"), labels=("X", "Y"), rows_per_label=5)
    ds = ingest.load_dataset(path)
    assert ds.labels == ("X",) * 5 + ("Y",) * 5


# -- chunked CSV write -------------------------------------------------------

def _per_row_write_csv(column_names, rows, labels, label_column):
    """The writer before chunking: one csv.writer row of repr cells per row."""
    stream = io.StringIO()
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow([*column_names, label_column])
    for row, label in zip(rows, labels):
        writer.writerow([repr(float(v)) for v in row] + [label])
    return stream.getvalue()


def _chunked_write_csv(column_names, rows, labels, label_column):
    stream = io.StringIO()
    ingest.write_csv(stream, column_names, rows, *ingest.encode_labels(labels), label_column)
    return stream.getvalue()


AWKWARD_LABELS = ("", "a,b", 'say "hi"', "x\ny", " lead", "a;b", "a\tb")
AWKWARD_CELLS = (-0.0, 5e-324, 1e16, 1e-05, 9.999999999999999e15, float("inf"), float("nan"))


def test_chunked_write_matches_the_per_row_writer(tmp_path):
    names = ("plain", "with,comma", "with;semicolon", "with\ttab")
    n = len(AWKWARD_LABELS) * 3
    rows = np.resize(np.asarray(AWKWARD_CELLS), (n, len(names)))
    labels = [AWKWARD_LABELS[i % len(AWKWARD_LABELS)] for i in range(n)]
    path = tmp_path / "trip.csv"
    ingest.write_csv(path, names, rows, *ingest.encode_labels(labels), 'the "class"')
    want = _per_row_write_csv(names, rows, labels, 'the "class"')
    assert path.read_bytes() == want.encode("utf-8")
    assert _chunked_write_csv(names, rows, labels, 'the "class"') == want


@pytest.mark.parametrize("n_rows", [0, 1])
@pytest.mark.parametrize("n_cols", [0, 1, 3])
def test_chunked_write_of_few_rows_or_no_columns(n_rows, n_cols):
    rows = np.arange(n_rows * n_cols, dtype=np.float64).reshape(n_rows, n_cols) - 0.5
    labels = [""] * n_rows  # a lone empty field is written as ""
    args = (tuple(f"c{j}" for j in range(n_cols)), rows, labels, "Class")
    assert _chunked_write_csv(*args) == _per_row_write_csv(*args)


@pytest.mark.parametrize("extra_rows", [-1, 0, 1])
def test_chunked_write_across_a_chunk_boundary(monkeypatch, extra_rows):
    monkeypatch.setattr(ingest, "_WRITE_CHUNK_BYTES", 4 * 3 * 8)  # four rows of three cells
    rng = np.random.default_rng(4)
    rows = rng.normal(size=(4 + extra_rows, 3)) * 10.0 ** rng.integers(-20, 20, size=(1, 3))
    labels = ["B", "a,b", "A", "B", "A"][: len(rows)]
    args = (("x", "y", "z"), rows, labels, "Class")
    assert _chunked_write_csv(*args) == _per_row_write_csv(*args)


def test_chunked_write_of_float32_cells():
    rows = np.random.default_rng(5).normal(size=(7, 2)).astype(np.float32)
    args = (("x", "y"), rows, ["A"] * 7, "Class")
    assert _chunked_write_csv(*args) == _per_row_write_csv(*args)


def test_chunked_write_peak_memory_is_a_few_chunks():
    # Formatting all 20,000 rows at once holds some 49 MB of Python floats
    # and strings, fifty times this bound.  The labels are never decoded:
    # each row's line tail is looked up by its code.
    class Sink:
        def write(self, text):
            return len(text)

        def writelines(self, lines):
            pass

    n, d = 20_000, 45
    matrix = FeatureMatrix(
        tuple(f"c{j}" for j in range(d)),
        np.random.default_rng(9).normal(size=(n, d)),
        *ingest.encode_labels(["ABCDEFGHIJ"[i * 10 // n] for i in range(n)]),
    )
    _, peak = traced_peak(lambda: matrix.to_csv(Sink()))
    assert peak < 16 * ingest._WRITE_CHUNK_BYTES
