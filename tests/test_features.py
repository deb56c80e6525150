"""Feature selection, normalization, sliding-window extraction."""

import io

import numpy as np
import pytest

from driverid import features, ingest
from driverid.errors import (
    ColumnCountMismatch,
    DriverIdError,
    UnknownFeatureName,
    WindowLongerThanSeries,
)
from driverid.features import (
    DEFAULT_FIXED_FEATURES,
    FeatureMatrix,
    NormalizationParams,
    WindowSpec,
    apply_normalizer,
    column_stats,
    extract_windows,
    fit_normalizer,
    select_features,
    window_count,
)

from conftest import mixed_trip_text, traced_peak


def _dataset(columns, rows, labels):
    text = ",".join(list(columns) + ["Class"]) + "\n"
    for row, lab in zip(rows, labels):
        text += ",".join(str(v) for v in row) + f",{lab}\n"
    return ingest.load_dataset(io.StringIO(text))


# -- selection ---------------------------------------------------------------

def test_fixed_list_matches_loose_spellings():
    # the canonical 15 names resolve case/punctuation-insensitively
    cols = [name.upper().replace(" ", "_").replace("-", "_") for name in DEFAULT_FIXED_FEATURES]
    rng = np.random.default_rng(0)
    rows = rng.normal(size=(30, 15))
    labels = ["A"] * 15 + ["B"] * 15
    ds = _dataset(cols, rows, labels)
    report = select_features(ds, "fixed-list")
    assert len(report.kept) == 15
    assert set(report.kept) == set(cols)


def test_fixed_list_friction_torque_alias():
    cols = ["Torque_of_friction", "Other"]
    ds = _dataset(cols, [[1.0, 2.0], [3.0, 4.0]], ["A", "B"])
    report = select_features(ds, "fixed-list", feature_list=("Friction torque",))
    assert report.kept == ("Torque_of_friction",)


def test_fixed_list_unknown_feature():
    ds = _dataset(["x", "y"], [[1, 2], [3, 4]], ["A", "B"])
    with pytest.raises(UnknownFeatureName):
        select_features(ds, "fixed-list", feature_list=("nonexistent_channel",))


def test_selection_report_buckets_are_disjoint_cover():
    rng = np.random.default_rng(1)
    n = 200
    labels = ["A" if i < n // 2 else "B" for i in range(n)]
    # a perfect indicator: correlation with the label is exactly 1, so the
    # noisy copy below can only rank behind it
    signal = np.asarray([0.0 if l == "A" else 5.0 for l in labels])
    cols = {
        "signal": signal,
        "signal_copy": signal.copy(),           # exact duplicate -> superfluous
        "signal_shifted": signal + 0.01 * rng.normal(size=n),  # r > 0.95 -> correlated
        "flat": np.zeros(n),                    # zero variance -> homogeneous
        "noise": rng.normal(size=n),            # low relevance -> irrelevant
    }
    names = list(cols)
    rows = np.column_stack([cols[c] for c in names])
    ds = _dataset(names, rows, labels)
    report = select_features(ds, "correlation-ranked", k=5, irrelevance_threshold=0.12)
    assert report.kept == ("signal",)
    assert report.discarded_superfluous == ("signal_copy",)
    assert report.discarded_correlated == ("signal_shifted",)
    assert report.discarded_homogeneous == ("flat",)
    assert report.discarded_irrelevant == ("noise",)
    buckets = (
        report.kept
        + report.discarded_homogeneous
        + report.discarded_irrelevant
        + report.discarded_superfluous
        + report.discarded_correlated
    )
    assert sorted(buckets) == sorted(names)


def test_ranked_selection_caps_at_k():
    rng = np.random.default_rng(2)
    n = 100
    labels = ["A"] * 50 + ["B"] * 50
    y = np.asarray([0.0] * 50 + [1.0] * 50)
    rows = np.column_stack([y + rng.normal(0, 0.3 + j, size=n) for j in range(6)])
    ds = _dataset([f"c{j}" for j in range(6)], rows, labels)
    report = select_features(ds, "correlation-ranked", k=3, correlation_threshold=2.0)
    assert len(report.kept) == 3
    # the strongest channel (least noise) ranks first
    assert report.kept[0] == "c0"
    assert report.scores["c0"] >= report.scores["c1"]


def test_selection_rejects_unknown_mode(trip_dataset):
    with pytest.raises(DriverIdError):
        select_features(trip_dataset, "chi-squared")


# -- normalization -----------------------------------------------------------

def test_normalizer_maps_train_to_unit_interval():
    rng = np.random.default_rng(3)
    X = rng.normal(5.0, 3.0, size=(50, 4))
    params = fit_normalizer(X)
    Z = apply_normalizer(params, X)
    assert Z.min() >= 0.0 and Z.max() <= 1.0
    np.testing.assert_allclose(Z.min(axis=0), 0.0, atol=1e-12)
    np.testing.assert_allclose(Z.max(axis=0), 1.0, atol=1e-12)


def test_normalizer_constant_column_maps_to_zero():
    X = np.column_stack([np.full(10, 7.0), np.arange(10.0)])
    params = fit_normalizer(X)
    Z = apply_normalizer(params, X)
    assert (Z[:, 0] == 0.0).all()


def test_normalizer_does_not_clip_unseen_values():
    X = np.array([[0.0], [10.0]])
    params = fit_normalizer(X)
    Z = apply_normalizer(params, np.array([[20.0], [-10.0]]))
    assert Z[0, 0] == 2.0 and Z[1, 0] == -1.0


def test_normalizer_column_count_mismatch():
    params = fit_normalizer(np.zeros((3, 2)))
    with pytest.raises(ColumnCountMismatch):
        apply_normalizer(params, np.zeros((3, 5)))


def test_normalizer_dict_round_trip():
    params = fit_normalizer(np.random.default_rng(4).normal(size=(20, 3)))
    again = NormalizationParams.from_dict(params.to_dict())
    np.testing.assert_array_equal(again.mins, params.mins)
    np.testing.assert_array_equal(again.maxs, params.maxs)


# -- windows -----------------------------------------------------------------

def test_window_count_formula():
    assert window_count(10, 10, 1) == 1
    assert window_count(10, 3, 1) == 8
    assert window_count(10, 4, 2) == 4
    assert window_count(10, 4, 3) == 3


def test_window_spec_validation():
    with pytest.raises(DriverIdError):
        WindowSpec(length=0)
    with pytest.raises(DriverIdError):
        WindowSpec(stride=0)
    with pytest.raises(DriverIdError):
        WindowSpec(statistics=("mean", "mode"))


def test_extract_windows_statistics_against_numpy():
    rng = np.random.default_rng(5)
    rows = rng.normal(size=(40, 2))
    ds = _dataset(["u", "v"], rows, ["A"] * 40)
    matrix, dropped = extract_windows(ds, ("u", "v"), WindowSpec(length=8, stride=4))
    assert dropped == 0
    assert len(matrix) == window_count(40, 8, 4)
    assert matrix.column_names == (
        "u_mean", "u_median", "u_std", "v_mean", "v_median", "v_std",
    )
    w0 = rows[0:8]
    np.testing.assert_allclose(matrix.features[0, 0], w0[:, 0].mean())
    np.testing.assert_allclose(matrix.features[0, 1], np.median(w0[:, 0]))
    np.testing.assert_allclose(matrix.features[0, 2], w0[:, 0].std())  # population
    w1 = rows[4:12]
    np.testing.assert_allclose(matrix.features[1, 3], w1[:, 1].mean())


def test_extract_windows_drops_label_changes():
    rows = [[float(i)] for i in range(8)]
    ds = _dataset(["x"], rows, ["A"] * 4 + ["B"] * 4)
    matrix, dropped = extract_windows(ds, ("x",), WindowSpec(length=4, stride=1))
    # starts 0..4; only 0 (all A) and 4 (all B) are label-pure
    assert len(matrix) == 2
    assert dropped == 3
    assert matrix.labels == ("A", "B")


def test_extract_windows_too_long():
    ds = _dataset(["x"], [[1.0], [2.0]], ["A", "A"])
    with pytest.raises(WindowLongerThanSeries):
        extract_windows(ds, ("x",), WindowSpec(length=3))


def test_extract_windows_subset_and_order():
    rows = np.arange(30.0).reshape(10, 3)
    ds = _dataset(["a", "b", "c"], rows, ["A"] * 10)
    matrix, _ = extract_windows(ds, ("c", "a"), WindowSpec(length=5, stride=5, statistics=("mean",)))
    assert matrix.column_names == ("c_mean", "a_mean")
    np.testing.assert_allclose(matrix.features[0], [rows[:5, 2].mean(), rows[:5, 0].mean()])


@pytest.mark.parametrize("windows_per_chunk", [1, 2, 7])
@pytest.mark.parametrize("stride", [1, 3])
def test_window_chunks_match_the_default_chunk(monkeypatch, windows_per_chunk, stride):
    # The default budget holds every window of this log in one chunk.
    ds = ingest.load_dataset(io.StringIO(mixed_trip_text(rows_per_label=30, n_channels=4)))
    kept = ("ch2", "ch0", "ch3")
    spec = WindowSpec(length=6, stride=stride)
    want, want_dropped = extract_windows(ds, kept, spec)
    window_bytes = len(kept) * spec.length * 8
    monkeypatch.setattr(
        features, "_WINDOW_CHUNK_BYTES", windows_per_chunk * window_bytes + window_bytes - 1
    )
    got, dropped = extract_windows(ds, kept, spec)
    assert want_dropped > 0 and len(set(want.labels)) == 3
    assert dropped == want_dropped
    assert np.array_equal(got.features.view(np.int64), want.features.view(np.int64))
    assert got.labels == want.labels
    assert got.column_names == want.column_names
    assert len(want.column_names) == len(kept) * len(features.ALLOWED_STATISTICS)


def test_extract_windows_peak_memory_is_output_plus_a_few_chunks():
    # Gathering all 8,000 windows of 15 channels x 60 samples at once
    # would take 58 MB, twenty times the 2.9 MB output.
    rng = np.random.default_rng(11)
    n, d = 8_059, 15
    ds = ingest.TripDataset(
        column_names=tuple(f"c{j}" for j in range(d)),
        channels=rng.normal(size=(n, d)),
        labels=("A",) * n,
        label_alphabet=("A",),
    )
    (matrix, _), peak = traced_peak(
        lambda: extract_windows(ds, ds.column_names, WindowSpec(length=60))
    )
    assert len(matrix) == 8_000
    assert peak < 2 * matrix.features.nbytes + 4 * features._WINDOW_CHUNK_BYTES


# -- FeatureMatrix / column_stats ---------------------------------------------

def test_feature_matrix_csv_round_trip(tmp_path):
    rng = np.random.default_rng(6)
    m = FeatureMatrix.from_arrays(
        ("p_mean", "p_std"), rng.normal(size=(12, 2)), ["A", "B"] * 6
    )
    path = str(tmp_path / "m.csv")
    m.to_csv(path)
    back = FeatureMatrix.from_csv(path)
    assert back.column_names == m.column_names
    assert back.labels == m.labels
    np.testing.assert_array_equal(back.features, m.features)  # bit-exact


def test_feature_matrix_encodes_its_labels_once():
    labels = ["J", "10", "b", "9", "J", "b"]
    m = FeatureMatrix.from_arrays(("f",), np.zeros((6, 1)), labels)
    assert m.label_alphabet == tuple(sorted(set(labels)))
    assert m.codes.tolist() == [m.label_alphabet.index(v) for v in labels]


def test_feature_matrix_checks_its_codes():
    X = np.zeros((3, 1))
    m = FeatureMatrix(("f",), X, ("A", "B", "C"), np.array([2, 0, 2]))
    assert m.labels == ("C", "A", "C")
    assert m.label_alphabet == ("A", "C")  # B names no row
    assert m.codes.tolist() == [1, 0, 1]
    empty = FeatureMatrix(("f",), np.zeros((0, 1)), ("A",), np.array([]))
    assert empty.label_alphabet == () and empty.labels == ()
    for alphabet, codes in [
        (("B", "A"), [1, 0, 1]),  # not sorted
        (("A", "B"), [1, 0]),  # one code short
        (("A", "B"), [1, 2, 0]),  # out of range
        (("A", "B"), [1.0, 0.0, 1.0]),  # not integers
    ]:
        with pytest.raises(DriverIdError):
            FeatureMatrix(("f",), X, alphabet, np.array(codes))


def test_windows_and_normalizer_pass_the_codes_through():
    # B's two rows hold no label-pure window, so B leaves the alphabet.
    rows = [[float(i)] for i in range(18)]
    ds = _dataset(["x"], rows, ["A"] * 8 + ["B"] * 2 + ["C"] * 8)
    matrix, dropped = extract_windows(ds, ("x",), WindowSpec(length=4, stride=1))
    assert ds.label_alphabet == ("A", "B", "C")
    assert matrix.label_alphabet == ("A", "C")
    assert matrix.codes.tolist() == [0] * 5 + [1] * 5
    assert matrix.labels == ("A",) * 5 + ("C",) * 5
    assert dropped == 5
    scaled = apply_normalizer(fit_normalizer(matrix), matrix)
    assert scaled.label_alphabet == matrix.label_alphabet
    np.testing.assert_array_equal(scaled.codes, matrix.codes)


def test_windows_carry_the_labels_of_their_rows(trip_dataset):
    spec = WindowSpec(length=10, stride=7)
    matrix, _ = extract_windows(trip_dataset, trip_dataset.column_names, spec)
    starts = [
        s for s in range(0, len(trip_dataset) - 9, 7)
        if len(set(trip_dataset.labels[s : s + 10])) == 1
    ]
    assert matrix.labels == tuple(trip_dataset.labels[s] for s in starts)
    assert all(type(lab) is str for lab in matrix.labels)


def test_column_stats_population_std():
    ds = _dataset(["x"], [[1.0], [2.0], [3.0], [4.0]], ["A"] * 4)
    mean, std = column_stats(ds, "x")
    assert mean == 2.5
    np.testing.assert_allclose(std, np.std([1, 2, 3, 4]))  # ddof=0


def test_column_stats_by_index_and_unknown_name():
    ds = _dataset(["x", "y"], [[1.0, 10.0], [3.0, 30.0]], ["A", "B"])
    assert column_stats(ds, 1)[0] == 20.0
    with pytest.raises(UnknownFeatureName):
        column_stats(ds, "z")
