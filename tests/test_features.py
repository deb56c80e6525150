"""Feature selection, normalization, sliding-window extraction."""

import copy
import io
import warnings

import numpy as np
import pytest

from driverid import evaluate, features, ingest
from driverid.errors import (
    ColumnCountMismatch,
    DriverIdError,
    InvalidOption,
    UnknownFeatureName,
    UnknownLabel,
    WindowLongerThanSeries,
)
from driverid.features import (
    DEFAULT_FIXED_FEATURES,
    FeatureMatrix,
    NormalizationParams,
    WindowSpec,
    apply_normalizer,
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


def _speed_twice():
    # Two header names that fold to one key; "speed" holds the larger values.
    return _dataset(["Speed", "speed"], [[1.0, 10.0], [2.0, 20.0], [3.0, 30.0]], ["A"] * 3)


def test_fixed_list_exact_name_wins_over_a_folded_one():
    ds = _speed_twice()
    assert select_features(ds, "fixed-list", feature_list=["speed"]).kept == ("speed",)
    assert select_features(ds, "fixed-list", feature_list=["Speed"]).kept == ("Speed",)
    with pytest.raises(UnknownFeatureName, match=r"'SPEED' matches columns \['Speed', 'speed'\]"):
        select_features(ds, "fixed-list", feature_list=["SPEED"])


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


@pytest.mark.parametrize("mode", ["correlation-ranked", "fixed-list"])
@pytest.mark.parametrize("name", ["irrelevance_threshold", "correlation_threshold"])
def test_selection_thresholds_are_finite_and_not_negative(trip_dataset, mode, name):
    for bad in (float("nan"), float("inf"), -float("inf"), "x", True, -0.1):
        with pytest.raises(InvalidOption, match=name):
            select_features(trip_dataset, mode, **{name: bad})
    # Above any |r|, a correlation threshold keeps every column.
    select_features(trip_dataset, "correlation-ranked", **{name: 2.0})


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


def test_normalizer_out_scales_in_place_to_the_same_bits():
    rng = np.random.default_rng(4)
    X = rng.normal(5.0, 3.0, size=(40, 4))
    X[:, 2] = 1.5  # a constant column
    params = fit_normalizer(X[:30])
    want = apply_normalizer(params, X)
    got = X.copy()
    assert apply_normalizer(params, got, out=got) is got
    assert got.tobytes() == want.tobytes()


def test_normalizer_column_count_mismatch():
    params = fit_normalizer(np.zeros((3, 2)))
    with pytest.raises(ColumnCountMismatch):
        apply_normalizer(params, np.zeros((3, 5)))


def test_normalizer_dict_round_trip():
    params = fit_normalizer(np.random.default_rng(4).normal(size=(20, 3)))
    again = NormalizationParams.from_dict(params.to_dict())
    np.testing.assert_array_equal(again.mins, params.mins)
    np.testing.assert_array_equal(again.maxs, params.maxs)


@pytest.mark.parametrize("mins, maxs", [
    ([float("nan")], [1.0]),
    ([0.0], [float("nan")]),
    ([0.0, float("-inf")], [1.0, 1.0]),
    ([0.0], [float("inf")]),
])
def test_normalizer_params_must_be_finite(mins, maxs):
    # A NaN bound would make apply_normalizer return NaN without a word.
    with pytest.raises(DriverIdError, match="finite"):
        NormalizationParams.from_dict({"mins": mins, "maxs": maxs})


@pytest.mark.parametrize("doc", [
    pytest.param([1], id="a-list"),
    pytest.param("mins", id="a-string"),
    pytest.param({}, id="empty"),
    pytest.param({"mins": [0.0]}, id="no-maxs"),
    pytest.param({"maxs": [1.0]}, id="no-mins"),
])
def test_a_normalizer_that_is_not_an_object_with_its_keys_is_a_data_error(doc):
    with pytest.raises(DriverIdError, match="normalizer"):
        NormalizationParams.from_dict(doc)


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
    for stats in (("mean", "mode"), ("mean", None), ()):
        with pytest.raises(InvalidOption, match="statistic"):
            WindowSpec(statistics=stats)


def test_window_statistics_must_be_a_list_of_names():
    with pytest.raises(InvalidOption, match="got 'mean'"):
        WindowSpec(statistics="mean")


def test_a_channel_requested_twice_is_an_invalid_option():
    ds = _dataset(["Rpm", "Speed", "S", "p", "e", "d"],
                  [[float(i), 2.0 * i, 0, 1, 2, 3] for i in range(8)], ["A"] * 8)
    with pytest.raises(InvalidOption, match="column 'Rpm' a second time"):
        select_features(ds, feature_list=["Rpm", "rpm"])
    with pytest.raises(InvalidOption, match="column 'Rpm' a second time"):
        extract_windows(ds, ["Rpm", "Speed", "Rpm"], WindowSpec(length=2))
    # A bare string is not a list of its characters.
    with pytest.raises(InvalidOption, match="feature_list must be a list of names"):
        select_features(ds, feature_list="Speed")
    with pytest.raises(InvalidOption, match="kept must be a list of names"):
        extract_windows(ds, "Sped", WindowSpec(length=2))
    assert select_features(ds, feature_list=["speed", "Rpm"]).kept == ("Speed", "Rpm")


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


def test_extract_windows_exact_name_wins_over_a_folded_one():
    ds = _speed_twice()
    spec = WindowSpec(length=2, stride=1, statistics=("mean",))
    matrix, _ = extract_windows(ds, ["speed"], spec)
    assert matrix.column_names == ("speed_mean",)
    np.testing.assert_array_equal(matrix.features[:, 0], [15.0, 25.0])
    with pytest.raises(UnknownFeatureName, match="'SPEED' matches columns"):
        extract_windows(ds, ["SPEED"], spec)


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


ADVERSARIAL_VALUES = {
    "signed zeros": (0.0, -0.0, 1.0, -1.0, 2.5),
    "non-finite": (0.0, -0.0, 1.0, -1.0, 2.5, np.inf, -np.inf, np.nan),
    "overflowing": (1.7e308, -1.7e308, 1e308, 0.0, -0.0),
    "mostly zero": (0.0, -0.0, 0.0, -0.0, 0.0, 5e-324),
}


def _median_and_warnings(fn, wins):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = fn(wins)
    return result, sorted({(w.category.__name__, str(w.message)) for w in caught})


@pytest.mark.parametrize("length", [2, 3, 4, 5, 59, 60, 61])
@pytest.mark.parametrize("values", list(ADVERSARIAL_VALUES))
def test_window_median_is_numpys_median_bit_for_bit(length, values):
    rng = np.random.default_rng(length)
    pool = np.asarray(ADVERSARIAL_VALUES[values])
    for batch in range(50):
        shape = [(6, 3, length), (5, length), (1, 1, length)][batch % 3]
        wins = rng.choice(pool, size=shape)
        got, got_warnings = _median_and_warnings(features._window_median, wins)
        want, want_warnings = _median_and_warnings(lambda w: np.median(w, axis=-1), wins)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert got_warnings == want_warnings


@pytest.mark.parametrize("length", [2, 3, 60, 61])
def test_window_median_of_finite_windows_raises_no_warning(length):
    rng = np.random.default_rng(length)
    wins = rng.normal(size=(40, 5, length)) * 10.0 ** rng.integers(-300, 300, size=(40, 5, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = features._window_median(wins)
    assert np.array_equal(got.view(np.int64), np.median(wins, axis=-1).view(np.int64))


@pytest.mark.parametrize("windows_per_chunk", [1, 2, 7])
def test_window_chunks_with_signed_zeros_match_the_default_chunk(monkeypatch, windows_per_chunk):
    # Zero medians are recomputed by np.median on a chunk's rows; the sign
    # it picks must not depend on which rows share the chunk.
    rng = np.random.default_rng(12)
    n, d = 90, 3
    ds = ingest.TripDataset(
        column_names=("a", "b", "c"),
        channels=rng.choice([0.0, -0.0, 1.0, -1.0, 0.5], size=(n, d)),
        labels=("A",) * 40 + ("B",) * 50,
        label_alphabet=("A", "B"),
    )
    for length in (4, 5):
        spec = WindowSpec(length=length, stride=1)
        want, _ = extract_windows(ds, ds.column_names, spec)
        window_bytes = d * length * 8
        with monkeypatch.context() as patch:
            patch.setattr(features, "_WINDOW_CHUNK_BYTES", windows_per_chunk * window_bytes)
            got, _ = extract_windows(ds, ds.column_names, spec)
        assert np.array_equal(got.features.view(np.int64), want.features.view(np.int64))
        starts = np.r_[0 : 41 - length, 40 : n - length + 1]  # label-uniform windows
        wins = np.lib.stride_tricks.sliding_window_view(ds.channels, length, axis=0)[starts]
        medians = want.features[:, 1::3]
        assert np.array_equal(medians.view(np.int64), np.median(wins, axis=-1).view(np.int64))
        zero_windows = wins[medians == 0]
        assert (np.signbit(zero_windows) & (zero_windows == 0)).any()


def _old_ranked_selection(ds, *, k=15, irrelevance_threshold=0.01, correlation_threshold=0.95):
    """The correlation-ranked walk before the variance screen: every
    candidate is compared with every kept column by np.array_equal."""
    X, names = ds.channels, ds.column_names
    variances = X.var(axis=0)
    z = X - X.mean(axis=0)
    scores = features._label_correlation_scores(z, np.sqrt(variances), ds.codes)
    candidates = sorted((j for j in range(len(names)) if variances[j] > 0.0),
                        key=lambda j: (-scores[j], j))
    with np.errstate(invalid="ignore", divide="ignore"):
        z /= np.where(variances > 0, np.sqrt(variances), 1.0)
    corr = (z.T @ z) / X.shape[0]
    kept, superfluous, correlated, irrelevant = [], [], [], []
    for j in candidates:
        if any(np.array_equal(X[:, i], X[:, j]) for i in kept):
            superfluous.append(names[j])
        elif any(abs(corr[i, j]) > correlation_threshold for i in kept):
            correlated.append(names[j])
        elif scores[j] < irrelevance_threshold or len(kept) >= k:
            irrelevant.append(names[j])
        else:
            kept.append(j)
    return {
        "kept": [names[j] for j in kept],
        "discarded_homogeneous": [names[j] for j in range(len(names)) if variances[j] == 0.0],
        "discarded_irrelevant": irrelevant,
        "discarded_superfluous": superfluous,
        "discarded_correlated": correlated,
        "scores": {name: float(scores[j]) for j, name in enumerate(names)},
        "metadata": {
            "mode": "correlation-ranked",
            "k": k,
            "irrelevance_threshold": irrelevance_threshold,
            "correlation_threshold": correlation_threshold,
        },
    }


def _copies_log(seed):
    """Columns with exact copies, near copies, reversals (equal variance,
    not equal) and copies equal only up to the sign of their zeros."""
    rng = np.random.default_rng(seed)
    n = 256  # small integers over a power of two: exact means and variances
    driver = np.arange(n) * 3 // n
    labels = tuple("ABC"[c] for c in driver)
    steps = (driver + rng.integers(0, 4, size=n)).astype(np.float64)
    signal = np.array([0.0, 1.0, 3.0])[driver] + rng.normal(0, 0.5, size=n)
    noise = rng.normal(size=n)
    zeros = np.where(rng.random(n) < 0.5, 0.0, signal)
    cols = {
        "signal": signal,
        "signal_copy": signal.copy(),
        "signal_near": signal + 1e-12,
        "signal_reversed": signal[::-1].copy(),
        "steps": steps,
        "steps_reversed": steps[::-1].copy(),
        "noise": noise,
        "noise_reversed": noise[::-1].copy(),
        "noise_copy": noise.copy(),
        "zeros": zeros,
        "zeros_negated_zeros": np.where(zeros == 0, -0.0, zeros),
        "flat": np.full(n, 2.0),
    }
    names = tuple(cols)
    return names, np.column_stack([cols[c] for c in names]), labels


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("layout", ["C", "Fortran", "sliced"])
@pytest.mark.parametrize("correlation_threshold", [0.95, 2.0])
def test_variance_screen_keeps_every_selection_report(seed, layout, correlation_threshold):
    names, rows, labels = _copies_log(seed)
    if layout == "Fortran":
        rows = np.asfortranarray(rows)
    elif layout == "sliced":
        wide = np.zeros((rows.shape[0], 2 * rows.shape[1]))
        wide[:, ::2] = rows
        rows = wide[:, ::2]
    ds = ingest.TripDataset(names, rows, labels, ("A", "B", "C"))
    got = select_features(ds, "correlation-ranked", k=8,
                          correlation_threshold=correlation_threshold).to_dict()
    want = _old_ranked_selection(ds, k=8, correlation_threshold=correlation_threshold)
    assert got == want
    variances = ds.channels.var(axis=0)
    assert variances[names.index("steps")] == variances[names.index("steps_reversed")]
    if correlation_threshold > 1:  # nothing is shadowed: copies are found by equality
        assert sorted(got["discarded_superfluous"]) == [
            "noise_copy", "signal_copy", "zeros_negated_zeros"]
        assert {"steps", "steps_reversed"} <= set(got["kept"])


# -- FeatureMatrix -----------------------------------------------------------

def test_feature_matrix_csv_round_trip(tmp_path):
    rng = np.random.default_rng(6)
    m = FeatureMatrix(
        ("p_mean", "p_std"), rng.normal(size=(12, 2)), *ingest.encode_labels(["A", "B"] * 6)
    )
    path = str(tmp_path / "m.csv")
    m.to_csv(path)
    back = FeatureMatrix.from_csv(path)
    assert back.column_names == m.column_names
    assert back.labels == m.labels
    np.testing.assert_array_equal(back.features, m.features)  # bit-exact


def test_feature_matrix_encodes_its_labels_once():
    labels = ["J", "10", "b", "9", "J", "b"]
    m = FeatureMatrix(("f",), np.zeros((6, 1)), *ingest.encode_labels(labels))
    assert m.label_alphabet == tuple(sorted(set(labels)))
    assert m.codes.tolist() == [m.label_alphabet.index(v) for v in labels]


def test_feature_matrix_labels_must_be_1d():
    with pytest.raises(UnknownLabel, match="labels must be a 1-D sequence"):
        FeatureMatrix(("f",), np.zeros((2, 1)), *ingest.encode_labels("AB"))


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
        ("AB", [1, 0, 1]),  # a string, not a list of labels
        (("A", 1), [1, 0, 1]),  # not all strings
    ]:
        with pytest.raises(DriverIdError):
            FeatureMatrix(("f",), X, alphabet, np.array(codes))


def test_array_holding_types_compare_by_identity():
    # A generated __eq__ would compare the ndarray fields and raise ValueError.
    ds = _dataset(["x"], [[float(i)] for i in range(12)], ["A"] * 6 + ["B"] * 6)
    matrix, _ = extract_windows(ds, ("x",), WindowSpec(length=2, stride=1))
    folds = evaluate.Folds.build(matrix, evaluate.CvPlan(folds=2))
    report = evaluate.cross_validate("zeror", None, folds)
    cm = evaluate.ConfusionMatrix(report.classes, report.counts)
    for value in (ds, matrix, folds.params[0], cm, report, folds):
        assert (value == copy.copy(value)) is False
        assert (value == value) is True


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


@pytest.mark.parametrize("mode", ["correlation-ranked", "fixed-list"])
def test_select_features_takes_a_whole_feature_count(trip_dataset, mode):
    for bad in (2.5, 0, True):
        with pytest.raises(DriverIdError, match="feature_count"):
            select_features(trip_dataset, mode, k=bad)
