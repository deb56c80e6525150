"""Cross-validation, confusion matrices, metrics, baseline comparison."""

import collections
import json
from dataclasses import asdict

import numpy as np
import pytest

from driverid import evaluate, ingest, models
from driverid.errors import (
    DriverIdError,
    EmptyMatrix,
    InvalidOption,
    NoBaselineDesignated,
    TooFewInstancesPerClass,
    UnknownLabel,
)
from driverid.evaluate import (
    ConfusionMatrix,
    CvPlan,
    Folds,
    MetricsReport,
    baseline_compare,
    confusion_from_predictions,
    cross_validate,
    fold_assignments,
    metrics,
)
from driverid.features import FeatureMatrix, apply_normalizer, fit_normalizer


def small_matrix(seed=0, n_per=30, n_classes=3, d=4, spread=4.0):
    rng = np.random.default_rng(seed)
    X, y = [], []
    for i in range(n_classes):
        X.append(rng.normal(spread * i, 1.0, size=(n_per, d)))
        y += [chr(ord("A") + i)] * n_per
    cols = tuple(f"f{j}" for j in range(d))
    return FeatureMatrix(cols, np.vstack(X), *ingest.encode_labels(y))


# -- confusion matrix ---------------------------------------------------------

def test_confusion_from_predictions_layout():
    cm = confusion_from_predictions([0, 0, 1, 1, 1], [0, 1, 1, 1, 0], ("A", "B"))
    # rows are truth, columns are prediction
    np.testing.assert_array_equal(cm.counts, [[1, 1], [1, 2]])
    assert cm.classes == ("A", "B")
    assert cm.total == 5


def test_confusion_with_explicit_class_order():
    cm = confusion_from_predictions([1], [1], classes=("A", "B", "C"))
    assert cm.counts.shape == (3, 3)
    assert cm.counts[1, 1] == 1


def test_confusion_rejects_unknown_label():
    with pytest.raises(UnknownLabel):
        confusion_from_predictions([0], [2], classes=("A", "B"))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_confusion_matches_pairwise_count_oracle(seed):
    rng = np.random.default_rng(seed)
    alphabet = ("b", "A", "10", "9", "é", "a")
    y_true = [alphabet[i] for i in rng.integers(0, len(alphabet), 300)]
    y_pred = [alphabet[i] for i in rng.integers(0, len(alphabet), 300)]
    for classes in (alphabet, tuple(reversed(alphabet)) + ("unused",)):
        true, pred = (np.array([classes.index(y) for y in ys]) for ys in (y_true, y_pred))
        expect = np.zeros((len(classes), len(classes)), dtype=np.int64)
        for t, p in zip(y_true, y_pred):
            expect[classes.index(t), classes.index(p)] += 1
        cm = confusion_from_predictions(true, pred, classes=classes)
        assert cm.classes == classes
        np.testing.assert_array_equal(cm.counts, expect)
    with pytest.raises(UnknownLabel):
        confusion_from_predictions(true, pred, classes=classes[: len(alphabet) - 1])
    with pytest.raises(DriverIdError, match="true labels vs"):
        confusion_from_predictions(true[:5], pred[:6], classes=classes)


def test_confusion_counts_codes_into_explicit_classes():
    classes = ("A", "B", "C")
    true, pred = np.array([0, 2, 2, 1]), np.array([0, 2, 1, 1])
    cm = confusion_from_predictions(true, pred, classes)
    assert cm.counts.tolist() == [[1, 0, 0], [0, 1, 0], [0, 1, 1]]
    assert confusion_from_predictions(true.tolist(), pred.tolist(), classes).counts.tolist() == (
        cm.counts.tolist()
    )
    for bad in (np.array([0, 3, 1, 1]), np.array([0, -1, 1, 1])):
        with pytest.raises(UnknownLabel):
            confusion_from_predictions(true, bad, classes)
    with pytest.raises(InvalidOption):
        confusion_from_predictions([0], [1], "AB")
    # Any order of classes counts over that order.
    assert confusion_from_predictions([1], [0], ["B", "A"]).counts.tolist() == [[0, 0], [1, 0]]


def test_confusion_needs_1d_integer_codes():
    classes = ("A", "B")
    for y_true, y_pred in (
        (["A", "B"], ["B", "A"]),
        ("AB", "BA"),
        (np.array([0.0, 1.0]), np.array([1.0, 0.0])),
        (np.array([[0], [1]]), np.array([[1], [0]])),
    ):
        with pytest.raises(UnknownLabel, match="1-D integers"):
            confusion_from_predictions(y_true, y_pred, classes)


@pytest.mark.parametrize("classes, counts", [
    pytest.param(("A", "A"), [[1, 0], [0, 1]], id="repeated-class"),
    pytest.param("AB", [[1, 0], [0, 1]], id="bare-string-classes"),
    pytest.param((1, 2), [[1, 0], [0, 1]], id="non-string-classes"),
    pytest.param(("A",), [[1.5]], id="fractional-count"),
    pytest.param(("A",), [[1.0]], id="float-count"),
    pytest.param(("A",), [[True]], id="bool-count"),
    pytest.param(("A",), [["1"]], id="string-count"),
    pytest.param(("A",), [[-1]], id="negative-count"),
    pytest.param(("A",), [[2**63]], id="count-beyond-int64"),
    pytest.param(("A", "B"), [[2**62, 2**62], [0, 0]], id="total-beyond-int64"),
    pytest.param(("A", "B"), [[1, 0]], id="not-square"),
    pytest.param(("A",), [1], id="one-dimensional"),
])
def test_confusion_matrix_checks_what_it_stores(classes, counts):
    with pytest.raises(DriverIdError):
        ConfusionMatrix(classes, counts)


def test_confusion_matrix_keeps_class_order_and_its_own_counts():
    counts = np.array([[2, 1], [0, 3]])
    cm = ConfusionMatrix(["B", "A"], counts)
    assert cm.classes == ("B", "A") and cm.accuracy == 100.0 * (5 / 6)
    assert counts.flags.writeable and not cm.counts.flags.writeable


def test_per_class_counts_identities():
    rng = np.random.default_rng(1)
    for _ in range(50):
        k = rng.integers(2, 8)
        counts = rng.integers(0, 30, size=(k, k))
        cm = ConfusionMatrix(classes=tuple("abcdefgh"[:k]), counts=counts)
        tp, fp, fn, tn = cm.outcomes
        assert (tp + fp + fn + tn == counts.sum()).all()
        assert tp.sum() == np.trace(counts)
        assert (tp + fn).tolist() == counts.sum(axis=1).tolist()
        assert (tp + fp).tolist() == counts.sum(axis=0).tolist()


# -- metrics -----------------------------------------------------------------

def test_metrics_values_on_known_matrix():
    cm = ConfusionMatrix(classes=("A", "B"), counts=np.array([[8, 2], [1, 9]]))
    rep = metrics(cm)
    assert rep.accuracy == 85.0
    a = rep.per_class[0]
    np.testing.assert_allclose(a["precision"], 100.0 * 8 / 9)
    np.testing.assert_allclose(a["recall"], 80.0)
    np.testing.assert_allclose(
        a["f1"], 2 * a["precision"] * a["recall"] / (a["precision"] + a["recall"])
    )


def test_metrics_zero_denominators_flagged_not_raised():
    # class B never predicted and never true: precision, recall, f1 undefined
    cm = ConfusionMatrix(classes=("A", "B"), counts=np.array([[5, 0], [0, 0]]))
    rep = metrics(cm)
    b = rep.per_class[1]
    assert b["precision"] == 0.0 and b["recall"] == 0.0 and b["f1"] == 0.0
    assert set(b["undefined"]) == {"precision", "recall", "f1"}
    assert rep.per_class[0]["undefined"] == []


def test_metrics_empty_matrix():
    cm = ConfusionMatrix(classes=("A",), counts=np.zeros((1, 1), dtype=int))
    with pytest.raises(EmptyMatrix):
        metrics(cm)


def test_averaged_2x2_for_binary_matches_accuracy():
    cm = ConfusionMatrix(classes=("A", "B"), counts=np.array([[8, 2], [1, 9]]))
    rep = metrics(cm)
    (tp, fn), (fp, tn) = rep.averaged_2x2
    acc_from_avg = 100.0 * (tp + tn) / (tp + fn + fp + tn)
    np.testing.assert_allclose(acc_from_avg, rep.accuracy)


def test_metrics_report_round_trip():
    cm = confusion_from_predictions([0, 1, 1], [0, 1, 0], ("A", "B"))
    rep = metrics(cm, metadata={"kind": "knn"})
    again = MetricsReport.from_dict(rep.to_dict())
    assert again.accuracy == rep.accuracy
    assert again.per_class == rep.per_class
    np.testing.assert_array_equal(again.counts, rep.counts)
    assert again.to_dict() == rep.to_dict()


def _two_fold_report():
    folds = tuple(ConfusionMatrix(("A", "B"), c) for c in ([[1, 0], [0, 1]], [[2, 1], [0, 0]]))
    pooled = ConfusionMatrix(("A", "B"), sum(f.counts for f in folds))
    return metrics(pooled, fold_matrices=folds, metadata={"kind": "knn", "plan": {"folds": 2}})


def test_fold_accuracies_follow_from_the_fold_counts():
    rep = _two_fold_report()
    assert rep.fold_accuracies == (100.0, 100.0 * (2 / 3))
    d = rep.to_dict()
    assert d["fold_confusion"] == [[[1, 0], [0, 1]], [[2, 1], [0, 0]]]
    assert MetricsReport.from_dict(d).to_dict() == d
    # A report with no fold data loads, whether its fold keys are null or absent.
    plain = metrics(ConfusionMatrix(("A",), [[3]])).to_dict()
    absent = {k: v for k, v in plain.items() if not k.startswith("fold")}
    for d in (plain, absent):
        assert MetricsReport.from_dict(d).fold_matrices is None


@pytest.mark.parametrize("edits, message", [
    pytest.param({"fold_confusion": [[[1, 0], [0, 1]], [[2, 1], [0, 1]]]},
                 "do not sum", id="folds-not-summing-to-the-pool"),
    pytest.param({"fold_confusion": [[[3, 1], [0, 1]], [[0, 0], [0, 0]]],
                  "fold_accuracies": [75.0, 0.0]}, "no instances", id="fold-with-no-instances"),
    pytest.param({"fold_confusion": [[[1, 0, 0], [0, 1, 0], [0, 0, 0]], [[2, 1], [0, 0]]]},
                 "2 x 2", id="fold-of-three-classes"),
    pytest.param({"fold_confusion": None}, "fold counts are missing", id="old-report"),
    pytest.param({"fold_confusion": 5}, "must be a list", id="fold-counts-not-a-list"),
    pytest.param({"metadata": 5}, "metadata must be an object", id="metadata-a-number"),
    pytest.param({"metadata": "ab"}, "metadata must be an object", id="metadata-a-string"),
    pytest.param({"metadata": [1]}, "metadata must be an object", id="metadata-a-list"),
    pytest.param({"fold_accuracies": [100.0, 66.0]}, "fold_accuracies", id="edited-fold-accuracy"),
    pytest.param({"fold_accuracies": None}, "fold_accuracies", id="fold-counts-without-accuracies"),
    pytest.param({"metadata": {"kind": "knn", "plan": {"folds": 3}}}, "2 fold matrices",
                 id="fewer-folds-than-the-plan"),
])
def test_report_fold_counts_are_checked_when_read(edits, message):
    with pytest.raises(DriverIdError, match=message):
        MetricsReport.from_dict({**_two_fold_report().to_dict(), **edits})


@pytest.mark.parametrize("doc", [
    pytest.param([1], id="a-list"),
    pytest.param(5, id="a-number"),
    pytest.param({}, id="empty"),
    pytest.param({"classes": ["A", "B"]}, id="no-confusion"),
    pytest.param({"confusion": [[1, 0], [0, 1]]}, id="no-classes"),
])
def test_a_report_that_is_not_an_object_with_its_keys_is_a_data_error(doc):
    with pytest.raises(DriverIdError, match="metrics report"):
        MetricsReport.from_dict(doc)


def test_fold_counts_whose_int64_sum_wraps_do_not_sum_to_the_pool():
    # Three one-class folds, each below 2**63, whose int64 sum wraps to 2.
    x = (2**64 + 2) // 3
    assert sum(np.full(1, x, dtype=np.int64) for _ in range(3)).tolist() == [2]
    d = {**metrics(ConfusionMatrix(("A",), [[2]])).to_dict(),
         "fold_confusion": [[[x]]] * 3, "fold_accuracies": [100.0] * 3}
    with pytest.raises(DriverIdError, match="do not sum"):
        MetricsReport.from_dict(d)


def _per_class_loop(cm):
    """metrics(cm).to_dict(), one class at a time in plain Python."""
    c = cm.counts.tolist()
    k, total = len(c), sum(map(sum, c))
    rows, avg = [], [[0.0, 0.0], [0.0, 0.0]]
    for i, cls in enumerate(cm.classes):
        tp = c[i][i]
        fp = sum(row[i] for row in c) - tp
        fn = sum(c[i]) - tp
        tn = total - tp - fp - fn
        undefined = []
        if tp + fp > 0:
            precision = 100.0 * tp / (tp + fp)
        else:
            precision = 0.0
            undefined.append("precision")
        if tp + fn > 0:
            recall = 100.0 * tp / (tp + fn)
        else:
            recall = 0.0
            undefined.append("recall")
        if precision + recall > 0:
            f1 = 2.0 * precision * recall / (precision + recall)
        else:
            f1 = 0.0
            undefined.append("f1")
        rows.append({"class": cls, "precision": precision, "recall": recall, "f1": f1,
                     "undefined": undefined})
        avg = [[avg[0][0] + tp, avg[0][1] + fn], [avg[1][0] + fp, avg[1][1] + tn]]
    return {
        "classes": list(cm.classes),
        "confusion": c,
        "accuracy": 100.0 * (float(sum(c[i][i] for i in range(k))) / total),
        "per_class": rows,
        "averaged_2x2": [[v / k for v in row] for row in avg],
        "fold_accuracies": None,
        "fold_confusion": None,
        "metadata": {},
    }


def test_metrics_match_the_per_class_loop():
    # Sparse random matrices of 1 to 11 classes and counts up to a million,
    # with whole rows (a class never true) and columns (never predicted) empty.
    rng = np.random.default_rng(20)
    checked = 0
    for _ in range(1200):
        k = int(rng.integers(1, 12))
        counts = rng.integers(0, 10 ** int(rng.integers(1, 7)), size=(k, k))
        counts *= rng.random((k, k)) < 0.7
        counts[rng.random(k) < 0.2] = 0
        counts[:, rng.random(k) < 0.2] = 0
        cm = ConfusionMatrix(tuple(f"c{i}" for i in range(k)), counts)
        if cm.total == 0:
            continue
        assert json.dumps(metrics(cm).to_dict()) == json.dumps(_per_class_loop(cm))
        checked += 1
    assert checked >= 1000


# -- fold assignment ----------------------------------------------------------

def labeled(labels):
    """A one-column matrix of zeros with the given row labels."""
    return FeatureMatrix(("x",), np.zeros((len(labels), 1)), *ingest.encode_labels(labels))


def test_folds_partition_the_data():
    labels = ["A"] * 57 + ["B"] * 43
    fold_of = fold_assignments(labeled(labels), CvPlan(folds=10, seed=3))
    assert fold_of.shape == (100,)
    assert set(fold_of) == set(range(10))
    assert np.bincount(fold_of).sum() == 100


def test_stratified_folds_preserve_proportions():
    labels = ["A"] * 70 + ["B"] * 30
    fold_of = fold_assignments(labeled(labels), CvPlan(folds=10, seed=1))
    arr = np.asarray(labels)
    for f in range(10):
        in_fold = arr[fold_of == f]
        assert (in_fold == "A").sum() == 7
        assert (in_fold == "B").sum() == 3


def test_too_few_instances_per_class():
    labels = ["A"] * 30 + ["B"] * 3
    with pytest.raises(TooFewInstancesPerClass):
        fold_assignments(labeled(labels), CvPlan(folds=10, seed=1))


def test_plan_validation():
    with pytest.raises(DriverIdError):
        CvPlan(folds=1)
    for split_mode in ("bootstrap", "blocked-time", None):
        with pytest.raises(InvalidOption, match="split_mode"):
            CvPlan(split_mode=split_mode)
    with pytest.raises(DriverIdError):
        CvPlan(seed=-1)


@pytest.mark.parametrize("field, value", [("folds", 2.5), ("seed", 1.5), ("folds", True),
                                          ("seed", "1"), ("folds", None)])
def test_plan_rejects_non_integral_folds_and_seed(field, value):
    with pytest.raises(DriverIdError, match=field):
        CvPlan(**{field: value})


def test_plan_takes_integral_floats_as_ints():
    plan = CvPlan(folds=4.0, seed=np.int64(3))
    assert (plan.folds, plan.seed) == (4, 3)
    assert type(plan.folds) is int and type(plan.seed) is int


def _per_class_string_folds(labels, plan):
    """Stratified random-window folds, one string comparison per class."""
    fold_of = np.empty(len(labels), dtype=np.intp)
    rng = np.random.default_rng(plan.seed)
    y = np.asarray(labels)
    for cls in sorted(set(labels)):
        idx = np.where(y == cls)[0]
        fold_of[rng.permutation(idx)] = np.arange(idx.size) % plan.folds
    return fold_of


@pytest.mark.parametrize("seed", [1, 2, 7, 101])
def test_fold_assignments_match_per_class_string_oracle(seed):
    rng = np.random.default_rng(seed)
    alphabet = ("J", "B", "a", "10", "9", "Ö")
    labels = [alphabet[i] for i in rng.integers(0, len(alphabet), 400)]
    plan = CvPlan(folds=5, seed=seed)
    np.testing.assert_array_equal(
        fold_assignments(labeled(labels), plan), _per_class_string_folds(labels, plan)
    )


def test_fold_assignment_depends_on_seed_only():
    labels = ["A", "B"] * 50
    a = fold_assignments(labeled(labels), CvPlan(folds=5, seed=9))
    b = fold_assignments(labeled(labels), CvPlan(folds=5, seed=9))
    c = fold_assignments(labeled(labels), CvPlan(folds=5, seed=10))
    np.testing.assert_array_equal(a, b)
    assert (a != c).any()


# -- cross_validate -----------------------------------------------------------

def test_zeror_cv_accuracy_equals_majority_proportion():
    m = small_matrix(n_per=30)
    # unbalance it: drop some of class C
    keep = [i for i, lab in enumerate(m.labels) if not (lab == "C" and i % 3 == 0)]
    m = FeatureMatrix(m.column_names, m.features[keep], m.label_alphabet, m.codes[keep])
    rep = cross_validate("zeror", None, Folds.build(m, CvPlan(folds=5, seed=1)))
    dist = ingest.class_distribution(m)
    maj = max(dist, key=lambda k: dist[k])
    assert rep.accuracy == 100.0 * dist[maj]


def test_cv_pools_one_prediction_per_instance():
    m = small_matrix()
    rep = cross_validate("knn", {"k": 1}, Folds.build(m, CvPlan(folds=5, seed=1)))
    assert rep.counts.sum() == len(m)
    assert len(rep.fold_matrices) == len(rep.fold_accuracies) == 5
    np.testing.assert_array_equal(sum(f.counts for f in rep.fold_matrices), rep.counts)
    d = rep.to_dict()
    assert d["fold_confusion"] == [f.counts.tolist() for f in rep.fold_matrices]
    assert d["fold_accuracies"] == [ConfusionMatrix(d["classes"], f).accuracy
                                    for f in d["fold_confusion"]]


def test_cv_is_deterministic():
    m = small_matrix(seed=5)
    plan = CvPlan(folds=5, seed=2)
    a = cross_validate("reptree", None, Folds.build(m, plan))
    b = cross_validate("reptree", None, Folds.build(m, plan))
    assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(b.to_dict(), sort_keys=True)


def test_cv_normalize_policies_run():
    m = small_matrix(seed=6)
    for policy in ("train", "all", "none"):
        rep = cross_validate("knn", {"k": 1}, Folds.build(m, CvPlan(folds=3, seed=1), policy))
        assert rep.metadata["normalize"] == policy
        assert rep.accuracy > 90.0
    for policy in ("zscore", True):
        with pytest.raises(InvalidOption, match="normalize"):
            Folds.build(m, CvPlan(folds=3), policy)


def test_cv_metadata_carries_the_run():
    m = small_matrix(seed=7)
    rep = cross_validate("naive_bayes", None, Folds.build(m, CvPlan(folds=3, seed=4)))
    assert rep.metadata["kind"] == "naive_bayes"
    assert rep.metadata["plan"]["folds"] == 3
    assert rep.metadata["n_instances"] == len(m)


#: One plan per split route: stratified and global shuffles.
SPLIT_PLANS = {
    "stratified": CvPlan(folds=5, seed=3),
    "unstratified": CvPlan(folds=5, seed=3, stratified=False),
}

#: The split routes above, and "hand-blocks" (see _split).
SPLITS = [*sorted(SPLIT_PLANS), "hand-blocks"]


def _split(monkeypatch, split, matrix):
    """The plan and fold vector of one split route.  "hand-blocks" cuts the
    rows into five contiguous blocks, which no plan does, and patches them
    in as fold_assignments' result, so Folds.build uses them."""
    if split in SPLIT_PLANS:
        return SPLIT_PLANS[split], fold_assignments(matrix, SPLIT_PLANS[split])
    plan = CvPlan(folds=5, seed=3, stratified=False)
    fold_of = (np.arange(len(matrix)) * plan.folds) // len(matrix)
    monkeypatch.setattr(evaluate, "fold_assignments", lambda *_: fold_of)
    return plan, fold_of


def test_duplicated_points_make_knn_perfect(monkeypatch):
    # every point has an exact twin 30 rows on, so in another of five
    # contiguous blocks: its nearest neighbor is always in training
    rng = np.random.default_rng(8)
    P = rng.normal(size=(30, 3))
    X = np.vstack([P, P])
    labels = [chr(ord("A") + (i % 3)) for i in range(30)] * 2
    m = FeatureMatrix(("x", "y", "z"), X, *ingest.encode_labels(labels))
    plan, _ = _split(monkeypatch, "hand-blocks", m)
    rep = cross_validate("knn", {"k": 1}, Folds.build(m, plan))
    assert rep.accuracy == 100.0


def _per_kind_cv(kind, config, matrix, plan, normalize, fold_of):
    """The report dict of cross-validation as one self-contained loop per
    kind over the fold vector ``fold_of``: boolean masks, a normalizer
    fitted inside the loop, and fold counts and accuracies kept by hand."""
    classes = matrix.label_alphabet
    labels = np.asarray(matrix.labels)
    pooled = np.zeros((len(classes), len(classes)), dtype=np.int64)
    fold_counts, fold_accuracies = [], []
    whole = fit_normalizer(matrix.features) if normalize == "all" else None
    for f in range(plan.folds):
        test_mask = fold_of == f
        X_train, X_test = matrix.features[~test_mask], matrix.features[test_mask]
        if normalize == "train":
            params = fit_normalizer(X_train)
            X_train, X_test = apply_normalizer(params, X_train), apply_normalizer(params, X_test)
        elif normalize == "all":
            X_train, X_test = apply_normalizer(whole, X_train), apply_normalizer(whole, X_test)
        model = models.make(kind, config).fit(X_train, labels[~test_mask])
        true, pred = (ingest.encode_labels(y, classes)[1]
                      for y in (labels[test_mask], model.predict(X_test)))
        cm = confusion_from_predictions(true, pred, classes)
        pooled += cm.counts
        fold_counts.append(cm.counts.tolist())
        fold_accuracies.append(100.0 * (float(np.trace(cm.counts)) / cm.total))
    report = metrics(
        ConfusionMatrix(classes=classes, counts=pooled),
        metadata={
            "kind": kind,
            "config": dict(config or {}),
            "plan": asdict(plan),
            "normalize": normalize,
            "n_instances": len(matrix),
            "n_features": matrix.n_features,
        },
    )
    return {**report.to_dict(), "fold_accuracies": fold_accuracies, "fold_confusion": fold_counts}


@pytest.mark.parametrize("split", SPLITS)
@pytest.mark.parametrize("normalize", ["train", "all", "none"])
@pytest.mark.parametrize("kind, config", [("knn", {"k": 3}), ("reptree", None)])
def test_shared_folds_match_the_per_kind_loop(kind, config, normalize, split, monkeypatch):
    # Overlapping classes on unequal scales plus one far outlier, so whether
    # a normalizer saw the outlier's fold changes knn's votes.
    m = small_matrix(seed=11, n_per=25, spread=1.5)
    X = m.features * [1.0, 10.0, 100.0, 0.1]
    X[0, 0] = 60.0
    m = FeatureMatrix(m.column_names, X, m.label_alphabet, m.codes)
    plan, fold_of = _split(monkeypatch, split, m)
    shared = cross_validate(kind, config, Folds.build(m, plan, normalize))
    assert shared.to_dict() == _per_kind_cv(kind, config, m, plan, normalize, fold_of)


@pytest.mark.parametrize("kind", sorted(models.KINDS))
def test_codes_cv_matches_the_string_loop_when_a_fold_lacks_a_class(kind, monkeypatch):
    # Rows are grouped by class and C fills the last of five blocks, so the
    # last fold trains on A and B only and tests on C only.
    m = small_matrix(seed=13, n_per=40, spread=1.5)
    keep = np.flatnonzero((m.codes < 2) | (np.arange(len(m)) >= 100))
    m = FeatureMatrix(m.column_names, m.features[keep], m.label_alphabet, m.codes[keep])
    plan, fold_of = _split(monkeypatch, "hand-blocks", m)
    folds = Folds.build(m, plan)
    train, test = folds.rows[-1]
    assert set(m.codes[train]) == {0, 1} and set(m.codes[test]) == {2}
    shared = cross_validate(kind, None, folds)
    assert shared.to_dict() == _per_kind_cv(kind, None, m, plan, "train", fold_of)


def test_cv_calls_each_traced_name_once_per_fold(monkeypatch):
    # The benchmark's per-layer metrics patch these names; a code path that
    # routed around one would leave its metric at zero.
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for kind, cls in models.KINDS.items():
        for method in ("fit", "predict"):
            monkeypatch.setattr(cls, method, counted(f"{kind}.{method}", getattr(cls, method)))
    for name in ("fold_assignments", "confusion_from_predictions"):
        monkeypatch.setattr(evaluate, name, counted(name, getattr(evaluate, name)))
    folds = Folds.build(small_matrix(seed=14), CvPlan(folds=4, seed=1))
    assert calls == {"fold_assignments": 1}
    for kind in models.KINDS:
        calls.clear()
        cross_validate(kind, None, folds)
        assert calls[f"{kind}.fit"] == calls[f"{kind}.predict"] == 4, kind
        assert calls["confusion_from_predictions"] == 4, kind


@pytest.mark.parametrize("split", SPLITS)
def test_fold_rows_partition_the_matrix(split, monkeypatch):
    m = small_matrix(seed=12, n_per=21)
    folds = Folds.build(m, _split(monkeypatch, split, m)[0])
    assert len(folds.rows) == len(folds.params) == 5
    every = np.arange(len(m))
    tests = np.concatenate([test for _, test in folds.rows])
    np.testing.assert_array_equal(np.sort(tests), every)
    for train, test in folds.rows:
        np.testing.assert_array_equal(train, np.setdiff1d(every, test))


# -- baseline comparison --------------------------------------------------------

def _report_with(kind, accuracy):
    cm = ConfusionMatrix(classes=("A", "B"), counts=np.array([[1, 0], [0, 1]]))
    rep = metrics(cm, metadata={"kind": kind})
    return MetricsReport(
        classes=rep.classes,
        counts=rep.counts,
        accuracy=accuracy,
        per_class=rep.per_class,
        averaged_2x2=rep.averaged_2x2,
        metadata={"kind": kind},
    )


def test_baseline_compare_ranks_and_flags():
    table = baseline_compare(
        [_report_with("zeror", 14.03), _report_with("knn", 76.35)]
    )
    assert table["baseline"]["accuracy"] == 14.03
    assert table["ranking"][0]["kind"] == "knn"
    np.testing.assert_allclose(table["ranking"][0]["delta_vs_baseline"], 62.32)
    assert table["ranking"][0]["better_than_baseline"] is True
    zeror_row = table["ranking"][1]
    assert zeror_row["delta_vs_baseline"] == 0.0
    assert zeror_row["better_than_baseline"] is False


def test_baseline_compare_needs_a_baseline():
    with pytest.raises(NoBaselineDesignated):
        baseline_compare([_report_with("knn", 90.0)])


def test_baseline_compare_flags_non_improvers():
    table = baseline_compare(
        [_report_with("zeror", 50.0), _report_with("naive_bayes", 45.0)]
    )
    nb_row = [r for r in table["ranking"] if r["kind"] == "naive_bayes"][0]
    assert nb_row["better_than_baseline"] is False
    assert nb_row["delta_vs_baseline"] == -5.0
