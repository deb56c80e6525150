"""Classifier behaviour: correctness on separable data, ties, serialization."""

import contextlib
import inspect
import io
import json
import numbers
import signal
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from driverid import models, pipeline
from driverid.errors import (
    DimensionMismatch,
    DriverIdError,
    EmptyTrainingSet,
    InvalidOption,
    LengthMismatch,
    NonFiniteFeature,
    SingleClassForDiscriminative,
    UnknownLabel,
)
from driverid.models import (
    AdaBoost,
    GaussianNaiveBayes,
    KNearestNeighbors,
    LinearSvm,
    LogisticRegression,
    RepTree,
    ZeroR,
)
from driverid.models.logistic import _two_loop, loss_and_grad
from driverid.models.svm import hinge_loss, primal_objective
from driverid.models import knn as knn_module
from driverid.models import naive_bayes as nb_module
from driverid.models import tree as tree_module
from driverid.models.tree import _entropy_rows as _tree_entropy_rows
from driverid.models.tree import _feature_orders, _gain_margin, _rank_gains, _side_weights, midpoint

from conftest import traced_peak, write_trip_csv


def blobs(seed=0, n_per=40, centers=((0, 0), (6, 0), (0, 6))):
    rng = np.random.default_rng(seed)
    X, y = [], []
    for i, c in enumerate(centers):
        X.append(rng.normal(c, 1.0, size=(n_per, len(c))))
        y += [chr(ord("A") + i)] * n_per
    return np.vstack(X), np.asarray(y)


ALL_KINDS = sorted(models.KINDS)


# -- shared fit/predict contract ----------------------------------------------

@pytest.mark.parametrize("kind", ALL_KINDS)
def test_fit_predict_on_separable_blobs(kind):
    X, y = blobs()
    # the toy set is tiny, so give the step-count-hungry SVM extra epochs
    config = {"svm": {"epochs": 50}}.get(kind)
    model = models.make(kind, config).fit(X, y)
    acc = np.mean(np.asarray(model.predict(X)) == y)
    floor = 1 / 3 - 1e-12 if kind == "zeror" else 0.9
    assert acc >= floor, f"{kind}: {acc}"
    assert model.classes_ == ("A", "B", "C")


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_predict_proba_rows_sum_to_one(kind):
    X, y = blobs(seed=1)
    model = models.make(kind).fit(X, y)
    P = model.predict_proba(X[:10])
    assert P.shape == (10, 3)
    assert (P >= 0).all()
    np.testing.assert_allclose(P.sum(axis=1), 1.0, atol=1e-9)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_a_matrix_without_features_fits_a_constant_model(kind):
    # No feature leaves no cut to split on and nothing to weigh: every
    # query gets one label and a valid distribution.
    model = models.make(kind).fit(np.zeros((4, 0)), ["A", "A", "B", "A"])
    assert len(set(model.predict(np.zeros((3, 0))))) == 1
    np.testing.assert_allclose(model.predict_proba(np.zeros((3, 0))).sum(axis=1), 1.0)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_serialization_round_trip(kind, tmp_path):
    X, y = blobs(seed=2)
    model = models.make(kind).fit(X, y)
    path = str(tmp_path / f"{kind}.json")
    models.save_model(model, path)
    again = models.load_model(path)
    assert type(again) is type(model)
    assert again.predict(X[:25]) == model.predict(X[:25])
    np.testing.assert_allclose(again.predict_proba(X[:25]), model.predict_proba(X[:25]))
    for name in type(model).fitted:
        fitted, loaded = getattr(model, name), getattr(again, name)
        assert type(loaded) is type(fitted)
        assert np.asarray(loaded).dtype == np.asarray(fitted).dtype
        assert np.array_equal(loaded, fitted)


GOLDEN_MODELS = Path(__file__).parent / "data" / "models"
NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_saved_model_files_load_and_save_back_unchanged(kind):
    # One model of each kind fitted on tiny three-class blobs; the labels
    # and probabilities each predicts for the queries are recorded beside
    # them, the probabilities as repr floats, so they must match bit for bit.
    text = (GOLDEN_MODELS / f"{kind}.json").read_text(encoding="utf-8")
    model = models.load_model(io.StringIO(text))
    buf = io.StringIO()
    models.save_model(model, buf)
    assert buf.getvalue() == text
    recorded = json.loads((GOLDEN_MODELS / "predictions.json").read_text(encoding="utf-8"))
    queries = np.asarray(recorded["queries"])
    assert model.predict(queries) == recorded["labels"][kind]
    assert np.array_equal(model.predict_proba(queries), np.asarray(recorded["proba"][kind]))


def _golden_with(kind, **top):
    """The golden ``kind`` model file with ``top`` replacing top-level keys."""
    saved = json.loads((GOLDEN_MODELS / f"{kind}.json").read_text(encoding="utf-8"))
    return json.dumps({**saved, **top})


def test_load_model_rejects_malformed_files(tmp_path):
    X, y = blobs(seed=2)
    buf = io.StringIO()
    models.save_model(models.make("logreg").fit(X, y), buf)
    logreg = json.loads(buf.getvalue())
    outdated = json.loads(json.dumps(logreg))
    outdated["config"]["learning_rate"] = 0.1  # option of an older logreg
    no_params = {k: v for k, v in logreg.items() if k != "params"}
    # A saved majority vote over the logreg: vote is no longer a kind.
    member = {k: v for k, v in logreg.items() if k not in ("format", "version")}
    vote = {**logreg, "kind": "vote", "config": {"members": [["logreg", {}]]},
            "params": {"members": [member]}}
    with pytest.raises(DriverIdError, match="unknown kind 'vote'"):
        models.load_model(io.StringIO(json.dumps(vote)))
    weights = logreg["params"]["weights"]
    no_weights = {**logreg, "params": {}}
    ragged = {**logreg, "params": {"weights": [weights[0], weights[1][:-1]]}}
    string_cell = {**logreg, "params": {"weights": [["x", *weights[0][1:]], *weights[1:]]}}
    models.load_model(io.StringIO(json.dumps(logreg)))  # the intact payload loads
    texts = ["not json", "[1, 2]", json.dumps(outdated), json.dumps(no_params),
             json.dumps(no_weights), json.dumps(ragged),
             json.dumps(string_cell), "[" * 100_000]
    # Saved files whose params do not fit their classes or feature count.
    # The reptree whose root is its own right child would loop in predict.
    for kind, edit in (
        ("logreg", lambda p: {**p, "weights": p["weights"][:2]}),
        ("naive_bayes", lambda p: {**p, "theta": 0.5}),
        ("knn", lambda p: {**p, "labels": [7, *p["labels"][1:]]}),
        ("svm", lambda p: {**p, "weights": [row[:-1] for row in p["weights"]]}),
        ("reptree", lambda p: {**p, "feature": [9, *p["feature"][1:]]}),
        ("reptree", lambda p: {**p, "right": [0, *p["right"][1:]]}),
        ("adaboost", lambda p: {**p, "stumps": [{**p["stumps"][0], "right": 7}, *p["stumps"][1:]]}),
        ("adaboost", lambda p: {**p, "stumps": [{**p["stumps"][0], "feature": -2}, *p["stumps"][1:]]}),
        ("zeror", lambda p: {**p, "priors": p["priors"][:2]}),
        # Non-finite params: the logreg would predict class A for every row
        # and the all-zero reptree counts would give 0/0 probabilities.
        ("logreg", lambda p: {**p, "weights": [[NAN, *p["weights"][0][1:]], *p["weights"][1:]]}),
        ("naive_bayes", lambda p: {**p, "var": [[INF, *p["var"][0][1:]], *p["var"][1:]]}),
        ("knn", lambda p: {**p, "train": [[INF, *p["train"][0][1:]], *p["train"][1:]]}),
        ("reptree", lambda p: {**p, "counts": [[0] * len(row) for row in p["counts"]]}),
        ("adaboost", lambda p: {**p, "stumps": [{**p["stumps"][0], "threshold": NAN}, *p["stumps"][1:]]}),
        ("adaboost", lambda p: {**p, "alphas": [INF, *p["alphas"][1:]]}),
        ("adaboost", lambda p: {**p, "alphas": [0.0] * len(p["alphas"])}),
        # Distributions that are not valid: a zero variance divides by zero
        # in predict_proba, and ZeroR returns its priors as probabilities.
        ("naive_bayes", lambda p: {**p, "var": [[0.0, *p["var"][0][1:]], *p["var"][1:]]}),
        ("zeror", lambda p: {**p, "priors": [0.5, 0.7, -0.2]}),
        ("zeror", lambda p: {**p, "priors": [0.2, 0.2, 0.2]}),
        # Integer params hold integers; none is truncated.
        ("reptree", lambda p: {**p, "feature": [0.4, *p["feature"][1:]]}),
        ("reptree", lambda p: {**p, "counts": [[4.4, *p["counts"][0][1:]], *p["counts"][1:]]}),
        ("reptree", lambda p: {**p, "depth": 1.5}),
        ("adaboost", lambda p: {**p, "stumps": [{**p["stumps"][0], "feature": 0.5}, *p["stumps"][1:]]}),
        ("adaboost", lambda p: {**p, "stumps": [{**p["stumps"][0], "left": True}, *p["stumps"][1:]]}),
        ("adaboost", lambda p: {**p, "stumps": [{**p["stumps"][0], "right": 0.0}, *p["stumps"][1:]]}),
        # k-NN labels are one integer code for each of its 12 training rows;
        # a cast to int would predict one class for every row.
        ("knn", lambda p: {**p, "labels": [[c] for c in p["labels"]]}),
        ("knn", lambda p: {**p, "labels": [True] * 12}),
        ("knn", lambda p: {**p, "labels": [0.0] * 12}),
        ("knn", lambda p: {**p, "labels": [2]}),
        # A JSON string is not a number, though numpy and float() parse one.
        ("logreg", lambda p: {**p, "weights": [["0.5", *p["weights"][0][1:]], *p["weights"][1:]]}),
        ("adaboost", lambda p: {**p, "stumps": [{**p["stumps"][0], "threshold": "0.25"}, *p["stumps"][1:]]}),
        ("adaboost", lambda p: {**p, "alphas": ["1.0", *p["alphas"][1:]]}),
        ("knn", lambda p: {**p, "train": [["1e-3", *p["train"][0][1:]], *p["train"][1:]]}),
        # Nor is a JSON true or false, though numpy reads one as 1 or 0.
        ("logreg", lambda p: {**p, "weights": [[True, *p["weights"][0][1:]], *p["weights"][1:]]}),
        ("reptree", lambda p: {**p, "feature": [True, *p["feature"][1:]]}),
        ("reptree", lambda p: {**p, "left": [True, *p["left"][1:]]}),
        ("adaboost", lambda p: {**p, "alphas": [True, *p["alphas"][1:]]}),
        ("knn", lambda p: {**p, "labels": [False, *p["labels"][1:]]}),
    ):
        saved = json.loads((GOLDEN_MODELS / f"{kind}.json").read_text(encoding="utf-8"))
        texts.append(json.dumps({**saved, "params": edit(saved["params"])}))
    # The classes are a list of sorted, distinct strings (a bare string is
    # not a list of its characters; ZeroR would predict the ints of [1, 2, 3])
    # and n_features is a whole number.
    for kind, top in (
        ("zeror", {"classes": ["B", "A", "C"]}),
        ("zeror", {"classes": "ABC"}),
        ("naive_bayes", {"classes": "ABC"}),
        ("knn", {"classes": "ABC"}),
        ("zeror", {"classes": [1, 2, 3]}),
        ("zeror", {"n_features": 2.7}),
        ("zeror", {"n_features": True}),
        ("zeror", {"n_features": "2"}),
    ):
        texts.append(_golden_with(kind, **top))
    path = tmp_path / "model.json"
    for text in texts:
        path.write_text(text, encoding="utf-8")
        with pytest.raises(DriverIdError) as exc, time_limit(10):
            models.load_model(str(path))
        assert str(exc.value).count(str(path)) == 1, exc.value
    # An error raised while the params are read keeps its type.
    path.write_text(_golden_with("zeror", classes="ABC"), encoding="utf-8")
    with pytest.raises(InvalidOption) as exc:
        models.load_model(str(path))
    assert str(exc.value).startswith(f"{path} is a malformed zeror model file: label alphabet")


def _reptree_with_leaf(p):
    """Golden reptree params with one more leaf, which no node points at."""
    leaf = {"feature": -1, "threshold": 0.0, "left": -1, "right": -1, "counts": [1, 0, 0]}
    return {**p, **{k: p[k] + [v] for k, v in leaf.items()}}


@pytest.mark.parametrize("edit, message", [
    # The root's right child is its left child too; node 2 hangs alone.
    pytest.param(lambda p: {**p, "right": [1, *p["right"][1:]]}, "do not form a tree",
                 id="a-child-on-both-sides"),
    pytest.param(_reptree_with_leaf, "do not form a tree", id="an-unreachable-node"),
    pytest.param(lambda p: {**p, "depth": p["depth"] + 1}, "depth 3 is not", id="a-wrong-depth"),
])
def test_load_model_rejects_a_reptree_that_is_not_its_tree(tmp_path, edit, message):
    # Each edit keeps children after their parents, so every walk from the
    # root ends at a leaf and predict would run; the file still lies.
    saved = json.loads((GOLDEN_MODELS / "reptree.json").read_text(encoding="utf-8"))
    path = tmp_path / "reptree.json"
    path.write_text(json.dumps({**saved, "params": edit(saved["params"])}), encoding="utf-8")
    with pytest.raises(DriverIdError, match=message) as exc:
        models.load_model(str(path))
    assert str(exc.value).startswith(f"{path} is a malformed reptree model file: ")


# Refit on the blobs each golden file was made from, with its config.  The
# kinds left out, logreg and svm, fit through matrix products, and BLAS may
# sum those in another order on another machine, moving their last bits.
@pytest.mark.parametrize("kind", ["zeror", "naive_bayes", "knn", "reptree", "adaboost"])
def test_saved_model_files_refit_to_the_same_bytes(kind):
    text = (GOLDEN_MODELS / f"{kind}.json").read_text(encoding="utf-8")
    X, y = blobs(seed=7, n_per=4)
    buf = io.StringIO()
    models.save_model(models.make(kind, json.loads(text)["config"]).fit(X, y), buf)
    assert buf.getvalue() == text


def test_load_model_names_a_path_that_cannot_be_opened(tmp_path):
    # open() rejects a null byte with ValueError: a data error naming the path
    with pytest.raises(DriverIdError) as exc:
        models.load_model("a\x00b.json")
    assert str(exc.value) == "a\x00b.json is not a model file: ValueError: embedded null byte"
    # a file that is not there stays an OSError
    with pytest.raises(FileNotFoundError):
        models.load_model(str(tmp_path / "missing.json"))


def test_load_model_probes_a_wide_model_without_allocating_its_row():
    # ZeroR's scores do not depend on the width, so any width loads; its
    # predict still checks the rows it is given.
    wide = models.load_model(io.StringIO(_golden_with("zeror", n_features=10**13)))
    assert wide.n_features_ == 10**13
    with pytest.raises(DimensionMismatch):
        wide.predict(np.zeros((1, 2)))
    tracemalloc.start()
    try:
        with pytest.raises(DriverIdError):
            models.load_model(io.StringIO(_golden_with("knn", n_features=10**9)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 24  # an 8 GB zero row would show here


@contextlib.contextmanager
def time_limit(seconds):
    """Raise TimeoutError in the block once ``seconds`` of wall time pass."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_predict_before_fit_raises(kind):
    with pytest.raises(DriverIdError):
        models.make(kind).predict(np.zeros((1, 2)))


def test_fit_input_validation():
    X, y = blobs()
    with pytest.raises(DimensionMismatch):
        ZeroR().fit(X.ravel(), y)
    with pytest.raises(EmptyTrainingSet):
        ZeroR().fit(np.zeros((0, 2)), [])
    with pytest.raises(LengthMismatch):
        ZeroR().fit(X, y[:-1])
    with pytest.raises(NonFiniteFeature):
        KNearestNeighbors().fit(np.array([[np.nan, 0.0]]), ["A"])
    with pytest.raises(SingleClassForDiscriminative):
        LogisticRegression().fit(np.zeros((5, 2)), ["A"] * 5)


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("alphabet", [("A", "B", "C"), ("A", "B", "C", "D", "E")])
def test_fit_on_codes_equals_fit_on_labels(kind, alphabet):
    # With five classes the codes skip B and D, so classes_ must be the
    # present subset and the codes renumbered into it.
    X, y = blobs(seed=18)
    present = alphabet[::2] if len(alphabet) == 5 else alphabet
    codes = np.asarray([alphabet.index(present["ABC".index(v)]) for v in y])
    labels = [alphabet[c] for c in codes]
    by_codes = models.make(kind).fit(X, codes, classes=alphabet)
    by_labels = models.make(kind).fit(X, labels)
    assert by_codes.classes_ == present
    assert by_codes.to_dict() == by_labels.to_dict()
    assert by_codes.predict(X) == by_labels.predict(X)


def test_fit_rejects_bad_codes_and_classes():
    X = np.zeros((4, 2))
    classes = ("A", "B", "C")
    for codes in ([0, 1, 3, 0], [0, -1, 1, 0], [0.0, 1.0, 1.0, 0.0], [True, False] * 2,
                  [[0, 1], [1, 0]]):
        with pytest.raises(UnknownLabel):
            ZeroR().fit(X, np.asarray(codes), classes=classes)
    for alphabet in (("B", "A", "C"), ("A", "A", "B"), "AB", ("A", 1)):
        with pytest.raises(DriverIdError):
            ZeroR().fit(X, [0, 1, 1, 0], classes=alphabet)
    with pytest.raises(LengthMismatch):
        ZeroR().fit(X, [0, 1, 1], classes=classes)
    with pytest.raises(SingleClassForDiscriminative):
        LogisticRegression().fit(X, [2] * 4, classes=classes)


def test_single_class_is_fine_for_zeror():
    model = ZeroR().fit(np.zeros((5, 2)), ["A"] * 5)
    assert model.predict(np.zeros((3, 2))) == ["A", "A", "A"]


def test_predict_rejects_wrong_width():
    X, y = blobs()
    model = ZeroR().fit(X, y)
    with pytest.raises(DimensionMismatch):
        model.predict(np.zeros((2, 5)))


def test_unknown_kind():
    with pytest.raises(DriverIdError):
        models.make("perceptron")


def test_bad_config_key_is_a_data_error():
    with pytest.raises(DriverIdError):
        models.make("knn", {"neighbours": 3})


@pytest.mark.parametrize("kind, option, minimum", [
    ("knn", "k", 1), ("adaboost", "rounds", 1), ("logreg", "max_epochs", 1),
    ("svm", "epochs", 1), ("svm", "batch_size", 1), ("svm", "seed", 0),
    ("reptree", "min_leaf_count", 1), ("reptree", "max_depth", 1), ("reptree", "seed", 0),
])
def test_count_options_take_whole_numbers_only(kind, option, minimum):
    for bad in (minimum - 1, minimum + 0.5, True, "3", float("nan"), float("inf")):
        with pytest.raises(DriverIdError, match=option):
            models.make(kind, {option: bad})
    for good in (minimum, minimum + 2, np.int64(minimum + 2), float(minimum + 2)):
        value = getattr(models.make(kind, {option: good}), option)
        assert type(value) is int and value == good


#: (kind, option) for every numeric constructor parameter of every kind.
NUMERIC_OPTIONS = [
    (kind, name)
    for kind, cls in models.KINDS.items()
    for name, p in inspect.signature(cls).parameters.items()
    if p.default is None or (isinstance(p.default, numbers.Real) and not isinstance(p.default, bool))
]


#: Values just outside the range of each numeric option, by option name.
OUT_OF_RANGE = {
    "k": (0,), "rounds": (0,), "max_epochs": (0,), "epochs": (0,), "batch_size": (0,),
    "seed": (-1,), "max_depth": (0,), "min_leaf_count": (0,),
    "var_floor": (0.0, -1e-9), "tol": (-1e-9, 10**400), "l2": (-0.1,), "lam": (0.0, -1.0),
    "pruning_fraction": (0.0, 1.0, 1.5),
}


@pytest.mark.parametrize("bad", [NAN, INF, "x", -INF, True,
                                 pytest.param(OUT_OF_RANGE, id="out_of_range")])
@pytest.mark.parametrize("kind, option", NUMERIC_OPTIONS)
def test_numeric_options_reject_non_finite_values_and_strings(kind, option, bad):
    # Built directly, through models.make and through a RunConfig, a bad
    # value is an InvalidOption that names the option.
    for value in OUT_OF_RANGE[option] if bad is OUT_OF_RANGE else (bad,):
        with pytest.raises(InvalidOption, match=f"{option} must"):
            models.KINDS[kind](**{option: value})
        with pytest.raises(InvalidOption, match=f"{option} must"):
            models.make(kind, {option: value})
        with pytest.raises(InvalidOption, match=f"{option} must"):
            pipeline.RunConfig(input="unused.csv", kinds=(kind,),
                               model_configs={kind: {option: value}})


# -- ZeroR ---------------------------------------------------------------------

def test_zeror_predicts_majority_with_tie_to_lowest():
    X = np.zeros((4, 1))
    model = ZeroR().fit(X, ["B", "A", "B", "A"])  # tie: A wins (sorted first)
    assert model.predict(X) == ["A"] * 4
    model = ZeroR().fit(np.zeros((5, 1)), ["B", "A", "B", "A", "B"])
    assert model.predict(X) == ["B"] * 4
    # A saved file of an older format, holding the majority index, still loads.
    saved = json.loads(_golden_with("zeror"))
    older = {**saved, "params": {**saved["params"], "majority": 0}}
    assert models.load_model(io.StringIO(json.dumps(older))).predict(np.zeros((1, 2))) == ["A"]


# -- k-NN -----------------------------------------------------------------------

def test_knn_single_neighbor_memorizes():
    X, y = blobs(seed=3)
    model = KNearestNeighbors(k=1).fit(X, y)
    assert (np.asarray(model.predict(X)) == y).all()


def test_knn_vote_tie_breaks_to_lowest_class():
    # two neighbors, one of each class, equidistant: A wins over B
    X = np.array([[0.0], [2.0]])
    model = KNearestNeighbors(k=2).fit(X, ["B", "A"])
    assert model.predict([[1.0]]) == ["A"]


def test_knn_duplicate_distance_boundary():
    # three training points at the same distance fight for k=2 slots; the
    # earliest indices win, matching a full (distance, index) sort
    X = np.array([[1.0], [1.0], [1.0], [5.0]])
    y = ["B", "A", "B", "A"]
    model = KNearestNeighbors(k=2).fit(X, y)
    # neighbors of 0 are rows 0 and 1 -> one B, one A -> tie -> A
    assert model.predict([[0.0]]) == ["A"]


def test_knn_distance_block_matches_the_out_of_place_expression():
    # the in-place block must equal sq − 2·(q @ X.T) + qq, clamped, bit for
    # bit: a query chunk shorter than the reused block, duplicates of
    # training rows (distance 0, clamped roundoff) and an odd width
    rng = np.random.default_rng(4)
    X = rng.normal(size=(301, 7))
    Q = np.vstack([rng.normal(size=(37, 7)), X[:5], X[:5] * (1 + 1e-12)])
    model = KNearestNeighbors().fit(X, ["A"] * 150 + ["B"] * 151)
    want = model._sq_norms - 2.0 * (Q @ X.T)
    want += np.einsum("ij,ij->i", Q, Q)[:, None]
    np.maximum(want, 0.0, out=want)
    block = np.full((64, X.shape[0]), np.nan)
    got = model._sq_distances(Q, block[: Q.shape[0]])
    assert np.array_equal(got, want)
    assert (got == 0.0).any()


def test_knn_a_lone_query_row_gets_the_bits_of_a_full_block(monkeypatch):
    # numpy sends a one-row q @ X.T to BLAS's matrix-vector product, whose
    # sums can differ from the matrix product's in the last bits.  Each
    # query alone must score as in one batch; blocks of 16 rows leave a
    # one-row last block of the 33 queries.
    rng = np.random.default_rng(21)
    X = rng.normal(size=(2000, 45))
    Q = rng.normal(size=(33, 45))
    model = KNearestNeighbors(k=3).fit(X, [chr(65 + c) for c in np.arange(2000) % 4])
    full = model._sq_distances(Q, np.empty((33, 2000)))
    for i in range(33):
        alone = model._sq_distances(Q[i : i + 1], np.empty((1, 2000)))
        assert np.array_equal(alone.view(np.int64), full[i : i + 1].view(np.int64))
    monkeypatch.setattr(knn_module, "_DISTANCE_BLOCK_BYTES", 16 * 8 * 2000)
    batch = model._scores(Q)
    for i in range(33):
        assert np.array_equal(model._scores(Q[i : i + 1]), batch[i : i + 1])


def test_knn_k_clamps_to_train_size():
    # k exceeding the training size degrades to voting among all rows
    X = np.array([[0.0], [1.0]])
    model = KNearestNeighbors(k=5).fit(X, ["B", "A"])
    assert model.predict([[0.0]]) == ["A"]  # 1-1 tie, lowest wins


def _tie_heavy_knn(k, seed):
    """k-NN fitted on integer coordinates of a 5 × 5 grid, its queries, and
    their votes from an exhaustive (distance, index) sort.

    About twelve training rows share each point, of four classes, so most
    neighbours tie on distance with rows of other classes and the
    (distance, index) rule decides who votes.  Squared distances of small
    integers are exact in float.  The queries include training rows
    (distance 0).
    """
    rng = np.random.default_rng(seed)
    X = rng.integers(-2, 3, size=(300, 2)).astype(float)
    y_idx = rng.integers(0, 4, 300)
    Q = np.vstack([rng.integers(-3, 4, size=(200, 2)).astype(float), X[:20]])
    model = KNearestNeighbors(k=k).fit(X, [chr(65 + int(c)) for c in y_idx])
    votes = np.zeros((len(Q), 4))
    for i, q in enumerate(Q):
        d2 = ((X - q) ** 2).sum(axis=1)
        nearest = sorted(range(len(X)), key=lambda r: (d2[r], r))[:k]
        np.add.at(votes[i], y_idx[nearest], 1.0)
    return model, Q, votes


@pytest.mark.parametrize("k", [1, 2, 5])
def test_knn_tie_heavy_matches_exhaustive_sort(monkeypatch, k):
    # blocks of 64 query rows, so the 220 queries span four of them
    model, Q, votes = _tie_heavy_knn(k, seed=k)
    monkeypatch.setattr(knn_module, "_DISTANCE_BLOCK_BYTES", 64 * 8 * model.X_.shape[0])
    assert np.array_equal(model._scores(Q), votes)
    assert model.predict(Q) == [chr(65 + int(c)) for c in votes.argmax(axis=1)]


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("rows", [1, 7, None])
def test_knn_distance_blocks_match_the_exhaustive_sort(monkeypatch, rows, k):
    # Blocks of one query row, of seven (the last one short) and the default
    # budget (one block here) all vote as the exhaustive sort does.
    model, Q, votes = _tie_heavy_knn(k, seed=10 + k)
    if rows is not None:
        monkeypatch.setattr(knn_module, "_DISTANCE_BLOCK_BYTES", rows * 8 * model.X_.shape[0])
    assert np.array_equal(model._scores(Q), votes)


@pytest.mark.parametrize("k", [1, 3])
def test_knn_predict_holds_one_distance_block_at_a_time(monkeypatch, k):
    # The distances of 2,000 queries to 1,000 training rows would take
    # 16 MB.  predict holds one 1 MiB block of them, and two (n, K) arrays;
    # for k > 1, the partition, the cumsum of ties and the member matrix
    # of one block as well.
    monkeypatch.setattr(knn_module, "_DISTANCE_BLOCK_BYTES", 1 << 20)
    rng = np.random.default_rng(12)
    labels = [chr(65 + c) for c in np.arange(1000) % 10]
    model = KNearestNeighbors(k=k).fit(rng.normal(size=(1000, 5)), labels)
    Q = rng.normal(size=(2000, 5))
    _, peak = traced_peak(lambda: model.predict(Q))
    blocks = 1 if k == 1 else 6
    assert peak <= blocks * knn_module._DISTANCE_BLOCK_BYTES + 2 * Q.shape[0] * 10 * 8


# -- Gaussian NB ----------------------------------------------------------------

def test_nb_prefers_the_generating_class():
    rng = np.random.default_rng(4)
    Xa = rng.normal(0.0, 1.0, size=(200, 2))
    Xb = rng.normal(4.0, 1.0, size=(200, 2))
    model = GaussianNaiveBayes().fit(np.vstack([Xa, Xb]), ["A"] * 200 + ["B"] * 200)
    assert model.predict([[0.0, 0.0]]) == ["A"]
    assert model.predict([[4.0, 4.0]]) == ["B"]


def test_nb_symmetric_midpoint_posteriors():
    X = np.array([[-1.0], [-3.0], [1.0], [3.0]])
    model = GaussianNaiveBayes().fit(X, ["A", "A", "B", "B"])
    p = model.predict_proba([[0.0]])[0]
    np.testing.assert_allclose(p, [0.5, 0.5], atol=1e-12)


def test_nb_variance_floor_handles_constant_feature():
    X = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 4.0], [1.0, 5.0]])
    model = GaussianNaiveBayes().fit(X, ["A", "A", "B", "B"])
    assert model.predict([[1.0, 0.5]]) == ["A"]


def _nb_ten_classes(n_queries, seed=6):
    """naive Bayes fitted on ten classes and 45 features of mixed scales,
    as in table7, and ``n_queries`` query rows."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(500, 45)) * rng.uniform(0.1, 10.0, 45)
    model = GaussianNaiveBayes().fit(X, [chr(65 + c) for c in np.arange(500) % 10])
    return model, rng.normal(size=(n_queries, 45)) * 3.0


@pytest.mark.parametrize("budget", [1, 3 * 10 * 45 * 8 + 1, 1 << 21])
def test_nb_score_blocks_match_one_block(monkeypatch, budget):
    # Blocks of one row, of three rows (the last one short) and the default
    # budget (two blocks here) score bit for bit as one block of every row
    # and as the (n, K, d) expression: each row's pairwise sum over its 45
    # terms is the same in any block.
    model, Q = _nb_ten_classes(1000)
    const = -0.5 * np.sum(np.log(2.0 * np.pi * model.var_), axis=1)
    quad = -0.5 * (
        (Q[:, None, :] - model.theta_[None, :, :]) ** 2 / model.var_[None, :, :]
    ).sum(axis=2)
    monkeypatch.setattr(nb_module, "_SCORE_BLOCK_BYTES", 1 << 40)
    one_block = model._scores(Q)
    monkeypatch.setattr(nb_module, "_SCORE_BLOCK_BYTES", budget)
    assert np.array_equal(one_block, model.log_priors_ + const + quad)
    assert np.array_equal(model._scores(Q), one_block)


def test_nb_scores_hold_one_block_at_a_time():
    # The (n, K, d) squared deviations of 4,000 queries would take 14.4 MB;
    # scoring holds one block of them plus a few (n, K) arrays.
    model, Q = _nb_ten_classes(4000)
    _, peak = traced_peak(lambda: model._scores(Q))
    assert peak <= nb_module._SCORE_BLOCK_BYTES + 4 * Q.shape[0] * 10 * 8


# -- logistic regression ----------------------------------------------------------

def test_logreg_loss_decreases_and_converges():
    X, y = blobs(seed=5, centers=((0, 0), (5, 5)))
    model = LogisticRegression(max_epochs=500).fit(X, y)
    assert model.final_loss_ < 0.1
    assert model.n_epochs_ <= 500
    assert model.converged_


def _newton_reference(X, y_idx, K, l2):
    """Damped Newton on loss_and_grad, with the Hessian built entry by entry.

    The bias columns leave the loss unchanged when all shift together, so
    the Hessian is singular along that line; the step is the least-squares
    (minimum-norm) solution, halved until the loss falls.
    """
    X_aug = np.column_stack([X, np.ones(len(X))])
    n, D = X_aug.shape
    W = np.zeros((K, D))
    for _ in range(100):
        loss, grad = loss_and_grad(W, X_aug, y_idx, l2)
        if np.abs(grad).max() < 1e-12:
            break
        logits = X_aug @ W.T
        P = np.exp(logits - logits.max(axis=1, keepdims=True))
        P /= P.sum(axis=1, keepdims=True)
        H = np.zeros((K * D, K * D))
        for i in range(n):
            A = np.diag(P[i]) - np.outer(P[i], P[i])
            H += np.kron(A, np.outer(X_aug[i], X_aug[i])) / n
        for k in range(K):
            for j in range(D - 1):
                H[k * D + j, k * D + j] += l2
        step = np.linalg.lstsq(H, grad.ravel(), rcond=None)[0].reshape(K, D)
        t = 1.0
        while loss_and_grad(W - t * step, X_aug, y_idx, l2)[0] > loss and t > 1e-10:
            t *= 0.5
        W = W - t * step
    return W


def test_logreg_matches_damped_newton_reference():
    X, y = blobs(seed=21, centers=((0, 0), (2, 0), (0, 2)))
    model = LogisticRegression(l2=1e-2, tol=1e-15).fit(X, y)
    y_idx = np.searchsorted(model.classes_, y)
    W = _newton_reference(X, y_idx, 3, 1e-2)
    X_aug = np.column_stack([X, np.ones(len(X))])
    logits = X_aug @ W.T
    want = np.exp(logits - logits.max(axis=1, keepdims=True))
    want /= want.sum(axis=1, keepdims=True)
    np.testing.assert_allclose(model.predict_proba(X), want, rtol=0, atol=1e-6)
    _, grad = loss_and_grad(model.weights_, X_aug, y_idx, 1e-2)
    assert np.abs(grad).max() < 1e-6
    assert model.converged_


def test_two_loop_matches_dense_bfgs_update():
    rng = np.random.default_rng(25)
    A = rng.normal(size=(6, 6))
    A = A @ A.T + np.eye(6)  # SPD, so every pair has s·y > 0
    pairs = []
    for _ in range(4):
        s = rng.normal(size=6)
        y = A @ s
        pairs.append((s, y, 1.0 / (s @ y)))
    s, y, _ = pairs[-1]
    H = (s @ y) / (y @ y) * np.eye(6)
    for s, y, rho in pairs:
        V = np.eye(6) - rho * np.outer(y, s)
        H = V.T @ H @ V + rho * np.outer(s, s)
    g = rng.normal(size=6)
    np.testing.assert_allclose(_two_loop(g, pairs), H @ g, rtol=1e-10)
    np.testing.assert_array_equal(_two_loop(g, []), g)


def test_logreg_final_loss_never_rises_with_more_epochs():
    # features span ~20 units, so a unit step overshoots and the line search must act
    X, y = blobs(seed=22, centers=((0, 0), (20, 0), (0, 20)))
    losses = []
    for cap in range(1, 41):
        model = LogisticRegression(max_epochs=cap).fit(X, y)
        assert model.n_epochs_ <= cap
        losses.append(model.final_loss_)
    assert all(b <= a for a, b in zip(losses, losses[1:])), losses
    assert losses[-1] < losses[0]


def test_logreg_stops_early_on_separable_data():
    X, y = blobs(seed=23, centers=((0, 0), (8, 8)))
    model = LogisticRegression().fit(X, y)
    assert model.converged_
    assert model.n_epochs_ < 100
    assert np.mean(np.asarray(model.predict(X)) == y) == 1.0


def test_logreg_capped_fit_reports_not_converged():
    X, y = blobs(seed=23, centers=((0, 0), (8, 8)))
    model = LogisticRegression(max_epochs=3).fit(X, y)
    assert model.n_epochs_ == 3
    assert not model.converged_


@pytest.mark.parametrize("l2", [0.0, 1e-2])
def test_logreg_loss_not_worse_than_fixed_step_gradient_descent(l2):
    X, y = blobs(seed=24)
    model = LogisticRegression(l2=l2).fit(X, y)
    X_aug = np.column_stack([X, np.ones(len(X))])
    y_idx = np.searchsorted(model.classes_, y)
    W = np.zeros((3, X_aug.shape[1]))
    for _ in range(1000):
        W -= 0.1 * loss_and_grad(W, X_aug, y_idx, l2)[1]
    assert model.final_loss_ <= loss_and_grad(W, X_aug, y_idx, l2)[0]
    assert model.final_loss_ == loss_and_grad(model.weights_, X_aug, y_idx, l2)[0]


def test_logreg_gradient_matches_finite_differences():
    rng = np.random.default_rng(6)
    X = np.column_stack([rng.normal(size=(12, 3)), np.ones(12)])
    y_idx = rng.integers(0, 3, size=12)
    W = rng.normal(size=(3, 4))
    _, grad = loss_and_grad(W, X, y_idx, l2=0.1)
    eps = 1e-6
    for _ in range(10):
        i, j = rng.integers(0, 3), rng.integers(0, 4)
        Wp, Wm = W.copy(), W.copy()
        Wp[i, j] += eps
        Wm[i, j] -= eps
        lp, _ = loss_and_grad(Wp, X, y_idx, l2=0.1)
        lm, _ = loss_and_grad(Wm, X, y_idx, l2=0.1)
        fd = (lp - lm) / (2 * eps)
        assert abs(grad[i, j] - fd) <= 1e-4 * max(1.0, abs(fd))


# -- linear SVM --------------------------------------------------------------------

def test_hinge_loss_kink():
    np.testing.assert_allclose(hinge_loss(np.array([2.0, 1.0, 0.0, -1.0])), [0.0, 0.0, 1.0, 2.0])


def test_svm_separates_blobs():
    X, y = blobs(seed=7, centers=((0, 0), (8, 8)))
    model = LinearSvm(epochs=50, seed=1).fit(X, y)
    acc = np.mean(np.asarray(model.predict(X)) == y)
    assert acc == 1.0


def test_svm_training_lowers_primal_objective():
    rng = np.random.default_rng(8)
    X = np.vstack([rng.normal(-2, 1, (60, 3)), rng.normal(2, 1, (60, 3))])
    y = np.asarray(["A"] * 60 + ["B"] * 60)
    lam = 1e-3
    model = LinearSvm(lam=lam, epochs=30, seed=2).fit(X, y)
    X_aug = np.column_stack([X, np.ones(len(X))])
    signs = np.where(y == "A", 1.0, -1.0)
    trained = primal_objective(model.weights_[0], X_aug, signs, lam)
    at_zero = primal_objective(np.zeros(4), X_aug, signs, lam)
    assert trained < at_zero


def test_svm_classic_single_sample_mode():
    X, y = blobs(seed=9, centers=((0, 0), (6, 6)))
    model = LinearSvm(epochs=40, seed=1, batch_size=1).fit(X, y)
    assert np.mean(np.asarray(model.predict(X)) == y) >= 0.95


# -- REP tree -------------------------------------------------------------------

def test_tree_fits_axis_aligned_rule():
    X = np.array([[v] for v in range(20)], dtype=float)
    y = ["A" if v < 10 else "B" for v in range(20)]
    model = RepTree(seed=1).fit(X, y)
    assert model.predict([[3.0]]) == ["A"]
    assert model.predict([[15.0]]) == ["B"]
    assert model.node_count >= 3


def test_tree_max_depth_limits_growth():
    X, y = blobs(seed=10)
    deep = RepTree(seed=1).fit(X, y)
    shallow = RepTree(max_depth=1, seed=1).fit(X, y)
    assert shallow.depth_ <= 1
    assert shallow.node_count <= deep.node_count


def test_tree_pruning_shrinks_noisy_tree():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(300, 4))
    y = np.where(X[:, 0] > 0, "A", "B")
    flips = rng.random(300) < 0.15
    y = np.where(flips, np.where(y == "A", "B", "A"), y)
    pruned = RepTree(seed=3).fit(X, list(y))
    grown = _grow_only_tree(seed=3).fit(X, list(y))
    assert pruned.node_count <= grown.node_count


def _grow_only_tree(**kwargs):
    class GrowOnly(RepTree):
        def _fit(self, X, y_idx):
            n = X.shape[0]
            rng = np.random.default_rng(self.seed)
            perm = rng.permutation(n)
            n_prune = min(int(round(self.pruning_fraction * n)), n - 1)
            self._grow(X[perm[n_prune:]], y_idx[perm[n_prune:]])
            self._compact()

    return GrowOnly(**kwargs)


class _ListPrunedTree(RepTree):
    """RepTree pruned through a list of rows per node and renumbered by a
    depth-first walk, as the tree did before it was grown in preorder."""

    def _prune(self, Xp, yp):
        n_nodes = self.feature_.shape[0]
        node_rows = [np.empty(0, dtype=np.intp)] * n_nodes
        node_rows[0] = np.arange(Xp.shape[0])
        for slot in range(n_nodes):
            if self.feature_[slot] == -1:
                continue
            rows = node_rows[slot]
            go_left = Xp[rows, self.feature_[slot]] <= self.threshold_[slot]
            node_rows[self.left_[slot]] = rows[go_left]
            node_rows[self.right_[slot]] = rows[~go_left]
        pred = np.argmax(self.counts_, axis=1)
        err = np.zeros(n_nodes, dtype=np.int64)
        for slot in range(n_nodes - 1, -1, -1):
            leaf_err = int(np.count_nonzero(yp[node_rows[slot]] != pred[slot]))
            if self.feature_[slot] == -1:
                err[slot] = leaf_err
                continue
            subtree_err = err[self.left_[slot]] + err[self.right_[slot]]
            if leaf_err <= subtree_err:
                self.feature_[slot] = -1
                err[slot] = leaf_err
            else:
                err[slot] = subtree_err

    def _compact(self):
        remap, order, depths = {}, [], []
        stack = [(0, 0)]
        while stack:
            slot, depth = stack.pop()
            remap[slot] = len(order)
            order.append(slot)
            depths.append(depth)
            if self.feature_[slot] != -1:
                stack.append((int(self.right_[slot]), depth + 1))
                stack.append((int(self.left_[slot]), depth + 1))
        take = np.asarray(order, dtype=np.intp)
        self.feature_ = self.feature_[take]
        self.threshold_ = self.threshold_[take]
        self.counts_ = self.counts_[take]
        self.left_, self.right_ = (
            np.asarray([remap[int(c)] if f != -1 else -1 for f, c in zip(self.feature_, links[take])],
                       dtype=np.intp)
            for links in (self.left_, self.right_)
        )
        self.depth_ = max(depths)


def _noisy(seed):
    """Two to five normal columns, K = 2 to 4 classes from a linear rule,
    a fifth of the labels redrawn: trees that pruning cuts back."""
    rng = np.random.default_rng(seed)
    n, d, K = int(rng.integers(60, 400)), int(rng.integers(2, 6)), int(rng.integers(2, 5))
    X = np.round(rng.normal(size=(n, d)), 2)
    codes = np.floor((X[:, 0] + 0.5 * X[:, -1]) * K / 3 + K / 2).clip(0, K - 1).astype(int)
    codes = np.where(rng.random(n) < 0.2, rng.integers(0, K, n), codes)
    return X, np.array([chr(65 + int(c)) for c in codes])


def _assert_preorder(tree):
    """Each inner node's left child is the next slot and its right child
    the slot after the left subtree, so each subtree is one run of slots."""
    n = tree.node_count
    end = np.arange(1, n + 1)  # one past the last slot of each subtree
    for s in range(n - 1, -1, -1):
        if tree.feature_[s] == -1:
            assert tree.left_[s] == tree.right_[s] == -1
        else:
            assert tree.left_[s] == s + 1 and tree.right_[s] == end[s + 1], s
            end[s] = end[tree.right_[s]]
    assert end[0] == n


@pytest.mark.parametrize("fraction", [0.1, 1 / 3, 0.6, 0.9])
def test_pruning_matches_the_per_node_reference(fraction):
    cut_back = 0
    for seed in range(20):
        X, y = _noisy(seed)
        tree = RepTree(pruning_fraction=fraction, seed=seed).fit(X, y)
        assert tree.to_dict() == _ListPrunedTree(pruning_fraction=fraction, seed=seed).fit(X, y).to_dict()
        grown = _grow_only_tree(pruning_fraction=fraction, seed=seed).fit(X, y)
        for fitted in (tree, grown):
            _assert_preorder(fitted)
        cut_back += tree.node_count < grown.node_count
    assert cut_back >= 15


def test_leaf_of_matches_a_descent_one_row_at_a_time():
    def descend(tree, x):
        node = 0
        while tree.feature_[node] != -1:
            go_left = x[tree.feature_[node]] <= tree.threshold_[node]
            node = tree.left_[node] if go_left else tree.right_[node]
        return node

    for seed in range(20):
        X, y = _noisy(seed)
        tree = RepTree(max_depth=None if seed % 2 else 4, seed=seed).fit(X, y)
        # Queries on each threshold too, where a row must go left.
        inner = tree.feature_ != -1
        Q = np.vstack([X, np.tile(X[:1], (int(inner.sum()), 1))])
        Q[len(X) + np.arange(inner.sum()), tree.feature_[inner]] = tree.threshold_[inner]
        assert tree._leaf_of(Q).tolist() == [descend(tree, q) for q in Q]
    assert tree._leaf_of(np.zeros((0, X.shape[1]))).shape == (0,)


# -- AdaBoost ----------------------------------------------------------------------

def test_adaboost_beats_single_stump():
    # one two-leaf stump can label at most 2 of 3 classes (accuracy <= 2/3);
    # boosted rounds recover all three
    X, y = blobs(seed=12)
    stump_acc = np.mean(np.asarray(AdaBoost(rounds=1).fit(X, y).predict(X)) == y)
    ens_acc = np.mean(np.asarray(AdaBoost(rounds=25).fit(X, y).predict(X)) == y)
    assert stump_acc <= 2 / 3 + 1e-9
    assert ens_acc > 0.9


def test_adaboost_stage_weights_positive():
    X, y = blobs(seed=13)
    model = AdaBoost(rounds=10).fit(X, y)
    assert len(model.alphas_) == 10
    assert all(a > 0 for a in model.alphas_)


# -- split choice against exhaustive search -------------------------------------------
#
# The tree and the stump share one search over presorted columns, exact at
# the valid cuts whose stage-1 gain is near the best; these oracles check
# their choices against a plain search over every distinct adjacent-value cut.

_TIE = 1e-12  # gains closer than this are tied up to float rounding


def _adjacent(lo, hi):
    return np.array([[lo]] * 8 + [[hi]] * 8), np.array(["A"] * 8 + ["B"] * 8)


# Adjacent doubles: the midpoint of 1.0 and the next double up rounds down to
# 1.0; that of the next double down and 1.0 rounds up to 1.0, the right value,
# so the threshold must fall back to the left one.
_ADJACENT = [_adjacent(1.0, np.nextafter(1.0, 2.0)), _adjacent(np.nextafter(1.0, 0.0), 1.0)]


def _tie_heavy(seed, n):
    """Values rounded to one decimal, a constant column, a copy of column 0."""
    rng = np.random.default_rng(seed)
    X = np.round(rng.normal(size=(n, 3)), 1)
    X[:, 1] = 2.5
    X = np.hstack([X, X[:, :1]])
    return X, np.array(list("ABC"))[rng.integers(0, 3, n)]


def _cuts(x, min_leaf):
    """Every (threshold, left mask) between distinct adjacent values of x,
    lowest cut first, leaving at least ``min_leaf`` rows on each side."""
    u = np.unique(x)
    for lo, hi in zip(u[:-1], u[1:]):
        left = x <= lo
        if min_leaf <= left.sum() <= x.size - min_leaf:
            mid = (lo + hi) / 2.0
            yield (lo if mid >= hi else mid), left


def _entropy(y_idx, K):
    p = np.bincount(y_idx, minlength=K) / y_idx.size
    p = p[p > 0]
    return float(-(p * np.log2(p)).sum())


class _GrowAll(RepTree):
    """RepTree grown on every training row, without pruning."""

    def _fit(self, X, y_idx):
        self._grow(X, y_idx)
        self._compact()


@pytest.mark.parametrize("min_leaf", [1, 2, 3])
def test_tree_split_choice_matches_exhaustive_search(min_leaf):
    # Mirror-image cuts tie exactly in real arithmetic but can differ by an
    # ulp in float, so a node may take any cut within _TIE of the best gain.
    # Exact float ties still go to the lowest feature: column 3 copies
    # column 0 bit for bit and must never be chosen.
    for X, y in [_tie_heavy(seed, 60) for seed in range(10)] + _ADJACENT:
        tree = _GrowAll(min_leaf_count=min_leaf).fit(X, y)
        y_idx = np.searchsorted(tree.classes_, y)
        K = len(tree.classes_)
        stack = [(0, np.arange(len(y)))]
        while stack:
            node, rows = stack.pop()
            yr = y_idx[rows]
            assert tree.counts_[node].tolist() == np.bincount(yr, minlength=K).tolist()
            h = _entropy(yr, K)
            gains, cuts = [], []
            for j in range(X.shape[1]):
                for thr, left in _cuts(X[rows, j], min_leaf):
                    p = left.sum() / rows.size
                    gains.append(h - p * _entropy(yr[left], K) - (1 - p) * _entropy(yr[~left], K))
                    cuts.append((j, thr))
            best = max(gains, default=0.0)
            j = int(tree.feature_[node])
            if j == -1:
                assert best <= _TIE, (node, best)
                continue
            # a split whose gain is zero up to rounding may take any cut
            allowed = [c for g, c in zip(gains, cuts) if g >= best - _TIE or best <= _TIE]
            assert (j, float(tree.threshold_[node])) in allowed, (node, allowed)
            assert j != 3
            go_left = X[rows, j] <= tree.threshold_[node]
            stack.append((int(tree.left_[node]), rows[go_left]))
            stack.append((int(tree.right_[node]), rows[~go_left]))


def test_stump_split_choice_matches_exhaustive_search():
    # The first stump is the tree's root split with leaves of one row: a cut
    # of the highest information gain (any within _TIE of it, never the
    # copy in column 3), each side predicting its most frequent class.
    for X, y in [_tie_heavy(seed, 64) for seed in range(20)] + _ADJACENT:
        model = AdaBoost(rounds=1).fit(X, y)
        y_idx = np.searchsorted(model.classes_, y)
        K = len(model.classes_)
        h = _entropy(y_idx, K)
        # (gain, feature, threshold, left class, right class)
        cuts = []
        for j in range(X.shape[1]):
            for thr, left in _cuts(X[:, j], 1):
                p = left.mean()
                gain = h - p * _entropy(y_idx[left], K) - (1 - p) * _entropy(y_idx[~left], K)
                sides = (np.bincount(y_idx[side], minlength=K) for side in (left, ~left))
                cuts.append((gain, j, thr, *(int(np.argmax(c)) for c in sides)))
        best = max(c[0] for c in cuts)
        assert best > _TIE
        stump = model.stumps_[0]
        allowed = [c[1:] for c in cuts if c[0] >= best - _TIE]
        assert (stump.feature, stump.threshold, stump.left, stump.right) in allowed
        assert stump.feature != 3


@pytest.mark.parametrize("X, y", _ADJACENT)
def test_threshold_between_adjacent_doubles_is_the_left_value(X, y):
    lo = X[0, 0]
    assert _GrowAll().fit(X, y).threshold_[0] == lo
    assert AdaBoost(rounds=1).fit(X, y).stumps_[0].threshold == lo


# -- split scans against the plain row-major layout ----------------------------------
#
# The tree scores exactly only the valid cuts whose stage-1 gain is within its
# margin of the best, one class ``bincount`` each, and must pick what a full
# exact scan picks; the weighted search adds each side's class weights over
# its rows in ascending row order.  These references scan every valid cut in
# the row-major (n, K) layout: tree counts from an (n, K) mass per row,
# ``cumsum(axis=0)`` gathered at the cuts, stump class weights from
# ``_row_order_sides``, and row entropies over classes.  Tree counts are
# exact integers and every weighted sum adds the same values in the same
# order, so stumps, alphas and trees must match bit for bit.


def presort(X):
    """Row orders of X by each feature, shape (d, n); equal values keep row order."""
    return np.argsort(X, axis=0, kind="stable").T


def _row_order_sides(y, w, order, K):
    """Class weights left and right of every cut of ``order``, each (n − 1,
    K), row i for the cut after i + 1 rows.  Each class adds its rows one by
    one in ascending row order, as ``bincount`` over a side's rows does: row
    r is left of the cuts after more than its rank in ``order`` rows."""
    n = len(order)
    rank = np.empty(n, dtype=np.intp)
    rank[order] = np.arange(n)
    left, right = np.zeros((K, n - 1)), np.zeros((K, n - 1))
    for r in range(n):
        left[y[r], rank[r] :] += w[r]
        right[y[r], : rank[r]] += w[r]
    return np.ascontiguousarray(left.T), np.ascontiguousarray(right.T)


def _row_major_scan(X, orders, mass, min_leaf=1):
    n = orders.shape[1]
    p = np.arange(1, n)
    for j, order in enumerate(orders):
        vs = X[order, j]
        ok = (vs[1:] > vs[:-1]) & (p >= min_leaf) & (p <= n - min_leaf)
        if ok.any():
            cuts = p[ok]
            yield j, cuts, np.cumsum(mass[order], axis=0)[cuts - 1], vs


def _row_major_stump(X, y_idx, w, K, orders):
    """The stump from a weighted entropy scan of every valid cut."""
    n = X.shape[0]
    mass = np.zeros((n, K))
    mass[np.arange(n), y_idx] = w
    totals = np.bincount(y_idx, weights=w, minlength=K)
    total = totals.sum()
    parent_h = _entropy_rows(totals[None, :])[0]
    majority = int(np.argmax(totals))
    best_gain = 0.0
    stump = {"feature": -1, "threshold": 0.0, "left": majority, "right": majority}
    for j, p, _, vs in _row_major_scan(X, orders, mass):
        left_w, right_w = (side[p - 1] for side in _row_order_sides(y_idx, w, orders[j], K))
        h = (left_w.sum(axis=1) / total) * _entropy_rows(left_w) + (
            right_w.sum(axis=1) / total
        ) * _entropy_rows(right_w)
        gains = parent_h - h
        at = int(np.argmax(gains))
        if gains[at] > best_gain:
            best_gain = float(gains[at])
            stump = {
                "feature": j,
                "threshold": midpoint(vs, int(p[at])),
                "left": int(np.argmax(left_w[at])),
                "right": int(np.argmax(right_w[at])),
            }
    return stump


def _row_major_adaboost(X, y_idx, K, rounds):
    """AdaBoost.M1 as a plain loop over row-major stumps: (params, errors)."""
    n = X.shape[0]
    w = np.ones(n)
    orders = presort(X)
    stumps, alphas, errors = [], [], []
    for _ in range(rounds):
        s = _row_major_stump(X, y_idx, w, K, orders)
        if s["feature"] == -1:
            pred = np.full(n, s["left"])
        else:
            pred = np.where(X[:, s["feature"]] <= s["threshold"], s["left"], s["right"])
        miss = pred != y_idx
        err = float(w[miss].sum() / w.sum())
        if not 0.0 < err < 0.5:
            if not stumps:
                stumps, alphas, errors = [s], [1.0], [err]
            break
        stumps.append(s)
        alphas.append(float(np.log((1.0 - err) / err)))
        errors.append(err)
        w[miss] *= (1.0 - err) / err
        w *= n / w.sum()
    return {"stumps": stumps, "alphas": alphas}, errors


def _entropy_rows(counts):
    """Row entropies as the tree computed them before the one-pass rewrite,
    normalizing each row by its own sum."""
    totals = counts.sum(axis=-1, keepdims=True)
    with np.errstate(invalid="ignore", divide="ignore"):
        p = np.where(totals > 0, counts / np.where(totals > 0, totals, 1), 0.0)
        logs = np.where(p > 0, np.log2(np.where(p > 0, p, 1.0)), 0.0)
    return -(p * logs).sum(axis=-1)


class _RowMajorTree(_GrowAll):
    """The tree's split search over an ``np.eye(K)[y]`` row-major mass."""

    def _best_split(self, X, orders, y, parent_counts):
        n = orders.shape[1]
        parent_h = _entropy_rows(parent_counts[None, :])[0]
        best_gain, best = 0.0, None
        onehot = np.eye(len(parent_counts))[y]
        for j, p, left_counts, vs in _row_major_scan(X, orders, onehot, self.min_leaf_count):
            right_counts = parent_counts - left_counts
            h = (p / n) * _entropy_rows(left_counts) + ((n - p) / n) * _entropy_rows(right_counts)
            gains = parent_h - h
            at = int(np.argmax(gains))
            if gains[at] > best_gain:
                best_gain = float(gains[at])
                best = (j, int(p[at]), midpoint(vs, int(p[at])))
        return best


def _tie_heavy_classes(seed, n, K):
    """Two-decimal columns whose class depends on them, a constant column
    and a bit-identical copy of column 0; labels are K letters."""
    rng = np.random.default_rng(seed)
    X = np.round(rng.normal(size=(n, 3)), 1)
    X[:, 2] = 0.5
    X = np.hstack([X, X[:, :1]])
    codes = (np.floor((X[:, 0] + X[:, 1]) * K / 3) + rng.integers(0, 2, n)) % K
    return X, np.array([chr(65 + int(c)) for c in codes])


def _class_blocked(seed, n, K):
    """Column 0 sorts the rows class by class, 2 % of labels redrawn, so
    classes run out one after another before the last cut; column 1 is
    one-decimal noise.  Rows come shuffled; labels are K letters."""
    rng = np.random.default_rng(seed)
    codes = np.sort(np.arange(n) % K)
    codes = np.where(rng.random(n) < 0.02, rng.integers(0, K, n), codes)
    X = np.column_stack([np.arange(n) / 8, np.round(rng.normal(size=n), 1)])
    perm = rng.permutation(n)
    return X[perm], np.array([chr(65 + int(c)) for c in codes[perm]])


# (data, K, seed, rows, rounds).  150 rows: after the first round the
# weights are inexact, so any change in the order of additions would move an
# error or an alpha.  Ten classes and most tie-heavy three-class cases stop
# after the first round, whose weighted error is ½ or more; the two-class
# cases and the class-blocked three-class ones keep tens to hundreds of
# rounds, and 200 rounds spread the weights over many orders of magnitude.
# Row counts are not powers of two.
_CLASS_MAJOR_CASES = [
    pytest.param(_tie_heavy_classes, K, seed, 150, 10, id=f"{K}-{seed}")
    for K in (2, 3, 10)
    for seed in range(6)
] + [
    pytest.param(make, K, seed, n, rounds, id=f"{make.__name__[1:]}-{K}-{n}-{rounds}r-{seed}")
    for make, K, seed, n, rounds in [
        (_tie_heavy_classes, 2, 0, 131, 200),
        (_tie_heavy_classes, 3, 0, 173, 60),
        (_tie_heavy_classes, 10, 3, 97, 60),
        (_tie_heavy_classes, 10, 22, 97, 200),
        (_class_blocked, 2, 20, 97, 200),
        (_class_blocked, 3, 14, 173, 60),
        (_class_blocked, 3, 10, 173, 200),
        (_class_blocked, 10, 0, 173, 200),
    ]
]


@pytest.mark.parametrize("make, K, seed, n, rounds", _CLASS_MAJOR_CASES)
def test_adaboost_matches_row_major_reference(make, K, seed, n, rounds):
    X, y = make(seed, n, K)
    model = AdaBoost(rounds=rounds).fit(X, y)
    y_idx = np.searchsorted(model.classes_, y)
    params, errors = _row_major_adaboost(X, y_idx, len(model.classes_), rounds)
    assert model.to_dict()["params"] == params
    assert model.errors_ == errors


def _stump_searches(monkeypatch) -> list:
    """A list that gains one entry per ``RepTree._best_split`` call."""
    calls = []
    best_split = RepTree._best_split

    def counted(self, *args):
        calls.append(None)
        return best_split(self, *args)

    monkeypatch.setattr(RepTree, "_best_split", counted)
    return calls


def _one_stump_separates(seed, n):
    """Two classes split by the sign of column 0; column 1 is noise."""
    X = np.random.default_rng(seed).normal(size=(n, 2))
    return X, np.where(X[:, 0] > 0, "B", "A")


@pytest.mark.parametrize("rounds", [10, 200])
def test_adaboost_stops_after_a_first_round_with_zero_error(monkeypatch, rounds):
    # The first stump misses nothing, so M1 keeps it alone, with α = 1, and
    # searches no further.
    X, y = _one_stump_separates(0, 150)
    searches = _stump_searches(monkeypatch)
    model = AdaBoost(rounds=rounds).fit(X, y)
    assert len(searches) == 1
    assert (model.alphas_, model.errors_) == ([1.0], [0.0])
    params, errors = _row_major_adaboost(X, np.searchsorted(model.classes_, y), 2, rounds)
    assert model.to_dict()["params"] == params
    assert model.errors_ == errors


@pytest.mark.parametrize("make, K, seed, n, rounds, alone", [
    # ten classes: the first stump errs on more than half the weight, so it
    # is kept alone, with α = 1
    pytest.param(_tie_heavy_classes, 10, 22, 97, 200, True, id="ten-classes"),
    # the class_blocked-3-173-200r-10 reference case: rounds are kept until
    # one errs on half the weight or more, and that one is dropped
    pytest.param(_class_blocked, 3, 10, 173, 200, False, id="three-classes"),
])
def test_adaboost_searches_once_per_round_until_it_stops(monkeypatch, make, K, seed, n, rounds, alone):
    X, y = make(seed, n, K)
    searches = _stump_searches(monkeypatch)
    model = AdaBoost(rounds=rounds).fit(X, y)
    kept = len(model.stumps_)
    assert len(model.alphas_) == len(model.errors_) == kept < rounds
    if alone:
        assert len(searches) == kept == 1
        assert model.alphas_ == [1.0] and model.errors_[0] >= 0.5
    else:
        assert len(searches) == kept + 1 and kept > 1
        assert all(0.0 < e < 0.5 for e in model.errors_)


def _mixed_tie_blocks(seed, n, K):
    """Like ``_class_blocked`` without the redrawn labels, but column 0
    comes in tie blocks of three rows, so a block can straddle a class
    change.  Rows within a block keep row order, which the shuffle makes
    random.  With K = 2, seed 3 and K = 3, seed 1 the root cut follows an
    (A, A, B) block: the rows either side of it are both B, yet it is a
    class boundary."""
    rng = np.random.default_rng(seed)
    codes = np.sort(np.arange(n) % K)
    X = np.column_stack([(np.arange(n) + 1) // 3, np.round(rng.normal(size=n), 1)])
    perm = rng.permutation(n)
    return X[perm].astype(float), np.array([chr(65 + int(c)) for c in codes[perm]])


# (data, K, seed, rows).  The tree scores exactly only the valid cuts near
# the best stage-1 gain; the reference scores every valid cut.  Class-blocked
# columns leave most cuts inside one-class runs, and min_leaf 5 puts the
# leaf bound inside such a run.  The first twelve keep their ids from
# before this list.
_TREE_CASES = [
    pytest.param(_tie_heavy_classes, 10, seed, 300, id=str(seed)) for seed in range(12)
] + [
    pytest.param(make, K, seed, n, id=f"{make.__name__[1:]}-{K}-{n}-{seed}")
    for make, K, seed, n in [
        (_class_blocked, 2, 20, 97),
        (_class_blocked, 3, 14, 173),
        (_class_blocked, 10, 0, 173),
        (_class_blocked, 10, 5, 400),
        (_mixed_tie_blocks, 2, 3, 61),
        (_mixed_tie_blocks, 3, 1, 100),
        (_mixed_tie_blocks, 10, 3, 250),
        (_tie_heavy_classes, 10, 0, 3000),
        (_class_blocked, 2, 0, 3000),
    ]
]


@pytest.mark.parametrize("make, K, seed, n", _TREE_CASES)
def test_tree_matches_row_major_reference(make, K, seed, n):
    # Ten classes: numpy sums a contiguous row of >= 8 classes pairwise, so
    # the counts must reach the entropy as C-ordered rows
    X, y = make(seed, n, K)
    for min_leaf in (1, 2, 5):
        tree = _GrowAll(min_leaf_count=min_leaf).fit(X, y)
        reference = _RowMajorTree(min_leaf_count=min_leaf).fit(X, y)
        assert tree.to_dict() == reference.to_dict()
        assert tree.node_count > 3


def _scaled_copies(seed, n, K):
    """100 columns.  Column 0 nearly separates K classes in one-decimal
    steps, so it ties often; every tenth column is column 0 times a power of
    two, exact, so it sorts and ties the same way; the rest is noise."""
    rng = np.random.default_rng(seed)
    codes = rng.integers(0, K, n)
    X = np.round(rng.normal(size=(n, 100)), 1)
    X[:, ::10] = np.round(codes + rng.normal(scale=0.7, size=n), 1)[:, None] * 2.0 ** np.arange(10)
    return X, np.array([chr(65 + int(c)) for c in codes])


@pytest.mark.parametrize("K", [3, 10])
def test_tree_breaks_many_way_ties_to_the_first_copy(K):
    # The ten copies tie bit for bit at every node, and at 3,000 rows the
    # last one lies in the second block of the stage-1 scan, so the
    # near-best cuts come from two blocks; the first copy must always win.
    X, y = _scaled_copies(K, 3000, K)
    assert tree_module._BLOCK_ELEMENTS // len(y) < 90
    tree = _GrowAll(max_depth=6).fit(X, y)
    assert tree.to_dict() == _RowMajorTree(max_depth=6).fit(X, y).to_dict()
    assert tree.feature_[0] == 0
    assert not np.isin(tree.feature_, np.arange(10, 100, 10)).any()
    assert tree.node_count > 15


def test_pipeline_report_matches_the_row_major_tree(tmp_path, monkeypatch):
    # The oracles above grow one tree on all rows; a preset run also prunes,
    # folds and normalizes, and must write the same report either way.
    channels = ("Fuel_consumption", "Engine_speed", "Vehicle_speed")
    log = write_trip_csv(str(tmp_path / "trip.csv"), labels=tuple("ABCDEFGHIJ"),
                         rows_per_label=60, separation=0.5)
    config = pipeline.preset_config(
        "table7", log, kinds=("zeror", "reptree"), feature_list=channels,
        window_length=10, window_stride=2, out_dir=str(tmp_path / "out"),
    )
    report = tmp_path / "out" / "report.json"
    pipeline.run_pipeline(config)
    fast = report.read_bytes()
    searches = []

    def reference(self, *args):
        searches.append(None)
        return _RowMajorTree._best_split(self, *args)

    monkeypatch.setattr(RepTree, "_best_split", reference)
    pipeline.run_pipeline(config)
    assert report.read_bytes() == fast
    assert len(searches) > 100


def _ties_reversed(X):
    """Stable row orders of X by each feature with every run of equal
    values reversed."""
    orders = presort(X)
    for j, order in enumerate(orders):
        run = np.concatenate([[0], np.cumsum(X[order[1:], j] != X[order[:-1], j])])
        orders[j] = order[np.lexsort((-np.arange(len(order)), run))]
    return orders


@pytest.mark.parametrize("K", [2, 3, 10])
def test_tree_does_not_depend_on_the_order_of_ties(monkeypatch, K):
    # numpy's default argsort orders equal values differently by version
    # and CPU; the tree must come out the same for any order of ties.
    X, y = _tie_heavy_classes(K, 400, K)
    fits = [RepTree().fit(X, y).to_dict()]
    for sort in (presort, _ties_reversed):
        monkeypatch.setattr(tree_module, "_feature_orders", sort)
        fits.append(RepTree().fit(X, y).to_dict())
    assert fits[0] == fits[1] == fits[2]
    assert len(fits[0]["params"]["feature"]) > 3


@pytest.mark.parametrize("make, K, seed, n, rounds", [
    pytest.param(_class_blocked, 3, 14, 173, 60, id="class_blocked-3-173-60r-14"),
    pytest.param(_tie_heavy_classes, 2, 0, 131, 200, id="tie_heavy_classes-2-131-200r-0"),
])
def test_adaboost_does_not_depend_on_the_order_of_ties(monkeypatch, make, K, seed, n, rounds):
    # As for the tree: every round's stump, error and stage weight must be
    # the same for any order of ties, here over tens of rounds whose weights
    # are no longer exact.  The last column mirrors column 0, so each cut of
    # one has a cut of the other with the same two sides and the same real
    # gain; only side sums that are the same floats for any order of ties
    # tie them exactly, every time, and then column 0 wins.
    X, y = make(seed, n, K)
    X = np.hstack([X, -X[:, :1]])
    fits = [AdaBoost(rounds=rounds).fit(X, y)]
    for sort in (presort, _ties_reversed):
        monkeypatch.setattr(tree_module, "_feature_orders", sort)
        fits.append(AdaBoost(rounds=rounds).fit(X, y))
    assert fits[0].to_dict() == fits[1].to_dict() == fits[2].to_dict()
    assert fits[0].errors_ == fits[1].errors_ == fits[2].errors_
    assert len(fits[0].stumps_) >= 10
    assert all(s.feature != X.shape[1] - 1 for s in fits[0].stumps_)


def _node_columns(seed, n, K):
    """One node's class codes and values, shape (n, 3): a tie-heavy column,
    a class-blocked column with one-class stretches, and a shuffled one."""
    rng = np.random.default_rng(seed)
    codes = np.sort(rng.integers(0, K, n))
    codes = np.where(rng.random(n) < 0.02, rng.integers(0, K, n), codes).astype(np.uint8)
    X = np.column_stack([
        np.round(rng.normal(size=n) + codes / K, 1),
        np.arange(n) // 3,
        rng.permutation(n),
    ]).astype(float)
    return codes, X


def _node(seed, n, K):
    """Sorted class codes of one node, shape (3, n), from ``_node_columns``;
    with the values that decide which cuts are valid."""
    codes, X = _node_columns(seed, n, K)
    orders = np.argsort(X.T, axis=1)
    return codes[orders], np.take_along_axis(X.T, orders, axis=1), np.bincount(codes, minlength=K)


@pytest.mark.parametrize("n", [2, 7, 300, 5000, 20000])
@pytest.mark.parametrize("K", [2, 10])
def test_stage_one_gains_lie_within_half_the_margin_of_exact_gains(n, K):
    for seed in range(3):
        ys, vs, counts = _node(seed, n, K)
        stage_one = _rank_gains(ys, counts)
        parent_h = _tree_entropy_rows(counts[None, :], np.array([n]))[0]
        half = _gain_margin(n, K) / 2
        p = np.arange(1, n)
        for row, gains, values in zip(ys, stage_one, vs):
            left = np.cumsum(np.eye(K)[row], axis=0)[:-1]
            h = (p / n) * _tree_entropy_rows(left, p) + ((n - p) / n) * _tree_entropy_rows(
                counts - left, n - p
            )
            valid = values[1:] > values[:-1]
            assert np.abs(gains - (parent_h - h))[valid].max(initial=0.0) <= half


@pytest.mark.parametrize("n", [2, 7, 300, 5000])
@pytest.mark.parametrize("K", [2, 10])
@pytest.mark.parametrize("octaves", [0, 40])
def test_weighted_stage_one_gains_lie_within_half_the_margin_of_exact_gains(n, K, octaves):
    # Weights uniform in (0, 1], or boosting-shaped: 2^-u for u uniform in
    # [0, 40], so from about 1e-12 to 1.  Exact gains add each side's class
    # weights in ascending row order, bit for bit as the search's stage 2
    # (``_side_weights``) does, and stage 1 adds them in sorted order.
    for seed in range(3):
        codes, X = _node_columns(seed, n, K)
        rng = np.random.default_rng(seed)
        w = 1.0 - rng.random(n) if octaves == 0 else 2.0 ** -rng.uniform(0, octaves, n)
        totals = np.bincount(codes, weights=w, minlength=K)
        total = float(totals.sum())
        orders = _feature_orders(X)
        stage_one = _rank_gains(codes[orders], np.bincount(codes, minlength=K), w[orders], total)
        parent_h = _tree_entropy_rows(totals[None, :], np.array([total]))[0]
        half = _gain_margin(n, K, total) / 2
        for j, (order, gains) in enumerate(zip(orders, stage_one)):
            left, right = _row_order_sides(codes, w, order, K)
            lw, rw = left.sum(axis=1), right.sum(axis=1)
            h = (lw / total) * _tree_entropy_rows(left, lw) + (rw / total) * _tree_entropy_rows(
                right, rw
            )
            vs = X[order, j]
            valid = vs[1:] > vs[:-1]
            assert np.abs(gains - (parent_h - h))[valid].max(initial=0.0) <= half
            for cut in range(1, n, max(1, n // 40)):
                on_left = np.zeros(n, dtype=bool)
                on_left[order[:cut]] = True
                masked = [np.bincount(codes[m], weights=w[m], minlength=K) for m in (on_left, ~on_left)]
                assert np.array_equal(_side_weights(codes, w, order, cut, K), masked)
                assert np.array_equal(masked, [left[cut - 1], right[cut - 1]])


def _codes(labels):
    return np.array([ord(c) - 65 for c in labels], dtype=np.uint8)


def _exhaustive_weighted_split(X, rows, y, w, K, min_leaf):
    """The first cut of the highest gain > 0 among every valid cut of the
    node of ``rows``, as (feature, left size, threshold); each side's class
    weights are summed over a row mask."""
    totals = np.bincount(y[rows], weights=w[rows], minlength=K)
    total = totals.sum()
    parent_h = _tree_entropy_rows(totals[None, :], np.array([total]))[0]
    best, best_gain = None, 0.0
    for j in range(X.shape[1]):
        for thr, left in _cuts(X[rows, j], min_leaf):
            h = 0.0
            for side in (left, ~left):
                mass = np.bincount(y[rows][side], weights=w[rows][side], minlength=K)[None, :]
                size = mass.sum(axis=1)
                h = h + (size / total) * _tree_entropy_rows(mass, size)
            gain = float((parent_h - h)[0])
            if gain > best_gain:
                best_gain, best = gain, (j, int(left.sum()), float(thr))
    return best


@pytest.mark.parametrize("K", [2, 3, 10])
@pytest.mark.parametrize("min_leaf", [1, 2, 3])
def test_weighted_split_matches_exhaustive_search(K, min_leaf):
    # Dyadic weights k/64 make every class weight an exact sum in any order,
    # so cuts that tie in real arithmetic tie bit for bit, and the search
    # must pick the first best cut of a scan over every valid cut (never the
    # copy of column 0 in column 3), at the root and at a node of half the rows.
    search = RepTree(min_leaf_count=min_leaf)
    for seed in range(8):
        X, labels = _tie_heavy_classes(seed, 120, K)
        y, n = _codes(labels), len(labels)
        rng = np.random.default_rng(seed)
        w = rng.integers(1, 65, n) / 64
        all_orders = _feature_orders(X)
        for rows in (np.arange(n), np.sort(rng.choice(n, n // 2, replace=False))):
            keep = np.zeros(n, dtype=bool)
            keep[rows] = True
            orders = all_orders[keep[all_orders]].reshape(len(all_orders), -1)
            totals = np.bincount(y[rows], weights=w[rows], minlength=K)
            split = search._best_split(X, orders, y, totals, w)
            assert split == _exhaustive_weighted_split(X, rows, y, w, K, min_leaf)
            assert split is not None and split[0] != 3


@pytest.mark.parametrize("K", [2, 3, 10])
def test_unit_weights_choose_the_unweighted_split_bit_for_bit(K):
    for seed in range(6):
        X, labels = _tie_heavy_classes(seed, 150, K)
        y, n = _codes(labels), len(labels)
        counts = np.bincount(y, minlength=K)
        orders = _feature_orders(X)
        ones = np.ones(n)
        assert np.array_equal(
            _rank_gains(y[orders], counts), _rank_gains(y[orders], counts, ones[orders], float(n))
        )
        for min_leaf in (1, 2, 3):
            tree = RepTree(min_leaf_count=min_leaf)
            split = tree._best_split(X, orders, y, counts)
            assert split is not None
            assert tree._best_split(X, orders, y, counts.astype(np.float64), ones) == split
        # AdaBoost's first round has weights of 1: its stump is the root of
        # a one-level tree grown on every row with leaves of one row
        stump = AdaBoost(rounds=1).fit(X, labels).stumps_[0]
        root = _GrowAll(min_leaf_count=1, max_depth=1).fit(X, labels)
        assert (stump.feature, stump.threshold) == (root.feature_[0], root.threshold_[0])


def test_stump_classes_come_from_the_chosen_cut():
    # Both sides tie between two classes (lowest wins); the rows either side
    # of the cut would break either tie the other way.
    X = np.array([[0.0]] * 7 + [[1.0]] * 7)
    y = list("AAABBBD") + list("BCCCDDD")
    stump = AdaBoost(rounds=1).fit(X, y).stumps_[0]
    assert stump.to_dict() == {"feature": 0, "threshold": 0.5, "left": 0, "right": 2}


def test_adaboost_alphas_recompute_from_errors():
    # Every kept round errs strictly between 0 and 1/2, and its stage
    # weight is ln((1 - err) / err) exactly.
    X, y = blobs(seed=13)
    model = AdaBoost(rounds=10).fit(X, y)
    assert len(model.errors_) == 10
    assert all(0.0 < e < 0.5 for e in model.errors_)
    for e, alpha in zip(model.errors_, model.alphas_):
        assert alpha == np.log((1.0 - e) / e)
    saved = json.dumps(model.to_dict())
    assert "errors" not in saved
    assert not hasattr(AdaBoost.from_dict(json.loads(saved)), "errors_")
