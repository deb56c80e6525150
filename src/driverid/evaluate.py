"""Cross-validation, confusion matrices, and classification metrics.

The confusion convention is ``counts[i, j]`` = instances of true class ``i``
predicted as class ``j``, counted from label codes by
:func:`confusion_from_predictions`.  :class:`ConfusionMatrix` checks the
counts and is the one source of every number derived from them: overall
accuracy (``100 · trace / total``) and per-class TP/FP/FN/TN vectors,
which :func:`metrics` turns into precision, recall and F1 (in percent)
and the class-averaged 2×2 matrix for all classes at once.  A report read
back from JSON is rebuilt from its pooled and per-fold counts.

Cross-validation is split in two.  :meth:`Folds.build` assigns windows to
folds once per run (a seeded shuffle dealt round-robin, per class when
stratified) and fits each fold's normalization, on its training rows only
by default.  :func:`cross_validate` then fits and scores one model kind on
those folds, keeping each fold's confusion matrix and pooling their sum;
only each fold's predicted labels are encoded into codes.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Sequence

import numpy as np

from . import models
from .errors import (
    DriverIdError,
    EmptyMatrix,
    InvalidOption,
    NoBaselineDesignated,
    TooFewInstancesPerClass,
    name_list,
    one_of,
    reading,
    whole_number,
)
from .features import FeatureMatrix, NormalizationParams, apply_normalizer, fit_normalizer
from .ingest import check_codes, encode_labels, holds_integers

SPLIT_MODES = ("random-window",)
NORMALIZE_POLICIES = ("train", "all", "none")


@dataclass(frozen=True, eq=False)
class ConfusionMatrix:
    """Square count matrix over an ordered class alphabet: ``classes`` must
    be a list or tuple of distinct names, in any order, and ``counts`` a
    square matrix of integers >= 0 whose total fits in int64."""

    classes: tuple[str, ...]
    counts: np.ndarray

    def __post_init__(self) -> None:
        classes = name_list("classes", self.classes)
        if len(set(classes)) != len(classes):
            raise DriverIdError(f"classes {list(classes)} are not distinct")
        counts, n = np.asarray(self.counts), len(classes)
        if counts.shape != (n, n) or not holds_integers(counts):
            raise DriverIdError(f"confusion counts must be a {n} x {n} integer matrix")
        counts = counts.astype(np.int64)
        if (counts < 0).any() or counts.sum(dtype=np.float64) >= 2.0**63:
            raise DriverIdError("confusion counts must be >= 0 with a total below 2**63")
        counts.flags.writeable = False
        object.__setattr__(self, "classes", classes)
        object.__setattr__(self, "counts", counts)

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    @property
    def accuracy(self) -> float:
        """Percent of instances on the diagonal.  Parenthesized so the ratio
        rounds once: a baseline's pooled accuracy is then bit-identical to
        100 * the majority proportion (count / n)."""
        if self.total == 0:
            raise EmptyMatrix("confusion matrix has no instances")
        return 100.0 * (float(np.trace(self.counts)) / self.total)

    @property
    def outcomes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Per-class (TP, FP, FN, TN) vectors: the diagonal, the rest of each
        column (others predicted as the class), the rest of each row (the
        class predicted as others), and the rest, which sum to the total."""
        tp = np.diagonal(self.counts)
        fp = self.counts.sum(axis=0) - tp
        fn = self.counts.sum(axis=1) - tp
        return tp, fp, fn, self.total - tp - fp - fn


def confusion_from_predictions(y_true, y_pred, classes: Sequence[str]) -> ConfusionMatrix:
    """Count (true, predicted) pairs of codes into ``classes``.

    ``classes``, in any order, must be a list or tuple of names, and both
    sides 1-D integer codes into it (else :class:`UnknownLabel`).
    """
    classes = name_list("classes", classes)
    true, pred = check_codes(classes, y_true), check_codes(classes, y_pred)
    if true.size != pred.size:
        raise DriverIdError(f"{true.size} true labels vs {pred.size} predictions")
    k = len(classes)
    counts = np.bincount(true * k + pred, minlength=k * k).reshape(k, k)
    return ConfusionMatrix(classes=classes, counts=counts)


@dataclass(frozen=True, eq=False)
class MetricsReport:
    """Percent metrics computed from one confusion matrix; a cross-validation's
    report also holds each fold's matrix, in fold order, which sum to it."""

    classes: tuple[str, ...]
    counts: np.ndarray
    accuracy: float
    per_class: tuple[dict, ...]
    averaged_2x2: tuple[tuple[float, float], tuple[float, float]]
    fold_matrices: tuple[ConfusionMatrix, ...] | None = None
    metadata: dict = field(default_factory=dict)

    @property
    def fold_accuracies(self) -> tuple[float, ...] | None:
        return None if self.fold_matrices is None else tuple(f.accuracy for f in self.fold_matrices)

    def to_dict(self) -> dict:
        folds = self.fold_matrices
        return {
            "classes": list(self.classes),
            "confusion": self.counts.tolist(),
            "accuracy": self.accuracy,
            "per_class": [dict(d) for d in self.per_class],
            "averaged_2x2": [list(row) for row in self.averaged_2x2],
            "fold_accuracies": None if folds is None else [f.accuracy for f in folds],
            "fold_confusion": None if folds is None else [f.counts.tolist() for f in folds],
            "metadata": dict(self.metadata),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "MetricsReport":
        """The report :func:`metrics` rebuilds from ``d``'s classes, pooled and
        fold counts; ``d``'s accuracy, per-class rows, averaged 2×2 and fold
        accuracies must equal its.  The fold counts must sum to the pooled ones
        (totals first, so that no int64 partial sum wraps), and a report whose
        ``metadata.plan`` names its folds must hold one matrix per fold.  A
        document that is not an object or lacks a key raises DriverIdError."""
        with reading("metrics report"):
            cm, folds = ConfusionMatrix(d["classes"], d["confusion"]), d.get("fold_confusion")
        if folds is None and d.get("fold_accuracies") is not None:
            raise DriverIdError("fold counts are missing: fold_accuracies but no fold_confusion")
        if folds is not None:
            if not isinstance(folds, list):
                raise DriverIdError(f"fold_confusion must be a list of matrices, not {folds!r}")
            folds = tuple(ConfusionMatrix(cm.classes, f) for f in folds)
            same_total = sum(f.total for f in folds) == cm.total
            if not (same_total and (sum(f.counts for f in folds) == cm.counts).all()):
                raise DriverIdError("fold counts do not sum to the confusion counts")
        metadata = d.get("metadata", {})
        if not isinstance(metadata, dict):
            raise DriverIdError(f"metadata must be an object, not {metadata!r}")
        report = metrics(cm, fold_matrices=folds, metadata=dict(metadata))
        rebuilt = report.to_dict()
        for key in ("accuracy", "per_class", "averaged_2x2", "fold_accuracies"):
            if d.get(key) != rebuilt[key]:
                raise DriverIdError(f"{key} does not follow from the confusion counts")
        n_folds, plan = len(folds or ()), report.metadata.get("plan")
        if isinstance(plan, dict) and "folds" in plan and n_folds != plan["folds"]:
            raise DriverIdError(f"{n_folds} fold matrices for a plan of {plan['folds']!r} folds")
        return report


_SCORES = ("precision", "recall", "f1")


def _ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num / den, and 0 where den is 0."""
    return np.divide(num, den, out=np.zeros(len(num)), where=den > 0)


def metrics(cm: ConfusionMatrix, **report_fields) -> MetricsReport:
    """Per-class precision/recall/F1 and overall accuracy, in percent.

    A zero denominator (class never predicted, class absent, or both
    precision and recall zero for F1) yields metric 0 and an entry in that
    class's ``undefined`` list — the report never divides by zero.
    """
    tp, fp, fn, tn = cm.outcomes
    precision, recall = _ratio(100.0 * tp, tp + fp), _ratio(100.0 * tp, tp + fn)
    f1 = _ratio(2.0 * precision * recall, precision + recall)
    scores = np.column_stack([precision, recall, f1]).tolist()
    undefined = (np.column_stack([tp + fp, tp + fn, precision + recall]) == 0).tolist()
    rows = tuple(
        {"class": c, **dict(zip(_SCORES, s)), "undefined": [n for n, u in zip(_SCORES, f) if u]}
        for c, s, f in zip(cm.classes, scores, undefined)
    )
    avg = (np.array([[tp, fn], [fp, tn]]).sum(axis=2) / len(cm.classes)).tolist()
    return MetricsReport(
        cm.classes, cm.counts, cm.accuracy, rows, (tuple(avg[0]), tuple(avg[1])), **report_fields
    )


@dataclass(frozen=True)
class CvPlan:
    """How to split instances into folds."""

    folds: int = 10
    stratified: bool = True
    seed: int = 1
    split_mode: str = "random-window"

    def __post_init__(self) -> None:
        object.__setattr__(self, "folds", whole_number("folds", self.folds, 2))
        object.__setattr__(self, "seed", whole_number("seed", self.seed, 0))
        if not isinstance(self.stratified, bool):
            raise InvalidOption(f"stratified must be true or false, got {self.stratified!r}")
        one_of("split_mode", self.split_mode, SPLIT_MODES)


def fold_assignments(matrix: FeatureMatrix, plan: CvPlan) -> np.ndarray:
    """Fold index per row of ``matrix``: a seeded shuffle, then round-robin
    — per class when stratified (requiring every class to have at least
    ``folds`` instances) or globally otherwise.  Every instance lands in
    exactly one fold.
    """
    n = len(matrix)
    if n < plan.folds:
        raise TooFewInstancesPerClass(f"{n} instances for {plan.folds} folds")
    fold_of = np.empty(n, dtype=np.intp)
    rng = np.random.default_rng(plan.seed)
    if not plan.stratified:
        fold_of[rng.permutation(n)] = np.arange(n) % plan.folds
        return fold_of
    for c, cls in enumerate(matrix.label_alphabet):
        idx = np.flatnonzero(matrix.codes == c)
        if idx.size < plan.folds:
            raise TooFewInstancesPerClass(
                f"class {cls!r} has {idx.size} instances, fewer than {plan.folds} folds"
            )
        fold_of[rng.permutation(idx)] = np.arange(idx.size) % plan.folds
    return fold_of


@dataclass(frozen=True, eq=False)
class Folds:
    """One cross-validation split of ``matrix``, built once and shared by every kind.

    ``rows[f]`` is fold ``f``'s ``(train_rows, test_rows)`` index pair and
    ``params[f]`` the min-max scaling both get: fitted on the training rows
    for ``"train"`` (the leakage-free default), one whole-matrix fit for
    ``"all"``, None for ``"none"``.
    """

    matrix: FeatureMatrix
    plan: CvPlan
    normalize: str
    rows: tuple[tuple[np.ndarray, np.ndarray], ...]
    params: tuple[NormalizationParams | None, ...]

    @classmethod
    def build(
        cls, matrix: FeatureMatrix, plan: CvPlan = CvPlan(), normalize: str = "train"
    ) -> "Folds":
        one_of("normalize", normalize, NORMALIZE_POLICIES)
        fold_of = fold_assignments(matrix, plan)
        rows = tuple(
            (np.flatnonzero(fold_of != f), np.flatnonzero(fold_of == f))
            for f in range(plan.folds)
        )
        if normalize == "train":
            params = tuple(fit_normalizer(matrix.features[train]) for train, _ in rows)
        else:
            params = (fit_normalizer(matrix.features) if normalize == "all" else None,) * plan.folds
        return cls(matrix, plan, normalize, rows, params)


def cross_validate(kind: str, config: dict | None, folds: Folds) -> MetricsReport:
    """K-fold evaluation of one kind over ``folds``: one confusion matrix per
    fold, and the report of their sum.  Everything is deterministic for a
    fixed plan seed.
    """
    matrix = folds.matrix
    classes, codes = matrix.label_alphabet, matrix.codes
    fold_matrices = []
    for (train, test), params in zip(folds.rows, folds.params):
        X_train, X_test = matrix.features[train], matrix.features[test]
        if params is not None:
            # The gathered copies are the fold's own: scale them in place.
            apply_normalizer(params, X_train, out=X_train)
            apply_normalizer(params, X_test, out=X_test)
        model = models.make(kind, config).fit(X_train, codes[train], classes=classes)
        predicted = encode_labels(model.predict(X_test), classes)[1]
        fold_matrices.append(confusion_from_predictions(codes[test], predicted, classes))
    return metrics(
        ConfusionMatrix(classes=classes, counts=sum(cm.counts for cm in fold_matrices)),
        fold_matrices=tuple(fold_matrices),
        metadata={
            "kind": kind,
            "config": dict(config or {}),
            "plan": asdict(folds.plan),
            "normalize": folds.normalize,
            "n_instances": len(matrix),
            "n_features": matrix.n_features,
        },
    )


BASELINE_KIND = "zeror"


def baseline_compare(reports: Sequence[MetricsReport]) -> dict:
    """Accuracy deltas against the ZeroR baseline report, ranked.

    Every report appears as a row (the baseline compares to itself with
    delta 0); rows whose accuracy does not exceed the baseline are flagged
    ``better: false``.  Raises NoBaselineDesignated when no report came
    from a ZeroR run.
    """
    baseline = next(
        (r for r in reports if r.metadata.get("kind") == BASELINE_KIND), None
    )
    if baseline is None:
        raise NoBaselineDesignated(
            f"no report with kind {BASELINE_KIND!r} among {len(reports)} reports"
        )
    rows = []
    for r in reports:
        delta = r.accuracy - baseline.accuracy
        rows.append(
            {
                "kind": r.metadata.get("kind", "?"),
                "accuracy": r.accuracy,
                "delta_vs_baseline": delta,
                "better_than_baseline": delta > 0,
            }
        )
    rows.sort(key=lambda row: (-row["accuracy"], row["kind"]))
    return {
        "baseline": {"kind": BASELINE_KIND, "accuracy": baseline.accuracy},
        "ranking": rows,
    }
