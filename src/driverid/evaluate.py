"""Cross-validation, confusion matrices, and classification metrics.

The confusion convention is ``counts[i, j]`` = instances of true class ``i``
predicted as class ``j``.  Per-class TP/FP/FN/TN follow from the matrix
(diagonal / column remainder / row remainder / double sum), precision,
recall, and F1 are reported in percent, and overall accuracy is
``100 · trace / total`` — algebraically the same as computing accuracy on
the class-averaged 2×2 matrix, which is also reported.

Cross-validation is split in two.  :meth:`Folds.build` assigns windows to
folds once per run (stratified round-robin after a seeded per-class shuffle
by default, or contiguous time blocks) and fits each fold's normalization,
on its training rows only by default.  :func:`cross_validate` then fits and
scores one model kind on those folds and pools one confusion matrix.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Sequence

import numpy as np

from . import models
from .errors import (
    DriverIdError,
    EmptyMatrix,
    NoBaselineDesignated,
    TooFewInstancesPerClass,
    UnknownLabel,
)
from .features import FeatureMatrix, NormalizationParams, apply_normalizer, fit_normalizer
from .ingest import encode_labels
from .models.base import whole_number

SPLIT_MODES = ("random-window", "blocked-time")
NORMALIZE_POLICIES = ("train", "all", "none")


@dataclass(frozen=True)
class ConfusionMatrix:
    """Square count matrix over an ordered class alphabet."""

    classes: tuple[str, ...]
    counts: np.ndarray

    def __post_init__(self) -> None:
        counts = np.asarray(self.counts, dtype=np.int64)
        object.__setattr__(self, "counts", counts)
        n = len(self.classes)
        if counts.shape != (n, n):
            raise DriverIdError(f"counts shape {counts.shape} for {n} classes")
        if (counts < 0).any():
            raise DriverIdError("confusion counts must be nonnegative")
        counts.flags.writeable = False

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def confusion_from_predictions(
    y_true, y_pred, classes: Sequence[str] | None = None
) -> ConfusionMatrix:
    """Count (true, predicted) pairs over ``classes`` (default: sorted union).

    With ``classes`` given, either side may be an integer array of codes
    into it.  A label or code outside it raises :class:`UnknownLabel`.
    """
    n = len(y_true)
    if n != len(y_pred):
        raise DriverIdError(f"{n} true labels vs {len(y_pred)} predictions")
    if classes is None:
        both = np.concatenate([np.asarray(y_true, dtype=str), np.asarray(y_pred, dtype=str)])
        classes, codes = encode_labels(both)
        true, pred = codes[:n], codes[n:]
    else:
        classes = tuple(classes)
        true, pred = (_codes_into(classes, y) for y in (y_true, y_pred))
    k = len(classes)
    counts = np.bincount(true * k + pred, minlength=k * k).reshape(k, k)
    return ConfusionMatrix(classes=classes, counts=counts)


def _codes_into(classes: tuple[str, ...], y) -> np.ndarray:
    if not (isinstance(y, np.ndarray) and y.dtype.kind in "iu"):
        return encode_labels(y, classes)[1]
    if y.size and (y.min() < 0 or y.max() >= len(classes)):
        raise UnknownLabel(f"label codes outside [0, {len(classes)})")
    return y


def per_class_counts(cm: ConfusionMatrix, i: int) -> tuple[int, int, int, int]:
    """(TP, FP, FN, TN) for class index ``i``.

    TP is the diagonal cell; FP sums the rest of column i (others predicted
    as i); FN sums the rest of row i (i predicted as others); TN is
    everything else.  The four always sum to the instance total.
    """
    n = len(cm.classes)
    if not 0 <= i < n:
        raise IndexError(f"class index {i} out of range [0, {n})")
    c = cm.counts
    tp = int(c[i, i])
    fp = int(c[:, i].sum() - c[i, i])
    fn = int(c[i, :].sum() - c[i, i])
    tn = int(c.sum() - tp - fp - fn)
    return tp, fp, fn, tn


@dataclass(frozen=True)
class MetricsReport:
    """Percent metrics computed from one (possibly pooled) confusion matrix."""

    classes: tuple[str, ...]
    counts: np.ndarray
    accuracy: float
    per_class: tuple[dict, ...]
    averaged_2x2: tuple[tuple[float, float], tuple[float, float]]
    fold_accuracies: tuple[float, ...] | None = None
    metadata: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "classes": list(self.classes),
            "confusion": [[int(v) for v in row] for row in self.counts],
            "accuracy": self.accuracy,
            "per_class": [dict(d) for d in self.per_class],
            "averaged_2x2": [list(row) for row in self.averaged_2x2],
            "fold_accuracies": list(self.fold_accuracies)
            if self.fold_accuracies is not None
            else None,
            "metadata": dict(self.metadata),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "MetricsReport":
        avg = d["averaged_2x2"]
        return cls(
            classes=tuple(d["classes"]),
            counts=np.asarray(d["confusion"], dtype=np.int64),
            accuracy=float(d["accuracy"]),
            per_class=tuple(dict(row) for row in d["per_class"]),
            averaged_2x2=((avg[0][0], avg[0][1]), (avg[1][0], avg[1][1])),
            fold_accuracies=tuple(d["fold_accuracies"])
            if d.get("fold_accuracies") is not None
            else None,
            metadata=dict(d.get("metadata", {})),
        )


def metrics(cm: ConfusionMatrix, **report_fields) -> MetricsReport:
    """Per-class precision/recall/F1 and overall accuracy, in percent.

    A zero denominator (class never predicted, class absent, or both
    precision and recall zero for F1) yields metric 0 and an entry in that
    class's ``undefined`` list — the report never divides by zero.
    """
    total = cm.total
    if total == 0:
        raise EmptyMatrix("confusion matrix has no instances")
    rows = []
    avg = np.zeros((2, 2))
    for i, cls in enumerate(cm.classes):
        tp, fp, fn, tn = per_class_counts(cm, i)
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
        rows.append(
            {
                "class": cls,
                "precision": precision,
                "recall": recall,
                "f1": f1,
                "undefined": undefined,
            }
        )
        avg += np.array([[tp, fn], [fp, tn]], dtype=np.float64)
    avg /= len(cm.classes)
    # Parenthesized so the ratio rounds once: a baseline's pooled accuracy is
    # then bit-identical to 100 * the majority proportion (count / n).
    accuracy = 100.0 * (float(np.trace(cm.counts)) / total)
    return MetricsReport(
        classes=cm.classes,
        counts=cm.counts,
        accuracy=accuracy,
        per_class=tuple(rows),
        averaged_2x2=((avg[0, 0], avg[0, 1]), (avg[1, 0], avg[1, 1])),
        **report_fields,
    )


@dataclass(frozen=True)
class CvPlan:
    """How to split instances into folds."""

    folds: int = 10
    stratified: bool = True
    seed: int = 1
    split_mode: str = "random-window"

    def __post_init__(self) -> None:
        try:
            object.__setattr__(self, "folds", whole_number("folds", self.folds, 2))
            object.__setattr__(self, "seed", whole_number("seed", self.seed, 0))
        except ValueError as e:
            raise DriverIdError(str(e)) from None
        if self.split_mode not in SPLIT_MODES:
            raise DriverIdError(
                f"split_mode must be one of {SPLIT_MODES}, got {self.split_mode!r}"
            )


def fold_assignments(matrix: FeatureMatrix, plan: CvPlan) -> np.ndarray:
    """Fold index per row of ``matrix``.

    random-window: seeded shuffle, then round-robin — per class when
    stratified (requiring every class to have at least ``folds`` instances)
    or globally otherwise.  blocked-time: ``folds`` contiguous index blocks,
    preserving time order at the cost of class balance.  Every instance
    lands in exactly one fold.
    """
    n = len(matrix)
    if n < plan.folds:
        raise TooFewInstancesPerClass(f"{n} instances for {plan.folds} folds")
    fold_of = np.empty(n, dtype=np.intp)
    if plan.split_mode == "blocked-time":
        fold_of[:] = (np.arange(n) * plan.folds) // n
        return fold_of
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


@dataclass(frozen=True)
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
        if normalize not in NORMALIZE_POLICIES:
            raise DriverIdError(
                f"normalize must be one of {NORMALIZE_POLICIES}, got {normalize!r}"
            )
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
    """K-fold evaluation of one kind over ``folds``, with one pooled confusion matrix.

    Per-fold accuracies ride along in the report; everything is
    deterministic for a fixed plan seed.
    """
    matrix = folds.matrix
    classes, codes = matrix.label_alphabet, matrix.codes
    pooled = np.zeros((len(classes), len(classes)), dtype=np.int64)
    fold_accuracies = []
    for (train, test), params in zip(folds.rows, folds.params):
        X_train, X_test = matrix.features[train], matrix.features[test]
        if params is not None:
            X_train, X_test = apply_normalizer(params, X_train), apply_normalizer(params, X_test)
        model = models.make(kind, config).fit(X_train, codes[train], classes=classes)
        cm = confusion_from_predictions(codes[test], model.predict(X_test), classes)
        pooled += cm.counts
        fold_accuracies.append(100.0 * (float(np.trace(cm.counts)) / cm.total))
    return metrics(
        ConfusionMatrix(classes=classes, counts=pooled),
        fold_accuracies=tuple(fold_accuracies),
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
