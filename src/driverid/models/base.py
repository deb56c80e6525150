"""Shared classifier contract.

Every model exposes ``fit(X, y, classes=None)``, ``predict``,
``predict_proba`` (a valid distribution over the sorted class alphabet), and
bit-exact JSON serialization via ``to_dict``/``from_dict``.  ``y`` holds
label strings, or integer codes into a sorted ``classes``; both fit the same
model, whose ``classes_`` are the labels present.  Ties — equal votes, equal
posteriors, equal scores — always resolve to the lowest class in the sorted
alphabet, which `np.argmax` delivers for free by returning the first maximum.

A kind supplies ``_fit(X, y_idx)`` and one ``_scores(X)``: an (n, K) matrix
of class scores, higher meaning more likely.  ``predict`` is its argmax.
``_proba`` divides each row of scores by its sum, which suits counts and
weights (k-NN votes, tree leaf counts, boosting stage weights, ensemble
votes); naive Bayes, logistic regression and the SVM override it with the
softmax of their scores, and ZeroR's scores are already its priors.
``from_dict`` checks a loaded model: its classes must be sorted and
distinct, and its params must score one zero row as a (1, K) matrix.

A model document (``to_dict``) holds the ``kind``, the ``classes``, the
``n_features`` and two maps.  ``config`` has every constructor parameter,
read back from the attribute of the same name, so ``cls(**config)`` builds
the same unfitted model.  ``params`` has the fitted state: by default each
attribute a class lists in ``fitted``.  Three kinds write their own
``params``: k-NN (the training rows and label codes, from which it rebuilds
its distance caches), AdaBoost (its stumps and stage weights) and the
majority vote (each member's own document).
"""

from __future__ import annotations

import inspect
import numbers

import numpy as np

from ..errors import (
    DimensionMismatch,
    DriverIdError,
    EmptyTrainingSet,
    LengthMismatch,
    NonFiniteFeature,
    SingleClassForDiscriminative,
)
from ..ingest import decode_labels, encode_labels, present_classes


def whole_number(name: str, value, minimum: int) -> int:
    """``value`` as an int, for a count or seed option.

    Bools, non-integral numbers and values below ``minimum`` raise
    ValueError, so an option is never silently truncated.
    """
    if (
        isinstance(value, bool)
        or not isinstance(value, numbers.Real)
        or not (isinstance(value, numbers.Integral) or float(value).is_integer())
        or value < minimum
    ):
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


class Classifier:
    """Base class: validation, tie rule, prediction plumbing."""

    kind = "abstract"
    requires_multiclass = True

    classes_: tuple[str, ...]
    n_features_: int

    def fit(self, X, y, classes=None) -> "Classifier":
        X = np.ascontiguousarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise DimensionMismatch(f"training matrix must be 2-D, got shape {X.shape}")
        if X.shape[0] == 0:
            raise EmptyTrainingSet("no training rows")
        classes, y_idx = encode_labels(y) if classes is None else present_classes(classes, y)
        if y_idx.size != X.shape[0]:
            raise LengthMismatch(f"{y_idx.size} labels for {X.shape[0]} rows")
        if not np.isfinite(X).all():
            raise NonFiniteFeature("training matrix contains NaN or infinity")
        if self.requires_multiclass and len(classes) < 2:
            raise SingleClassForDiscriminative(f"need at least 2 classes, got {list(classes)}")
        self.classes_ = classes
        self.n_features_ = X.shape[1]
        self._fit(X, y_idx)
        return self

    def _fit(self, X: np.ndarray, y_idx: np.ndarray) -> None:
        raise NotImplementedError

    def _check_features(self, X) -> np.ndarray:
        if not hasattr(self, "classes_"):
            raise DriverIdError(f"{type(self).__name__} is not fitted")
        X = np.ascontiguousarray(X, dtype=np.float64)
        if X.ndim == 1:
            X = X[None, :]
        if X.ndim != 2 or X.shape[1] != self.n_features_:
            raise DimensionMismatch(
                f"expected {self.n_features_} features, got shape {X.shape}"
            )
        return X

    def _scores(self, X: np.ndarray) -> np.ndarray:
        """(n, K) class scores in sorted-class order; higher is more likely."""
        raise NotImplementedError

    def _proba(self, X: np.ndarray) -> np.ndarray:
        # Scores that are non-negative counts or weights, as proportions.
        s = self._scores(X)
        return s / s.sum(axis=1, keepdims=True)

    # The predicted label is the argmax of the scores; the first maximum is
    # the lowest class.
    def predict(self, X) -> list[str]:
        X = self._check_features(X)
        return decode_labels(self.classes_, np.argmax(self._scores(X), axis=1))

    def predict_proba(self, X) -> np.ndarray:
        X = self._check_features(X)
        return self._proba(X)

    # -- serialization ----------------------------------------------------

    #: Fitted state saved under "params": attribute → dtype.  Each value is
    #: stored under the attribute's name without its trailing ``_``, as
    #: ``tolist()`` writes it, and loads back through ``np.asarray(value,
    #: dtype)``; an ``int`` entry is a scalar and loads as a Python int.
    fitted: dict = {}

    def _params_dict(self) -> dict:
        return {name[:-1]: np.asarray(getattr(self, name)).tolist() for name in self.fitted}

    def _load_params(self, params: dict) -> None:
        for name, dtype in self.fitted.items():
            value = np.asarray(params[name[:-1]], dtype)
            setattr(self, name, value.item() if dtype is int else value)

    def to_dict(self) -> dict:
        options = inspect.signature(type(self)).parameters
        return {
            "kind": self.kind,
            "classes": list(self.classes_),
            "n_features": self.n_features_,
            "config": {name: getattr(self, name) for name in options},
            "params": self._params_dict(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Classifier":
        if d.get("kind") != cls.kind:
            raise DriverIdError(f"expected kind {cls.kind!r}, got {d.get('kind')!r}")
        model = cls(**d.get("config", {}))
        model.classes_ = tuple(d["classes"])
        model.n_features_ = int(d["n_features"])
        if not model.classes_ or list(model.classes_) != sorted(set(model.classes_)):
            raise DriverIdError(f"model classes must be sorted and distinct: {d['classes']!r}")
        model._load_params(d["params"])
        # Params that do not fit the classes and width fail here, not in predict.
        try:
            shape = model._scores(np.zeros((1, model.n_features_))).shape
        except (IndexError, ValueError) as e:
            raise DriverIdError(f"{cls.kind} params do not fit the model: {e}") from None
        if shape != (1, len(model.classes_)):
            raise DriverIdError(f"{cls.kind} params score a row as shape {shape}, not (1, K)")
        return model


def logsumexp(a: np.ndarray, axis: int = -1, keepdims: bool = False) -> np.ndarray:
    """Numerically stable log(sum(exp(a)))."""
    m = np.max(a, axis=axis, keepdims=True)
    out = np.log(np.sum(np.exp(a - m), axis=axis, keepdims=True)) + m
    return out if keepdims else np.squeeze(out, axis=axis)


def softmax(a: np.ndarray, axis: int = -1) -> np.ndarray:
    """Exponentials normalized to sum to 1 along ``axis``."""
    return np.exp(a - logsumexp(a, axis=axis, keepdims=True))
