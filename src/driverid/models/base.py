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
weights (k-NN votes, tree leaf counts, boosting stage weights); naive
Bayes, logistic regression and the SVM override it with the softmax of
their scores, and ZeroR's scores are already its priors.
``from_dict`` checks a loaded model: its classes must pass
``ingest.check_alphabet`` and be non-empty, its ``n_features`` must be a
whole number, and its params must score one zero row as a (1, K) matrix.

A model document (``to_dict``) holds the ``kind``, the ``classes``, the
``n_features`` and two maps.  ``config`` has every constructor parameter,
read back from the attribute of the same name, so ``cls(**config)`` builds
the same unfitted model.  ``params`` has the fitted state: by default each
attribute a class lists in ``fitted``.  Two kinds write their own
``params``: k-NN (the training rows and label codes, from which it rebuilds
its distance caches) and AdaBoost (its stumps and stage weights).
"""

from __future__ import annotations

import inspect

import numpy as np

from ..errors import (
    DimensionMismatch,
    DriverIdError,
    EmptyTrainingSet,
    LengthMismatch,
    NonFiniteFeature,
    SingleClassForDiscriminative,
    whole_number,
)
from ..ingest import (
    check_alphabet,
    decode_labels,
    encode_labels,
    holds_integers,
    present_classes,
)


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
    #: ``tolist()`` writes it, and loads back through ``np.asarray(value)``
    #: cast to ``dtype``; an integer entry must hold integers, and an ``int``
    #: entry is a scalar and loads as a Python int.
    fitted: dict = {}

    def _params_dict(self) -> dict:
        return {name[:-1]: np.asarray(getattr(self, name)).tolist() for name in self.fitted}

    def _load_params(self, params: dict) -> None:
        for name, dtype in self.fitted.items():
            value = np.asarray(params[name[:-1]])
            if dtype is np.float64:
                value = finite_floats(value, f"{self.kind} {name[:-1]}")
            elif not holds_integers(value):
                raise DriverIdError(f"{self.kind} {name[:-1]} must be integers")
            value = value.astype(dtype, copy=False)
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
        model.classes_ = check_alphabet(d["classes"])
        if not model.classes_:
            raise DriverIdError(f"{cls.kind} model has no classes")
        model.n_features_ = whole_number("n_features", d["n_features"], 0)
        model._load_params(d["params"])
        # Params that do not fit the classes and width fail here, not in
        # predict.  The probe row has stride 0: one float, whatever the width.
        shape = model._scores(np.broadcast_to(0.0, (1, model.n_features_))).shape
        if shape != (1, len(model.classes_)):
            raise DriverIdError(f"{cls.kind} params score a row as shape {shape}, not (1, K)")
        return model


def finite_floats(value, what: str, ndim: int | None = None) -> np.ndarray:
    """``value`` as a float64 array of finite numbers, else a
    :class:`DriverIdError` naming ``what``.  Numbers are JSON numbers: numpy
    and ``float()`` would read the string "0.5" as 0.5, and it is refused
    here, as is any number of dimensions but ``ndim`` when one is given."""
    value = np.asarray(value)
    if value.dtype.kind not in "fiu" or ndim not in (None, value.ndim):
        shape = {None: "numbers", 0: "a number", 1: "a list of numbers"}[ndim]
        raise DriverIdError(f"{what} must be {shape}")
    value = value.astype(np.float64, copy=False)
    if not np.isfinite(value).all():
        raise DriverIdError(f"{what} must be finite")
    return value


def logsumexp(a: np.ndarray, axis: int = -1, keepdims: bool = False) -> np.ndarray:
    """Numerically stable log(sum(exp(a)))."""
    m = a.max(axis=axis, keepdims=True)
    out = np.log(np.exp(a - m).sum(axis=axis, keepdims=True)) + m
    return out if keepdims else out.squeeze(axis=axis)


def softmax(a: np.ndarray, axis: int = -1) -> np.ndarray:
    """Exponentials normalized to sum to 1 along ``axis``."""
    return np.exp(a - logsumexp(a, axis=axis, keepdims=True))
