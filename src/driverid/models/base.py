"""Shared classifier contract.

Every model exposes ``fit(X, y)``, ``predict``, ``predict_proba`` (a valid
distribution over the sorted class alphabet), and bit-exact JSON
serialization via ``to_dict``/``from_dict``.  Ties — equal votes, equal
posteriors, equal scores — always resolve to the lowest class in the sorted
alphabet, which `np.argmax` delivers for free by returning the first maximum.
"""

from __future__ import annotations

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
from ..ingest import decode_labels, encode_labels


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


def prepare_training(X, y, *, require_multiclass: bool):
    """Validate and canonicalize training data.

    Returns ``(X, y_idx, classes)`` where ``classes`` is the sorted label
    alphabet and ``y_idx`` maps each row to its class index.
    """
    X = np.ascontiguousarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise DimensionMismatch(f"training matrix must be 2-D, got shape {X.shape}")
    if X.shape[0] == 0:
        raise EmptyTrainingSet("no training rows")
    classes, y_idx = encode_labels(y)
    if y_idx.size != X.shape[0]:
        raise LengthMismatch(f"{y_idx.size} labels for {X.shape[0]} rows")
    if not np.isfinite(X).all():
        raise NonFiniteFeature("training matrix contains NaN or infinity")
    if require_multiclass and len(classes) < 2:
        raise SingleClassForDiscriminative(
            f"need at least 2 classes, got {list(classes)}"
        )
    return X, y_idx, classes


class Classifier:
    """Base class: validation, tie rule, prediction plumbing."""

    kind = "abstract"
    requires_multiclass = True

    classes_: tuple[str, ...]
    n_features_: int

    def fit(self, X, y) -> "Classifier":
        X, y_idx, classes = prepare_training(
            X, y, require_multiclass=self.requires_multiclass
        )
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

    # Default prediction: argmax of the class-score matrix.  Scores are in
    # sorted-class order, so the first maximum is the lowest class.
    def _scores(self, X: np.ndarray) -> np.ndarray:
        return self._proba(X)

    def _proba(self, X: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def predict(self, X) -> list[str]:
        X = self._check_features(X)
        return decode_labels(self.classes_, np.argmax(self._scores(X), axis=1))

    def predict_one(self, x) -> str:
        return self.predict(np.asarray(x, dtype=np.float64)[None, :])[0]

    def predict_proba(self, X) -> np.ndarray:
        X = self._check_features(X)
        return self._proba(X)

    def predict_proba_one(self, x) -> np.ndarray:
        return self.predict_proba(np.asarray(x, dtype=np.float64)[None, :])[0]

    # -- serialization ----------------------------------------------------

    def _config_dict(self) -> dict:
        return {}

    def _params_dict(self) -> dict:
        raise NotImplementedError

    def _load_params(self, params: dict) -> None:
        raise NotImplementedError

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "classes": list(self.classes_),
            "n_features": self.n_features_,
            "config": self._config_dict(),
            "params": self._params_dict(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Classifier":
        if d.get("kind") != cls.kind:
            raise DriverIdError(f"expected kind {cls.kind!r}, got {d.get('kind')!r}")
        model = cls(**d.get("config", {}))
        model.classes_ = tuple(d["classes"])
        model.n_features_ = int(d["n_features"])
        model._load_params(d["params"])
        return model


def logsumexp(a: np.ndarray, axis: int = -1, keepdims: bool = False) -> np.ndarray:
    """Numerically stable log(sum(exp(a)))."""
    m = np.max(a, axis=axis, keepdims=True)
    out = np.log(np.sum(np.exp(a - m), axis=axis, keepdims=True)) + m
    return out if keepdims else np.squeeze(out, axis=axis)


def softmax(a: np.ndarray, axis: int = -1) -> np.ndarray:
    """Exponentials normalized to sum to 1 along ``axis``."""
    return np.exp(a - logsumexp(a, axis=axis, keepdims=True))
