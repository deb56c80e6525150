"""Classifier registry and uniform train/predict/save/load entry points.

All models share the :class:`~driverid.models.base.Classifier` contract:
sorted class alphabet, lowest-class tie-breaking, valid probability
distributions from ``predict_proba``, and bit-exact JSON round-trips.
"""

from __future__ import annotations

import json

from ..errors import DriverIdError, InvalidOption, one_of, reading
from ..features import FeatureMatrix
from ..ingest import _source_name, _text_stream
from .base import Classifier
from .baseline import ZeroR
from .ensemble import AdaBoost
from .knn import KNearestNeighbors
from .logistic import LogisticRegression
from .naive_bayes import GaussianNaiveBayes
from .svm import LinearSvm
from .tree import RepTree

#: kind identifier → classifier class, in the canonical order `evaluate --kind all` runs
KINDS: dict[str, type[Classifier]] = {
    cls.kind: cls
    for cls in (
        ZeroR,
        GaussianNaiveBayes,
        LogisticRegression,
        KNearestNeighbors,
        LinearSvm,
        RepTree,
        AdaBoost,
    )
}

SERIALIZATION_FORMAT = "driverid-model"
SERIALIZATION_VERSION = 1


def make(kind: str, config: dict | None = None) -> Classifier:
    """Instantiate an unfitted classifier of the given kind."""
    one_of("kind", kind, tuple(KINDS))
    try:
        return KINDS[kind](**(config or {}))
    except InvalidOption as e:
        raise InvalidOption(f"bad config for {kind!r}: {e}") from None
    except TypeError as e:  # e.g. an option the kind does not take
        raise DriverIdError(f"bad config for {kind!r}: {e}") from None


def train(kind: str, matrix: FeatureMatrix, config: dict | None = None) -> Classifier:
    """Fit a fresh model of ``kind`` on a FeatureMatrix."""
    return make(kind, config).fit(matrix.features, matrix.codes, classes=matrix.label_alphabet)


def save_model(model: Classifier, target) -> None:
    """Write a model as versioned JSON; floats round-trip bit-exactly."""
    payload = {
        "format": SERIALIZATION_FORMAT,
        "version": SERIALIZATION_VERSION,
        **model.to_dict(),
    }
    with _text_stream(target, "w") as fh:
        json.dump(payload, fh, sort_keys=True)


def load_model(source) -> Classifier:
    """Inverse of :func:`save_model`.

    A file that is not a model JSON object of a known kind and version, or
    whose payload does not fit its kind (a missing key, a config option the
    kind does not take, a value of the wrong type), raises
    :class:`DriverIdError` naming the file.
    """
    name = _source_name(source)
    with reading(f"{name} is not a model file"), _text_stream(source, "r") as fh:
        payload = json.load(fh)
        if not isinstance(payload, dict):
            raise DriverIdError("not a JSON object")
        if payload.get("format") != SERIALIZATION_FORMAT:
            raise DriverIdError(f"format {payload.get('format')!r}")
        if payload.get("version") != SERIALIZATION_VERSION:
            raise DriverIdError(f"unsupported version {payload.get('version')!r}")
        kind = payload.get("kind")
        if kind not in KINDS:
            raise DriverIdError(f"unknown kind {kind!r}")
    with reading(f"{name} is a malformed {kind} model file"):
        return KINDS[kind].from_dict(payload)


__all__ = [
    "AdaBoost",
    "Classifier",
    "GaussianNaiveBayes",
    "KINDS",
    "KNearestNeighbors",
    "LinearSvm",
    "LogisticRegression",
    "RepTree",
    "ZeroR",
    "load_model",
    "make",
    "save_model",
    "train",
]
