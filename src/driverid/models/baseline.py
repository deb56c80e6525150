"""ZeroR baseline: always predict the training majority class."""

from __future__ import annotations

import numpy as np

from .base import Classifier


class ZeroR(Classifier):
    """Majority-class predictor; its probabilities are the class priors.

    The only model that accepts single-class training data.  A tied majority
    resolves to the lowest class.
    """

    kind = "zeror"
    requires_multiclass = False

    def _fit(self, X: np.ndarray, y_idx: np.ndarray) -> None:
        counts = np.bincount(y_idx, minlength=len(self.classes_))
        self.priors_ = counts / counts.sum()
        self.majority_ = int(np.argmax(counts))

    def _proba(self, X: np.ndarray) -> np.ndarray:
        return np.tile(self.priors_, (X.shape[0], 1))

    def _params_dict(self) -> dict:
        return {
            "priors": [float(p) for p in self.priors_],
            "majority": self.majority_,
        }

    def _load_params(self, params: dict) -> None:
        self.priors_ = np.asarray(params["priors"], dtype=np.float64)
        self.majority_ = int(params["majority"])
