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
    fitted = {"priors_": np.float64, "majority_": int}

    def _fit(self, X: np.ndarray, y_idx: np.ndarray) -> None:
        counts = np.bincount(y_idx, minlength=len(self.classes_))
        self.priors_ = counts / counts.sum()
        self.majority_ = int(np.argmax(counts))

    def _scores(self, X: np.ndarray) -> np.ndarray:
        return np.tile(self.priors_, (X.shape[0], 1))

    # The priors already sum to 1; renormalizing would move some last bits.
    _proba = _scores
