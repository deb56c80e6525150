"""ZeroR baseline: always predict the training majority class."""

from __future__ import annotations

import numpy as np

from ..errors import DriverIdError
from .base import Classifier

#: How far loaded priors may sum from 1; a fit's sum is off by a few ulps at most.
PRIORS_SUM_TOLERANCE = 1e-9


class ZeroR(Classifier):
    """Majority-class predictor; its probabilities are the class priors.

    The only model that accepts single-class training data.  A tied majority
    resolves to the lowest class.
    """

    kind = "zeror"
    requires_multiclass = False
    fitted = {"priors_": np.float64}

    def _fit(self, X: np.ndarray, y_idx: np.ndarray) -> None:
        counts = np.bincount(y_idx, minlength=len(self.classes_))
        self.priors_ = counts / counts.sum()

    def _load_params(self, params: dict) -> None:
        super()._load_params(params)
        if (self.priors_ < 0).any() or abs(self.priors_.sum() - 1.0) > PRIORS_SUM_TOLERANCE:
            raise DriverIdError("zeror priors must be >= 0 and sum to 1")

    def _scores(self, X: np.ndarray) -> np.ndarray:
        return np.tile(self.priors_, (X.shape[0], 1))

    # The priors already sum to 1; renormalizing would move some last bits.
    _proba = _scores
