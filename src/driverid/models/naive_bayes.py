"""Gaussian naive Bayes.

Each feature is modeled per class as an independent Gaussian; posteriors
come from Bayes' rule over the joint log-likelihoods.  Variances get a small
floor so constant features cannot produce divisions by zero.

Memory: scoring holds the (rows, classes, features) squared deviations of
at most ``_SCORE_BLOCK_BYTES`` (2 MiB) of query rows at once (at least one
row), whatever the number of queries.
"""

from __future__ import annotations

import numpy as np

from ..errors import DriverIdError, finite_real
from .base import Classifier, softmax

#: Most bytes of squared deviations that ``_scores`` holds at once (at
#: least one query row): rows × classes × features × 8.
_SCORE_BLOCK_BYTES = 1 << 21


class GaussianNaiveBayes(Classifier):
    kind = "naive_bayes"
    fitted = {"theta_": np.float64, "var_": np.float64, "log_priors_": np.float64}

    def __init__(self, var_floor: float = 1e-9):
        self.var_floor = finite_real("var_floor", var_floor, 0.0, strict=True)

    def _fit(self, X: np.ndarray, y_idx: np.ndarray) -> None:
        n, d = X.shape
        K = len(self.classes_)
        self.theta_ = np.empty((K, d))
        self.var_ = np.empty((K, d))
        counts = np.bincount(y_idx, minlength=K)
        for c in range(K):
            rows = X[y_idx == c]
            self.theta_[c] = rows.mean(axis=0)
            self.var_[c] = rows.var(axis=0)  # population variance
        np.maximum(self.var_, self.var_floor, out=self.var_)
        self.log_priors_ = np.log(counts / n)

    def _load_params(self, params: dict) -> None:
        super()._load_params(params)
        if self.theta_.shape != self.var_.shape:
            raise DriverIdError("naive_bayes theta and var must have the same shape")
        if not (self.var_ > 0).all():
            raise DriverIdError("naive_bayes var must be > 0")

    def _scores(self, X: np.ndarray) -> np.ndarray:
        # joint log-likelihood log P(c) + Σ_j log N(x_j | μ_cj, σ²_cj), shape (n, K)
        const = -0.5 * np.sum(np.log(2.0 * np.pi * self.var_), axis=1)
        quad = np.empty((X.shape[0], len(self.var_)))
        # Each row's sum over the features reduces only its own contiguous
        # terms, so the block size changes how much is held, never a value.
        step = max(1, _SCORE_BLOCK_BYTES // (8 * max(1, self.var_.size)))
        block = np.empty((min(step, X.shape[0]), *self.var_.shape))
        for lo in range(0, X.shape[0], step):
            q = X[lo : lo + step]
            dev = np.subtract(q[:, None, :], self.theta_, out=block[: len(q)])
            dev **= 2
            dev /= self.var_
            dev.sum(axis=2, out=quad[lo : lo + step])
        quad *= -0.5
        return self.log_priors_ + const + quad

    def _proba(self, X: np.ndarray) -> np.ndarray:
        return softmax(self._scores(X), axis=1)
