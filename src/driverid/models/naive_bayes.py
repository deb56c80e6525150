"""Gaussian naive Bayes.

Each feature is modeled per class as an independent Gaussian; posteriors
come from Bayes' rule over the joint log-likelihoods.  Variances get a small
floor so constant features cannot produce divisions by zero.
"""

from __future__ import annotations

import numpy as np

from .base import Classifier, softmax


class GaussianNaiveBayes(Classifier):
    kind = "naive_bayes"
    fitted = {"theta_": np.float64, "var_": np.float64, "log_priors_": np.float64}

    def __init__(self, var_floor: float = 1e-9):
        if var_floor <= 0:
            raise ValueError("var_floor must be positive")
        self.var_floor = float(var_floor)

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

    def _scores(self, X: np.ndarray) -> np.ndarray:
        # joint log-likelihood log P(c) + Σ_j log N(x_j | μ_cj, σ²_cj), shape (n, K)
        const = -0.5 * np.sum(np.log(2.0 * np.pi * self.var_), axis=1)
        quad = -0.5 * (
            (X[:, None, :] - self.theta_[None, :, :]) ** 2 / self.var_[None, :, :]
        ).sum(axis=2)
        return self.log_priors_ + const + quad

    def _proba(self, X: np.ndarray) -> np.ndarray:
        return softmax(self._scores(X), axis=1)
