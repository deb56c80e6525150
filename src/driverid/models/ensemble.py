"""Boosting and voting ensembles.

``AdaBoost`` is the multiclass (SAMME) variant over depth-1 decision stumps:
each round fits a weight-sensitive stump, scores it by weighted error, and
re-weights the rows it missed.  The stump finds its split with the tree's
presorted, class-major scan (``tree.split_scan``), sorting X once per
boosting fit.
``MajorityVote`` trains independent members of different kinds on the same
data and lets them vote.
"""

from __future__ import annotations

import numpy as np

from ..errors import DriverIdError
from ..ingest import decode_labels, encode_labels
from .base import Classifier
from .tree import _LEAF, midpoint, presort, split_scan

#: Member kinds trained by a default-configured MajorityVote.
DEFAULT_VOTE_MEMBERS = ("naive_bayes", "logreg", "knn", "reptree", "svm")


class _Stump:
    """Depth-1 weighted classifier: one threshold, one class per side.

    Falls back to a constant (weighted-majority) predictor when no split
    beats it.  All ties — cut choice, class choice — resolve to the lowest
    index.
    """

    __slots__ = ("feature", "threshold", "left", "right")

    def fit(
        self,
        X: np.ndarray,
        y_idx: np.ndarray,
        w: np.ndarray,
        n_classes: int,
        orders: np.ndarray,
    ) -> "_Stump":
        """``orders`` is ``presort(X)``; it is weight-independent, so a
        boosting loop computes it once.

        The scan's class-major prefix mass gives the left side of every
        cut; the best class on each side comes from a running
        ``np.maximum`` over the K class rows, so no (n, K) array and no
        reduction across classes is built.
        """
        n = X.shape[0]
        # bincount adds in row order, bit for bit a column sum of (n, K) mass
        totals = np.bincount(y_idx, weights=w, minlength=n_classes)
        total = totals.sum()

        # no-split fallback: predict the weighted majority class everywhere
        best_class = int(np.argmax(totals))
        best_err = float(total - totals[best_class])
        self.feature, self.threshold = _LEAF, 0.0
        self.left = self.right = best_class

        max_left, max_right, right = np.empty((3, n - 1))
        for j, ok, left, vs in split_scan(X, orders, y_idx, w, n_classes):
            max_left[:] = left[0]
            np.subtract(totals[0], left[0], out=max_right)
            for k in range(1, n_classes):
                np.maximum(max_left, left[k], out=max_left)
                np.subtract(totals[k], left[k], out=right)
                np.maximum(max_right, right, out=max_right)
            err = (total - max_left - max_right)[ok]
            at = int(np.argmin(err))
            if err[at] < best_err - 1e-15:
                best_err = float(err[at])
                cut = int(np.flatnonzero(ok)[at]) + 1
                self.feature = j
                self.threshold = midpoint(vs, cut)
                self.left = int(np.argmax(left[:, cut - 1]))
                self.right = int(np.argmax(totals - left[:, cut - 1]))
        return self

    def predict_idx(self, X: np.ndarray) -> np.ndarray:
        if self.feature == _LEAF:
            return np.full(X.shape[0], self.left, dtype=np.intp)
        return np.where(X[:, self.feature] <= self.threshold, self.left, self.right)

    def to_dict(self) -> dict:
        return {
            "feature": self.feature,
            "threshold": self.threshold,
            "left": self.left,
            "right": self.right,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "_Stump":
        s = cls()
        s.feature = int(d["feature"])
        s.threshold = float(d["threshold"])
        s.left = int(d["left"])
        s.right = int(d["right"])
        return s


class AdaBoost(Classifier):
    """Multiclass boosting (SAMME weighting) over decision stumps.

    Each round's weighted error is clamped into
    [1e-10, (K−1)/K − 1e-10], keeping every stage weight
    α = ln((1−err)/err) + ln(K−1) finite and positive.  A fit keeps the
    clamped errors in ``errors_`` (memory only: not serialized, not
    reported).
    """

    kind = "adaboost"
    _ERR_EPS = 1e-10

    def __init__(self, rounds: int = 10):
        if rounds < 1:
            raise ValueError("rounds must be >= 1")
        self.rounds = int(rounds)

    def _fit(self, X: np.ndarray, y_idx: np.ndarray) -> None:
        n = X.shape[0]
        K = len(self.classes_)
        w = np.full(n, 1.0 / n)
        self.stumps_: list[_Stump] = []
        self.alphas_: list[float] = []
        self.errors_: list[float] = []
        hi = (K - 1) / K - self._ERR_EPS
        orders = presort(X)
        for _ in range(self.rounds):
            stump = _Stump().fit(X, y_idx, w, K, orders)
            miss = stump.predict_idx(X) != y_idx
            err = float(np.clip(w[miss].sum(), self._ERR_EPS, hi))
            alpha = np.log((1.0 - err) / err) + np.log(K - 1.0)
            w = w * np.exp(alpha * miss)
            w /= w.sum()
            self.stumps_.append(stump)
            self.alphas_.append(float(alpha))
            self.errors_.append(err)

    def _stage_scores(self, X: np.ndarray) -> np.ndarray:
        scores = np.zeros((X.shape[0], len(self.classes_)))
        rows = np.arange(X.shape[0])
        for stump, alpha in zip(self.stumps_, self.alphas_):
            scores[rows, stump.predict_idx(X)] += alpha
        return scores

    def _scores(self, X: np.ndarray) -> np.ndarray:
        return self._stage_scores(X)

    def _proba(self, X: np.ndarray) -> np.ndarray:
        scores = self._stage_scores(X)
        return scores / scores.sum(axis=1, keepdims=True)

    def _config_dict(self) -> dict:
        return {"rounds": self.rounds}

    def _params_dict(self) -> dict:
        return {
            "stumps": [s.to_dict() for s in self.stumps_],
            "alphas": list(self.alphas_),
        }

    def _load_params(self, params: dict) -> None:
        self.stumps_ = [_Stump.from_dict(d) for d in params["stumps"]]
        self.alphas_ = [float(a) for a in params["alphas"]]


class MajorityVote(Classifier):
    """Hard-voting ensemble over heterogeneous member classifiers.

    ``members`` is a sequence of kind names or (kind, config) pairs trained
    on the same data; ``from_trained`` wraps already-fitted models instead.
    Vote ties resolve to the lowest class.
    """

    kind = "vote"

    def __init__(self, members=DEFAULT_VOTE_MEMBERS):
        specs = []
        for m in members:
            if isinstance(m, str):
                specs.append((m, {}))
            else:
                kind, config = m
                specs.append((str(kind), dict(config)))
        if not specs:
            raise ValueError("at least one member is required")
        self.member_specs = tuple(specs)

    def _fit(self, X: np.ndarray, y_idx: np.ndarray) -> None:
        from . import make  # deferred: the registry imports this module

        labels = decode_labels(self.classes_, y_idx)
        self.members_ = [make(kind, config).fit(X, labels) for kind, config in self.member_specs]

    @classmethod
    def from_trained(cls, models) -> "MajorityVote":
        models = list(models)
        if not models:
            raise ValueError("at least one member is required")
        alphabet = models[0].classes_
        if any(m.classes_ != alphabet for m in models):
            raise DriverIdError("members disagree on the class alphabet")
        ensemble = cls(members=[(m.kind, m._config_dict()) for m in models])
        ensemble.classes_ = alphabet
        ensemble.n_features_ = models[0].n_features_
        ensemble.members_ = models
        return ensemble

    def _vote_counts(self, X: np.ndarray) -> np.ndarray:
        votes = np.zeros((X.shape[0], len(self.classes_)))
        rows = np.arange(X.shape[0])
        for member in self.members_:
            votes[rows, encode_labels(member.predict(X), self.classes_)[1]] += 1.0
        return votes

    def _scores(self, X: np.ndarray) -> np.ndarray:
        return self._vote_counts(X)

    def _proba(self, X: np.ndarray) -> np.ndarray:
        return self._vote_counts(X) / len(self.members_)

    def _config_dict(self) -> dict:
        return {"members": [[kind, config] for kind, config in self.member_specs]}

    def _params_dict(self) -> dict:
        return {"members": [m.to_dict() for m in self.members_]}

    def _load_params(self, params: dict) -> None:
        from . import KINDS

        self.members_ = [KINDS[d["kind"]].from_dict(d) for d in params["members"]]
