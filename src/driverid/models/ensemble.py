"""Boosting ensemble.

``AdaBoost`` is AdaBoost.M1 (Freund & Schapire, ICML 1996; Weka's
``AdaBoostM1`` is the name the paper uses) over depth-1 decision stumps.
Each stump is the tree's split search with row weights
(``RepTree._best_split``, leaves of one row or more) on the tree's feature
orders (``tree._feature_orders``), sorted once per fit.  Stage 2 of that
search adds class weights in row order, so the stumps, like the tree, do
not depend on the order in which ties were sorted.  The fit stops at the
first round whose weighted error is 0 or at least ½.  A stump names at
most two classes, so its error is at least one less the two largest class
shares: on ten classes of about equal size the first round already errs
on more than half the weight, and the fit keeps that one stump.
"""

from __future__ import annotations

import numpy as np

from ..errors import DriverIdError, whole_number
from ..ingest import holds_integers
from . import tree
from .base import Classifier, finite_floats

#: The stump's split search: the tree's, with leaves of one row or more.
_SEARCH = tree.RepTree(min_leaf_count=1)


class _Stump:
    """Depth-1 weighted classifier: one threshold, one class per side.

    The split is the valid cut of highest weighted information gain, which
    must be > 0 (``RepTree._best_split``); each side predicts its heaviest
    class.  With no such cut the stump predicts the weighted majority
    class everywhere.  All ties resolve to the lowest index.
    """

    __slots__ = ("feature", "threshold", "left", "right")

    def fit(self, X: np.ndarray, orders: np.ndarray, y: np.ndarray, w: np.ndarray | None,
            K: int) -> "_Stump":
        totals = np.bincount(y, weights=w, minlength=K)
        self.feature, self.threshold = tree._LEAF, 0.0
        self.left = self.right = int(np.argmax(totals))
        split = _SEARCH._best_split(X, orders, y, totals, w)
        if split is not None:
            self.feature, cut, self.threshold = split
            left, right = tree._side_weights(y, w, orders[self.feature], cut, K)
            self.left, self.right = int(np.argmax(left)), int(np.argmax(right))
        return self

    def predict_idx(self, X: np.ndarray) -> np.ndarray:
        if self.feature == tree._LEAF:
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
        for name in ("feature", "left", "right"):
            value = np.asarray(d[name])
            if value.ndim or not holds_integers(value):
                raise DriverIdError(f"adaboost stump {name} must be an integer")
            setattr(s, name, int(value))
        s.threshold = float(finite_floats(d["threshold"], "adaboost stump threshold", ndim=0))
        return s


class AdaBoost(Classifier):
    """AdaBoost.M1 over decision stumps.

    Row weights start at 1 and are rescaled to sum to n after each round.
    On unit weights the weighted split search chooses the unweighted one's
    split, bit for bit, so the first round runs the cheaper unweighted
    search (``w=None``) and only later rounds pass their weights.  A round
    whose weighted error err lies strictly between 0 and ½ is kept with
    stage weight α = ln((1 − err)/err), and its misses are weighted up by
    (1 − err)/err.  The first round outside that range ends the fit and is
    dropped, unless it is the first round, which is then kept alone with
    α = 1.  A fit keeps the kept rounds' errors in ``errors_`` (memory
    only: not serialized, not reported).
    """

    kind = "adaboost"

    def __init__(self, rounds: int = 10):
        self.rounds = whole_number("rounds", rounds, 1)

    def _fit(self, X: np.ndarray, y_idx: np.ndarray) -> None:
        n, K = X.shape[0], len(self.classes_)
        y = y_idx.astype(np.min_scalar_type(K - 1))
        orders = tree._feature_orders(X)
        w = np.ones(n)
        self.stumps_: list[_Stump] = []
        self.alphas_: list[float] = []
        self.errors_: list[float] = []
        for _ in range(self.rounds):
            stump = _Stump().fit(X, orders, y, w if self.stumps_ else None, K)
            miss = stump.predict_idx(X) != y_idx
            err = float(w[miss].sum() / w.sum())
            if not 0.0 < err < 0.5:
                if not self.stumps_:
                    self.stumps_, self.alphas_, self.errors_ = [stump], [1.0], [err]
                return
            self.stumps_.append(stump)
            self.alphas_.append(float(np.log((1.0 - err) / err)))
            self.errors_.append(err)
            w[miss] *= (1.0 - err) / err
            w *= n / w.sum()

    def _scores(self, X: np.ndarray) -> np.ndarray:
        scores = np.zeros((X.shape[0], len(self.classes_)))
        rows = np.arange(X.shape[0])
        for stump, alpha in zip(self.stumps_, self.alphas_):
            scores[rows, stump.predict_idx(X)] += alpha
        return scores

    def _params_dict(self) -> dict:
        return {
            "stumps": [s.to_dict() for s in self.stumps_],
            "alphas": list(self.alphas_),
        }

    def _load_params(self, params: dict) -> None:
        self.stumps_ = [_Stump.from_dict(d) for d in params["stumps"]]
        self.alphas_ = finite_floats(params["alphas"], "adaboost alphas", ndim=1).tolist()
        K = len(self.classes_)
        if len(self.alphas_) != len(self.stumps_) or any(
            not (tree._LEAF <= s.feature < self.n_features_ and 0 <= s.left < K and 0 <= s.right < K)
            for s in self.stumps_
        ):
            raise DriverIdError("adaboost stumps do not fit its classes and feature count")
        if not all(a > 0.0 for a in self.alphas_):
            raise DriverIdError("adaboost stage weights must be > 0")
