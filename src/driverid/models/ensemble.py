"""Boosting ensemble.

``AdaBoost`` is the multiclass (SAMME) variant over depth-1 decision stumps:
each round fits a weight-sensitive stump, scores it by weighted error, and
re-weights the rows it missed.  Sorting X, the valid cuts and the
grouping of each feature's rows by class do not depend on the weights, so
``_StumpScan`` builds them once per boosting fit (with ``presort``); each
round then finds the best cut of every feature in O(n), not O(K·n), over
blocks of features.

A round is a pure function of its input weights on the fit's fixed
``_StumpScan``: the stump, its misses, the clamped error, α and the next
weights all follow from them.  So once a round starts from weights that
are bit for bit those of an earlier round of the same fit, the rounds in
between are a cycle, and the fit repeats their stumps, α and errors up to
``rounds`` without searching again; the result is exactly that of running
every round.  This pays off when a stump separates two classes and the
weights only renormalize (table6's drivers A and D); on table7's ten
classes no round repeats, so every round runs.
"""

from __future__ import annotations

import hashlib
from itertools import cycle, islice

import numpy as np

from ..errors import DriverIdError, whole_number
from ..ingest import holds_integers
from .base import Classifier
from .tree import _BLOCK_ELEMENTS, _LEAF, midpoint


def presort(X: np.ndarray) -> np.ndarray:
    """Row orders of X by each feature, shape (d, n); equal values keep row order."""
    return np.argsort(X, axis=0, kind="stable").T


class _StumpScan:
    """The weight-independent half of the stump's split search, built once
    per boosting fit.

    For each feature it keeps the rows grouped by class, each class's rows
    in ascending order of the feature (``rows``), and which cuts fall
    between equal values (``tied``).  Every class owns the same segment of
    the grouping for every feature, so one ``cumsum`` per class over a
    block of features gives every row's own-class prefix weight.  Features
    whose values are all equal are dropped; the rest are cut into blocks of
    at most ``_BLOCK_ELEMENTS`` features × rows (at least one feature).
    ``flat`` holds, for each sorted position, where its row sits in the
    grouping of its feature's block, flattened: the i-th feature of a block
    adds i·n.  One flat ``take`` then gathers a whole block in sorted order,
    and the position within the feature's own grouping is ``flat % n``.
    The scan's working memory is about 45 bytes per block element.
    """

    def __init__(self, X: np.ndarray, y_idx: np.ndarray, n_classes: int):
        n, d = X.shape
        self.X, self.y = X, y_idx
        self.counts = np.bincount(y_idx, minlength=n_classes)
        self.ends = np.cumsum(self.counts)
        self.starts = self.ends - self.counts
        self.rows = np.empty((d, n), dtype=np.int32)
        self.flat = np.empty((d, n), dtype=np.int32)
        self.tied = np.empty((d, n - 1), dtype=bool)
        # the narrowest code type lets the stable argsort run as a radix sort
        codes = y_idx.astype(np.min_scalar_type(n_classes - 1))
        for j, order in enumerate(presort(X)):
            vs = X[order, j]
            np.equal(vs[1:], vs[:-1], out=self.tied[j])
            grouping = np.argsort(codes[order], kind="stable")
            self.rows[j] = order[grouping]
            self.flat[j, grouping] = np.arange(n)
        live = np.flatnonzero(~self.tied.all(axis=1))
        step = max(1, _BLOCK_ELEMENTS // n)
        self.blocks = [live[i : i + step] for i in range(0, live.size, step)]
        for block in self.blocks:
            self.flat[block] += n * np.arange(len(block), dtype=np.int32)[:, None]

    def best_cut(self, w: np.ndarray, totals: np.ndarray, to_beat: float):
        """Lowest-error cut as ``(feature, left size)``, or None when no cut
        errs less than ``to_beat - 1e-15``.  Ties go to the lowest feature,
        then the lowest cut.

        A cut's error is ``W − max_k L_k − max_k R_k`` (L/R the class
        weights left/right of it, W their total), with the same operands
        as summing a (K, n) prefix buffer: float ``cumsum`` of non-negative
        weights never decreases (rounding is monotone), so

        - ``max_k L_k`` after position i is the running max, over rows up
          to i, of each row's own-class inclusive prefix;
        - ``max_k R_k`` is the running max, over rows after i, of
          ``totals[k] − (class-k prefix just before that row)``, floored by
          ``max_k(totals[k] − full class-k prefix)``: the floor stands for
          the classes with no row after i and never exceeds the terms of
          those that have one.

        Each is a max over values the (K, n) scan also computes, so every
        error is bit-identical to it.
        """
        total = totals.sum()
        class_total = np.repeat(totals, self.counts)
        best = None
        for block in self.blocks:
            own = w[self.rows[block]]
            for lo, hi in zip(self.starts, self.ends):
                np.cumsum(own[:, lo:hi], axis=1, out=own[:, lo:hi])
            floor = (totals - own[:, self.ends - 1]).max(axis=1)
            rest = np.empty_like(own)
            rest[:, 1:] = own[:, :-1]
            rest[:, self.starts] = 0.0
            np.subtract(class_total, rest, out=rest)
            flat = self.flat[block]
            left = own.take(flat)
            right = rest.take(flat)
            max_left = np.maximum.accumulate(left, axis=1, out=left)[:, :-1]
            np.maximum.accumulate(right[:, ::-1], axis=1, out=right[:, ::-1])
            max_right = np.maximum(right[:, 1:], floor[:, None], out=right[:, 1:])
            err = np.subtract(total, max_left, out=max_left)
            err -= max_right
            np.copyto(err, np.inf, where=self.tied[block])
            cuts = err.argmin(axis=1)
            errs = err[np.arange(len(block)), cuts]
            for j, cut, e in zip(block.tolist(), cuts.tolist(), errs.tolist()):
                if e < to_beat - 1e-15:
                    to_beat, best = e, (j, cut + 1)
        return best

    def order(self, j: int) -> np.ndarray:
        """Rows in ascending order of feature j (ties in row order)."""
        return self.rows[j][self.flat[j] % self.X.shape[0]]


class _Stump:
    """Depth-1 weighted classifier: one threshold, one class per side.

    Falls back to a constant (weighted-majority) predictor when no split
    beats it.  All ties — cut choice, class choice — resolve to the lowest
    index.  ``fit`` searches the cuts with the boosting fit's
    ``_StumpScan``, so each round costs O(n) per feature.
    """

    __slots__ = ("feature", "threshold", "left", "right")

    def fit(self, scan: _StumpScan, w: np.ndarray) -> "_Stump":
        # bincount adds in row order, bit for bit a column sum of (n, K) mass
        totals = np.bincount(scan.y, weights=w, minlength=len(scan.counts))

        # no-split fallback: predict the weighted majority class everywhere
        majority = int(np.argmax(totals))
        self.feature, self.threshold = _LEAF, 0.0
        self.left = self.right = majority
        best = scan.best_cut(w, totals, float(totals.sum() - totals[majority]))
        if best is not None:
            j, cut = best
            order = scan.order(j)
            # bincount adds each class in sorted order: the scan's prefix sums
            left = np.bincount(scan.y[order[:cut]], weights=w[order[:cut]], minlength=len(totals))
            self.feature = j
            self.threshold = midpoint(scan.X[order, j], cut)
            self.left = int(np.argmax(left))
            self.right = int(np.argmax(totals - left))
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
        for name in ("feature", "left", "right"):
            value = np.asarray(d[name])
            if value.ndim or not holds_integers(value):
                raise DriverIdError(f"adaboost stump {name} must be an integer")
            setattr(s, name, int(value))
        s.threshold = float(d["threshold"])
        return s


class AdaBoost(Classifier):
    """Multiclass boosting (SAMME weighting) over decision stumps.

    Each round's weighted error is clamped into
    [1e-10, (K−1)/K − 1e-10], keeping every stage weight
    α = ln((1−err)/err) + ln(K−1) finite and positive.  A fit keeps the
    clamped errors in ``errors_`` (memory only: not serialized, not
    reported).  Each round's input weights are kept as a SHA-256 digest
    (32 bytes a round, not 8 bytes a row); a round whose weights repeat
    an earlier round's ends the search and the cycle since that round is
    replayed (see the module docstring).
    """

    kind = "adaboost"
    _ERR_EPS = 1e-10

    def __init__(self, rounds: int = 10):
        self.rounds = whole_number("rounds", rounds, 1)

    def _fit(self, X: np.ndarray, y_idx: np.ndarray) -> None:
        n = X.shape[0]
        K = len(self.classes_)
        w = np.full(n, 1.0 / n)
        self.stumps_: list[_Stump] = []
        self.alphas_: list[float] = []
        self.errors_: list[float] = []
        hi = (K - 1) / K - self._ERR_EPS
        scan = _StumpScan(X, y_idx, K)
        seen: dict[bytes, int] = {}  # digest of a round's input weights -> the round
        for r in range(self.rounds):
            first = seen.setdefault(hashlib.sha256(w.tobytes()).digest(), r)
            if first < r:
                for kept in (self.stumps_, self.alphas_, self.errors_):
                    kept += islice(cycle(kept[first:]), self.rounds - r)
                return
            stump = _Stump().fit(scan, w)
            miss = stump.predict_idx(X) != y_idx
            err = float(np.clip(w[miss].sum(), self._ERR_EPS, hi))
            alpha = np.log((1.0 - err) / err) + np.log(K - 1.0)
            w = w * np.exp(alpha * miss)
            w /= w.sum()
            self.stumps_.append(stump)
            self.alphas_.append(float(alpha))
            self.errors_.append(err)

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
        self.alphas_ = [float(a) for a in params["alphas"]]
        K = len(self.classes_)
        if len(self.alphas_) != len(self.stumps_) or any(
            not (_LEAF <= s.feature < self.n_features_ and 0 <= s.left < K and 0 <= s.right < K
                 and np.isfinite(s.threshold))
            for s in self.stumps_
        ):
            raise DriverIdError("adaboost stumps do not fit its classes and feature count")
        if not all(0.0 < a < np.inf for a in self.alphas_):
            raise DriverIdError("adaboost stage weights must be finite and > 0")
