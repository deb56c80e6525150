"""k-nearest-neighbors with exact, deterministic neighbor selection.

Distances are Euclidean.  The neighbor set of a query is defined as if all
training points were sorted by (distance, training index) and the first k
taken — so distance ties always admit the lowest-index points, and the
implementation below is exactly interchangeable with that brute-force scan.
Vote ties resolve to the lowest class.
"""

from __future__ import annotations

import numpy as np

from ..errors import DriverIdError
from .base import Classifier, whole_number


class KNearestNeighbors(Classifier):
    """Lazy learner: stores the training matrix, votes among the k nearest.

    k defaults to 1.  When fewer than k training rows exist, all of them
    vote.  Queries are processed in chunks so the distance matrix never
    exceeds a few hundred MB regardless of training-set size.
    """

    kind = "knn"
    query_chunk = 256

    def __init__(self, k: int = 1):
        self.k = whole_number("k", k, 1)

    def _fit(self, X: np.ndarray, y_idx: np.ndarray) -> None:
        self.X_ = X
        self.y_idx_ = y_idx
        self._sq_norms = np.einsum("ij,ij->i", X, X)
        self._onehot = np.zeros((X.shape[0], len(self.classes_)))
        self._onehot[np.arange(X.shape[0]), y_idx] = 1.0

    def _sq_distances(self, q: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Squared distances of query rows to every training row, into ``out``.

        Uses the expansion ‖q‖² − 2q·x + ‖x‖² and clamps the roundoff
        negatives.  Monotone in true distance, so neighbor selection is
        unaffected by skipping the sqrt.  Every step runs in place; since
        a + (−b) is a − b in IEEE arithmetic, the result is bit for bit
        ``sq - 2.0 * (q @ X.T) + qq``.
        """
        d2 = np.matmul(q, self.X_.T, out=out)
        d2 *= -2.0
        d2 += self._sq_norms
        d2 += np.einsum("ij,ij->i", q, q)[:, None]
        return np.maximum(d2, 0.0, out=d2)

    def _scores(self, Q: np.ndarray) -> np.ndarray:
        """(n_queries, n_classes) neighbor vote counts."""
        n_train = self.X_.shape[0]
        k = min(self.k, n_train)
        counts = np.empty((Q.shape[0], len(self.classes_)))
        block = np.empty((min(self.query_chunk, Q.shape[0]), n_train))
        for lo in range(0, Q.shape[0], self.query_chunk):
            q = Q[lo : lo + self.query_chunk]
            d2 = self._sq_distances(q, block[: q.shape[0]])
            if k == 1:
                # argmin returns the lowest index among equal distances
                counts[lo : lo + q.shape[0]] = self._onehot[d2.argmin(axis=1)]
                continue
            kth = np.partition(d2, k - 1, axis=1)[:, k - 1 : k]
            strict = d2 < kth
            at_kth = d2 == kth
            need = k - strict.sum(axis=1, keepdims=True)
            # Fill remaining seats with the lowest-index rows at the kth
            # distance — the order a (distance, index) sort would produce.
            fill = at_kth & (np.cumsum(at_kth, axis=1) <= need)
            members = (strict | fill).astype(np.float64)
            counts[lo : lo + q.shape[0]] = members @ self._onehot
        return counts

    def _params_dict(self) -> dict:
        return {"train": self.X_.tolist(), "labels": self.y_idx_.tolist()}

    def _load_params(self, params: dict) -> None:
        X = np.asarray(params["train"], dtype=np.float64)
        y_idx = np.asarray(params["labels"], dtype=np.intp)
        if ((y_idx < 0) | (y_idx >= len(self.classes_))).any():
            raise DriverIdError("knn labels must be indices into its classes")
        self._fit(X, y_idx)
