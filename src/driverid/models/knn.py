"""k-nearest-neighbors with exact, deterministic neighbor selection.

Distances are Euclidean.  The neighbor set of a query is defined as if all
training points were sorted by (distance, training index) and the first k
taken — so distance ties always admit the lowest-index points, and the
implementation below is exactly interchangeable with that brute-force scan.
Vote ties resolve to the lowest class.

Memory: prediction holds the squared distances of at most
``_DISTANCE_BLOCK_BYTES`` (40 MiB) of query rows to every training row at
once (at least one row, and two rows' worth for a lone row), whatever the
number of queries; for k > 1 the neighbour selection takes a few more
arrays of the block's size.
"""

from __future__ import annotations

import numpy as np

from ..errors import DriverIdError, whole_number
from ..ingest import check_codes
from .base import Classifier, finite_floats

#: Most bytes of squared distances that ``_scores`` holds at once (at least
#: one query row): query rows × training rows × 8.
_DISTANCE_BLOCK_BYTES = 40 << 20


class KNearestNeighbors(Classifier):
    """Lazy learner: stores the training matrix, votes among the k nearest.

    k defaults to 1.  When fewer than k training rows exist, all of them
    vote.
    """

    kind = "knn"

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

        A one-row ``q @ X.T`` would go to BLAS's matrix-vector product,
        whose sums can differ from the matrix product's in the last bits;
        so a lone row is multiplied as two copies of itself and the first
        kept, and each row gets the same bits in any block.
        """
        if q.shape[0] == 1:
            d2 = out
            d2[:] = np.matmul(np.repeat(q, 2, axis=0), self.X_.T)[:1]
        else:
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
        # The block size changes how much is held, not the bits of a row.
        step = max(1, _DISTANCE_BLOCK_BYTES // (8 * n_train))
        block = np.empty((min(step, Q.shape[0]), n_train))
        for lo in range(0, Q.shape[0], step):
            q = Q[lo : lo + step]
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
        X = finite_floats(params["train"], "knn train")
        y_idx = check_codes(self.classes_, params["labels"])
        if len(y_idx) != len(X):
            raise DriverIdError(f"knn has {len(y_idx)} labels for {len(X)} training rows")
        # Checked here, not by the load probe: a lone query row is copied
        # (``_sq_distances``), and the probe row may be of any width.
        if X.ndim != 2 or X.shape[1] != self.n_features_:
            raise DriverIdError(f"knn training rows must have {self.n_features_} columns")
        self._fit(X, y_idx)
