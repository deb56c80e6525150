"""k-nearest-neighbors with exact, deterministic neighbor selection.

A query's neighbours are the first k training rows in (distance, training
index) order, where the distance is the row-wise squared distance
``((x - q) ** 2).sum()``: the expression an exhaustive scan would use, and
one whose bits do not depend on where the row sits in a matrix.  Distance
ties thus always admit the lowest-index rows.  Vote ties resolve to the
lowest class.

Rows are scanned by the BLAS expansion ‖q‖² − 2q·x + ‖x‖², which is fast
but whose last bits depend on the row's position in the product; it is
only a filter.  Every row whose expansion lies within a proven margin
(``_margin``) of the query's k-th smallest is scored again row-wise, and
the neighbours are chosen from those rows alone.

A predict of at most ``_FULL_SCAN_PAIRS`` (query, training row) pairs
scans every row.  A larger one searches by branch and bound (Fukunaga &
Narendra, IEEE Trans. Computers C-24:750, 1975):

- The first such predict partitions the training rows into ⌈√(n/16)⌉
  clusters: the centres are rows at evenly spaced indices, every row
  joins its nearest centre, and each cluster keeps its radius.  No random
  numbers are drawn, and the model keeps the partition.
- The queries are grouped by their nearest centre.  Each group scans its
  nearest clusters, enough for k rows, and then every other cluster whose
  lower bound (``‖q − c‖ − radius``, padded by the margin) is not above
  the k-th value found so far for some query of the group.

Neither choice changes the neighbours, only the rows scanned.
``rows_scored_`` counts the (query, training row) pairs that the last
predict scanned; a full scan is queries × training rows.

Memory: a predict holds a copy of the training rows with two more
columns (``_right``), unless it scans every row for fewer query rows
than half the width, and each distance, bound or gathered-row array it
holds besides takes at most a sixteenth of ``_DISTANCE_BLOCK_BYTES``
(40 MiB), or one row's worth if that is more, whatever the number of
queries; fewer than twelve of them are alive at once.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import DriverIdError, whole_number
from ..ingest import check_codes
from .base import Classifier, finite_floats

#: Most bytes that the distance, bound and gathered-row arrays of a
#: predict hold together; each one takes at most a sixteenth of it.
_DISTANCE_BLOCK_BYTES = 40 << 20

#: Predicts of at most this many (query, training row) pairs scan every
#: row: below it, building the clusters, the bounds and the scans group by
#: group cost more than the rows they skip.  (On a 3,000-row ``table7``
#: fold, 0.5 M pairs, one scan and a first cluster search take about as
#: long; at 5 M pairs the search takes half as long.)
_FULL_SCAN_PAIRS = 1 << 20

_U = 2.0**-53  # unit roundoff of float64


def _rows_per_block(cols: int) -> int:
    """Rows of ``cols`` float64 values in one array (at least one row)."""
    return max(1, _DISTANCE_BLOCK_BYTES // (16 * 8 * max(cols, 1)))


def _left(a: np.ndarray, a_sq: np.ndarray) -> np.ndarray:
    """Rows [−2a, 1, ‖a‖²]: scaling by −2 is exact."""
    out = np.empty((len(a), a.shape[1] + 2))
    np.multiply(a, -2.0, out=out[:, :-2])
    out[:, -2] = 1.0
    out[:, -1] = a_sq
    return out


def _right(b: np.ndarray, b_sq: np.ndarray) -> np.ndarray:
    """Rows [b, ‖b‖², 1]."""
    out = np.empty((len(b), b.shape[1] + 2))
    out[:, :-2] = b
    out[:, -2] = b_sq
    out[:, -1] = 1.0
    return out


def _expansions(a: np.ndarray, a_sq: np.ndarray, b: np.ndarray, b_sq: np.ndarray) -> np.ndarray:
    """(len(a), len(b)) expansions ‖a‖² − 2a·b + ‖b‖², given the squared
    norms ``a_sq`` and ``b_sq``, as one BLAS product that sums all d + 2
    terms: a filter only (``KNearestNeighbors._margin``)."""
    return _left(a, a_sq) @ _right(b, b_sq).T


def _pair_distances(A: np.ndarray, a: np.ndarray, B: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise ``((A[a[i]] - B[b[i]]) ** 2).sum()`` for every i.

    Each sum runs over one contiguous row, so its bits do not depend on i
    or on how the pairs are cut into blocks.  A block holds three gathered
    (pairs × columns) arrays at once.
    """
    out = np.empty(len(a))
    step = max(1, _rows_per_block(A.shape[1]) // 3)
    for lo in range(0, len(a), step):
        diff = A[a[lo : lo + step]] - B[b[lo : lo + step]]
        diff *= diff
        out[lo : lo + step] = diff.sum(axis=1)
    return out


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
        self.rows_scored_ = 0
        self._sq_norms = np.einsum("ij,ij->i", X, X)
        # M(q) per unit of (‖q‖ + R)² (``_margin``).
        self._rel = 4.0 * (X.shape[1] + 8) * _U
        self._norm_bound = math.sqrt(self._sq_norms.max(initial=0.0))
        self._centres = None  # the clusters, built by the first predict that searches by them

    def _cluster_rows(self, xa: np.ndarray) -> None:
        """Partition the training rows (``xa``: as ``_right`` extends them)
        into clusters.

        Sets ``_cluster`` (each row's cluster), ``_sizes``, ``_centres``,
        ``_c_sq`` (their squared norms) and ``_radii``: each cluster's
        largest expansion from its centre, plus the most that an expansion
        can fall short of the distance (4·rel·R², as ‖x‖ + R ≤ 2R), its
        square root padded up for rounding.
        """
        n = self.X_.shape[0]
        n_clusters = math.isqrt((n - 1) // 16) + 1  # ⌈√(n/16)⌉
        seeds = np.arange(n_clusters) * n // n_clusters
        centres, c_sq = self.X_[seeds], self._sq_norms[seeds]
        left = _left(centres, c_sq)
        label = np.empty(n, dtype=np.intp)
        near_sq = np.empty(n)
        step = _rows_per_block(max(n_clusters, self.X_.shape[1]))
        for lo in range(0, n, step):
            # (centres × rows): numpy reduces the short axis faster so.
            e = left @ xa[lo : lo + step].T
            label[lo : lo + step] = e.argmin(axis=0)
            near_sq[lo : lo + step] = e.min(axis=0)
        sizes = np.bincount(label, minlength=n_clusters)
        keep = sizes > 0
        self._cluster = (np.cumsum(keep) - 1)[label]
        self._sizes, self._centres, self._c_sq = sizes[keep], centres[keep], c_sq[keep]
        r_sq = np.zeros(len(self._sizes))
        np.maximum.at(r_sq, self._cluster, near_sq)
        r_sq += 4.0 * self._rel * self._norm_bound**2 + np.finfo(np.float64).tiny
        self._radii = np.sqrt(r_sq) * (1.0 + self._rel)

    def _margin(self, qq: np.ndarray) -> np.ndarray:
        """M(q): a bound on |expansion − row-wise distance| between each
        query (squared norm ``qq``) and any training row.

        Let u = 2⁻⁵³, d the width, a = ‖q‖², b = ‖x‖² and s = ‖q − x‖²,
        with ‖x‖ ≤ R for every row (``_norm_bound``), so that
        s ≤ (‖q‖ + R)² = S².

        - The expansion is one BLAS sum of the d + 2 products of
          [−2q, 1, a] and [x, b, 1] (``_left``, ``_right``), in any order,
          with or without FMA.  Their sizes add up to 2Σ|q_i·x_i| + a + b
          ≤ S², so the sum is within γ_(d+2)·S² of its real value, where
          γ_m = mu/(1 − mu); a and b are themselves within γ_d·a and γ_d·b.
          So it is within (2d + 2)u·S² of s, to first order.  Computed as
          (−2q)·x, then + b, then + a (``_scan`` for few queries), it is
          within γ_d·(2√(ab) + a + b) + 2u·S² ≤ (d + 2)u·S² of s.
        - The row-wise form rounds each difference and its square (2u) and
          sums d non-negative terms (γ_(d−1)), so it is within (d + 2)u·s.

        Hence |expansion − row-wise| ≤ (3d + 4)u·S².  M = 4(d + 8)u·S²
        leaves (d + 28)u·S² for the rounding of S itself and for the lower
        bounds (``_lower_bounds``); the tiny constant covers underflow.
        """
        s = np.sqrt(qq) + self._norm_bound
        return self._rel * s * s + np.finfo(np.float64).tiny

    def _lower_bounds(self, q, qq, margin):
        """``(dc, lb)``: the expansion from each query row to each centre,
        and a lower bound on (row-wise distance − M(q)) to any row of each
        cluster, both (queries × clusters).

        With D = ‖q − c‖ and ρ the cluster's radius, every member is at
        least (D − ρ)⁺ from q.  D² ≥ dc − M, and ``_radii`` are ≥ ρ, so
        (√(dc − M)⁺ − radius)⁺² is at most s + 8u·S² after its own three
        roundings, and the row-wise distance is at least s − (d + 2)u·S².
        Subtracting 2M ≥ M + (d + 10)u·S² leaves a bound that no member's
        row-wise distance less M falls below.
        """
        dc = _expansions(q, qq, self._centres, self._c_sq)
        lb = dc - margin[:, None]
        np.maximum(lb, 0.0, out=lb)
        np.sqrt(lb, out=lb)
        lb -= self._radii
        np.maximum(lb, 0.0, out=lb)
        lb *= lb
        lb -= 2.0 * margin[:, None]
        return dc, lb

    def _first_k(self, q, who, idx, k):
        """The first k candidate rows ``idx`` of each query row ``who`` in
        (row-wise distance, index) order, as (who, idx) pairs by query.
        Each query row that has a candidate has at least k.

        A query with exactly k candidates keeps them unscored: they hold
        every row at or below its k-th distance, so they are its first k,
        in some order.
        """
        per_query = np.bincount(who, minlength=len(q))
        if (per_query[per_query > 0] == k).all():
            take = np.argsort(who, kind="stable")
        else:
            order = np.lexsort((idx, _pair_distances(self.X_, idx, q, who), who))
            start = (np.cumsum(per_query) - per_query)[per_query > 0]
            take = order[(start[:, None] + np.arange(k)).ravel()]
        return who[take], idx[take]

    def _scan(self, xa, q, qq, margin, rows, k, pairs, kth):
        """Scan the training rows ``rows`` (None: every row) for the query
        rows ``q``, from ``xa``, the training rows as ``_right`` extends
        them, or with ``xa`` None from ``X_`` itself, adding the norms.

        Returns the candidate (query, row) ``pairs``, with the new ones
        added, and ``kth``, each query's k-th smallest expansion so far,
        lowered to its k-th over ``rows`` where that is smaller.

        Let t be that k-th value.  Its k rows are within M of their
        row-wise distances, so the k-th row-wise distance is at most
        t + M, and any row at or below it has an expansion of at most
        t + 2M: those rows are the candidates.  The rows are taken in
        blocks of at least k rows.  When the pairs would outgrow an array,
        only each query's first k are kept (``_first_k``).
        """
        kth = kth.copy()
        who, idx = [pairs[0]], [pairs[1]]
        held = len(pairs[0])
        step = max(k, _rows_per_block(q.shape[1]))
        n_rows = len(self.X_) if rows is None else len(rows)
        for lo in range(0, n_rows, step):
            if rows is None:  # views, not gathered copies
                block = np.arange(lo, min(lo + step, n_rows))
                x = self.X_[lo : lo + step] if xa is None else xa[lo : lo + step]
            else:
                block = rows[lo : lo + step]
                x = xa[block]
            part_rows = _rows_per_block(len(block))
            for start in range(0, len(q), part_rows):
                part = slice(start, start + part_rows)
                if xa is None:
                    e = (-2.0 * q[part]) @ x.T
                    e += self._sq_norms[lo : lo + step]
                    e += qq[part, None]
                else:
                    e = _left(q[part], qq[part]) @ x.T
                self.rows_scored_ += e.size
                if len(block) >= k:
                    t = e.min(axis=1) if k == 1 else np.partition(e, k - 1, axis=1)[:, k - 1]
                    np.minimum(kth[part], t, out=kth[part])
                    del t
                # A NaN never proves a row too far.
                far = e > (kth[part] + 2.0 * margin[part])[:, None]
                del e
                # np.nonzero of a 2-D mask is many times slower.
                part_who, col = np.divmod(np.flatnonzero(np.logical_not(far, out=far)), len(block))
                who.append(part_who + start)
                idx.append(block[col])
                held += len(col)
                if held > _rows_per_block(4):
                    pairs = self._first_k(q, np.concatenate(who), np.concatenate(idx), k)
                    who, idx, held = [pairs[0]], [pairs[1]], len(pairs[0])
        return (np.concatenate(who), np.concatenate(idx)), kth

    def _scores(self, Q: np.ndarray) -> np.ndarray:
        """(n_queries, n_classes) neighbor vote counts."""
        self.rows_scored_ = 0
        n = self.X_.shape[0]
        k = min(self.k, n)
        qq = np.einsum("ij,ij->i", Q, Q)
        margin = self._margin(qq)
        no_pairs = (np.empty(0, dtype=np.intp),) * 2
        full_scan = Q.shape[0] * n <= _FULL_SCAN_PAIRS
        # One product gives the expansions of the training rows extended by
        # ``_right``.  The copy is held for this predict only, so a fitted
        # model keeps no second X.  A full scan of fewer query rows than
        # half the width adds the norms to X's product instead: cheaper.
        few = full_scan and 2 * len(Q) <= Q.shape[1] + 2
        xa = None if few else _right(self.X_, self._sq_norms)
        if full_scan:
            pairs, _ = self._scan(xa, Q, qq, margin, None, k, no_pairs, np.full(len(Q), np.inf))
            return self._votes(self._first_k(Q, *pairs, k)[1].reshape(-1, k))
        if self._centres is None:
            self._cluster_rows(xa)
        n_clusters = len(self._sizes)
        nearest = np.empty((Q.shape[0], k), dtype=np.intp)
        step = _rows_per_block(max(n_clusters, Q.shape[1]))
        for lo in range(0, Q.shape[0], step):
            q, q_qq, q_margin = Q[lo : lo + step], qq[lo : lo + step], margin[lo : lo + step]
            dc, lb = self._lower_bounds(q, q_qq, q_margin)
            home = dc.argmin(axis=1)
            by_home = np.argsort(home, kind="stable")
            group_sizes = np.bincount(home, minlength=n_clusters)
            ends = np.cumsum(group_sizes)
            for start, end in zip(ends - group_sizes, ends):
                if start == end:
                    continue
                g = by_home[start:end]
                qg, qqg, mg = q[g], q_qq[g], q_margin[g]
                # First the group's nearest clusters, enough for k rows, ...
                near = np.argsort(dc[g].sum(axis=0), kind="stable")
                first = np.zeros(n_clusters, dtype=bool)
                first[near[: np.searchsorted(np.cumsum(self._sizes[near]), k) + 1]] = True
                rows = np.flatnonzero(first[self._cluster])
                pairs, kth = self._scan(xa, qg, qqg, mg, rows, k, no_pairs, np.full(len(g), np.inf))
                # ... then every other cluster whose bound is not above the
                # k-th expansion of some query of the group.
                rest = ~(lb[g] > kth[:, None]).all(axis=0) & ~first
                if rest.any():
                    pairs, _ = self._scan(xa, qg, qqg, mg, np.flatnonzero(rest[self._cluster]), k, pairs, kth)
                nearest[lo + g] = self._first_k(qg, *pairs, k)[1].reshape(-1, k)
        return self._votes(nearest)

    def _votes(self, nearest: np.ndarray) -> np.ndarray:
        """(n_queries, n_classes) vote counts of the (n_queries, k)
        neighbour rows ``nearest``."""
        counts = np.zeros((len(nearest), len(self.classes_)))
        np.add.at(counts, (np.arange(len(nearest)).repeat(nearest.shape[1]), self.y_idx_[nearest].ravel()), 1.0)
        return counts

    def _params_dict(self) -> dict:
        return {"train": self.X_.tolist(), "labels": self.y_idx_.tolist()}

    def _load_params(self, params: dict) -> None:
        X = finite_floats(params["train"], "knn train")
        y_idx = check_codes(self.classes_, params["labels"])
        if len(y_idx) != len(X):
            raise DriverIdError(f"knn has {len(y_idx)} labels for {len(X)} training rows")
        # Checked here, not by the load probe: scoring the probe row copies
        # it (``_scan``), so a declared width would be allocated in full.
        if X.ndim != 2 or X.shape[1] != self.n_features_:
            raise DriverIdError(f"knn training rows must have {self.n_features_} columns")
        self._fit(X, y_idx)
