"""Classification tree with reduced-error pruning.

Training splits the rows into a grow partition and a held-out pruning
partition (seed-controlled shuffle).  The tree is grown greedily on
information gain (binary splits ``x <= threshold``), then pruned bottom-up:
any internal node whose majority-class prediction makes no more mistakes on
the pruning partition than its subtree does is collapsed to a leaf, so
pruning can only shrink the tree and can never increase held-out error.

Split search follows SLIQ (Mehta, Agrawal & Rissanen, 1996): each feature
is sorted once per fit and every child node filters its parent's orders.
A node scores only the cuts that can win.  Fayyad & Irani (*Machine
Learning* 8:87, 1992, Theorem 1) show that the entropy-optimal binary cut
lies on a class boundary: between two valid cuts (distinct adjacent
values, ``min_leaf`` rows each side) whose rows all share one class, the
node's weighted entropy is strictly concave in the number of rows moved
across, so no cut strictly inside such a run can beat both its ends.  Each
node's features are scanned in blocks: one pass per block finds the valid
cuts, drops those interior ones, and counts the classes left of the rest
with one integer ``bincount``.  ``presort`` and ``midpoint`` are shared
with the AdaBoost stump, which has its own O(n)-per-feature scan
(``ensemble._StumpScan``).

Growth and pruning are iterative (explicit stacks / ordered passes), so
degenerate chain-shaped trees cannot exhaust the interpreter's recursion
limit, and the node table serializes flat for the same reason.
"""

from __future__ import annotations

import numpy as np

from ..errors import DriverIdError, finite_real, whole_number
from .base import Classifier

_LEAF = -1

#: Most elements that one block of features holds in a split search: the
#: tree counts features × rows × classes (which bounds the class counts at
#: its kept cuts), the boosting stump features × rows.
_BLOCK_ELEMENTS = 1 << 18


def _entropy_rows(counts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Shannon entropy (bits) of each row of class counts; ``sizes`` holds
    the row sums, all positive (the two sides of a cut, or a whole node).

    Bit for bit the same as normalizing each row by its own sum (exactly
    ``sizes``) and masking ``log2`` to 0 at zero probabilities: log2(1.0)
    is exactly 0.0.  The (m, K) products are summed as C-ordered rows.
    """
    p = counts / sizes[:, None]
    plogp = np.where(p > 0, p, 1.0)
    np.log2(plogp, out=plogp)
    plogp *= p
    return -plogp.sum(axis=-1)


def presort(X: np.ndarray) -> np.ndarray:
    """Row orders of X by each feature, shape (d, n); equal values keep row order."""
    return np.argsort(X, axis=0, kind="stable").T


def midpoint(vs: np.ndarray, cut: int) -> float:
    """Threshold between sorted values ``vs[cut - 1] < vs[cut]``: their
    midpoint, or ``vs[cut - 1]`` when the midpoint rounds up to ``vs[cut]``."""
    thr = (vs[cut - 1] + vs[cut]) / 2.0
    return float(thr if thr < vs[cut] else vs[cut - 1])


class RepTree(Classifier):
    """Information-gain decision tree + reduced-error pruning."""

    kind = "reptree"
    fitted = {
        "feature_": np.intp,
        "threshold_": np.float64,
        "left_": np.intp,
        "right_": np.intp,
        "counts_": np.int64,
        "depth_": int,
    }

    def __init__(
        self,
        max_depth: int | None = None,
        min_leaf_count: int = 2,
        pruning_fraction: float = 1.0 / 3.0,
        seed: int = 1,
    ):
        self.max_depth = None if max_depth is None else whole_number("max_depth", max_depth, 1)
        self.min_leaf_count = whole_number("min_leaf_count", min_leaf_count, 1)
        self.pruning_fraction = finite_real(
            "pruning_fraction", pruning_fraction, 0.0, 1.0, strict=True
        )
        self.seed = whole_number("seed", seed, 0)

    # -- training ----------------------------------------------------------

    def _fit(self, X: np.ndarray, y_idx: np.ndarray) -> None:
        n = X.shape[0]
        rng = np.random.default_rng(self.seed)
        perm = rng.permutation(n)
        n_prune = int(round(self.pruning_fraction * n))
        n_prune = min(n_prune, n - 1)  # grow partition keeps at least one row
        prune_rows, grow_rows = perm[:n_prune], perm[n_prune:]

        self._grow(X[grow_rows], y_idx[grow_rows])
        if n_prune > 0:
            self._prune(X[prune_rows], y_idx[prune_rows])
        self._compact()

    def _grow(self, X: np.ndarray, y: np.ndarray) -> None:
        K = len(self.classes_)
        feature: list[int] = []
        threshold: list[float] = []
        left: list[int] = []
        right: list[int] = []
        counts: list[np.ndarray] = []

        def new_node(node_counts: np.ndarray) -> int:
            feature.append(_LEAF)
            threshold.append(0.0)
            left.append(_LEAF)
            right.append(_LEAF)
            counts.append(node_counts)
            return len(feature) - 1

        # Each stack entry carries its node's rows as presorted orders;
        # children filter their parent's orders, so X is sorted once.
        root_counts = np.bincount(y, minlength=K)
        stack = [(new_node(root_counts), presort(X), 0)]
        while stack:
            slot, orders, depth = stack.pop()
            node_counts = counts[slot]
            if (
                orders.shape[1] < 2 * self.min_leaf_count
                or (self.max_depth is not None and depth >= self.max_depth)
                or np.count_nonzero(node_counts) < 2
            ):
                continue  # stays a leaf
            split = self._best_split(X, orders, y, node_counts)
            if split is None:
                continue
            j, cut, thr = split
            feature[slot], threshold[slot] = j, thr
            go_left = np.zeros(X.shape[0], dtype=bool)
            go_left[orders[j, :cut]] = True
            in_left = go_left[orders]
            children = []
            for side in (in_left, ~in_left):
                child = orders[side].reshape(len(orders), -1)
                children.append((new_node(np.bincount(y[child[0]], minlength=K)), child, depth + 1))
            left[slot], right[slot] = children[0][0], children[1][0]
            stack += children

        self.feature_ = np.asarray(feature, dtype=np.intp)
        self.threshold_ = np.asarray(threshold, dtype=np.float64)
        self.left_ = np.asarray(left, dtype=np.intp)
        self.right_ = np.asarray(right, dtype=np.intp)
        self.counts_ = np.asarray(counts, dtype=np.int64)

    def _best_split(self, X, orders, y, parent_counts):
        """Highest-information-gain split of a node as (feature, left size, threshold).

        Ties resolve to the lowest feature index, then the lowest cut.
        Returns None when no cut satisfies the leaf-size minimum or improves
        on the parent entropy.

        Only cuts that can win are scored (Fayyad & Irani, 1992).  A valid
        cut is skipped when every row between the previous and the next
        valid cut of its feature has one class, k.  Moving t such rows
        from the right side (R rows, r_k of class k) to the left (L, l_k)
        makes n times the node's weighted entropy, in nats,
        (L+t)·H(left) + (R−t)·H(right), whose second derivative in t is
        1/(L+t) − 1/(l_k+t) + 1/(R−t) − 1/(r_k−t).  That is negative,
        since the node holds a second class on one side or the other, so
        the gain at a skipped cut is strictly below the gain at one of the
        two kept cuts that bound its one-class stretch.  The first and last
        valid cut of a feature have no valid cut beyond them to bound
        them, so they are always kept.

        Tree rows weigh 1, so class counts are exact integers, and the
        counts at the kept cuts (one ``bincount`` over the runs between
        them) are the very values a prefix sum over every cut would give.
        ``_entropy_rows``, the gain and the feature-major ``argmax`` then
        do the same float operations on the same operands as a scan of
        every valid cut; a skipped cut could only have won if rounding
        outweighed its real margin.

        Features are scanned in blocks of at most ``_BLOCK_ELEMENTS``
        features × rows × classes (at least one feature), which bounds the
        (features, rows) arrays and the (kept cuts, K) counts alike.
        """
        n = orders.shape[1]
        K = len(parent_counts)
        parent_h = _entropy_rows(parent_counts[None, :], np.array([n]))[0]
        pos = np.arange(1, n)
        sized = (pos >= self.min_leaf_count) & (pos <= n - self.min_leaf_count)
        step = max(1, _BLOCK_ELEMENTS // (n * K))
        best_gain, best = 0.0, None
        for lo in range(0, len(orders), step):
            order = orders[lo : lo + step]
            vs = X[order, np.arange(lo, lo + len(order))[:, None]]
            ys = y[order]
            # valid cuts as flat indices into the (features, n - 1) cut grid
            valid = np.flatnonzero((vs[:, 1:] > vs[:, :-1]) & sized)
            if valid.size == 0:
                continue
            f, i = np.divmod(valid, n - 1)
            # Class changes between sorted neighbours, cumulated over the
            # flattened block, so a difference within one feature's row
            # counts the changes between two of its positions.  An interior
            # cut is kept when a class changes anywhere from the previous
            # valid cut of its feature to the next.
            changes = np.cumsum(ys[:, 1:] != ys[:, :-1])
            keep = np.ones(valid.size, dtype=bool)
            keep[1:-1] = (
                (f[1:-1] != f[:-2])
                | (f[1:-1] != f[2:])
                | (changes[valid[2:] - 1] > changes[valid[:-2]])
            )
            f, p = f[keep], i[keep] + 1  # feature in the block, rows left of the cut
            # Runs of sorted rows, one starting at each feature and after
            # each kept cut: kept cut s ends run f[s] + s, and the class
            # counts through it, less the node's counts once per earlier
            # feature, are the counts left of the cut.
            starts = np.zeros(ys.shape, dtype=bool)
            starts[:, 0] = True
            starts[f, p] = True
            run = np.cumsum(starts) - 1
            n_runs = len(order) + f.size
            through = np.bincount(ys.ravel() * n_runs + run, minlength=K * n_runs).reshape(K, n_runs)
            np.cumsum(through, axis=1, out=through)
            # C-ordered (m, K) rows: numpy sums a contiguous row of K >= 8
            # pairwise but a strided one in sequence, which can move a gain
            # by an ulp and flip a near-tie.
            left = np.empty((f.size, K))
            np.subtract(through[:, f + np.arange(f.size)].T, f[:, None] * parent_counts, out=left)
            right = parent_counts - left
            h = (p / n) * _entropy_rows(left, p) + ((n - p) / n) * _entropy_rows(right, n - p)
            gains = parent_h - h
            at = int(np.argmax(gains))
            if gains[at] > best_gain:
                best_gain, best = float(gains[at]), (lo + int(f[at]), int(p[at]))
        if best is None:
            return None
        j, cut = best
        return j, cut, midpoint(X[orders[j], j], cut)

    def _prune(self, Xp: np.ndarray, yp: np.ndarray) -> None:
        n_nodes = self.feature_.shape[0]
        # Route pruning rows down; children were allocated after their
        # parents, so ascending slot order visits parents first.
        node_rows: list[np.ndarray] = [np.empty(0, dtype=np.intp)] * n_nodes
        node_rows[0] = np.arange(Xp.shape[0])
        for slot in range(n_nodes):
            if self.feature_[slot] == _LEAF:
                continue
            rows = node_rows[slot]
            go_left = Xp[rows, self.feature_[slot]] <= self.threshold_[slot]
            node_rows[self.left_[slot]] = rows[go_left]
            node_rows[self.right_[slot]] = rows[~go_left]

        pred = np.argmax(self.counts_, axis=1)
        err = np.zeros(n_nodes, dtype=np.int64)
        # Descending slot order is children-before-parents: bottom-up pass.
        for slot in range(n_nodes - 1, -1, -1):
            rows = node_rows[slot]
            leaf_err = int(np.count_nonzero(yp[rows] != pred[slot]))
            if self.feature_[slot] == _LEAF:
                err[slot] = leaf_err
                continue
            subtree_err = err[self.left_[slot]] + err[self.right_[slot]]
            if leaf_err <= subtree_err:
                self.feature_[slot] = _LEAF  # collapse; children unreachable
                err[slot] = leaf_err
            else:
                err[slot] = subtree_err

    def _compact(self) -> None:
        """Drop unreachable nodes, renumber, record node count and depth."""
        remap: dict[int, int] = {}
        order: list[int] = []
        depths: list[int] = []
        stack = [(0, 0)]
        while stack:
            slot, depth = stack.pop()
            remap[slot] = len(order)
            order.append(slot)
            depths.append(depth)
            if self.feature_[slot] != _LEAF:
                stack.append((int(self.right_[slot]), depth + 1))
                stack.append((int(self.left_[slot]), depth + 1))

        take = np.asarray(order, dtype=np.intp)
        self.feature_ = self.feature_[take]
        self.threshold_ = self.threshold_[take]
        self.counts_ = self.counts_[take]
        self.left_ = np.asarray(
            [remap[int(s)] if f != _LEAF else _LEAF for f, s in zip(self.feature_, self.left_[take])],
            dtype=np.intp,
        )
        self.right_ = np.asarray(
            [remap[int(s)] if f != _LEAF else _LEAF for f, s in zip(self.feature_, self.right_[take])],
            dtype=np.intp,
        )
        self.depth_ = max(depths)

    def _load_params(self, params: dict) -> None:
        super()._load_params(params)
        # Children after their parent, as _compact numbers them, so every
        # walk from the root ends at a leaf.
        n = self.node_count
        inner = np.flatnonzero(self.feature_ != _LEAF)
        if (
            any(len(a) != n for a in (self.threshold_, self.left_, self.right_, self.counts_))
            or ((self.feature_[inner] < 0) | (self.feature_[inner] >= self.n_features_)).any()
            or any(((c[inner] <= inner) | (c[inner] >= n)).any() for c in (self.left_, self.right_))
        ):
            raise DriverIdError("reptree nodes do not form a tree over its feature count")
        # predict_proba divides a leaf's counts by their sum.
        if (self.counts_ < 0).any() or (self.counts_.sum(axis=1) <= 0).any():
            raise DriverIdError("reptree node counts must be >= 0 with a positive sum")

    # -- inference ----------------------------------------------------------

    @property
    def node_count(self) -> int:
        return int(self.feature_.shape[0])

    def _leaf_of(self, X: np.ndarray) -> np.ndarray:
        node_of = np.zeros(X.shape[0], dtype=np.intp)
        while True:
            live = np.where(self.feature_[node_of] != _LEAF)[0]
            if live.size == 0:
                return node_of
            at = node_of[live]
            go_left = X[live, self.feature_[at]] <= self.threshold_[at]
            node_of[live] = np.where(go_left, self.left_[at], self.right_[at])

    def _scores(self, X: np.ndarray) -> np.ndarray:
        return self.counts_[self._leaf_of(X)].astype(np.float64)
