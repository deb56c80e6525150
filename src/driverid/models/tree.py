"""Classification tree with reduced-error pruning.

Training splits the rows into a grow partition and a held-out pruning
partition (seed-controlled shuffle).  The tree is grown greedily on
information gain (binary splits ``x <= threshold``), then pruned bottom-up:
any internal node whose majority-class prediction makes no more mistakes on
the pruning partition than its subtree does is collapsed to a leaf, so
pruning can only shrink the tree and can never increase held-out error.

Split search is one presorted, class-major scan (``split_scan``): each
feature is sorted once per fit and every child node filters its parent's
orders, as in SLIQ (Mehta, Agrawal & Rissanen, 1996), and the class counts
left of every cut come from one (K, n) prefix-sum buffer per node.  The
entropy of every candidate side is one pass over its (m, K) counts.
``presort`` and ``midpoint`` are shared with the AdaBoost stump, which has
its own O(n)-per-feature scan (``ensemble._StumpScan``).

Growth and pruning are iterative (explicit stacks / ordered passes), so
degenerate chain-shaped trees cannot exhaust the interpreter's recursion
limit, and the node table serializes flat for the same reason.
"""

from __future__ import annotations

import numpy as np

from .base import Classifier

_LEAF = -1


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


def split_scan(X, orders, y, n_classes: int, min_leaf: int = 1):
    """Candidate binary cuts ``x <= threshold`` of a tree node, one feature at a time.

    ``orders[j]`` lists the node's rows of X in ascending order of feature j
    (ties in row order) and ``y`` holds the class code of every row of X.

    Class counts are held class-major in one (K, n) buffer: for each
    feature it is zeroed, takes 1.0 at (class, sorted position) and is
    prefix-summed along each class row, without gathering an (n, K) array.

    For every feature with a cut between distinct adjacent values that
    leaves at least ``min_leaf`` rows on each side, yields
    ``(j, ok, left, vs)``: ``left[:, i]`` is the class count of the first
    ``i + 1`` sorted rows (shape (K, n − 1), every position), ``ok[i]``
    marks the cut after them as valid, and ``vs`` is the sorted column.
    ``left`` is a view of the buffer, which the next feature overwrites.
    """
    n = orders.shape[1]
    p = np.arange(1, n)
    sized = (p >= min_leaf) & (p <= n - min_leaf)
    cols = np.arange(n)
    mass = np.empty((n_classes, n))
    for j, order in enumerate(orders):
        vs = X[order, j]
        ok = (vs[1:] > vs[:-1]) & sized
        if ok.any():
            mass.fill(0.0)
            mass[y[order], cols] = 1.0
            np.cumsum(mass, axis=1, out=mass)
            yield j, ok, mass[:, :-1], vs


class RepTree(Classifier):
    """Information-gain decision tree + reduced-error pruning."""

    kind = "reptree"

    def __init__(
        self,
        max_depth: int | None = None,
        min_leaf_count: int = 2,
        pruning_fraction: float = 1.0 / 3.0,
        seed: int = 1,
    ):
        if max_depth is not None and max_depth < 1:
            raise ValueError("max_depth must be >= 1 or None")
        if min_leaf_count < 1:
            raise ValueError("min_leaf_count must be >= 1")
        if not 0.0 < pruning_fraction < 1.0:
            raise ValueError("pruning_fraction must lie strictly between 0 and 1")
        self.max_depth = max_depth
        self.min_leaf_count = int(min_leaf_count)
        self.pruning_fraction = float(pruning_fraction)
        self.seed = int(seed)

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
        """
        n = orders.shape[1]
        parent_h = _entropy_rows(parent_counts[None, :], np.array([n]))[0]
        best_gain = 0.0
        best = None
        K = len(parent_counts)
        for j, ok, left, vs in split_scan(X, orders, y, K, self.min_leaf_count):
            p = np.flatnonzero(ok) + 1
            # C-contiguous (m, K) rows: numpy sums a contiguous row of K >= 8
            # pairwise but a strided one in sequence, which can move a gain
            # by an ulp and flip a near-tie.
            left_counts = np.ascontiguousarray(left.T[ok])
            right_counts = parent_counts - left_counts
            h = (p / n) * _entropy_rows(left_counts, p) + ((n - p) / n) * _entropy_rows(
                right_counts, n - p
            )
            gains = parent_h - h
            at = int(np.argmax(gains))
            if gains[at] > best_gain:
                best_gain = float(gains[at])
                best = (j, int(p[at]), midpoint(vs, int(p[at])))
        return best

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
        self.pred_ = np.argmax(self.counts_, axis=1)
        self.depth_ = max(depths)

    # -- inference ----------------------------------------------------------

    @property
    def node_count(self) -> int:
        return int(self.feature_.shape[0])

    @property
    def depth(self) -> int:
        return int(self.depth_)

    def _leaf_of(self, X: np.ndarray) -> np.ndarray:
        node_of = np.zeros(X.shape[0], dtype=np.intp)
        while True:
            live = np.where(self.feature_[node_of] != _LEAF)[0]
            if live.size == 0:
                return node_of
            at = node_of[live]
            go_left = X[live, self.feature_[at]] <= self.threshold_[at]
            node_of[live] = np.where(go_left, self.left_[at], self.right_[at])

    def _proba(self, X: np.ndarray) -> np.ndarray:
        counts = self.counts_[self._leaf_of(X)].astype(np.float64)
        return counts / counts.sum(axis=1, keepdims=True)

    def _scores(self, X: np.ndarray) -> np.ndarray:
        # counts argmax ties can differ from the stored majority rule only
        # when proportions tie as well; route through pred_ for consistency.
        onehot = np.zeros((X.shape[0], len(self.classes_)))
        onehot[np.arange(X.shape[0]), self.pred_[self._leaf_of(X)]] = 1.0
        return onehot

    # -- serialization -------------------------------------------------------

    def _config_dict(self) -> dict:
        return {
            "max_depth": self.max_depth,
            "min_leaf_count": self.min_leaf_count,
            "pruning_fraction": self.pruning_fraction,
            "seed": self.seed,
        }

    def _params_dict(self) -> dict:
        return {
            "feature": [int(v) for v in self.feature_],
            "threshold": [float(v) for v in self.threshold_],
            "left": [int(v) for v in self.left_],
            "right": [int(v) for v in self.right_],
            "counts": [[int(v) for v in row] for row in self.counts_],
            "depth": int(self.depth_),
        }

    def _load_params(self, params: dict) -> None:
        self.feature_ = np.asarray(params["feature"], dtype=np.intp)
        self.threshold_ = np.asarray(params["threshold"], dtype=np.float64)
        self.left_ = np.asarray(params["left"], dtype=np.intp)
        self.right_ = np.asarray(params["right"], dtype=np.intp)
        self.counts_ = np.asarray(params["counts"], dtype=np.int64)
        self.pred_ = np.argmax(self.counts_, axis=1)
        self.depth_ = int(params["depth"])
