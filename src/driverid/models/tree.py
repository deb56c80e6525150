"""Classification tree with reduced-error pruning.

Training splits the rows into a grow partition and a held-out pruning
partition (seed-controlled shuffle).  The tree is grown greedily on
information gain (binary splits ``x <= threshold``), then pruned bottom-up:
any internal node whose majority-class prediction makes no more mistakes on
the pruning partition than its subtree does is collapsed to a leaf, so
pruning can only shrink the tree and can never increase held-out error.

Split search follows SLIQ (Mehta, Agrawal & Rissanen, 1996): each feature
is sorted once per fit and every child node filters its parent's orders.
The sort need not be stable.  Equal values never straddle a valid cut, so
the rows left of every valid cut, the class counts there and every exact
gain are the same whatever order ties come in; tie order moves only the
rounding of the stage-1 gains below, and the margin covers that.  With
row weights, stage 2 adds each side's class weights over its rows in
ascending row order, so the exact gains are again the same floats for
any order of ties.  So the fitted tree and the boosting stump are the
same on every numpy build and CPU, whichever sort numpy's default
``argsort`` dispatches to.

A node's split is found in two stages (``RepTree._best_split``):

1. Every cut of every feature is scored in O(1) per sorted row, with no
   per-class factor.  With T[c] = c·log2 c, n times the drop in entropy at
   a cut equals T[n] − T[p] − T[n−p] + Σ_k (T[l_k] + T[r_k] − T[N_k]), and
   the class sum is a running sum along the sorted rows: each row adds
   the change of its class's two terms as one more row of that class
   moves left.  A row's count of its own class so far comes from one
   stable radix sort of the class codes (``_rank_gains``); with row
   weights, from its own-class prefix weight.
2. The valid cuts (distinct adjacent values, ``min_leaf`` rows each
   side) whose stage-1 gain is within a proven margin (``_gain_margin``)
   of the best one are scored again, exactly as a full scan would score
   them: class counts (class weights) from a ``bincount`` and entropies
   from ``_entropy_rows``.  The highest exact gain wins, ties going to the
   lowest feature, then the lowest cut.

The AdaBoost stump is a one-level search with row weights.

Growth and pruning are iterative (explicit stacks / ordered passes), so
degenerate chain-shaped trees cannot exhaust the interpreter's recursion
limit, and the node table serializes flat for the same reason.
"""

from __future__ import annotations

import numpy as np

from ..errors import DriverIdError, finite_real, whole_number
from .base import Classifier

_LEAF = -1

#: Most elements that one block of features holds in the stage-1 scan of
#: a split search: features × rows (at least one feature per block).
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


def _xlog2x(x: np.ndarray) -> np.ndarray:
    """x·log2 x, and 0 where x <= 0, in one new array."""
    out = np.where(x > 0, x, 1.0)
    np.log2(out, out=out)
    out *= x
    return out


def _rank_gains(ys: np.ndarray, counts: np.ndarray, ws=None, total=None) -> np.ndarray:
    """Stage-1 information gains (bits) of every cut of each row of ``ys``.

    ``ys`` holds one node's class codes (an unsigned integer type, so the
    stable ``argsort`` runs as a radix sort), each row in ascending order
    of one feature; ``counts`` holds the node's class counts.  Every row
    weighs 1, or with ``ws`` (row weights in the order of ``ys``) its
    weight, and ``total`` is then the node's weight.  Column i of the
    (rows, n − 1) result is the cut after i + 1 rows.  The arithmetic and
    its error bounds are set out in ``RepTree._best_split``.
    """
    n = ys.shape[1]
    grouping = np.argsort(ys, axis=1, kind="stable")
    starts = np.cumsum(counts) - counts
    if ws is None:
        T = _xlog2x(np.arange(n + 1, dtype=np.float64))  # T[c] = c·log2 c
        dT = T[1:] - T[:-1]
        # Grouped by class, each class's rows keep their sorted order, so the
        # r-th row of class k (of N_k) has r of its class before it: moving it
        # left adds T[r+1] − T[r] to Σ T[l_k] and T[N_k−r−1] − T[N_k−r] to Σ T[r_k].
        rank = np.arange(n) - np.repeat(starts, counts)
        step = (dT[rank] - dT[np.repeat(counts, counts) - rank - 1])[None, :]
        split = T[1:n] + T[n - 1 : 0 : -1] - T[n]
        total = n
    else:
        # The same grouping, with each row's class weight summed from the
        # class's first row through it (f of it is F) and from the class's
        # last row back to it (S): moving it left adds F − (F of the row
        # before) to Σ f(L_k) and (S of the row after) − S to Σ f(R_k).
        up_to = np.take_along_axis(ws, grouping, axis=1)
        back = np.empty_like(up_to)
        for lo, hi in zip(starts, starts + counts):
            np.cumsum(up_to[:, lo:hi][:, ::-1], axis=1, out=back[:, lo:hi][:, ::-1])
            np.cumsum(up_to[:, lo:hi], axis=1, out=up_to[:, lo:hi])
        first, last = starts[counts > 0], (starts + counts - 1)[counts > 0]
        # Each buffer is dropped once used: the block is the largest thing
        # a boosting round holds.
        F = _xlog2x(up_to)
        del up_to
        step = np.diff(F, axis=1, prepend=0.0)
        step[:, first] = F[:, first]
        S = _xlog2x(back)
        del back, F
        after = np.diff(S, axis=1, append=0.0)
        after[:, last] = -S[:, last]
        step += after
        del S, after
    gains = np.empty(ys.shape)
    np.put_along_axis(gains, grouping, step, axis=1)
    np.cumsum(gains, axis=1, out=gains)
    gains = gains[:, :-1]
    if ws is not None:
        split = _xlog2x(np.cumsum(ws[:, :-1], axis=1))
        split += _xlog2x(np.cumsum(ws[:, :0:-1], axis=1)[:, ::-1])
        split -= _xlog2x(np.float64(total))
    gains -= split
    gains /= total
    return gains


def _gain_margin(n: int, K: int, total=None) -> float:
    """How far below the best stage-1 gain of a node of n rows and K
    classes a cut is still scored exactly: twice a bound on |stage-1 gain −
    exact gain| (``RepTree._best_split`` derives it), with rows of weight 1
    or, given the node's weight ``total``, of any positive weights."""
    eps = float(np.finfo(np.float64).eps)
    if total is None:
        return 2.0 * eps * (n + 32.0 * (np.log2(n) + K * np.log2(K) + 1.0))
    lam = np.log2(max(total, 2.0))
    return 2.0 * eps * (1 + K / total) * (n * (3 * lam + 5) + (K + 32) * (lam + K * np.log2(K) + 1))


def _feature_orders(X: np.ndarray) -> np.ndarray:
    """Row orders of X by each feature, shape (d, n); ties in any order."""
    return np.argsort(X.T, axis=1)


def midpoint(vs: np.ndarray, cut: int) -> float:
    """Threshold between sorted values ``vs[cut - 1] < vs[cut]``: their
    midpoint, or ``vs[cut - 1]`` when the midpoint rounds up to ``vs[cut]``."""
    thr = (vs[cut - 1] + vs[cut]) / 2.0
    return float(thr if thr < vs[cut] else vs[cut - 1])


def _side_weights(y, w, order, cut, K):
    """Class weights (counts without ``w``) of the rows left and right of
    the cut after ``cut`` rows of ``order``.  With ``w``, each side adds its
    rows in ascending row order, so at a valid cut, which never splits a
    run of equal values, the floats do not depend on how ties were sorted."""
    sides = [s if w is None else np.sort(s) for s in (order[:cut], order[cut:])]
    return [np.bincount(y[s], weights=None if w is None else w[s], minlength=K) for s in sides]


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
        y = y.astype(np.min_scalar_type(K - 1))
        root_counts = np.bincount(y, minlength=K)
        stack = [(new_node(root_counts), _feature_orders(X), 0)]
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

    def _best_split(self, X, orders, y, parent_counts, w=None):
        """Highest-information-gain split of a node as (feature, left size, threshold).

        The winner has the highest exact gain, which must be > 0; ties go
        to the lowest feature index, then the lowest cut.  Returns None when
        no cut satisfies the leaf-size minimum or improves on the parent
        entropy.  Exact gains are those of a scan over every valid cut:
        integer class counts, ``_entropy_rows`` of each side, weighted by
        its share of the n rows and subtracted from the parent entropy.
        With row weights ``w`` (indexed by row, like ``y``),
        ``parent_counts`` holds the node's class weights, and each side's
        class weights, each summed over the side's rows in ascending row
        order (``_side_weights``), take the place of its counts, and its
        weight (their sum) that of its rows.

        **Stage 1** (``_rank_gains``) scores every cut.  With T[c] =
        c·log2 c, n·gain = C − B, where B = T[p] + T[n−p] − T[n] at a cut
        with p rows left, and C = Σ_k (T[l_k] + T[r_k] − T[N_k]) is a
        running sum of one step per sorted row, T[r+1] − T[r] − (T[N_k−r]
        − T[N_k−r−1]) for the r-th row of its class k.

        **The margin.**  Let u = 2⁻⁵³, Λ = T[n] = n·log2 n, and allow
        numpy's ``log2`` 4 ulp, so every T[c] is within α = 10u·T[c].  In
        bits of gain, against the real value:

        - The T errors of the steps telescope to those of T[l_k], T[r_k]
          and T[N_k], whose sum is at most 2Λ since T is superadditive; B
          adds 2Λ.  Together 4α·log2 n.
        - Rounding a step costs at most 2u times the sum of its two
          differences' sizes, each below log2 n + 2; over at most n rows,
          4u·(log2 n + 2).
        - Each partial sum of the running sum is C at some cut, and
          |C| = Σ_k N_k·h(l_k/N_k) ≤ n (h the binary entropy), so its
          rounding adds at most u·n.
        - B's two roundings (|B| ≤ Λ, then |B| ≤ n), C − B (|n·gain| ≤
          n·log2 K) and the division by n add u·(log2 n + 1 + 2·log2 K).

        So e1 ≤ u·(n + 45·log2 n + 2·log2 K + 9).  The exact gain differs
        from the real one by e2 ≤ u·((2K + 22)·log2 K + 3): each of the K
        terms p·log2 p of an entropy is within 10u of its size plus
        1.45u·p, the K-term sum adds (K − 1)u·H, the weighting 3u·H and
        the final subtraction u·log2 K.  ``_gain_margin`` is M =
        4u·(n + 32·(log2 n + K·log2 K + 1)), so e1 + e2 ≤ M/2 with about
        u·n to spare for second-order terms and the rounding of the
        threshold below.  The stage-1 gain of every valid cut is thus
        within M/2 of its exact gain, and the test suite checks that.

        **Row weights.**  With f(x) = x·log2 x, class weights t_k, L_k and
        R_k of the node and its sides, and side weights P, Q of the node's
        W, W·gain = C − B with C = Σ_k (f(L_k) + f(R_k) − f(t_k)) and B =
        f(P) + f(Q) − f(W).  A row of class k steps by (F − F′) + (S′ − S):
        F, F′ are f of the class's weight summed from its first row through
        this row and the one before; S, S′ of it summed back from its last
        row to this row and the one after.  Stage 2 adds t_k, L_k and R_k
        over their rows in ascending row order.  A valid cut never splits a
        run of equal values, so each side is the same set of rows, and these
        are the same floats, whatever order ties were sorted in; stage 1
        adds the same rows' weights in sorted order.  Against the real gain
        of stage 2's floats, with λ = log2 max(W, 2), x·|log2 x| ≤ 0.531
        below 1 and φ(x) = x·|log2 x + 1/ln 2| ≤ x·(λ + 1.45) + 0.2 for
        0 < x ≤ max(W, 2), in bits of gain:

        - Consecutive rows of a class share one prefix float, so f's
          rounding telescopes to that of f(L_k), f(R_k), f of the class
          weight summed back and B's terms: 40u·λ + 16u·(K + 1)/W.
        - The step roundings (∫ |f′| over a class ≤ t_k·(λ + 1.45) + 0.531)
          add 4u·(λ + 1.45) + 2.2u·K/W, the running sum u·n.
        - Stage 1's L_k and R_k, each class weight summed back (for t_k),
          and P and Q as running sums over all rows (for Σ L_k and Σ R_k)
          add the same weights as their stage-2 counterparts in another
          order.  A sum of m positive terms added one by one in any order
          is within (m − 1)u of its real value, relatively (|fl(Σx) − Σx| ≤
          (m − 1)u·Σ|x|), so each is within 2u·n of its counterpart and
          moves f of it by at most 2u·n·φ.  These 3K + 2 terms weigh 3W in
          all: 6u·n·(λ + 1.45) + 0.4u·n·(3K + 2)/W.  W's K-term sum adds
          u·K·(λ + 1.45 + log2 K), B and the division u·(2λ + 1 + 2·log2 K).

        So e1 ≤ u·(n·(6λ + 9.7) + (K + 46)·λ + (K + 2)·log2 K + 1.45K + 7
        + (18.2K + 16 + n·(1.2K + 0.8))/W).  Stage 2's K-term sums P, Q and
        W move each share by (K + 1)u, so e2 ≤ u·((6K + 23)·log2 K + 2.9K +
        3).  With W, ``_gain_margin`` is M = 4u·(1 + K/W)·(n·(3λ + 5) + (K
        + 32)·(λ + K·log2 K + 1)) ≥ 2·(e1 + e2): term by term in n, λ,
        log2 K and 1/W; the constants, (8.7K + 20)u against M's 4u·(K +
        32), fall short only for K > 23, where M's surplus in K²·log2 K
        covers them.  A valid bound keeps the chosen split exact; a loose
        one only adds stage-2 candidates.

        **Stage 2** takes the valid cuts whose stage-1 gain is at least the
        best stage-1 gain over all valid cuts, G, less M, and scores them
        exactly, each from a ``bincount`` of each side's rows.  No
        cut that could win is left out: G is the stage-1 gain of a valid
        cut, so at most the best exact gain plus M/2; and any cut whose
        exact gain is the best has a stage-1 gain of at least that less
        M/2, so at least G − M.  Candidates come in (feature, cut) order,
        so the chosen split is the one a full exact scan of every valid
        cut would choose, bit for bit.

        Stage 1 works on blocks of at most ``_BLOCK_ELEMENTS`` features ×
        rows; each block keeps only its cuts within M of the best stage-1
        gain seen so far, a superset of the final candidates.
        """
        d, n = orders.shape
        if not d:
            return None  # no feature, no cut
        K = len(parent_counts)
        counts = parent_counts if w is None else np.bincount(y[orders[0]], minlength=K)
        total = parent_counts.sum()
        pos = np.arange(1, n)
        sized = (pos >= self.min_leaf_count) & (pos <= n - self.min_leaf_count)
        margin = _gain_margin(n, K, None if w is None else total)
        step = max(1, _BLOCK_ELEMENTS // n)
        best, near = -np.inf, []
        for lo in range(0, d, step):
            order = orders[lo : lo + step]
            vs = X[order, np.arange(lo, lo + len(order))[:, None]]
            gains = _rank_gains(y[order], counts, None if w is None else w[order], total)
            np.copyto(gains, -np.inf, where=~((vs[:, 1:] > vs[:, :-1]) & sized))
            best = max(best, float(gains.max()))
            if best == -np.inf:
                continue
            f, i = np.nonzero(gains >= best - margin)
            near.append((f + lo, i, gains[f, i]))
        if not near:
            return None
        f, i, g = (np.concatenate(parts) for parts in zip(*near))
        close = g >= best - margin
        f, p = f[close], i[close] + 1  # candidates in (feature, cut) order
        # C-ordered (m, K) rows: numpy sums a contiguous row of K >= 8
        # pairwise but a strided one in sequence, which can move a gain
        # by an ulp and flip a near-tie.
        sides = zip(*(_side_weights(y, w, orders[j], cut, K) for j, cut in zip(f, p)))
        left, right = (np.array(side, dtype=np.float64) for side in sides)
        left_w, right_w = left.sum(axis=1), right.sum(axis=1)
        parent_h = _entropy_rows(parent_counts[None, :], np.array([total]))[0]
        h = (left_w / total) * _entropy_rows(left, left_w) + (right_w / total) * _entropy_rows(
            right, right_w
        )
        gains = parent_h - h
        at = int(np.argmax(gains))
        if not gains[at] > 0.0:
            return None
        j, cut = int(f[at]), int(p[at])
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
