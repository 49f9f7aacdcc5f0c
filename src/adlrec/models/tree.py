"""Flat decision trees: weighted-Gini classification and squared-error regression.

A classification leaf holds its weighted class proportions. A regression tree
splits on squared error, and its leaf values come from the caller's leaf rule
(gradient boosting passes its Newton step).

A tree is a set of parallel numpy arrays indexed by node id (feature == -1
marks a leaf). Children get their ids when their parent splits, in
depth-first order, so a child's id is always greater than its parent's. In
memory a leaf is its own left and right child, so `apply` can move every
row one level per step for `depth` steps with no per-row work and no
recursion; documents store -1 there instead.

Both tree kinds share one exact split kernel, `_best_split`. It takes a
node's rows in each candidate column's sorted order, stored column-major as a
`Presort` (k, m), takes prefix sums of per-row statistics along each order
(weighted class one-hots and weights for Gini, target and squared target for
squared error), and scores every cut between consecutive distinct values at
once. Candidate thresholds are the midpoints between those values; ties go to
the lowest feature index, then the lowest threshold (`_pick_best`).

The orders come from stable sorts. Gradient boosting grows every tree of a
fit on one matrix, so `presort` sorts its columns once per fit: the root reads
that presort directly, and every other node filters it with a boolean mask of
its rows (`Presort.subset`). Node rows are ascending and a stable sort breaks
ties by row id, so the filter equals a fresh stable sort of the node and the
scores stay bit-identical. Random-forest trees each grow on their own
bootstrap rows, so a classification node sorts its candidate columns itself.
"""

import math
from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

LEAF = -1


@dataclass
class Tree:
    feature: np.ndarray  # (nodes,) int64, LEAF at leaves
    threshold: np.ndarray  # (nodes,) float64, 0.0 at leaves
    left: np.ndarray  # (nodes,) int64, the node itself at leaves
    right: np.ndarray  # (nodes,) int64, the node itself at leaves
    value: np.ndarray  # (nodes, width) float64; rows of internal nodes are unused
    depth: int  # edges on the longest root-to-leaf path

    def apply(self, X: np.ndarray) -> np.ndarray:
        """Leaf node id for each row."""
        rows = np.arange(X.shape[0])
        nodes = np.zeros(X.shape[0], dtype=np.int64)
        for _ in range(self.depth):
            # rows already at a leaf read column -1 and stay where they are
            go_left = X[rows, self.feature[nodes]] <= self.threshold[nodes]
            nodes = np.where(go_left, self.left[nodes], self.right[nodes])
        return nodes

    def predict_value(self, X: np.ndarray) -> np.ndarray:
        return self.value[self.apply(X)]

    def check(self, d: int, width: int) -> None:
        """Raise ValueError unless the tree fits d features and leaves of `width` values."""
        if self.feature.max() >= d:
            raise ValueError("tree feature index out of range")
        if self.value.shape[1] != width:
            raise ValueError(f"tree leaf value width is not {width}")

    def to_document(self) -> dict:
        leaf = self.feature == LEAF
        return {
            "feature": self.feature.tolist(),
            "threshold": self.threshold.tolist(),
            "left": np.where(leaf, -1, self.left).tolist(),
            "right": np.where(leaf, -1, self.right).tolist(),
            "value": [vals if is_leaf else [] for vals, is_leaf in zip(self.value.tolist(), leaf.tolist())],
        }

    @classmethod
    def from_document(cls, doc: dict) -> "Tree":
        """Rebuild a tree, raising ValueError for any document `apply` could
        not walk: ragged arrays, children out of range or not after their
        parent, or leaves of differing value widths."""
        feature, threshold, left, right, values = (
            doc[key] for key in ("feature", "threshold", "left", "right", "value")
        )
        n = len(feature)
        if n == 0:
            raise ValueError("tree has no nodes")
        threshold = np.array(threshold, dtype=np.float64)
        if threshold.shape != (n,) or any(len(items) != n for items in (left, right, values)):
            raise ValueError("tree arrays differ in length")
        if set(map(type, feature)) | set(map(type, left)) | set(map(type, right)) != {int}:
            raise ValueError("tree feature and child ids must be integers")
        # children follow their parents, so one pass in id order checks each
        # node and finds its longest path from the root
        depth = [0] * n
        walk_left, walk_right = list(left), list(right)
        widths = set()
        for node in range(n):
            if feature[node] == LEAF:
                if left[node] != -1 or right[node] != -1:
                    raise ValueError(f"tree leaf {node} has a child")
                widths.add(len(values[node]))
                walk_left[node] = walk_right[node] = node
                continue
            if feature[node] < 0:
                raise ValueError(f"tree node {node} has a negative feature index")
            if len(values[node]):
                raise ValueError(f"tree internal node {node} carries a value")
            for child in (left[node], right[node]):
                if not node < child < n:
                    raise ValueError(f"tree node {node}: child {child} out of range or not after it")
                depth[child] = max(depth[child], depth[node] + 1)
        if len(widths) != 1 or 0 in widths:
            raise ValueError("tree leaves differ in value width")
        unused = [0.0] * widths.pop()
        value = np.array([v if len(v) else unused for v in values], dtype=np.float64)
        if value.ndim != 2:
            raise ValueError("tree leaf values must be lists of numbers")
        return cls(
            feature=np.array(feature, dtype=np.int64),
            threshold=threshold,
            left=np.array(walk_left, dtype=np.int64),
            right=np.array(walk_right, dtype=np.int64),
            value=value,
            depth=max(depth),
        )


class _Growth:
    """Node arrays of a tree while it grows.

    Every leaf holds at least one training row, so `rows` rows need at most
    2 * rows - 1 nodes.
    """

    def __init__(self, rows: int, width: int):
        size = max(1, 2 * rows - 1)
        self.feature = np.full(size, LEAF, dtype=np.int64)
        self.threshold = np.zeros(size)
        self.left = np.arange(size)
        self.right = np.arange(size)
        self.value = np.zeros((size, width))
        self.node_depth = np.zeros(size, dtype=np.int64)
        self.size = 1  # the root

    def split(self, node: int, feat: int, threshold: float) -> tuple[int, int]:
        left, right = self.size, self.size + 1
        self.size += 2
        self.value[node] = 0.0  # only leaves carry a value
        self.feature[node] = feat
        self.threshold[node] = threshold
        self.left[node] = left
        self.right[node] = right
        self.node_depth[left] = self.node_depth[right] = self.node_depth[node] + 1
        return left, right

    def tree(self) -> Tree:
        n = self.size
        return Tree(
            feature=self.feature[:n].copy(),
            threshold=self.threshold[:n].copy(),
            left=self.left[:n].copy(),
            right=self.right[:n].copy(),
            value=self.value[:n].copy(),
            depth=int(self.node_depth[:n].max()),
        )


class Presort(NamedTuple):
    """Rows of a matrix in each column's sorted order, stored column-major.

    `rows[j]` lists row ids in stable ascending order of column j, and
    `values[j]` those rows' values in column j: both (columns, rows).
    """

    rows: np.ndarray
    values: np.ndarray

    def subset(self, member: np.ndarray) -> "Presort":
        """The same orders restricted to the rows where `member`, (n,) by row
        id, is True.

        Filtering keeps each column's order, and a stable sort breaks ties by
        row id, so this equals a fresh stable sort of the member rows.
        """
        keep = np.flatnonzero(member[self.rows])
        k = len(self.rows)
        return Presort(self.rows.take(keep).reshape(k, -1), self.values.take(keep).reshape(k, -1))


def presort(X: np.ndarray) -> Presort:
    """Stable sort of every column of X, (n, d), once."""
    columns = X.T
    rows = np.argsort(columns, axis=1, kind="stable")
    return Presort(rows, np.take_along_axis(columns, rows, axis=1))


def _pick_best(
    scores: np.ndarray,
    sorted_vals: np.ndarray,
    valid: np.ndarray,
    features: np.ndarray,
) -> tuple[int, float] | None:
    """Lexicographic (score, feature index, threshold) minimum over columns.

    Column j of `scores` and `valid`, (m-1, k), and of `sorted_vals`, (m, k),
    holds feature `features[j]`, in any order. Feature indices are distinct,
    so the threshold only ranks cuts within a column, where the lowest cut of
    equal score wins. A column whose best valid score is not finite (NaN
    among them, or -inf) never wins. None when no column has a finite valid
    score.
    """
    by_feature = np.argsort(features)
    masked = np.where(valid, scores, np.inf).T[by_feature]  # (k, m-1), features ascending
    # the first minimum in row-major order: lowest feature, then lowest cut
    row, cut = divmod(int(np.argmin(masked)), masked.shape[1])
    if not math.isfinite(masked[row, cut]):
        # argmin stops at a NaN or -inf: drop every column holding one, look again
        masked[~np.isfinite(masked.min(axis=1))] = np.inf
        row, cut = divmod(int(np.argmin(masked)), masked.shape[1])
        if not math.isfinite(masked[row, cut]):
            return None
    j = by_feature[row]
    lower, upper = sorted_vals[cut, j], sorted_vals[cut + 1, j]
    threshold = 0.5 * (lower + upper)
    # midpoint can collapse onto the upper value in float; fall back to
    # the lower value so the <= test still separates the two sides
    if threshold >= upper:
        threshold = lower
    return int(features[j]), float(threshold)


def _best_split(node: Presort, features: np.ndarray, stats: tuple, score):
    """Best (feature, threshold) of one node, or None.

    Row j of `node` holds candidate feature `features[j]`: the node's row ids
    in that column's sorted order and their values, (k, m). Each array in
    `stats` holds one statistic per row id, (n, ...). `score` maps their
    prefix sums along each sorted order, (k, m, ...), to the cost of cutting
    after each position, (k, m-1).
    """
    scores = score(*[np.cumsum(stat[node.rows], axis=1) for stat in stats])
    vals = node.values
    return _pick_best(scores.T, vals.T, (vals[:, :-1] < vals[:, 1:]).T, features)


def _gini_scores(cum: np.ndarray, cum_weight: np.ndarray, total_weight: float) -> np.ndarray:
    """Weighted sum of child Gini impurities from prefix sums of weighted
    class one-hots, (k, m, K), and of row weights, (k, m).

    Reductions over the class axis go through sorted values so that scores
    (and hence tree structure) are exactly label-permutation-equivariant.
    """
    left = cum[:, :-1]
    right = cum[:, -1:] - left
    wl = cum_weight[:, :-1]
    wr = total_weight - wl
    with np.errstate(divide="ignore", invalid="ignore"):
        gini_l = wl - np.sort(left**2, axis=2).sum(axis=2) / wl  # wl * gini(left)
        gini_r = wr - np.sort(right**2, axis=2).sum(axis=2) / wr
    return gini_l + gini_r


def _sse_scores(csum: np.ndarray, csqr: np.ndarray) -> np.ndarray:
    """Total child sum of squared errors from prefix sums of target and
    target**2, (k, m)."""
    m = csum.shape[1]
    counts_l = np.arange(1, m, dtype=np.float64)
    counts_r = m - counts_l
    sum_l = csum[:, :-1]
    sum_r = csum[:, -1:] - sum_l
    sse_l = csqr[:, :-1] - sum_l**2 / counts_l
    sse_r = (csqr[:, -1:] - csqr[:, :-1]) - sum_r**2 / counts_r
    return sse_l + sse_r


def build_classification_tree(
    X: np.ndarray,
    y: np.ndarray,
    sample_weight: np.ndarray,
    n_classes: int,
    rng: np.random.Generator,
    max_features: int,
    min_samples_split: int = 2,
) -> Tree:
    """Grow an unpruned tree on weighted Gini impurity.

    Candidate features are the first `max_features` non-constant features in
    a random order; when fewer exist, every non-constant feature is tried,
    so a node only becomes a mixed leaf if all features are constant in it.
    """
    n, d = X.shape
    onehot = np.zeros((n, n_classes))
    onehot[np.arange(n), y] = 1.0
    weighted_onehot = onehot * sample_weight[:, None]

    growth = _Growth(n, n_classes)
    stack = [(0, np.arange(n))]
    while stack:
        node, idx = stack.pop()
        class_totals = weighted_onehot[idx].sum(axis=0)
        growth.value[node] = class_totals / class_totals.sum()
        if np.count_nonzero(class_totals) <= 1 or idx.size < min_samples_split:
            continue

        Xn = X[idx]
        perm = rng.permutation(d)
        varies = Xn.min(axis=0) < Xn.max(axis=0)
        candidates = perm[varies[perm]][:max_features]
        if not candidates.size:
            continue
        # each tree grows on its own bootstrap rows, so nodes sort their
        # candidate columns here rather than filter a presort
        rows = idx[np.argsort(Xn[:, candidates].T, axis=1, kind="stable")]
        total_weight = float(sample_weight[idx].sum())
        best = _best_split(
            Presort(rows, X[rows, candidates[:, None]]),
            candidates,
            (weighted_onehot, sample_weight),
            lambda cum, cum_weight: _gini_scores(cum, cum_weight, total_weight),
        )
        if best is None:
            continue

        feat, threshold = best
        mask = Xn[:, feat] <= threshold
        left, right = growth.split(node, feat, threshold)
        stack.append((right, idx[~mask]))
        stack.append((left, idx[mask]))
    return growth.tree()


def build_regression_tree(
    X: np.ndarray,
    target: np.ndarray,
    presorted: Presort,
    leaf_value: Callable[[np.ndarray], float],
    max_depth: int,
    min_samples_split: int = 2,
) -> tuple[Tree, np.ndarray]:
    """Depth-capped tree over all features, split on squared error of `target`.

    `presorted` is `presort(X)`; every tree grown on X can share it. The
    caller owns the leaf values: `leaf_value` maps a leaf's rows, an (n,)
    boolean mask by row id, to its value. Returns the tree and each training
    row's leaf id.
    """
    n, d = X.shape
    features = np.arange(d)
    stats = (target, target**2)
    growth = _Growth(n, 1)
    leaf_of = np.zeros(n, dtype=np.int64)
    # a node's rows, its parent's sorted rows, and its depth
    stack = [(0, np.ones(n, dtype=bool), presorted, 0)]
    while stack:
        node, member, within, depth = stack.pop()
        values = target[member]
        best = None
        if (
            depth < max_depth
            and values.size >= min_samples_split
            and values.min() != values.max()
        ):
            # the root reads the presort; any other node filters its parent's
            rows = within if node == 0 else within.subset(member)
            best = _best_split(rows, features, stats, _sse_scores)
        if best is None:
            growth.value[node, 0] = leaf_value(member)
            leaf_of[member] = node
            continue
        feat, threshold = best
        left_member = member & (X[:, feat] <= threshold)
        left, right = growth.split(node, feat, threshold)
        stack.append((right, member ^ left_member, rows, depth + 1))
        stack.append((left, left_member, rows, depth + 1))
    return growth.tree(), leaf_of
