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

Both tree kinds grow through one depth-first loop, `_grow`: a node is a
boolean mask of its rows and its depth, the kind's split rule gives its
(feature, threshold) or None, and the kind's leaf rule a leaf's values. The
loop keeps its nodes as a Python list and builds the tree's arrays from it
once, at the end.

Both tree kinds share one exact split kernel, `_best_split`, over a node's
`Cuts`: its rows in the stable sorted order of each column that varies in
it, and a vector of every cut between neighbouring distinct values, ascending
by (feature, position), with the cut's midpoint threshold. The kernel takes
prefix sums of per-row statistics along each order (weighted class one-hots
and weights for Gini, target and squared target for squared error), scores
the cuts only, and takes the first minimum: ties go to the lowest feature,
then the lowest threshold.

A random-forest tree grows on its own bootstrap rows and tries a few random
columns at each node; sorting those per node costs it less than filtering a
sort of every column would. Gradient boosting grows every tree of a fit on
one matrix, and its nodes meet the same row sets again and again. So a
`CutCache` sorts the matrix's columns once per fit, keeps each row set's
cuts, and answers a row set it has not seen by filtering that one sort: a
stable sort breaks ties by row id, so that equals a fresh stable sort, and
every score is the same float expression as a per-node sort gives. The cache
holds only the row sets met in the current or the previous boosting stage
(`CutCache.rotate`), so its memory is bounded by the split nodes of two
stages, not of the whole fit.
"""

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..documents import number_array

LEAF = -1


@dataclass
class Tree:
    feature: np.ndarray  # (nodes,) int64, LEAF at leaves
    threshold: np.ndarray  # (nodes,) float64, 0.0 at leaves
    left: np.ndarray  # (nodes,) int64, the node itself at leaves
    right: np.ndarray  # (nodes,) int64, the node itself at leaves
    value: np.ndarray  # (nodes, width) float64; zero rows at internal nodes
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
        """Rebuild a tree, raising ValueError (TypeError for a non-number) for
        any document `apply` could not walk: ragged arrays, children out of
        range or not after their parent, or leaves of differing value widths."""
        feature, threshold, left, right, values = (
            doc[key] for key in ("feature", "threshold", "left", "right", "value")
        )
        n = len(feature)
        if n == 0:
            raise ValueError("tree has no nodes")
        threshold = number_array(threshold)
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
        value = number_array([v if len(v) else unused for v in values])
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


class Cuts(NamedTuple):
    """A node's candidate splits: every cut between neighbouring distinct
    values of each column that varies in the node.

    `rows`, (k, m), holds the node's row ids in each varying column's stable
    sorted order, columns by ascending feature. Cut i puts the first
    `left[i]` rows of its column's order on the left; in `rows` flattened,
    `at[i]` is the last of those and `end[i]` the column's last row. It
    splits feature `feature[i]` at `threshold[i]`. Cuts run ascending by
    (feature, position).
    """

    rows: np.ndarray
    at: np.ndarray
    end: np.ndarray
    left: np.ndarray  # float64, for the squared-error means
    feature: np.ndarray
    threshold: np.ndarray


def _cuts(X: np.ndarray, rows: np.ndarray, features: np.ndarray) -> Cuts:
    """Cuts of a node whose row j of `rows`, (k, m), is its row ids in the
    stable sorted order of column `features[j]` of X; features ascending."""
    values = X[rows, features[:, None]]
    varies = values[:, 0] < values[:, -1]
    rows, features, values = rows[varies], features[varies], values[varies]
    column, position = np.nonzero(values[:, :-1] < values[:, 1:])
    lower, upper = values[column, position], values[column, position + 1]
    threshold = 0.5 * (lower + upper)
    # midpoint can collapse onto the upper value in float; fall back to
    # the lower value so the <= test still separates the two sides
    threshold = np.where(threshold >= upper, lower, threshold)
    m = values.shape[1]
    return Cuts(rows, column * m + position, column * m + m - 1, position + 1.0, features[column], threshold)


class CutCache:
    """The cuts of each node row set that the trees grown on one matrix meet,
    kept only for the sets met in the current or the previous stage;
    `rotate` starts the next stage."""

    def __init__(self, X: np.ndarray):
        self.X, self.order = X, np.argsort(X.T, axis=1, kind="stable")  # (d, n): each column sorted once
        self.features = np.arange(X.shape[1])
        self.current: dict[bytes, Cuts] = {}
        self.previous: dict[bytes, Cuts] = {}

    def rotate(self) -> None:
        self.previous, self.current = self.current, {}

    def cuts(self, member: np.ndarray) -> Cuts:
        """Cuts of the rows where `member`, (n,) by row id, is True."""
        key = member.tobytes()
        found = self.current.get(key) or self.previous.get(key)
        if found is None:
            # filtering keeps each column's order; reshaped by row count, as X may have no columns
            found = _cuts(self.X, self.order[member[self.order]].reshape(-1, member.sum()), self.features)
        self.current[key] = found
        return found


def _best_split(cuts: Cuts, stats: tuple, score) -> tuple[int, float] | None:
    """Lexicographic (score, feature, threshold) minimum over a node's cuts.

    Each array in `stats` holds one statistic per row id, (n, ...). `score`
    maps the cuts and the stats' prefix sums along each sorted order,
    (k, m, ...), to the cost of each cut, (c,). A column holding a NaN or
    -inf score never wins. None when no cut has a finite score.
    """
    if not cuts.at.size:
        return None
    # prefix sums in place: one (k, m, ...) array per statistic and node
    gathered = [stat[cuts.rows] for stat in stats]
    scores = score(cuts, *[g.cumsum(axis=1, out=g) for g in gathered])
    # cuts run by (feature, position): the first minimum has the lowest
    # feature, then the lowest threshold
    best = int(np.argmin(scores))
    if not math.isfinite(scores[best]):
        # argmin stops at a NaN or -inf: drop every column holding one, look again
        dropped = np.isin(cuts.end, cuts.end[np.isnan(scores) | (scores == -np.inf)])
        scores = np.where(dropped, np.inf, scores)
        best = int(np.argmin(scores))
        if not math.isfinite(scores[best]):
            return None
    return int(cuts.feature[best]), float(cuts.threshold[best])


def _gini_scores(cuts: Cuts, cum: np.ndarray, cum_weight: np.ndarray, total_weight: float) -> np.ndarray:
    """Weighted sum of child Gini impurities at each cut from prefix sums of
    weighted class one-hots, (k, m, K), and of row weights, (k, m).

    Reductions over the class axis go through sorted values so that scores
    (and hence tree structure) are exactly label-permutation-equivariant.
    """
    cum = cum.reshape(-1, cum.shape[2])
    left = cum[cuts.at]
    right = cum[cuts.end] - left
    wl = cum_weight.take(cuts.at)
    wr = total_weight - wl
    with np.errstate(divide="ignore", invalid="ignore"):
        gini_l = wl - np.sort(left**2, axis=1).sum(axis=1) / wl  # wl * gini(left)
        gini_r = wr - np.sort(right**2, axis=1).sum(axis=1) / wr
    return gini_l + gini_r


def _sse_scores(cuts: Cuts, csum: np.ndarray, csqr: np.ndarray) -> np.ndarray:
    """Total child sum of squared errors at each cut from prefix sums of
    target and target**2, (k, m)."""
    sum_l, sqr_l = csum.take(cuts.at), csqr.take(cuts.at)
    sse_l = sqr_l - sum_l**2 / cuts.left
    sum_r = csum.take(cuts.end) - sum_l
    sse_r = (csqr.take(cuts.end) - sqr_l) - sum_r**2 / (csum.shape[1] - cuts.left)
    return sse_l + sse_r


def _grow(
    X: np.ndarray,
    width: int,
    split: Callable[[np.ndarray, int], tuple[int, float] | None],
    leaf: Callable[[np.ndarray], Sequence[float]],
) -> tuple[Tree, np.ndarray]:
    """Grow a tree on the rows of X, depth first from the root.

    A node is its rows, an (n,) boolean mask by row id, and its depth.
    `split(member, depth)` gives its (feature, threshold), or None to make
    it a leaf, and `leaf(member)`, called right after `split` declined the
    same node, a leaf's `width` values. A split node's children take the
    next two ids, and the left one grows first. Returns the tree and each
    row's leaf id.
    """
    nodes: list = [None]  # (feature, threshold, left, right, value) by node id
    leaf_of = np.zeros(X.shape[0], dtype=np.int64)
    deepest = 0
    stack = [(0, np.ones(X.shape[0], dtype=bool), 0)]
    while stack:
        node, member, depth = stack.pop()
        best = split(member, depth)
        if best is None:
            nodes[node] = (LEAF, 0.0, node, node, leaf(member))
            leaf_of[member] = node
            deepest = max(deepest, depth)
            continue
        feat, threshold = best
        left = len(nodes)
        nodes[node] = (feat, threshold, left, left + 1, [0.0] * width)  # only leaves carry a value
        nodes += [None, None]
        go_left = member & (X[:, feat] <= threshold)
        stack += [(left + 1, member ^ go_left, depth + 1), (left, go_left, depth + 1)]
    feature, threshold, left, right, value = zip(*nodes)
    tree = Tree(
        feature=np.array(feature, dtype=np.int64),
        threshold=np.array(threshold, dtype=np.float64),
        left=np.array(left, dtype=np.int64),
        right=np.array(right, dtype=np.int64),
        value=np.array(value, dtype=np.float64),
        depth=deepest,
    )
    return tree, leaf_of


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

    # the node's weighted class totals, summed once by its split rule; a
    # leaf's rule runs right after its split rule declined, so it reuses them
    class_totals = None

    def split(member: np.ndarray, depth: int) -> tuple[int, float] | None:
        nonlocal class_totals
        idx = member.nonzero()[0]
        class_totals = weighted_onehot[idx].sum(axis=0)
        if np.count_nonzero(class_totals) <= 1 or idx.size < min_samples_split:
            return None
        Xn = X[idx]
        perm = rng.permutation(d)
        varies = Xn.min(axis=0) < Xn.max(axis=0)
        # ascending, so the kernel's first minimum has the lowest feature
        candidates = np.sort(perm[varies[perm]][:max_features])
        if not candidates.size:
            return None
        rows = idx[np.argsort(Xn[:, candidates].T, axis=1, kind="stable")]
        total_weight = float(sample_weight[idx].sum())
        return _best_split(
            _cuts(X, rows, candidates),
            (weighted_onehot, sample_weight),
            lambda cuts, cum, cum_weight: _gini_scores(cuts, cum, cum_weight, total_weight),
        )

    def proportions(member: np.ndarray) -> np.ndarray:
        return class_totals / class_totals.sum()

    return _grow(X, n_classes, split, proportions)[0]


def build_regression_tree(
    X: np.ndarray,
    target: np.ndarray,
    cache: CutCache,
    leaf_value: Callable[[np.ndarray], float],
    max_depth: int,
    min_samples_split: int = 2,
) -> tuple[Tree, np.ndarray]:
    """Depth-capped tree over all features, split on squared error of `target`.

    `cache` is `CutCache(X)`; every tree grown on X can share it. The caller
    owns the leaf values: `leaf_value` maps a leaf's rows, an (n,) boolean
    mask by row id, to its value. Returns the tree and each training row's
    leaf id.
    """
    stats = (target, target**2)

    def split(member: np.ndarray, depth: int) -> tuple[int, float] | None:
        values = target[member]
        if depth < max_depth and values.size >= min_samples_split and values.min() != values.max():
            return _best_split(cache.cuts(member), stats, _sse_scores)
        return None

    return _grow(X, 1, split, lambda member: [leaf_value(member)])
