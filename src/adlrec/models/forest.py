"""Random forest: bagged weighted-Gini trees, sqrt-feature subsampling."""

import math
from dataclasses import dataclass

import numpy as np

from ..rng import make_generator
from .tree import Tree, build_classification_tree

NAME = "random_forest"
ALIASES = ("rf",)
DEFAULTS = {"n_trees": 100}
CONVERGED_REASONS = ()  # a fixed number of trees: nothing to converge


@dataclass
class ForestModel:
    trees: list[Tree]
    n_classes: int

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        total = np.zeros((X.shape[0], self.n_classes))
        for tree in self.trees:
            total += tree.predict_value(X)
        return total / len(self.trees)

    def check(self, d: int, k: int) -> None:
        """Raise ValueError unless the trees fit d features and k classes."""
        if not self.trees:
            raise ValueError("forest has no trees")
        if self.n_classes != k:
            raise ValueError("forest n_classes differs from the class count")
        for tree in self.trees:
            tree.check(d, k)


PARAMS = ForestModel


def fit(
    X: np.ndarray, y: np.ndarray, n_classes: int, class_weight: np.ndarray, seed: int, hp: dict
) -> tuple[ForestModel, dict]:
    n, d = X.shape
    sample_weight = class_weight[y]
    n_trees = int(hp["n_trees"])
    max_features = max(1, math.ceil(math.sqrt(d)))
    trees = []
    # per-tree substreams keep the ensemble independent of build order
    for t in range(n_trees):
        rng = make_generator(seed, "forest-tree", t)
        sample = rng.integers(0, n, size=n)
        tree = build_classification_tree(
            X[sample], y[sample], sample_weight[sample], n_classes, rng, max_features=max_features
        )
        trees.append(tree)
    meta = {"iterations": n_trees, "stopping_reason": "max-iterations"}
    return ForestModel(trees=trees, n_classes=n_classes), meta
