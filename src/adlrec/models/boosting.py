"""Gradient boosting on multinomial deviance, one regression tree per class
per stage.

Each tree splits on squared error of its class's residual, and boosting
gives the tree its leaf rule: the one-step Newton update of the deviance
(Friedman 2001), summed over the leaf's rows in row order.

A fit stops as "converged" before the first stage at which the mean training
deviance is below TOL, and as "max-iterations" after `n_stages` stages
otherwise. The fit is unweighted: every row counts once, and `class_weight`
is ignored."""

from dataclasses import dataclass

import numpy as np

from .logreg import check_shapes, softmax
from .tree import CutCache, Tree, build_regression_tree

NAME = "gradient_boosting"
ALIASES = ("gb",)
DEFAULTS = {"n_stages": 100, "learning_rate": 0.1, "max_depth": 3}
CONVERGED_REASONS = ("converged",)  # the training deviance fell below TOL

# The mean training deviance, -mean log p(y), below which a fit builds no
# further stage: each training row then has p(y) near 1, and more stages
# would only sharpen scores (the stage count is boosting's main regulariser,
# Friedman 2001). A constant, like mlp's Adam rates, not a hyperparameter;
# at 0.0 every fit builds all n_stages.
TOL = 1e-4


@dataclass
class BoostingModel:
    init_raw: np.ndarray  # (K,) log prior scores
    stages: list[list[Tree]]  # [stage][class]
    learning_rate: float

    def decision(self, X: np.ndarray) -> np.ndarray:
        raw = np.tile(self.init_raw, (X.shape[0], 1))
        for stage in self.stages:
            for c, tree in enumerate(stage):
                raw[:, c] += self.learning_rate * tree.predict_value(X)[:, 0]
        return raw

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return softmax(self.decision(X))

    def check(self, d: int, k: int) -> None:
        """Raise ValueError unless the stages fit d features and k classes."""
        if any(len(stage) != k for stage in self.stages):
            raise ValueError("boosting stage tree count differs from the class count")
        check_shapes(NAME, self, {"init_raw": (k,)})
        for stage in self.stages:
            for tree in stage:
                tree.check(d, 1)


PARAMS = BoostingModel


def fit(
    X: np.ndarray, y: np.ndarray, n_classes: int, class_weight: np.ndarray, seed: int, hp: dict
) -> tuple[BoostingModel, dict]:
    n = X.shape[0]
    rows = np.arange(n)
    onehot = np.zeros((n, n_classes))
    onehot[rows, y] = 1.0
    priors = onehot.mean(axis=0)
    init_raw = np.log(np.clip(priors, 1e-12, None))
    raw = np.tile(init_raw, (n, 1))
    lr = float(hp["learning_rate"])
    n_stages = int(hp["n_stages"])
    max_depth = int(hp["max_depth"])
    factor = (n_classes - 1) / n_classes

    # every tree of the fit grows on X: its columns are sorted once, and
    # each node row set met in this or the previous stage keeps its cuts
    cache = CutCache(X)
    stages: list[list[Tree]] = []
    reason = "max-iterations"
    for _ in range(n_stages):
        proba = softmax(raw)
        with np.errstate(divide="ignore"):  # a true class at probability 0: infinite deviance
            deviance = -np.log(proba[rows, y]).mean()
        if deviance < TOL:
            reason = "converged"
            break
        residual = onehot - proba
        stage: list[Tree] = []
        for c in range(n_classes):
            r = residual[:, c]
            denom_terms = np.abs(r) * (1.0 - np.abs(r))

            def newton_step(member: np.ndarray) -> float:
                denom = denom_terms[member].sum()
                return 0.0 if denom < 1e-150 else factor * r[member].sum() / denom

            tree, leaf_of = build_regression_tree(X, r, cache, newton_step, max_depth=max_depth)
            raw[:, c] += lr * tree.value[leaf_of, 0]
            stage.append(tree)
        stages.append(stage)
        cache.rotate()
    meta = {"iterations": len(stages), "stopping_reason": reason}
    return BoostingModel(init_raw=init_raw, stages=stages, learning_rate=lr), meta
