"""From-scratch classifiers over Bag-of-Objects features.

Four model kinds share one training entry point:

* ``logreg`` — multinomial softmax regression, balanced class weights;
* ``random_forest`` — 100 bagged weighted-Gini trees, sqrt features/split;
* ``gradient_boosting`` — 100 stages of multinomial deviance, depth 3;
* ``mlp`` — one 100-unit rectified hidden layer, Adam + early stop.

Training is bit-reproducible for a fixed seed, and models round-trip through
a digest-protected JSON document.
"""

from dataclasses import dataclass

import numpy as np

from ..features import FeatureConfig
from ..taxonomy import ADL_NAMES
from . import boosting, forest, logreg, mlp
from .store import ModelFormatError, load_model, save_model
from .weights import balanced_weights

KINDS = ("logreg", "random_forest", "gradient_boosting", "mlp")

KIND_ALIASES = {
    "logreg": "logreg",
    "lr": "logreg",
    "random_forest": "random_forest",
    "rf": "random_forest",
    "gradient_boosting": "gradient_boosting",
    "gb": "gradient_boosting",
    "mlp": "mlp",
}

_DEFAULTS = {
    "logreg": logreg.DEFAULTS,
    "random_forest": forest.DEFAULTS,
    "gradient_boosting": boosting.DEFAULTS,
    "mlp": mlp.DEFAULTS,
}


class TrainingError(ValueError):
    pass


def resolve_kind(name: str) -> str:
    try:
        return KIND_ALIASES[name]
    except KeyError:
        raise TrainingError(f"unknown model kind {name!r} (choose from {KINDS})") from None


@dataclass(frozen=True)
class TrainConfig:
    """What to train, and the seed of its fit. A kind's hyperparameters are
    its module's DEFAULTS, copied afresh by each `resolved()`."""

    kind: str
    seed: int = 0

    def resolved(self) -> tuple[str, dict]:
        kind = resolve_kind(self.kind)
        return kind, dict(_DEFAULTS[kind])


@dataclass
class TrainedModel:
    kind: str
    classes: tuple[int, ...]  # original label ids, sorted
    class_names: tuple[str, ...]
    feature_dim: int
    feature_config: FeatureConfig
    hyperparameters: dict
    params: object
    metadata: dict

    def predict_proba_matrix(self, X: np.ndarray) -> np.ndarray:
        """Probabilities over self.classes for each row of X."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.feature_dim:
            raise TrainingError(
                f"feature dimension mismatch: model expects {self.feature_dim}, "
                f"got {X.shape[1] if X.ndim == 2 else X.shape}"
            )
        return self.params.predict_proba(X)

    def predict_labels(self, X: np.ndarray) -> np.ndarray:
        """Argmax class ids (original label ids); ties go to the lowest index."""
        proba = self.predict_proba_matrix(X)
        return np.asarray(self.classes)[np.argmax(proba, axis=1)]


def train_matrix(
    X: np.ndarray,
    y: np.ndarray,
    cfg: TrainConfig,
    feature_config: FeatureConfig,
) -> TrainedModel:
    """Train on a prepared (n, d) matrix with integer labels."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise TrainingError("training set is empty")
    if y.shape != (X.shape[0],):
        raise TrainingError("labels do not match feature rows")
    if not np.all(np.isfinite(X)):
        raise TrainingError("non-finite feature value in training data")
    classes = np.unique(y)
    if classes.size < 2:
        raise TrainingError("training data contains a single class")
    y_local = np.searchsorted(classes, y)
    counts = np.bincount(y_local, minlength=classes.size)
    kind, hp = cfg.resolved()

    if kind == "logreg":
        weights = balanced_weights(counts).values
        params, meta = logreg.fit_logreg(X, y_local, weights, hp)
    elif kind == "random_forest":
        weights = balanced_weights(counts).values
        params, meta = forest.fit_forest(X, y_local, weights, cfg.seed, hp)
    elif kind == "gradient_boosting":
        params, meta = boosting.fit_boosting(X, y_local, classes.size, hp)
    else:
        params, meta = mlp.fit_mlp(X, y_local, classes.size, cfg.seed, hp)

    names = tuple(ADL_NAMES[c] if 0 <= c < len(ADL_NAMES) else str(c) for c in classes)
    meta = dict(meta)
    meta["seed"] = int(cfg.seed)
    return TrainedModel(
        kind=kind,
        classes=tuple(int(c) for c in classes),
        class_names=names,
        feature_dim=X.shape[1],
        feature_config=feature_config,
        hyperparameters=hp,
        params=params,
        metadata=meta,
    )

