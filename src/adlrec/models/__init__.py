"""From-scratch classifiers over Bag-of-Objects features.

Each model kind is one module of this package, listed once in KINDS. A kind
module declares:

* ``NAME``, the kind's name in documents and reports, and ``ALIASES``, the
  other names the command line accepts for it;
* ``DEFAULTS``, its hyperparameters, each of which can change a fit;
* ``PARAMS``, the dataclass of a fitted model's parameters, with
  ``predict_proba(X)`` and ``check(d, k)``, which raises ValueError unless
  the parameters fit d features and k classes, so that prediction cannot
  fail on them; a model.json's "parameters" object is written from PARAMS
  fields and read back into them;
* ``CONVERGED_REASONS``, the stopping reasons of a fit whose convergence
  test passed, empty for a kind that has no such test;
* ``fit(X, y, n_classes, class_weight, seed)``, which reads its settings
  from DEFAULTS and returns the PARAMS instance and metadata with
  "iterations" and "stopping_reason"; it ignores the arguments it does not use.

Every kind trains through ``train_matrix``. Training is bit-reproducible for
a fixed seed, and models round-trip through a digest-protected JSON document.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..documents import InputError
from ..features import FeatureConfig
from ..taxonomy import ADL_NAMES, NUM_ADL_CLASSES
from . import boosting, forest, logreg, mlp

KINDS = (logreg, forest, boosting, mlp)


class TrainingError(InputError):
    pass


class ClassWeights(NamedTuple):
    """Per-class positive weights under the balanced rule."""

    values: np.ndarray


def balanced_weights(counts) -> ClassWeights:
    """Balanced class weights, w_c = N / (K * n_c), for the class counts n_c."""
    counts = tuple(int(c) for c in counts)
    if not counts:
        raise TrainingError("no classes")
    if any(c <= 0 for c in counts):
        raise TrainingError(f"zero-count class in {counts}")
    n, k = sum(counts), len(counts)
    return ClassWeights(np.array([n / (k * c) for c in counts], dtype=np.float64))


def resolve_kind(name: str):
    """The kind in KINDS whose NAME or one of whose ALIASES is `name`."""
    for kind in KINDS:
        if name in (kind.NAME, *kind.ALIASES):
            return kind
    names = tuple(kind.NAME for kind in KINDS)
    raise TrainingError(f"unknown model kind {name!r} (choose from {names})")


class TrainConfig(NamedTuple):
    """What to train, and the seed of its fit."""

    kind: str
    seed: int = 0


@dataclass
class TrainedModel:
    kind: str
    classes: tuple[int, ...]  # original label ids, sorted
    class_names: tuple[str, ...]
    feature_dim: int
    feature_config: FeatureConfig
    hyperparameters: dict
    parameters: object  # its kind's PARAMS
    metadata: dict

    def predict_proba_matrix(self, X: np.ndarray) -> np.ndarray:
        """Probabilities over self.classes for each row of X."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.feature_dim:
            raise TrainingError(
                f"feature dimension mismatch: model expects {self.feature_dim}, "
                f"got {X.shape[1] if X.ndim == 2 else X.shape}"
            )
        return self.parameters.predict_proba(X)

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
    classes = np.array(sorted(set(y.tolist())), dtype=np.int64)
    # a model's classes are ADL label ids, which load_model requires
    outside = classes[(classes < 0) | (classes >= NUM_ADL_CLASSES)]
    if outside.size:
        raise TrainingError(f"label {outside[0]} is not an ADL label id (0 to {NUM_ADL_CLASSES - 1})")
    if classes.size < 2:
        raise TrainingError("training data contains a single class")
    y_local = np.searchsorted(classes, y)
    weights = balanced_weights(np.bincount(y_local, minlength=classes.size)).values
    kind = resolve_kind(cfg.kind)
    params, meta = kind.fit(X, y_local, classes.size, weights, cfg.seed)
    names = tuple(ADL_NAMES[c] for c in classes)
    meta = dict(meta)
    meta["seed"] = int(cfg.seed)
    return TrainedModel(
        kind=kind.NAME,
        classes=tuple(int(c) for c in classes),
        class_names=names,
        feature_dim=X.shape[1],
        feature_config=feature_config,
        hyperparameters=dict(kind.DEFAULTS),
        parameters=params,
        metadata=meta,
    )

