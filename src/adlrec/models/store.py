"""Model persistence: versioned, digest-protected JSON documents."""

import hashlib
import json
from dataclasses import asdict

import numpy as np

from ..features import FeatureConfig
from .boosting import BoostingModel
from .forest import ForestModel
from .logreg import LogisticModel
from .mlp import MlpModel
from .tree import Tree

SCHEMA_VERSION = 1


class ModelFormatError(ValueError):
    pass


def _canonical(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False)


def _digest(doc: dict) -> str:
    return hashlib.sha256(_canonical(doc).encode("utf-8")).hexdigest()


def _params_to_document(kind: str, params) -> dict:
    if kind == "logreg":
        return {"weights": params.weights.tolist(), "bias": params.bias.tolist()}
    if kind == "random_forest":
        return {
            "n_classes": params.n_classes,
            "trees": [t.to_document() for t in params.trees],
        }
    if kind == "gradient_boosting":
        return {
            "init_raw": params.init_raw.tolist(),
            "learning_rate": params.learning_rate,
            "stages": [[t.to_document() for t in stage] for stage in params.stages],
        }
    if kind == "mlp":
        return {
            "w1": params.w1.tolist(),
            "b1": params.b1.tolist(),
            "w2": params.w2.tolist(),
            "b2": params.b2.tolist(),
        }
    raise ModelFormatError(f"unknown model kind {kind!r}")


def _params_from_document(kind: str, doc: dict):
    if kind == "logreg":
        return LogisticModel(
            weights=np.array(doc["weights"], dtype=np.float64),
            bias=np.array(doc["bias"], dtype=np.float64),
        )
    if kind == "random_forest":
        return ForestModel(
            trees=[Tree.from_document(t) for t in doc["trees"]],
            n_classes=int(doc["n_classes"]),
        )
    if kind == "gradient_boosting":
        return BoostingModel(
            init_raw=np.array(doc["init_raw"], dtype=np.float64),
            stages=[[Tree.from_document(t) for t in stage] for stage in doc["stages"]],
            learning_rate=float(doc["learning_rate"]),
        )
    if kind == "mlp":
        return MlpModel(
            w1=np.array(doc["w1"], dtype=np.float64),
            b1=np.array(doc["b1"], dtype=np.float64),
            w2=np.array(doc["w2"], dtype=np.float64),
            b2=np.array(doc["b2"], dtype=np.float64),
        )
    raise ModelFormatError(f"unknown model kind {kind!r}")


def save_model(model) -> str:
    """Serialize a TrainedModel to its canonical JSON document."""
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": model.kind,
        "hyperparameters": dict(model.hyperparameters),
        "taxonomy_hash": model.feature_config.taxonomy_hash,
        "feature_config": asdict(model.feature_config),
        "feature_dim": model.feature_dim,
        "classes": list(model.classes),
        "class_names": list(model.class_names),
        "metadata": dict(model.metadata),
        "parameters": _params_to_document(model.kind, model.params),
    }
    doc["digest"] = _digest(doc)
    return _canonical(doc)


def load_model(text: str):
    from . import TrainedModel  # local import: __init__ builds on this module

    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"corrupted model document: {exc.msg}") from None
    except RecursionError:
        raise ModelFormatError("corrupted model document: nested too deeply") from None
    if not isinstance(doc, dict):
        raise ModelFormatError("model document must be a JSON object")
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ModelFormatError(
            f"unsupported model schema version {version!r} (supported: {SCHEMA_VERSION})"
        )
    stored_digest = doc.get("digest")
    body = {k: v for k, v in doc.items() if k != "digest"}
    if stored_digest != _digest(body):
        raise ModelFormatError("model digest mismatch: document corrupted or tampered")
    # a document can be self-consistent and still not describe a model
    try:
        fc = doc["feature_config"]
        feature_config = FeatureConfig(
            representation=fc["representation"],
            use_active=bool(fc["use_active"]),
            taxonomy_hash=fc["taxonomy_hash"],
        )
        model = TrainedModel(
            kind=doc["kind"],
            classes=tuple(int(c) for c in doc["classes"]),
            class_names=tuple(doc["class_names"]),
            feature_dim=int(doc["feature_dim"]),
            feature_config=feature_config,
            hyperparameters=dict(doc["hyperparameters"]),
            params=_params_from_document(doc["kind"], doc["parameters"]),
            metadata=dict(doc["metadata"]),
        )
        _check_shapes(model)
    except KeyError as exc:
        raise ModelFormatError(f"malformed model document: missing field {exc}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise ModelFormatError(f"malformed model document: {exc}") from None
    return model


def _check_shapes(model) -> None:
    """Raise ValueError unless the parameters fit the model's feature
    dimension and class count, so that prediction cannot fail on them."""
    d, k = model.feature_dim, len(model.classes)
    params = model.params
    expected, trees, width = {}, [], 0
    if model.kind == "logreg":
        expected = {"weights": (d, k), "bias": (k,)}
    elif model.kind == "mlp":
        hidden = len(params.b1)
        expected = {"w1": (d, hidden), "b1": (hidden,), "w2": (hidden, k), "b2": (k,)}
    elif model.kind == "random_forest":
        if params.n_classes != k:
            raise ValueError("forest n_classes differs from the class count")
        trees, width = params.trees, k
    else:
        if any(len(stage) != k for stage in params.stages):
            raise ValueError("boosting stage tree count differs from the class count")
        expected = {"init_raw": (k,)}
        trees, width = [tree for stage in params.stages for tree in stage], 1
    for name, shape in expected.items():
        if getattr(params, name).shape != shape:
            raise ValueError(f"{model.kind} {name} has shape {getattr(params, name).shape}, not {shape}")
    for tree in trees:
        if tree.feature.max() >= d:
            raise ValueError("tree feature index out of range")
        if tree.value.shape[1] != width:
            raise ValueError(f"tree leaf value width is not {width}")
