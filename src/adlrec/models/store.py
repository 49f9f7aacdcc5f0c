"""Model persistence: versioned, digest-protected JSON documents.

A document's "parameters" are written from the dataclass fields of the
model's parameter class and read back by each field's type, so a kind's
fields are named only in its dataclass."""

import hashlib
import json
from dataclasses import asdict, fields
from typing import get_args, get_origin

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


# the parameter dataclass of each model kind; its fields are the document's
# "parameters" entries
_PARAMS = {
    "logreg": LogisticModel,
    "random_forest": ForestModel,
    "gradient_boosting": BoostingModel,
    "mlp": MlpModel,
}


def _encode(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, Tree):
        return value.to_document()
    if isinstance(value, list):
        return [_encode(item) for item in value]
    return value


def _decode(annotation, value):
    """`value` read back as the field type `annotation` of a parameter class."""
    if annotation is np.ndarray:
        return np.array(value, dtype=np.float64)
    if annotation is Tree:
        return Tree.from_document(value)
    if get_origin(annotation) is list:
        (item,) = get_args(annotation)
        return [_decode(item, v) for v in value]
    return annotation(value)  # int or float


def _params_of(kind, doc: dict):
    if not isinstance(kind, str) or kind not in _PARAMS:
        raise ModelFormatError(f"unknown model kind {kind!r}")
    cls = _PARAMS[kind]
    return cls(**{f.name: _decode(f.type, doc[f.name]) for f in fields(cls)})


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
        "parameters": {
            f.name: _encode(getattr(model.params, f.name)) for f in fields(model.params)
        },
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
            params=_params_of(doc["kind"], doc["parameters"]),
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
