"""Model persistence: versioned, digest-protected JSON documents.

A document's "parameters" are written from the dataclass fields of the
model's parameter class, its kind's PARAMS, and read back by each field's
type, so a kind's fields are named only in its dataclass."""

import hashlib
import json
from dataclasses import asdict, fields
from typing import get_args, get_origin

import numpy as np

from ..features import FeatureConfig
from .tree import Tree

SCHEMA_VERSION = 1


class ModelFormatError(ValueError):
    pass


def _canonical(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False)


def _digest(doc: dict) -> str:
    return hashlib.sha256(_canonical(doc).encode("utf-8")).hexdigest()


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


def _params_of(kinds, name, doc: dict):
    """The PARAMS instance of the kind called `name`, read from `doc`."""
    cls = next((kind.PARAMS for kind in kinds if kind.NAME == name), None)
    if cls is None:
        raise ModelFormatError(f"unknown model kind {name!r}")
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
    from . import KINDS, TrainedModel  # local import: __init__ builds on this module

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
    body = {k: v for k, v in doc.items() if k != "digest"}
    try:
        digest = _digest(body)
    except ValueError:  # json reads NaN, Infinity and 1e999, which save_model never writes
        raise ModelFormatError("corrupted model document: number is NaN or infinite") from None
    if doc.get("digest") != digest:
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
            params=_params_of(KINDS, doc["kind"], doc["parameters"]),
            metadata=dict(doc["metadata"]),
        )
        model.params.check(model.feature_dim, len(model.classes))
    except KeyError as exc:
        raise ModelFormatError(f"malformed model document: missing field {exc}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise ModelFormatError(f"malformed model document: {exc}") from None
    return model

