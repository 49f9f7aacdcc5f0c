"""Model persistence: versioned, digest-protected JSON documents.

A model.json holds the fields of its TrainedModel, written and read through
`adlrec.documents`, beside its schema version, taxonomy hash and digest. The
"parameters" object is read as its kind's PARAMS dataclass, so every field is
named only in its dataclass."""

import hashlib
import json

from .. import models  # KINDS read at call time, so a kind added to it is seen here
from ..documents import InputError, from_document, read_object, to_document
from ..taxonomy import NUM_ADL_CLASSES

SCHEMA_VERSION = 1
# keys of a model.json that are not TrainedModel fields, the digest aside
ENVELOPE = ("schema_version", "taxonomy_hash")


class ModelFormatError(InputError):
    pass


def _canonical(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False)


def _digest(doc: dict) -> str:
    return hashlib.sha256(_canonical(doc).encode("utf-8")).hexdigest()


def save_model(model) -> str:
    """Serialize a TrainedModel to its canonical JSON document."""
    doc = {
        "schema_version": SCHEMA_VERSION,
        "taxonomy_hash": model.feature_config.taxonomy_hash,
        **to_document(model),
    }
    doc["digest"] = _digest(doc)
    return _canonical(doc)


def load_model(text: str):
    doc = read_object(text, ModelFormatError, "corrupted model document")
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
        params = next((kind.PARAMS for kind in models.KINDS if kind.NAME == doc["kind"]), None)
        if params is None:
            raise ValueError(f"unknown model kind {doc['kind']!r}")
        model = from_document(models.TrainedModel, {k: v for k, v in body.items() if k not in ENVELOPE})
        model.parameters = from_document(params, model.parameters)
        model.parameters.check(model.feature_dim, len(model.classes))
        # predictions index classes, and are scored and named as ADL labels
        if list(model.classes) != sorted(set(model.classes) & set(range(NUM_ADL_CLASSES))):
            raise ValueError("classes must be distinct ADL label ids in ascending order")
        if doc["taxonomy_hash"] != model.feature_config.taxonomy_hash:
            raise ValueError("taxonomy_hash differs from feature_config.taxonomy_hash")
    except KeyError as exc:
        raise ModelFormatError(f"malformed model document: missing field {exc}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise ModelFormatError(f"malformed model document: {exc}") from None
    return model

