"""One codec for every JSON document: a document is written from a dataclass
and read back into it, so each of its fields is named only in its dataclass.

``to_document`` writes a dataclass as an object of its fields, in declaration
order. ``from_document`` reads a value back by its field type: a nested
dataclass, ``tuple[X, ...]``, a fixed ``tuple[A, B]``, ``list[X]``,
``np.ndarray`` (as float64), ``int``, ``float``, ``bool`` and ``dict`` by
casting, and ``str`` or ``object`` as it is. A required field that is missing
raises KeyError; a field with a default may be absent; an unknown key raises
the dataclass constructor's TypeError. A class with its own ``to_document``
and ``from_document`` keeps its own format.
"""

from dataclasses import MISSING, fields, is_dataclass
from typing import get_args, get_origin

import numpy as np


def to_document(value):
    """`value` as JSON-ready lists, dicts and scalars."""
    if hasattr(value, "to_document"):
        return value.to_document()
    if is_dataclass(value):
        return {f.name: to_document(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (list, tuple)):
        return [to_document(item) for item in value]
    if isinstance(value, dict):
        return {key: to_document(item) for key, item in value.items()}
    return value


def from_document(annotation, value):
    """`value`, read from a document, as the field type `annotation`."""
    if hasattr(annotation, "from_document"):
        return annotation.from_document(value)
    if is_dataclass(annotation):
        return _from_object(annotation, value)
    if annotation is np.ndarray:
        return np.array(value, dtype=np.float64)
    args = get_args(annotation)
    if get_origin(annotation) is tuple:
        if args[-1] is Ellipsis:
            return tuple(from_document(args[0], item) for item in value)
        items = tuple(value)
        if len(items) != len(args):
            raise ValueError(f"expected {len(args)} values, got {len(items)}")
        return tuple(from_document(arg, item) for arg, item in zip(args, items))
    if get_origin(annotation) is list:
        return [from_document(args[0], item) for item in value]
    if annotation in (str, object):
        return value
    return annotation(value)


def _from_object(cls, value):
    decoded = {}
    for f in fields(cls):
        try:
            item = value[f.name]
        except KeyError:
            if f.default is MISSING and f.default_factory is MISSING:
                raise
            continue
        decoded[f.name] = from_document(f.type, item)
    # an unknown key fails as the constructor's unexpected keyword argument
    return cls(**decoded, **{k: v for k, v in value.items() if k not in decoded})
