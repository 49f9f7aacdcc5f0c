"""One reader and one codec for every JSON document, and one reader and one
line writer for every CSV document.

``read_object`` reads each document from outside the program (a frame record,
a category table, a generator spec, a saved model), so all fail alike: the
reader's prefix, then json's error, "nested too deeply", "integer has too
many digits" or "not a JSON object".

``to_document`` writes a dataclass as an object of its fields, in declaration
order, so a document field is named only in its dataclass. ``from_document``
reads a value back by its field type: a dataclass from an object, ``tuple``
and ``list`` from a list, ``np.ndarray`` and ``NDArray[dtype]`` by
``number_array``, ``object`` as it is, and ``int``, ``float``, ``bool``, ``str``
and ``dict`` from that JSON type only (a number is an int or a float, never a
bool; an ``int`` takes no float). A wrong type raises TypeError, a missing
required field KeyError, and an unknown key the constructor's TypeError. A
class with its own ``to_document`` and ``from_document`` keeps its own format.

``read_csv`` reads each CSV document (the segment manifest, an ablation grid)
behind its header, and ``csv_lines`` writes every one (the manifest, the grid,
features.csv, predictions.csv) a line at a time.
"""

import csv
import io
import json
import reprlib
from dataclasses import MISSING, fields, is_dataclass
from typing import Iterable, Iterator, get_args, get_origin

import numpy as np

# the types of the JSON values that are numbers: a bool is not one, though it is an int
NUMBER_TYPES = frozenset({int, float})
# what a field of each type must hold, and the JSON value types that are that
_JSON_TYPES = {int: ("an integer", {int}), float: ("a number", NUMBER_TYPES),
               bool: ("true or false", {bool}), str: ("a string", {str}),
               dict: ("an object", {dict}), list: ("a list", {list})}


class InputError(ValueError):
    """Outside input that a command refuses; every error class of adlrec derives from it."""


def read_object(text: str, error: type[Exception], what: str, **options) -> dict:
    """The JSON object in `text`, else `error` with a message that starts with
    `what`; `options` go to json.loads, and an `error` from one of its hooks
    passes through."""
    try:
        doc = json.loads(text, **options)
    except json.JSONDecodeError as exc:
        raise error(f"{what}: {exc}") from None
    except RecursionError:
        raise error(f"{what}: nested too deeply") from None
    except error:
        raise
    except ValueError:  # an integer longer than int's digit limit
        raise error(f"{what}: integer has too many digits") from None
    if not isinstance(doc, dict):
        raise error(f"{what}: not a JSON object")
    return doc


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


def _expect(field_type: type, value):
    what, types = _JSON_TYPES[field_type]
    if type(value) not in types:
        raise TypeError(f"expected {what}, got {reprlib.repr(value)}")
    return value


def number_array(value, dtype=np.float64) -> np.ndarray:
    """`value`, a number or nested lists of numbers (never bools; integers for an
    integer dtype) as `dtype`; ValueError where nested lists differ in length,
    TypeError for a non-number, OverflowError for an integer beyond dtype."""
    items = np.array(value, dtype=object)
    flat = items.ravel()  # not items.flat, which refuses more than 32 dimensions
    types = set(map(type, flat))
    if list in types:  # where nested lists differ in length, np.array keeps lists as items
        raise ValueError("ragged array: nested lists differ in length")
    expected = int if np.issubdtype(dtype, np.integer) else float
    allowed = _JSON_TYPES[expected][1]
    if not allowed.issuperset(types):
        _expect(expected, next(item for item in flat if type(item) not in allowed))
    return items.astype(dtype)


def from_document(annotation, value):
    """`value`, read from a document, as the field type `annotation`."""
    if hasattr(annotation, "from_document"):
        return annotation.from_document(value)
    if is_dataclass(annotation):
        return _from_object(annotation, _expect(dict, value))
    if annotation is np.ndarray:
        return number_array(value)
    if get_origin(annotation) is np.ndarray:  # NDArray[dtype]
        return number_array(value, get_args(get_args(annotation)[1])[0])
    args = get_args(annotation)
    if get_origin(annotation) is tuple:
        items = _expect(list, value)
        if args[-1] is Ellipsis:
            return tuple(from_document(args[0], item) for item in items)
        if len(items) != len(args):
            raise ValueError(f"expected {len(args)} values, got {len(items)}")
        return tuple(from_document(arg, item) for arg, item in zip(args, items))
    if get_origin(annotation) is list:
        return [from_document(args[0], item) for item in _expect(list, value)]
    if annotation is object:
        return value
    return annotation(_expect(annotation, value))


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


class _Line:
    """A file whose write returns its text, so that the writerow of a
    csv.writer over it returns the row's line."""

    def write(self, text: str) -> str:
        return text


def csv_lines(rows: Iterable[Iterable]) -> Iterator[str]:
    """Each row as its CSV line, ending in a newline, made as it is drawn."""
    return map(csv.writer(_Line(), lineterminator="\n").writerow, rows)


def read_csv(
    lines: str | Iterable[str], header: tuple[str, ...], error: type[Exception], what: str
) -> Iterator[tuple[int, list[str]]]:
    """The rows of CSV `lines` after `header`, each with its last line number
    (a quoted field may span lines); blank rows are skipped. A missing or
    different header (compared cell by cell, stripped), a row of another
    width than the header or a csv.Error, such as a field over the csv
    module's limit, raises `error`, its message starting with `what`."""
    reader = csv.reader(io.StringIO(lines) if isinstance(lines, str) else lines)
    try:
        first = next(reader, None)
        if first is None:
            raise error(f"{what} is empty (header row required)")
        if tuple(cell.strip() for cell in first) != header:
            raise error(f"{what} header must be {','.join(header)}, got {reprlib.repr(first)}")
        for row in reader:
            if row:
                if len(row) != len(header):
                    raise error(f"{what} line {reader.line_num}: "
                                f"expected {len(header)} fields, got {len(row)}")
                yield reader.line_num, row
    except csv.Error as exc:
        raise error(f"{what} line {reader.line_num}: {exc}") from None
