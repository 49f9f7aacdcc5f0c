"""ADL label set and the raw-object-label -> functional-category mapping.

The seven activity labels and the 29-category object table are configuration:
the label set is fixed, the category table is loaded from a JSON document and
is fully user-replaceable. The shipped default table is a reconstruction built
from published exemplar category names, padded to 29 entries with clearly
marked placeholders.
"""

import hashlib
import json
import reprlib
from importlib import resources
from typing import NamedTuple

from .documents import InputError, read_object


class TaxonomyError(InputError):
    """Raised for malformed category-table documents."""


# An ADL label is its index into ADL_NAMES, everywhere from the manifest
# reader to the model's class ids; only documents and tables show the name.
ADL_NAMES: tuple[str, ...] = (
    "Self-Feeding",
    "Functional Mobility",
    "Grooming & Health Management",
    "Communication Management",
    "Home Management",
    "Meal Preparation and Cleanup",
    "Leisure & Other Activities",
)

# Instance counts of the source corpus, in canonical ADL order.
PAPER_CLASS_COUNTS: tuple[int, ...] = (257, 207, 172, 428, 407, 625, 165)

NUM_ADL_CLASSES = len(ADL_NAMES)


class ClassCounts(NamedTuple):
    """Per-ADL nonnegative instance counts, canonical order; kept, with
    paper_class_counts, for tests/test_acceptance.py (src reads PAPER_CLASS_COUNTS)."""

    counts: tuple[int, ...]

    def total(self) -> int:
        return sum(self.counts)


def paper_class_counts() -> ClassCounts:
    """The source-corpus class mix fixture (sums to 2261); see ClassCounts."""
    return ClassCounts(PAPER_CLASS_COUNTS)


class CategoryTable(NamedTuple):
    """Ordered functional-category list plus the raw-label routing map.

    Category order is the order of appearance in the config document and
    fixes the feature dimension layout; `content_hash` versions that layout.
    Raw labels route through `raw_map`, then by identity if the raw string
    is itself a category name, then to `fallback`. The table's size is the
    length of `categories`; a named tuple's own length is its field count.
    """

    categories: tuple[str, ...]
    raw_map: dict[str, str]
    fallback: str
    content_hash: str

    def map_label(self, raw: str) -> int:
        """Map a raw detector label to a category index. Total by design."""
        category = self.raw_map.get(raw)
        if category is None:
            category = raw if raw in self.categories else self.fallback
        return self.categories.index(category)


def _table_hash(fallback: str, categories: dict[str, list[str]]) -> str:
    canonical = json.dumps(
        {
            "fallback": fallback,
            "categories": [[name, sorted(raws)] for name, raws in categories.items()],
        },
        separators=(",", ":"),
        ensure_ascii=True,
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _reject_duplicate_keys(pairs):
    seen = {}
    for key, value in pairs:
        if key in seen:
            raise TaxonomyError(f"duplicate category: {reprlib.repr(key)}")
        seen[key] = value
    return seen


def _field(name: str) -> str:
    """The field path of category `name`; a name too long for reprlib shows
    as reprlib shortens its repr."""
    shown = name if len(name) <= reprlib.aRepr.maxstring else reprlib.repr(name)
    return f"field 'categories.{shown}'"


def load_category_table(config_text: str) -> CategoryTable:
    """Parse a category-table document.

    Expected shape::

        {"fallback": "other",
         "placeholders": ["..."],          # optional: checked, then not kept
         "categories": {"<category>": ["raw_label", ...], ...}}

    Raises TaxonomyError with line/field context on parse failure,
    duplicate categories, duplicate raw labels, or an empty table. Values
    from the document are echoed shortened by reprlib.
    """
    doc = read_object(config_text, TaxonomyError, "category table parse failure",
                      object_pairs_hook=_reject_duplicate_keys)
    categories = doc.get("categories")
    if not isinstance(categories, dict) or not categories:
        raise TaxonomyError("field 'categories': must be a nonempty object")
    for name, raws in categories.items():
        if not isinstance(name, str) or not name:
            raise TaxonomyError(f"field 'categories': bad category name {reprlib.repr(name)}")
        if not isinstance(raws, list) or not all(isinstance(r, str) for r in raws):
            raise TaxonomyError(f"{_field(name)}: raw labels must be a list of strings")
    fallback = doc.get("fallback", "other")
    if not isinstance(fallback, str) or fallback not in categories:
        raise TaxonomyError(f"field 'fallback': {reprlib.repr(fallback)} is not a listed category")
    placeholders = doc.get("placeholders", [])
    if not isinstance(placeholders, list):
        raise TaxonomyError("field 'placeholders': must be a list of category names")
    for name in placeholders:
        if not isinstance(name, str) or name not in categories:
            raise TaxonomyError(
                f"field 'placeholders': {reprlib.repr(name)} is not a listed category"
            )

    raw_map: dict[str, str] = {}
    for name, raws in categories.items():
        for raw in raws:
            if raw in raw_map and raw_map[raw] != name:
                raise TaxonomyError(
                    f"{_field(name)}: raw label {reprlib.repr(raw)} already maps to "
                    f"{reprlib.repr(raw_map[raw])}"
                )
            raw_map[raw] = name

    return CategoryTable(
        categories=tuple(categories),
        raw_map=raw_map,
        fallback=fallback,
        content_hash=_table_hash(fallback, categories),
    )


def default_category_table() -> CategoryTable:
    """The packaged default table (29 reconstructed categories)."""
    text = resources.files("adlrec.data").joinpath("categories.json").read_text("utf-8")
    return load_category_table(text)
