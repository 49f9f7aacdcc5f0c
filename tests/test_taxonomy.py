import json
from importlib import resources

import pytest
from hypothesis import given
from hypothesis import strategies as st

from adlrec.taxonomy import (
    ADL_NAMES,
    NUM_ADL_CLASSES,
    TaxonomyError,
    default_category_table,
    load_category_table,
    paper_class_counts,
)

EXPECTED_ADL_NAMES = (
    "Self-Feeding",
    "Functional Mobility",
    "Grooming & Health Management",
    "Communication Management",
    "Home Management",
    "Meal Preparation and Cleanup",
    "Leisure & Other Activities",
)


def test_canonical_adl_set():
    assert ADL_NAMES == EXPECTED_ADL_NAMES
    assert NUM_ADL_CLASSES == 7


def test_paper_class_counts_fixture():
    counts = paper_class_counts()
    assert counts.counts == (257, 207, 172, 428, 407, 625, 165)
    assert counts.total() == 2261
    assert counts.counts[ADL_NAMES.index("Meal Preparation and Cleanup")] == 625
    assert counts.counts[ADL_NAMES.index("Leisure & Other Activities")] == 165
    assert counts.counts[ADL_NAMES.index("Self-Feeding")] == 257


def test_default_table_has_29_categories(table):
    assert len(table.categories) == 29
    for name in ("kitchen_utensils", "electronics", "wheelchair_walker"):
        assert name in table.categories
    assert table.fallback == "other"
    # the packaged document marks its placeholders, and no real entry
    doc = json.loads(resources.files("adlrec.data").joinpath("categories.json").read_text("utf-8"))
    assert set(doc["placeholders"]) < set(table.categories)
    assert "drinkware" not in doc["placeholders"]


def test_mapping_examples(table):
    assert table.categories[table.map_label("spoon")] == "kitchen_utensils"
    assert table.categories[table.map_label("zzz")] == "other"
    assert table.categories[table.map_label("drinkware")] == "drinkware"


def test_many_to_one_mapping():
    doc = json.dumps(
        {"fallback": "other", "categories": {"drinkware": ["mug", "cup"], "other": []}}
    )
    t = load_category_table(doc)
    assert t.categories[t.map_label("mug")] == "drinkware"
    assert t.categories[t.map_label("cup")] == "drinkware"


def test_duplicate_category_rejected():
    doc = '{"fallback": "other", "categories": {"food": [], "food": [], "other": []}}'
    with pytest.raises(TaxonomyError, match="duplicate category"):
        load_category_table(doc)


def test_duplicate_raw_label_rejected():
    doc = json.dumps(
        {
            "fallback": "other",
            "categories": {"a": ["mug"], "b": ["mug"], "other": []},
        }
    )
    with pytest.raises(TaxonomyError, match="mug"):
        load_category_table(doc)


def test_empty_and_malformed_documents():
    with pytest.raises(TaxonomyError, match="nonempty"):
        load_category_table('{"fallback": "other", "categories": {}}')
    with pytest.raises(TaxonomyError, match="line"):
        load_category_table("{not json")
    with pytest.raises(TaxonomyError, match="fallback"):
        load_category_table('{"fallback": "missing", "categories": {"a": []}}')


def test_reload_gives_identical_hash(table):
    text = resources.files("adlrec.data").joinpath("categories.json").read_text("utf-8")
    assert load_category_table(text).content_hash == table.content_hash
    # any semantic change moves the hash
    doc = json.loads(text)
    doc["categories"]["bag"].append("satchel")
    changed = load_category_table(json.dumps(doc))
    assert changed.content_hash != table.content_hash


def test_category_order_is_document_order():
    doc = json.dumps({"fallback": "z", "categories": {"z": [], "a": [], "m": []}})
    t = load_category_table(doc)
    assert t.categories == ("z", "a", "m")
    assert t.map_label("m") == 2


@given(st.text(max_size=40))
def test_map_label_is_total_and_deterministic(raw):
    t = default_category_table()
    idx = t.map_label(raw)
    assert 0 <= idx < len(t.categories)
    assert t.map_label(raw) == idx


def test_an_empty_category_name_is_refused():
    with pytest.raises(TaxonomyError) as caught:
        load_category_table('{"fallback": "other", "categories": {"other": [], "": ["cup"]}}')
    assert str(caught.value) == "field 'categories': bad category name ''"


_LONG = "c" * 100_000


def _refusal(text: str) -> str:
    with pytest.raises(TaxonomyError) as caught:
        load_category_table(text)
    return str(caught.value)


# each document echoes the value v back in its refusal: "cup" keeps the
# message's text, and a 100,000-character v is shortened by reprlib
@pytest.mark.parametrize(
    "document, short_message",
    [
        (lambda v: json.dumps({"fallback": v, "categories": {"other": []}}),
         "field 'fallback': 'cup' is not a listed category"),
        (lambda v: json.dumps({"fallback": [v], "categories": {"other": []}}),
         "field 'fallback': ['cup'] is not a listed category"),
        (lambda v: '{"categories": {%s: [], %s: []}}' % (json.dumps(v), json.dumps(v)),
         "duplicate category: 'cup'"),
        (lambda v: json.dumps({"placeholders": [v], "categories": {"other": []}}),
         "field 'placeholders': 'cup' is not a listed category"),
        (lambda v: json.dumps({"categories": {"other": [], v: "mug"}}),
         "field 'categories.cup': raw labels must be a list of strings"),
        (lambda v: json.dumps({"categories": {"other": [v], "a": [v]}}),
         "field 'categories.a': raw label 'cup' already maps to 'other'"),
        (lambda v: json.dumps({"categories": {"other": [], v: ["mug"], v + "!": ["mug"]}}),
         "field 'categories.cup!': raw label 'mug' already maps to 'cup'"),
    ],
    ids=["fallback", "fallback-list", "duplicate-category", "placeholder", "raw-labels-not-a-list",
         "repeated-raw-label", "repeated-raw-label-in-long-categories"],
)
def test_refusals_shorten_long_values(document, short_message):
    assert _refusal(document("cup")) == short_message
    text = _refusal(document(_LONG))
    assert "..." in text
    assert len(text) < 200, len(text)


def test_a_raw_label_that_names_another_category_is_refused():
    # synthgen emits a category without raw labels under its own name, which
    # raw_map would send to the category listing it, leaving its column dead
    for categories in ({"cup": ["mug"], "mug": [], "other": []},
                       {"mug": [], "cup": ["mug"], "other": []}):
        text = _refusal(json.dumps({"fallback": "other", "categories": categories}))
        assert text == "field 'categories.cup': raw label 'mug' is the name of another category"
    text = _refusal(json.dumps({"categories": {"cup": [_LONG], _LONG: [], "other": []}}))
    assert "..." in text
    assert len(text) < 200, len(text)
    # a category may list its own name
    t = load_category_table(json.dumps({"categories": {"other": ["other"], "mug": ["mug", "cup"]}}))
    assert [t.categories[t.map_label(raw)] for raw in ("other", "mug", "cup")] == ["other", "mug", "mug"]
