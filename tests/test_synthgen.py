import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from adlrec.evaluation import loso_split, weighted_f1
from adlrec.features import FeatureConfig, feature_matrix
from adlrec.interaction import mark_active
from adlrec.records import Box2D, load_corpus, serialize_segments, write_manifest
from adlrec.rng import derive_seed, make_generator
from adlrec.synthgen import (
    _hoi,
    _jitter_box,
    _random_box,
    CORE_CATEGORIES,
    GenError,
    GenSpec,
    MAX_SEGMENTS,
    NoiseSpec,
    clean_genspec,
    distractor_genspec,
    generate,
    genspec_from_json,
    genspec_to_json,
    perturb,
    proportional_allocation,
)
from adlrec.taxonomy import ADL_NAMES, NUM_ADL_CLASSES, load_category_table

from helpers import loaded_groups, reference_jitter_box, reference_random_box


def test_manifest_row_count(table):
    spec = clean_genspec(participants=16, segments_per_participant=20, frames_per_segment=2, seed=0)
    corpus = generate(spec, table)
    rows = write_manifest(corpus.truth_segments).strip().split("\n")
    assert len(rows) == 1 + 16 * 20


def test_proportional_allocation():
    assert proportional_allocation(50) == (6, 4, 4, 9, 9, 14, 4)
    assert sum(proportional_allocation(50)) == 50
    for total in (0, 1, 7, 21, 100, 2261):
        alloc = proportional_allocation(total)
        assert sum(alloc) == total
        assert all(c >= 0 for c in alloc)
    assert proportional_allocation(2261) == (257, 207, 172, 428, 407, 625, 165)
    assert sum(proportional_allocation(MAX_SEGMENTS)) == MAX_SEGMENTS
    with pytest.raises(GenError, match="total must be <= 1000000"):
        proportional_allocation(10**400)  # a float division would overflow


def test_generation_is_deterministic(table):
    spec = clean_genspec(participants=2, segments_per_participant=7, frames_per_segment=4, seed=42)
    a = generate(spec, table)
    b = generate(spec, table)
    assert list(serialize_segments(a.segments)) == list(serialize_segments(b.segments))
    assert list(serialize_segments(a.truth_segments)) == list(serialize_segments(b.truth_segments))
    assert write_manifest(a.truth_segments) == write_manifest(b.truth_segments)
    different = generate(
        clean_genspec(participants=2, segments_per_participant=7, frames_per_segment=4, seed=43),
        table,
    )
    assert list(serialize_segments(different.segments)) != list(serialize_segments(a.segments))


def test_a_participant_generates_the_same_segments_in_any_subset(table):
    spec = distractor_genspec(participants=3, segments_per_participant=7, frames_per_segment=4,
                              seed=42, noise=NoiseSpec(0.1, 0.2, 0.05, 2.5))
    whole = generate(spec, table)
    part = generate(spec, table, [2, 0])
    by_participant = {"p03": 0, "p01": 1}
    for name in ("segments", "truth_segments"):
        expected = sorted((s for s in getattr(whole, name) if s.key.participant_id in by_participant),
                          key=lambda s: by_participant[s.key.participant_id])
        assert getattr(part, name) == expected, name
    assert generate(spec, table, []).segments == []


def test_zero_noise_streams_identical(table):
    spec = clean_genspec(participants=2, segments_per_participant=7, frames_per_segment=4, seed=1)
    corpus = generate(spec, table)
    assert corpus.segments is corpus.truth_segments  # one corpus under both names


def test_full_drop_empties_objects(table):
    spec = clean_genspec(
        participants=1,
        segments_per_participant=7,
        frames_per_segment=4,
        seed=2,
        noise=NoiseSpec(drop_rate=1.0),
    )
    corpus = generate(spec, table)
    assert all(not f.objects for s in corpus.segments for f in s.frames)
    # truth stream is untouched
    assert any(f.objects for s in corpus.truth_segments for f in s.frames)


def test_perturb_identity_at_zero_rates(table):
    spec = clean_genspec(participants=1, segments_per_participant=7, frames_per_segment=4, seed=3)
    corpus = generate(spec, table)
    out = perturb(corpus.truth_segments, NoiseSpec(), seed=99, table=table)
    assert out is corpus.truth_segments


@pytest.mark.parametrize("field", ["drop_rate", "spurious_rate", "label_confusion_rate",
                                   "box_jitter_px"])
def test_any_nonzero_noise_builds_new_segments(table, field):
    spec = clean_genspec(participants=1, segments_per_participant=7, frames_per_segment=4, seed=3)
    truth = generate(spec, table).truth_segments
    out = perturb(truth, replace(NoiseSpec(), **{field: 1e-9}), seed=99, table=table)
    assert out is not truth
    assert all(after is not before for before, after in zip(truth, out))


@given(seed=st.integers(0, 2**64 - 1),
       label=st.lists(st.one_of(st.text(max_size=8), st.integers(-5, 10**6)), max_size=4))
def test_random_box_matches_four_uniform_draws(seed, label):
    batched, scalar = make_generator(seed, *label), make_generator(seed, *label)
    for _ in range(3):
        got, want = _random_box(batched.random), reference_random_box(scalar)
        assert [float(v).hex() for v in got] == [float(v).hex() for v in want]
    # both streams stand at the same position afterwards
    assert batched.random() == scalar.random()
    assert batched.integers(0, 1000) == scalar.integers(0, 1000)


@given(seed=st.integers(0, 2**64 - 1),
       jitter=st.one_of(st.sampled_from([0.5, 7.5, 1e6, 1e300]), st.floats(0.0, 1e300)))
def test_jitter_box_matches_one_uniform_call(seed, jitter):
    doubles, uniforms = make_generator(seed), make_generator(seed)
    box = _random_box(make_generator(seed, "box").random)
    for _ in range(3):
        got = _jitter_box(doubles.random, box, jitter)
        want = reference_jitter_box(uniforms, box, jitter)
        assert [float(v).hex() for v in got] == [float(v).hex() for v in want]
        box = got
    assert doubles.random() == uniforms.random()


@given(seed=st.integers(0, 2**64 - 1))
def test_hoi_score_matches_scalar_uniform_draws(seed):
    doubles, uniforms = make_generator(seed), make_generator(seed)
    box = _random_box(make_generator(seed, "box").random)
    # every (low, high) the generator draws a score from
    for low, high in [(0.5, 1.0), (0.3, 0.9), (0.05, 0.95)] * 50:
        got = _hoi(doubles.random, doubles.integers, box, "portable_object", low, high)
        side = "left" if uniforms.integers(0, 2) == 0 else "right"
        assert (got.hand_side, got.score.hex()) == (side, float(uniforms.uniform(low, high)).hex())
    assert doubles.random() == uniforms.random()


def test_drop_rate_concentration(table):
    spec = clean_genspec(participants=6, segments_per_participant=42, frames_per_segment=13, seed=4)
    corpus = generate(spec, table)
    n_before = sum(len(f.objects) for s in corpus.truth_segments for f in s.frames)
    assert n_before > 10_000
    noisy = perturb(
        corpus.truth_segments, NoiseSpec(drop_rate=0.3), seed=derive_seed(4, "t"), table=table
    )
    n_after = sum(len(f.objects) for s in noisy for f in s.frames)
    dropped = (n_before - n_after) / n_before
    assert abs(dropped - 0.3) < 0.02


def test_label_confusion_replaces_categories(table):
    spec = clean_genspec(participants=1, segments_per_participant=7, frames_per_segment=6, seed=5)
    corpus = generate(spec, table)
    confused = perturb(
        corpus.truth_segments,
        NoiseSpec(label_confusion_rate=1.0),
        seed=8,
        table=table,
    )
    for before, after in zip(corpus.truth_segments, confused):
        for fb, fa in zip(before.frames, after.frames):
            for ob, oa in zip(fb.objects, fa.objects):
                assert table.map_label(oa.raw_label) != table.map_label(ob.raw_label)


def test_spurious_and_jitter(table):
    spec = clean_genspec(participants=1, segments_per_participant=7, frames_per_segment=8, seed=6)
    corpus = generate(spec, table)
    noisy = perturb(
        corpus.truth_segments,
        NoiseSpec(spurious_rate=2.0, box_jitter_px=5.0),
        seed=11,
        table=table,
    )
    n_before = sum(len(f.objects) for s in corpus.truth_segments for f in s.frames)
    n_after = sum(len(f.objects) for s in noisy for f in s.frames)
    assert n_after > n_before  # spurious detections injected
    # jittered and spurious boxes still pass the parser's record checks
    groups, diagnostics = loaded_groups("\n".join(serialize_segments(noisy)))
    assert diagnostics == []
    assert sum(len(f.objects) for frames in groups.values() for f in frames) == n_after


def test_generated_records_pass_ingest_validation(table):
    spec = distractor_genspec(participants=3, segments_per_participant=7, frames_per_segment=5, seed=7)
    corpus = generate(spec, table)
    result, diagnostics = load_corpus(
        "\n".join(serialize_segments(corpus.segments)), write_manifest(corpus.truth_segments)
    )
    assert diagnostics == []
    assert len(result.segments) == len(corpus.segments)
    assert result.labels_without_frames == []


def test_nearest_centroid_oracle_on_clean_corpus(table):
    """The clean corpus must be learnable before any real model sees it."""
    spec = clean_genspec(participants=6, segments_per_participant=21, frames_per_segment=13, seed=8)
    segments = generate(spec, table).segments
    config = FeatureConfig("binary", True, table.content_hash)
    scores = []
    for train, test in loso_split(segments):
        X_train, keys_train = feature_matrix(train, table, config)
        X_test, keys_test = feature_matrix(test, table, config)
        label_of = {s.key: s.label for s in segments}
        y_train = np.array([label_of[k] for k in keys_train])
        y_test = [label_of[k] for k in keys_test]
        centroids = np.stack(
            [X_train[y_train == c].mean(axis=0) for c in range(NUM_ADL_CLASSES)]
        )
        pred = [
            int(np.argmin(((centroids - x) ** 2).sum(axis=1))) for x in X_test
        ]
        scores.append(weighted_f1(y_test, pred, NUM_ADL_CLASSES))
    assert np.mean(scores) >= 0.95


def test_participant_effect_never_moves_core_assignment(table):
    spec = replace(
        clean_genspec(participants=4, segments_per_participant=14, frames_per_segment=10, seed=9),
        participant_effect=1.0,
    )
    corpus = generate(spec, table)
    for seg in corpus.truth_segments:
        core = set(CORE_CATEGORIES[seg.label])
        for f in seg.frames:
            marks = mark_active(f)
            for mark in marks:
                if mark.active:
                    cat = table.categories[table.map_label(f.objects[mark.object_index].raw_label)]
                    assert cat in core


def test_spec_validation_errors(table):
    with pytest.raises(GenError, match="participants"):
        clean_genspec(participants=0, segments_per_participant=50, frames_per_segment=13,
                      seed=0).validate()
    with pytest.raises(GenError, match="frames"):
        clean_genspec(participants=16, segments_per_participant=50, frames_per_segment=61,
                      seed=0).validate()
    with pytest.raises(GenError, match="frames"):
        clean_genspec(participants=16, segments_per_participant=50, frames_per_segment=0,
                      seed=0).validate()
    good = clean_genspec(participants=2, segments_per_participant=7, frames_per_segment=13, seed=0)
    bad_profiles = GenSpec(
        seed=0,
        participants=2,
        segments_per_participant=good.segments_per_participant,
        frames_per_segment=5,
        adl_profiles=good.adl_profiles[:3],
    )
    with pytest.raises(GenError, match="adl_profiles"):
        bad_profiles.validate()
    with pytest.raises(GenError, match="rate"):
        GenSpec(
            seed=0,
            participants=2,
            segments_per_participant=good.segments_per_participant,
            frames_per_segment=5,
            adl_profiles=good.adl_profiles,
            noise=NoiseSpec(drop_rate=1.5),
        ).validate()
    with pytest.raises(GenError, match="unknown category"):
        profiles = list(good.adl_profiles)
        from adlrec.synthgen import AdlProfile

        profiles[0] = AdlProfile(
            adl=ADL_NAMES[0], core=("no_such",), core_prob=0.5, context=(), active_prob=0.5
        )
        generate(
            GenSpec(
                seed=0,
                participants=2,
                segments_per_participant=good.segments_per_participant,
                frames_per_segment=5,
                adl_profiles=tuple(profiles),
            ),
            table,
        )


def test_label_confusion_needs_a_second_category():
    table = load_category_table('{"fallback": "other", "categories": {"other": ["other"]}}')
    good = clean_genspec(participants=1, segments_per_participant=7, frames_per_segment=2, seed=0)
    spec = replace(good, adl_profiles=tuple(replace(p, core=("other",), context=()) for p in good.adl_profiles))
    assert len(generate(spec, table).segments) == 7  # without confusion one category is enough
    with pytest.raises(GenError, match="at least 2 categories"):
        generate(replace(spec, noise=NoiseSpec(label_confusion_rate=0.5)), table)


# sha256 of genspec.json for each preset at its size in GENSPEC_SIZES, seed 0,
# with every noise rate non-zero: any change to the spec's fields, their order
# or values moves these bytes.
GENSPEC_PINS = {
    clean_genspec: "48642f805d3123911fe88a3b60acad020d388a2521b5cc5a975b60aaeac9e1dd",
    distractor_genspec: "85f86db6aa61fff190214010c4a03d5daf6382b8b2cfd46a13dfef370f469782",
}
# participants, segments per participant and frames per segment
GENSPEC_SIZES = {clean_genspec: (16, 50, 13), distractor_genspec: (16, 21, 13)}


def test_genspec_json_roundtrip():
    spec = distractor_genspec(participants=5, segments_per_participant=14, frames_per_segment=13,
                              seed=33, noise=NoiseSpec(drop_rate=0.1, box_jitter_px=2.0))
    assert genspec_from_json(genspec_to_json(spec)) == spec
    noise = NoiseSpec(drop_rate=0.1, spurious_rate=0.2, label_confusion_rate=0.05, box_jitter_px=2.5)
    for preset, digest in GENSPEC_PINS.items():
        text = genspec_to_json(preset(*GENSPEC_SIZES[preset], seed=0, noise=noise))
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest, preset.__name__
    with pytest.raises(GenError, match="parse failure"):
        genspec_from_json("{oops")
    with pytest.raises(GenError, match="invalid generator spec"):
        genspec_from_json("{}")


def test_distractor_profiles_share_cores_passively():
    spec = distractor_genspec(participants=16, segments_per_participant=21, frames_per_segment=13,
                              seed=0)
    for adl_id, profile in enumerate(spec.adl_profiles):
        context_cats = {c for c, _ in profile.context}
        for other_id, other_core in enumerate(CORE_CATEGORIES):
            if other_id != adl_id:
                assert set(other_core) <= context_cats
        assert not context_cats & set(profile.core)


def test_clean_profile_cores_pairwise_disjoint():
    seen = set()
    for core in CORE_CATEGORIES:
        assert not seen & set(core)
        seen |= set(core)


def _small_spec() -> GenSpec:
    return clean_genspec(participants=2, segments_per_participant=7, frames_per_segment=3, seed=0)


@pytest.mark.parametrize(
    "change, message",
    [
        ({"segments_per_participant": (1, 2)}, "segments_per_participant needs 7 per-ADL counts"),
        ({"segments_per_participant": (1, 1, 1, 1, 1, 3, -1)}, "negative segment count"),
        ({"segments_per_participant": (0,) * 7}, "spec generates zero segments"),
        ({"noise": NoiseSpec(box_jitter_px=-0.5)}, "box_jitter_px must be >= 0"),
    ],
    ids=["count-list-length", "negative-count", "zero-segments", "negative-jitter"],
)
def test_spec_validation_refuses_each_bad_field(change, message):
    with pytest.raises(GenError) as caught:
        replace(_small_spec(), **change).validate()
    assert str(caught.value) == message


def test_spec_validation_refuses_an_empty_core():
    spec = _small_spec()
    profiles = (replace(spec.adl_profiles[0], core=()), *spec.adl_profiles[1:])
    with pytest.raises(GenError) as caught:
        replace(spec, adl_profiles=profiles).validate()
    assert str(caught.value) == "profile with empty core category set"


def test_genspec_context_pair_of_three_is_refused():
    doc = json.loads(genspec_to_json(_small_spec()))
    doc["adl_profiles"][0]["context"][0].append(0.5)
    with pytest.raises(GenError) as caught:
        genspec_from_json(json.dumps(doc))
    assert str(caught.value) == "invalid generator spec: expected 2 values, got 3"


def _fixed_uniforms(*values):
    """A stand-in for a generator's random(4) that returns `values`."""
    return lambda size: np.array(values)


@pytest.mark.parametrize(
    "uniforms, expected",
    [
        # x1 + 5 and x2 - 4.6875 leave a width of 0.3125, widened to 1
        ((0.75, 0.265625, 0.5, 0.5), Box2D(5.0, 0.0, 6.0, 10.0)),
        # y1 + 7.5 and y2 - 2.8125 cross, 0.3125 px apart: sorted, then widened
        ((0.5, 0.5, 0.875, 0.359375), Box2D(0.0, 7.1875, 10.0, 8.1875)),
    ],
    ids=["x-shrunk", "y-crossed"],
)
def test_jitter_box_widens_a_side_shrunk_below_one_pixel(uniforms, expected):
    assert _jitter_box(_fixed_uniforms(*uniforms), Box2D(0.0, 0.0, 10.0, 10.0), 10.0) == expected
