import hashlib
import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from adlrec.documents import to_document
from adlrec.features import (
    _BATCH_FRAMES,
    FeatureConfig,
    FeatureError,
    all_feature_configs,
    feature_matrix,
    feature_names,
    featurize,
    raw_block,
    raw_matrix,
)
from adlrec.evaluation import run_loso
from adlrec.models import TrainConfig
from adlrec.records import SegmentKey
from adlrec.synthgen import NoiseSpec, clean_genspec, distractor_genspec, generate
from adlrec.taxonomy import load_category_table

from helpers import box, config_label, det, frame, hoi, minmax_scale_row, reference_raw_block, segment


def cat(table, name):
    return table.categories.index(name)


def test_raw_counts_hand_summed(table):
    seg = segment(
        [
            frame(0, objects=[det("cup"), det("cup")]),
            frame(1, objects=[det("cup"), det("spoon"), det("spoon"), det("spoon")]),
        ]
    )
    vec = raw_block(seg, table)[0]
    assert vec.shape == (29,)
    assert vec[cat(table, "drinkware")] == 3
    assert vec[cat(table, "kitchen_utensils")] == 3
    assert vec.sum() == 6


def test_raw_counts_empty_frames(table):
    seg = segment([frame(0), frame(1)])
    assert raw_block(seg, table)[0].sum() == 0
    assert raw_block(seg, table)[[2, 3]].ravel().sum() == 0


def test_active_block_counts_subset(table):
    b = box(0, 0, 10, 10)
    seg = segment(
        [
            frame(0, objects=[det("cup"), det("cup", b=box(20, 20, 30, 30))]),
            frame(1, objects=[det("cup", b=b)], hois=[hoi(b=b)]),
        ]
    )
    vec = raw_block(seg, table)[[0, 1]].ravel()
    assert vec.shape == (58,)
    drink = cat(table, "drinkware")
    assert vec[drink] == 3  # base block counts every detection
    assert vec[29 + drink] == 1  # active block counts the active subset


def test_raw_binary_per_frame_presence(table):
    seg = segment(
        [
            frame(0, objects=[det("cup")]),
            frame(1, objects=[det("cup"), det("spoon")]),
            frame(2),
        ]
    )
    vec = raw_block(seg, table)[2]
    assert vec[cat(table, "drinkware")] == 2
    assert vec[cat(table, "kitchen_utensils")] == 1
    assert vec.sum() == 3


def test_raw_binary_thirteen_frame_presence_scales_to_one(table):
    frames = [
        frame(i, objects=[det("sponge")] + ([det("cup")] if i == 0 else []))
        for i in range(13)
    ]
    seg = segment(frames)
    vec = raw_block(seg, table)[2]
    assert vec[cat(table, "cleaning_product")] == 13
    scaled = minmax_scale_row(vec)
    assert scaled[cat(table, "cleaning_product")] == 1.0
    assert abs(scaled[cat(table, "drinkware")] - 1 / 13) < 1e-15


def test_active_block_zero_without_hoi(table):
    seg = segment([frame(0, objects=[det("cup")])])
    vec = raw_block(seg, table)[[2, 3]].ravel()
    assert vec[29:].sum() == 0


def test_minmax_examples():
    assert np.allclose(minmax_scale_row(np.array([2, 4, 6])), [0, 0.5, 1])
    assert np.array_equal(minmax_scale_row(np.zeros(3)), np.zeros(3))
    row = np.array([0.0] * 10 + [2.0, 13.0, 9.0])
    scaled = minmax_scale_row(row)
    assert abs(scaled[10] - 2 / 13) < 1e-15  # 0.1538...
    assert abs(scaled[12] - 9 / 13) < 1e-15  # 0.6923...


@given(
    st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=2, max_size=30),
    st.floats(0.01, 100),
    st.floats(-100, 100),
)
def test_minmax_affine_invariance(values, a, b):
    x = np.array(values)
    spread = a * (x.max() - x.min())
    # keep the row spread representable after the transform: the product must
    # not underflow it and float addition must not absorb it, or the
    # transformed row degenerates to constant
    assume(x.max() == x.min() or spread >= 1e-3)
    assert np.allclose(minmax_scale_row(a * x + b), minmax_scale_row(x), atol=1e-9)


def test_dimensions_across_configurations(table):
    dims = {
        ("counts", False): 29,
        ("counts", True): 58,
        ("binary", False): 29,
        ("binary", True): 58,
        ("both", False): 58,
        ("both", True): 116,
    }
    seg = segment([frame(0, objects=[det("cup")])])
    for (rep, active), d in dims.items():
        config = FeatureConfig(rep, active, table.content_hash)
        fv = featurize(seg, table, config)
        assert fv.values.shape == (d,)
        assert len(feature_names(table, config)) == d
    assert len(all_feature_configs(table)) == 6


def test_passive_subblock_identical_with_and_without_active(table):
    b = box(0, 0, 10, 10)
    seg = segment([frame(0, objects=[det("cup", b=b), det("spoon")], hois=[hoi(b=b)])])
    block = raw_block(seg, table)
    assert block[1].any()  # active rows are populated; the no-active view must not read them
    without = featurize(seg, table, FeatureConfig("counts", False, table.content_hash)).values
    assert np.array_equal(without, minmax_scale_row(block[0]))
    with_active = featurize(seg, table, FeatureConfig("counts", True, table.content_hash)).values
    assert np.array_equal(with_active, minmax_scale_row(block[[0, 1]].ravel()))


def test_both_concatenates_independently_scaled_blocks(table):
    seg = segment(
        [
            frame(0, objects=[det("cup")] * 5),
            frame(1, objects=[det("cup")] * 5 + [det("spoon")]),
        ]
    )
    config = FeatureConfig("both", False, table.content_hash)
    fv = featurize(seg, table, config)
    counts_block = fv.values[:29]
    binary_block = fv.values[29:]
    # each block carries its own full [0, 1] contrast
    assert counts_block.max() == 1.0 and binary_block.max() == 1.0
    assert counts_block[cat(table, "drinkware")] == 1.0
    assert binary_block[cat(table, "drinkware")] == 1.0
    assert binary_block[cat(table, "kitchen_utensils")] == 0.5


def test_taxonomy_hash_mismatch_rejected(table):
    seg = segment([frame(0, objects=[det("cup")])])
    config = FeatureConfig("counts", False, "0" * 64)
    with pytest.raises(FeatureError, match="taxonomy"):
        featurize(seg, table, config)


def _generated_segments(table, seed=21):
    spec = clean_genspec(participants=2, segments_per_participant=7, frames_per_segment=8, seed=seed)
    return generate(spec, table).segments


def test_scaled_values_in_unit_interval_with_max_one(table):
    segments = _generated_segments(table)
    for config in all_feature_configs(table):
        for seg in segments:
            values = featurize(seg, table, config).values
            assert values.min() >= 0.0 and values.max() <= 1.0
            if np.unique(values).size > 1:
                assert values.max() == 1.0


def test_binary_bounded_by_counts_and_frames(table):
    for seg in _generated_segments(table, seed=5):
        block = raw_block(seg, table)
        counts = block[[0, 1]].ravel()
        binary = block[[2, 3]].ravel()
        assert np.all(binary <= counts)
        assert np.all(binary <= len(seg.frames))


def test_frame_order_permutation_invariance(table):
    seg = next(s for s in _generated_segments(table, seed=9) if len(s.frames) > 2)
    reversed_seg = segment(
        [
            frame(i, f.objects, f.hoi_objects)
            for i, f in enumerate(reversed(seg.frames))
        ],
        participant=seg.key.participant_id,
        label=seg.label,
    )
    assert np.array_equal(raw_block(seg, table), raw_block(reversed_seg, table))


def test_feature_matrix_ordering(table):
    segments = _generated_segments(table, seed=2)
    config = FeatureConfig("binary", True, table.content_hash)
    X, keys = feature_matrix(segments, table, config)
    assert X.shape == (len(segments), 58)
    assert keys == sorted(keys)


def test_feature_matrix_of_no_segments_is_empty(table):
    for config in all_feature_configs(table):
        X, keys = feature_matrix([], table, config)
        assert X.shape == (0, len(feature_names(table, config)))
        assert keys == []


# First raw_block row of each independently scaled block, spelled out here so
# that the oracle does not read the layout it checks.
_BLOCK_ROWS = {"counts": (0,), "binary": (2,), "both": (0, 2)}
_BOXES = (box(0, 0, 10, 10), box(20, 20, 30, 30), box(5, 5, 15, 15))
# three categories, so that rows where every category appears (a nonzero
# minimum, or a constant nonzero row) are common
_SMALL_TABLE = load_category_table(
    json.dumps({"fallback": "other", "categories": {"drinkware": ["cup"], "tool": ["spoon"], "other": []}})
)
_frames = st.lists(
    st.tuples(
        # "cup" twice raises counts above presence; "zzz" maps to the fallback,
        # and so does "sponge" in the small table
        st.lists(
            st.builds(
                det, st.sampled_from(("cup", "cup", "spoon", "sponge", "zzz")), st.sampled_from(_BOXES)
            ),
            max_size=4,
        ),
        st.lists(st.builds(hoi, st.sampled_from(_BOXES)), max_size=2),
    ),
    min_size=1,
    max_size=4,
)


@settings(deadline=None)
@given(st.lists(st.tuples(st.sampled_from(("p2", "p1")), _frames), max_size=6))
def test_feature_matrix_equals_per_row_oracle(table, drawn):
    # empty frames give all-zero, constant rows; keys come in any order
    segments = [
        segment(
            [frame(i, objects, hois) for i, (objects, hois) in enumerate(frames)],
            participant=participant,
            index=j,
        )
        for j, (participant, frames) in enumerate(drawn)
    ]
    ordered = sorted(segments, key=lambda s: s.key)
    for tbl, config in [(t, c) for t in (table, _SMALL_TABLE) for c in all_feature_configs(t)]:
        rows = 2 if config.use_active else 1
        expected = np.zeros((len(ordered), len(feature_names(tbl, config))))
        for i, seg in enumerate(ordered):
            block = reference_raw_block(seg, tbl)
            expected[i] = np.concatenate(
                [
                    minmax_scale_row(block[first : first + rows].ravel())
                    for first in _BLOCK_ROWS[config.representation]
                ]
            )
        X, keys = feature_matrix(segments, tbl, config)
        assert keys == [s.key for s in ordered]
        assert X.dtype == np.float64 and X.shape == expected.shape
        assert X.tobytes() == expected.tobytes()


def _noisy_segments(table, participants, segments, frames, seed):
    noise = NoiseSpec(drop_rate=0.1, spurious_rate=0.3, label_confusion_rate=0.05, box_jitter_px=3.0)
    spec = distractor_genspec(
        participants=participants, segments_per_participant=segments, frames_per_segment=frames,
        seed=seed, noise=noise,
    )
    return generate(spec, table).segments


def test_raw_matrix_equals_per_frame_oracle_across_batches(table):
    # 60-frame segments fill several batches; hand-built segments add ones
    # with no frames (first, between and last in key order), one longer than
    # a batch and one with a single frame
    generated = _noisy_segments(table, 2, 8, 60, seed=3)
    long_frames = [frame(i, f.objects, f.hoi_objects) for i, f in enumerate(generated[0].frames * 5)]
    built = [
        segment([], participant="p00"),
        segment([], participant="p01", index=99),
        segment(long_frames, participant="p01", index=98),
        segment(generated[1].frames[:1], participant="p01", index=97),
        segment([], participant="zz"),
    ]
    segments = generated + built
    assert len(long_frames) > _BATCH_FRAMES and 60 * len(generated) > 2 * _BATCH_FRAMES
    raw, keys = raw_matrix(segments, table)
    ordered = sorted(segments, key=lambda s: s.key)
    assert keys == [s.key for s in ordered]
    expected = np.stack([reference_raw_block(s, table) for s in ordered])
    assert raw.dtype == np.int64 and raw.shape == expected.shape
    assert raw.tobytes() == expected.tobytes()
    assert raw[1].any() and raw[:, 1].any()  # active detections were counted
    for s in built:
        assert raw_block(s, table).tobytes() == reference_raw_block(s, table).tobytes()


def test_raw_matrix_of_no_segments_is_empty(table):
    raw, keys = raw_matrix([], table)
    assert raw.shape == (0, 4, len(table)) and raw.dtype == np.int64
    assert keys == []


def test_raw_matrix_memory_does_not_grow_with_the_corpus(table):
    # the pass works a bounded batch of frames at a time: its peak is its
    # (n, 4, K) output, 928 bytes a segment here, plus one batch's arrays
    spec = clean_genspec(participants=2, segments_per_participant=50, frames_per_segment=60, seed=0)
    small = generate(spec, table).segments
    # four copies under new participant ids: an 8x50x60 corpus
    large = [
        replace(s, key=SegmentKey(f"{copy}{s.key.participant_id}", *s.key[1:]))
        for copy in "abcd"
        for s in small
    ]
    for segments in (small, large):
        assert sum(len(s.frames) for s in segments) == len(segments) * 60
        tracemalloc.start()
        try:
            raw_matrix(segments, table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


def test_invalid_representation_rejected(table):
    with pytest.raises(FeatureError):
        FeatureConfig("weights", False, table.content_hash)


# sha256 of each config's feature_matrix bytes and of one LOSO report document
# on a noisy distractor corpus: any change in counting, marking, scaling or
# fold row selection shows up here.
FEATURE_PINS = {
    "counts+no-active": "4f3433b5aaf54c1d051dbcbab5d66d0b59457d5d0545335d7280c4d903f5ea94",
    "counts+active": "8f0e9354223ff330423da4b564903cc9a5399f94025c4fbb38f022dfa2df66a9",
    "binary+no-active": "929845d16941d34c46866764ef4ae9b61a62a93c65960c8f30e4cb052af8630c",
    "binary+active": "f800efcc3327a513b02f4eb1909ac04b069c705ddd4ff9986abf3d06c85d3cd4",
    "both+no-active": "bf1a7da3bade53e4ebc87dae1d0846289658f985d883a312e9da19a39bde5be5",
    "both+active": "5980878e5c21fc8f4a6c7feadd69cc6c77e5e090cb2193f7ba561b10b0e565ca",
}
REPORT_PIN = "0750e4da9a3685b816cd1f70d225b27b9186f81bbe9e9ff4e7152b9490e04359"


def test_feature_and_report_bytes_are_pinned(table):
    noise = NoiseSpec(drop_rate=0.1, spurious_rate=0.2, label_confusion_rate=0.05, box_jitter_px=3.0)
    spec = distractor_genspec(
        participants=3, segments_per_participant=7, frames_per_segment=5, seed=4, noise=noise
    )
    segments = generate(spec, table).segments
    configs = all_feature_configs(table)
    for config in configs:
        X, _ = feature_matrix(segments, table, config)
        assert hashlib.sha256(X.tobytes()).hexdigest() == FEATURE_PINS[config_label(config)]
    report = run_loso(segments, table, configs[-1], TrainConfig(kind="logreg", seed=3))
    doc = to_document(report)
    # the pin predates per-fold convergence; every other byte must stay the same
    for fold in doc["folds"]:
        assert fold.pop("stopping_reason") == "converged"
        del fold["iterations"]
    text = json.dumps(doc, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == REPORT_PIN
