import functools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from adlrec.records import (
    HAND_SIDES,
    Box2D,
    Diagnostic,
    FrameObservation,
    HoiObject,
    ObjectDetection,
    RecordError,
    SegmentKey,
    load_corpus,
    load_manifest,
    parse_record_line,
    serialize_frame,
    serialize_segments,
    write_manifest,
)
from adlrec.synthgen import clean_genspec, distractor_genspec, generate
from adlrec.taxonomy import ADL_NAMES, NUM_ADL_CLASSES, default_category_table

from helpers import (
    frame,
    loaded_groups,
    record_line,
    reference_load_corpus,
    reference_serialize_frame,
    segment,
)


def test_grouping_three_frames():
    lines = "\n".join(
        record_line(frame_idx=i, objects=[("cup", 0.9, (0, 0, 10, 10))]) for i in range(3)
    )
    groups, diagnostics = loaded_groups(lines)
    assert not diagnostics
    assert list(groups) == [SegmentKey("p1", "v1", 0)]
    assert [f.frame_index for f in groups[SegmentKey("p1", "v1", 0)]] == [0, 1, 2]


def test_invalid_box_rejected_per_record():
    lines = "\n".join(
        [
            record_line(frame_idx=0, objects=[("cup", 0.9, (10, 10, 5, 20))]),
            record_line(frame_idx=1, objects=[("cup", 0.9, (0, 0, 5, 20))]),
        ]
    )
    groups, diagnostics = loaded_groups(lines)
    assert len(diagnostics) == 1
    assert diagnostics[0].line == 1
    assert "x1 < x2" in diagnostics[0].message
    (frames,) = groups.values()
    assert [f.frame_index for f in frames] == [1]


def test_rejection_never_alters_other_records():
    good = [
        record_line(frame_idx=i, objects=[("cup", 0.5, (0, 0, 4, 4))]) for i in range(4)
    ]
    mixed = good[:2] + ['{"broken', record_line(frame_idx=9, objects=[("x", 2.0, (0, 0, 1, 1))])] + good[2:]
    clean_groups, _ = loaded_groups("\n".join(good))
    mixed_groups, diagnostics = loaded_groups("\n".join(mixed))
    assert len(diagnostics) == 2
    assert mixed_groups == clean_groups


def test_empty_stream():
    groups, diagnostics = loaded_groups("")
    assert groups == {}
    assert diagnostics == []


def test_frame_index_bounds_and_score_bounds():
    _, diags = loaded_groups(record_line(frame_idx=60))
    assert len(diags) == 1 and "frame_index" in diags[0].message
    _, diags = loaded_groups(record_line(objects=[("cup", 1.5, (0, 0, 1, 1))]))
    assert len(diags) == 1 and "score" in diags[0].message
    _, diags = loaded_groups(record_line(hois=[((0, 0, 1, 1), "up", "contact", 0.5)]))
    assert len(diags) == 1 and "hand_side" in diags[0].message


def test_box_invariants():
    for bad, message in [
        ((0, 0, 0, 5), "box violates x1 < x2"),
        ((0, 5, 10, 5), "box violates y1 < y2"),
        ((0, 0, float("inf"), 5), "box coordinates must be finite"),  # JSON token Infinity
    ]:
        groups, diags = loaded_groups(record_line(objects=[("cup", 0.9, bad)]))
        assert groups == {}
        assert diags == [Diagnostic(1, message)]
    assert Box2D(0, 0, 4, 5).area() == 20


def _bad_box(box: str) -> str:
    """A record line whose one object has the JSON text `box` as its box."""
    return record_line(objects=[("cup", 0.9, (0, 0, 1, 1))]).replace("[0, 0, 1, 1]", box)


@pytest.mark.parametrize(
    "line, message",
    [
        (_bad_box("5"), "box must be a list [x1, y1, x2, y2]"),
        (_bad_box("[0, 0, 1]"), "box must be a list [x1, y1, x2, y2]"),
        (_bad_box('[0, "a", 1, 1]'), "box coordinates must be numbers"),
        (_bad_box("[0, 0, NaN, 1]"), "box coordinates must be finite"),
        (record_line(objects=[("cup", 1.5, (0, 0, 1, 1))]), "score 1.5 outside [0, 1]"),
        (record_line(objects=[("cup", -0.1, (0, 0, 1, 1))]), "score -0.1 outside [0, 1]"),
        (record_line(objects=[("cup", "x", (0, 0, 1, 1))]), "score must be a number"),
        (record_line(objects=[("cup", True, (0, 0, 1, 1))]), "score must be a number"),
        (record_line(objects=[("cup", "0.5", (0, 0, 1, 1))]), "score must be a number"),
        (record_line(hois=[((0, 0, 1, 1), "left", "contact", True)]), "score must be a number"),
        (_bad_box('["0", "0", "1", "1"]'), "box coordinates must be numbers"),
        (_bad_box("[false, 0, true, 1]"), "box coordinates must be numbers"),
        ("[1]", "invalid JSON: not a JSON object"),
        (record_line(frame_idx=60), "frame_index 60 outside [0, 60)"),
        (record_line(frame_idx=-1), "frame_index -1 outside [0, 60)"),
        (
            record_line(frame_idx=60, hois=[((5, 0, 1, 1), "left", "contact", 0.5)]),
            "box violates x1 < x2",
        ),
    ],
    ids=[
        "box-not-a-list",
        "box-three-items",
        "box-string-coordinate",
        "box-nan",
        "score-above-one",
        "score-below-zero",
        "score-not-a-number",
        "score-bool",
        "score-numeric-string",
        "hoi-score-bool",
        "box-numeric-strings",
        "box-bools",
        "record-not-an-object",
        "frame-index-60",
        "frame-index-negative",
        "frame-index-60-and-bad-box",
    ],
)
def test_rejected_record_messages(line, message):
    groups, diags = loaded_groups(line)
    assert groups == {}
    assert diags == [Diagnostic(1, message)]


def test_unreadable_numbers_and_nesting_reject_only_their_line():
    good = record_line(frame_idx=0)
    huge = str(10**400)  # a JSON integer that no float can hold
    bad = [
        _bad_box(f"[0, 0, 1, {huge}]"),
        record_line(frame_idx=1, objects=[("cup", 0.5, (0, 0, 1, 1))]).replace("0.5", huge),
        "[" * 100_000,
        record_line(seg="SEG").replace('"SEG"', "1" * 5000),  # beyond int's digit limit
    ]
    groups, diags = loaded_groups("\n".join([good, *bad]))
    assert [f.frame_index for f in groups[SegmentKey("p1", "v1", 0)]] == [0]
    assert diags == [
        Diagnostic(2, "box coordinates must be numbers"),
        Diagnostic(3, "score must be a number"),
        Diagnostic(4, "invalid JSON: nested too deeply"),
        Diagnostic(5, "invalid JSON: integer has too many digits"),
    ]


def test_manifest_lookup_and_errors():
    text = "participant_id,video_id,segment_index,adl_label\np1,v1,0,Self-Feeding\n"
    labels = load_manifest(text)
    assert labels == {SegmentKey("p1", "v1", 0): 0}

    with pytest.raises(RecordError, match=r"^manifest line 2: unknown ADL 'Sleeping'$"):
        load_manifest(
            "participant_id,video_id,segment_index,adl_label\np1,v1,0,Sleeping\n"
        )
    with pytest.raises(RecordError, match="duplicate"):
        load_manifest(
            "participant_id,video_id,segment_index,adl_label\n"
            "p1,v1,0,Self-Feeding\np1,v1,0,Home Management\n"
        )
    with pytest.raises(RecordError, match="header"):
        load_manifest("a,b,c\n")
    # lines, not rows: the quoted participant id spans lines 2 and 3
    with pytest.raises(RecordError, match="^manifest line 4: segment_index 'x' is not"):
        load_manifest(
            "participant_id,video_id,segment_index,adl_label\n"
            '"p\n1",v1,0,Self-Feeding\np2,v1,x,Self-Feeding\n'
        )


def test_assemble_full_minute():
    lines = "\n".join(record_line(frame_idx=i) for i in range(60))
    result, _ = load_corpus(
        lines, "participant_id,video_id,segment_index,adl_label\np1,v1,0,Self-Feeding\n"
    )
    assert len(result.segments) == 1
    assert len(result.segments[0].frames) == 60


def test_assemble_duplicate_frame_index():
    # parsing drops a group whose frame_index repeats, with a diagnostic, and
    # keeps its neighbours
    lines = [record_line(frame_idx=i) for i in (0, 0, 1)] + [record_line(seg=1)]
    parsed, diagnostics = loaded_groups("\n".join(lines))
    assert list(parsed) == [SegmentKey("p1", "v1", 1)]
    assert [d.line for d in diagnostics] == [2]
    assert diagnostics[0].message == (
        f"segment {SegmentKey('p1', 'v1', 0)}: frame_index 0 repeated; segment dropped"
    )


def test_assemble_training_mode_requires_labels():
    with pytest.raises(RecordError, match="1 segment\\(s\\) have no manifest row"):
        load_corpus(record_line(), "participant_id,video_id,segment_index,adl_label\n")
    result, _ = load_corpus(record_line(), None)
    assert result.segments[0].label is None


def test_labels_without_frames_reported():
    result, _ = load_corpus(
        record_line(),
        "participant_id,video_id,segment_index,adl_label\n"
        "p1,v1,0,Self-Feeding\np9,v1,0,Home Management\n",
    )
    assert result.labels_without_frames == [SegmentKey("p9", "v1", 0)]


def test_a_segment_dropped_for_a_repeated_frame_is_not_reported_as_without_frames():
    # two copies of one record line: the segment had frames, but is dropped
    result, diagnostics = load_corpus(
        [record_line(), record_line()],
        "participant_id,video_id,segment_index,adl_label\np1,v1,0,Self-Feeding\n",
    )
    assert result.segments == [] and result.labels_without_frames == []
    assert [d.line for d in diagnostics] == [2]


def test_sixteen_participants_partition():
    lines = []
    manifest = ["participant_id,video_id,segment_index,adl_label"]
    for p in range(16):
        pid = f"p{p:02d}"
        lines.append(record_line(participant=pid))
        manifest.append(f"{pid},v1,0,Self-Feeding")
    result, diagnostics = load_corpus("\n".join(lines), "\n".join(manifest))
    assert not diagnostics
    assert len({s.key.participant_id for s in result.segments}) == 16


def test_roundtrip_parse_serialize_parse(table):
    spec = clean_genspec(participants=2, segments_per_participant=7, frames_per_segment=5, seed=11)
    corpus = generate(spec, table)
    lines = list(serialize_segments(corpus.segments))
    groups1, d1 = loaded_groups("\n".join(lines))
    relines = [
        serialize_frame(key, f) for key, frames in groups1.items() for f in frames
    ]
    groups2, d2 = loaded_groups("\n".join(relines))
    assert not d1 and not d2
    assert groups1 == groups2
    assert relines == lines  # generator emits in canonical order already


def test_load_corpus_shares_repeated_strings(table):
    spec = clean_genspec(participants=2, segments_per_participant=7, frames_per_segment=5, seed=11)
    corpus = generate(spec, table)
    groups, diagnostics = loaded_groups("\n".join(serialize_segments(corpus.segments)))
    assert not diagnostics
    frames = [f for frames in groups.values() for f in frames]
    columns = {
        "raw_label": [o.raw_label for f in frames for o in f.objects],
        "hand_side": [h.hand_side for f in frames for h in f.hoi_objects],
        "contact_state": [h.contact_state for f in frames for h in f.hoi_objects],
    }
    for name, values in columns.items():
        assert len(set(values)) < len(values), name  # the corpus repeats each field
        first = {}
        for value in values:
            assert first.setdefault(value, value) is value, (name, value)


def test_segment_count_matches_distinct_keys(table):
    spec = clean_genspec(participants=3, segments_per_participant=10, frames_per_segment=3, seed=4)
    corpus = generate(spec, table)
    groups, _ = loaded_groups("\n".join(serialize_segments(corpus.segments)))
    result, _ = load_corpus(
        "\n".join(serialize_segments(corpus.segments)), write_manifest(corpus.truth_segments)
    )
    assert len(result.segments) == len(groups)


def test_write_manifest_roundtrip():
    # every ADL id, Self-Feeding's 0 among them, is written by name and read back
    segments = [
        segment([frame(0)], participant="pA", video="v2", index=i, label=i)
        for i in range(NUM_ADL_CLASSES)
    ]
    text = write_manifest(segments)
    assert text.splitlines()[1:] == [f"pA,v2,{i},{name}" for i, name in enumerate(ADL_NAMES)]
    assert load_manifest(text) == {s.key: s.label for s in segments}
    with pytest.raises(RecordError, match="has no label to write"):
        write_manifest([segment([frame(0)], label=None)])


def test_serialize_segments_matches_frames():
    seg = segment([frame(0), frame(1)])
    assert len(list(serialize_segments([seg]))) == 2


# strings json must escape: quotes, backslashes, control and non-ASCII characters,
# a lone surrogate among them
_TEXT = st.text(
    st.one_of(st.characters(), st.sampled_from('"\\\x00\x1f\x7f\u2028é\ud800\U0001f600'))
)
_EDGE_FLOATS = st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308,
                                -1.7976931348623157e308])
_FINITE = st.one_of(_EDGE_FLOATS, st.floats(allow_nan=False, allow_infinity=False))
# np.float64 is a float subclass, which json writes as a float
_COORD = st.one_of(_FINITE, _FINITE.map(np.float64))
_SCORE = st.one_of(st.sampled_from([-0.0, 0.0, 5e-324, 1.0]), st.floats(0.0, 1.0))


@st.composite
def _boxes(draw):
    x1, x2 = sorted(draw(st.lists(_COORD, min_size=2, max_size=2, unique=True)))
    y1, y2 = sorted(draw(st.lists(_COORD, min_size=2, max_size=2, unique=True)))
    return Box2D(x1, y1, x2, y2)


_KEYS = st.builds(SegmentKey, _TEXT.filter(bool), _TEXT.filter(bool), st.integers(0, 2**70))
_FRAMES = st.builds(
    FrameObservation,
    st.integers(0, 59),
    st.lists(st.builds(ObjectDetection, _TEXT, _SCORE, _boxes()), max_size=4).map(tuple),
    st.lists(
        st.builds(HoiObject, _boxes(), st.sampled_from(HAND_SIDES), _TEXT, _SCORE), max_size=3
    ).map(tuple),
)


@given(key=_KEYS, frame=_FRAMES)
def test_serialize_frame_writes_json_dumps_bytes(key, frame):
    line = serialize_frame(key, frame)
    assert line == reference_serialize_frame(key, frame)
    assert parse_record_line(line, {}) == (key, frame)


def _with_number(key, frame, slot, value):
    """`frame` (or `key`) with the number at `slot` replaced by `value`; slots
    run over the two indices, then each object's and hoi's score and box."""
    if slot == 0:
        return key._replace(segment_index=value), frame
    if slot == 1:
        return key, frame._replace(frame_index=value)
    slot -= 2
    for name in ("objects", "hoi_objects"):
        entries = list(getattr(frame, name))
        for i, entry in enumerate(entries):
            if slot == 0:
                entries[i] = entry._replace(score=value)
                return key, frame._replace(**{name: tuple(entries)})
            if slot <= 4:
                box = entry.box._replace(**{entry.box._fields[slot - 1]: value})
                entries[i] = entry._replace(box=box)
                return key, frame._replace(**{name: tuple(entries)})
            slot -= 5
    raise AssertionError("no such slot")


_NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf]).flatmap(
    lambda x: st.sampled_from([x, np.float64(x)])
)


@given(key=_KEYS, frame=_FRAMES, data=st.data())
def test_serialize_frame_refuses_what_json_dumps_refuses(key, frame, data):
    def refused(error, slot, value):
        for serialize in (serialize_frame, reference_serialize_frame):
            with pytest.raises(error):
                serialize(*_with_number(key, frame, slot, value))

    n_floats = 5 * (len(frame.objects) + len(frame.hoi_objects))
    if n_floats:
        slot = data.draw(st.integers(2, 1 + n_floats))
        refused(ValueError, slot, data.draw(_NON_FINITE))
        refused(TypeError, slot, data.draw(st.sampled_from([np.float32(0.5), np.int64(1)])))
    slot = data.draw(st.sampled_from([0, 1]))
    refused(TypeError, slot, data.draw(st.sampled_from([np.int64(3), np.float32(3.0)])))


@pytest.mark.parametrize("text", ["1_0", "٣", "+4", "-1"])
def test_manifest_segment_index_is_ascii_digits(text):
    with pytest.raises(RecordError) as caught:
        load_manifest(f"participant_id,video_id,segment_index,adl_label\np1,v1,{text},Self-Feeding\n")
    assert str(caught.value) == (
        f"manifest line 2: segment_index {text!r} is not a nonnegative integer"
    )


def test_manifest_segment_index_takes_leading_zeros_and_spaces():
    labels = load_manifest(
        "participant_id,video_id,segment_index,adl_label\n"
        "p1,v1,05,Self-Feeding\np1,v1, 7 ,Home Management\n"
    )
    assert labels == {SegmentKey("p1", "v1", 5): 0, SegmentKey("p1", "v1", 7): 4}
    with pytest.raises(RecordError, match="^manifest line 3: duplicate segment key"):
        load_manifest(
            "participant_id,video_id,segment_index,adl_label\n"
            "p1,v1,05,Self-Feeding\np1,v1,5,Self-Feeding\n"
        )


def test_manifest_segment_index_beyond_int_digit_limit_is_refused():
    digits = "1" * 5000  # ASCII digits, but more than int() reads by default
    with pytest.raises(RecordError) as caught:
        load_manifest(f"participant_id,video_id,segment_index,adl_label\np1,v1,{digits},Self-Feeding\n")
    assert str(caught.value) == (
        "manifest line 2: segment_index '111111111111...1111111111111' is not a nonnegative integer"
    )


def test_contact_state_must_be_a_string():
    line = record_line(hois=[((0, 0, 1, 1), "left", 5, 0.5)])
    assert loaded_groups(line) == ({}, [Diagnostic(1, "contact_state must be a string")])


def test_blank_record_lines_are_skipped_and_keep_later_line_numbers():
    good = record_line(frame_idx=0)
    text = "\n".join(["", good, "   ", "\t", record_line(frame_idx=70), ""])
    groups, diags = loaded_groups(text)
    assert [f.frame_index for f in groups[SegmentKey("p1", "v1", 0)]] == [0]
    assert diags == [Diagnostic(5, "frame_index 70 outside [0, 60)")]


_HEADER = "participant_id,video_id,segment_index,adl_label\n"
_LONG = "p" * 100_000


def _refusal(call):
    with pytest.raises(RecordError) as caught:
        call()
    return str(caught.value)


@pytest.mark.parametrize(
    "message",
    [
        lambda: loaded_groups(record_line(frame_idx=10**3999))[1][0].message,
        lambda: loaded_groups("\n".join([record_line(participant=_LONG)] * 2))[1][0].message,
        lambda: _refusal(lambda: load_manifest(f"{_HEADER}p1,v1,0,{_LONG}\n")),
        lambda: _refusal(lambda: load_manifest(f"{_HEADER}p1,v1,{_LONG},Self-Feeding\n")),
        lambda: _refusal(lambda: load_manifest(_HEADER + f"{_LONG},v1,0,Self-Feeding\n" * 2)),
        lambda: _refusal(lambda: load_corpus(record_line(participant=_LONG), _HEADER)),
        # the CLI prints each such key as "manifest label without frames: {key}"
        lambda: str(load_corpus(record_line(), f"{_HEADER}p1,v1,0,Self-Feeding\n"
                                               f"p1,{_LONG},0,Self-Feeding\n")[0].labels_without_frames[0]),
        lambda: _refusal(lambda: write_manifest([segment([frame(0)], video=_LONG, label=None)])),
    ],
    ids=[
        "frame-index",
        "repeated-frame",
        "unknown-adl",
        "manifest-segment-index",
        "duplicate-manifest-key",
        "missing-manifest-row",
        "label-without-frames",
        "no-label-to-write",
    ],
)
def test_messages_shorten_long_values(message):
    text = message()
    assert "..." in text
    assert len(text) < 200, len(text)


@functools.cache
def _oracle_corpus():
    spec = distractor_genspec(participants=2, segments_per_participant=7, frames_per_segment=3, seed=5)
    return generate(spec, default_category_table()).segments


_MALFORMED = [
    '{"broken', "[1]", record_line(frame_idx=70), record_line(objects=[("cup", 1.5, (0, 0, 1, 1))])
]


@st.composite
def _loader_inputs(draw):
    """Shuffled record lines of a small corpus with repeated frames, blank and
    malformed lines put in, and its manifest with rows left out or added."""
    segments = _oracle_corpus()
    lines = draw(st.permutations(list(serialize_segments(segments))))
    repeats = st.sampled_from([(s.key, f) for s in segments for f in s.frames]).map(
        lambda pair: serialize_frame(pair[0], pair[1]._replace(objects=()))
    )
    extras = st.one_of(repeats, st.sampled_from(["", "  ", "\t"]), st.sampled_from(_MALFORMED))
    for extra in draw(st.lists(extras, max_size=6)):
        lines.insert(draw(st.integers(0, len(lines))), extra)
    if draw(st.booleans()):
        return lines, None
    rows = write_manifest(segments, header=False).splitlines(keepends=True)
    if draw(st.integers(0, 3)) == 0:  # now and then a manifest that lacks rows
        rows = [row for row in rows if draw(st.booleans())]
    added = draw(st.lists(st.tuples(st.sampled_from(["p0", "p9"]), st.integers(50, 52)),
                          unique=True, max_size=3))
    rows += [f"{p},v9,{i},{ADL_NAMES[i % NUM_ADL_CLASSES]}\n" for p, i in added]
    return lines, _HEADER + "".join(rows)


@given(inputs=_loader_inputs(), as_text=st.booleans())
def test_load_corpus_matches_the_brute_force_oracle(inputs, as_text):
    lines, manifest = inputs
    # a line's "\n" reaches the parser, and a JSON error message can show it
    lines = [line + "\n" for line in lines]
    records = "".join(lines) if as_text else lines
    try:
        expected = reference_load_corpus(lines, manifest)
    except RecordError as exc:
        with pytest.raises(RecordError) as caught:
            load_corpus(records, manifest)
        assert str(caught.value) == str(exc)
    else:
        assert load_corpus(records, manifest) == expected
