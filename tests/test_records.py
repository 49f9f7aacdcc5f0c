import pytest

from adlrec.records import (
    Box2D,
    Diagnostic,
    RecordError,
    SegmentKey,
    assemble_segments,
    load_corpus,
    load_manifest,
    parse_records,
    serialize_frame,
    serialize_segments,
    write_manifest,
)
from adlrec.synthgen import clean_genspec, generate

from helpers import frame, record_line, segment


def test_grouping_three_frames():
    lines = "\n".join(
        record_line(frame_idx=i, objects=[("cup", 0.9, (0, 0, 10, 10))]) for i in range(3)
    )
    groups, diagnostics = parse_records(lines)
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
    groups, diagnostics = parse_records(lines)
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
    clean_groups, _ = parse_records("\n".join(good))
    mixed_groups, diagnostics = parse_records("\n".join(mixed))
    assert len(diagnostics) == 2
    assert mixed_groups == clean_groups


def test_empty_stream():
    groups, diagnostics = parse_records("")
    assert groups == {}
    assert diagnostics == []


def test_frame_index_bounds_and_score_bounds():
    _, diags = parse_records(record_line(frame_idx=60))
    assert len(diags) == 1 and "frame_index" in diags[0].message
    _, diags = parse_records(record_line(objects=[("cup", 1.5, (0, 0, 1, 1))]))
    assert len(diags) == 1 and "score" in diags[0].message
    _, diags = parse_records(record_line(hois=[((0, 0, 1, 1), "up", "contact", 0.5)]))
    assert len(diags) == 1 and "hand_side" in diags[0].message


def test_box_invariants():
    for bad, message in [
        ((0, 0, 0, 5), "box violates x1 < x2"),
        ((0, 5, 10, 5), "box violates y1 < y2"),
        ((0, 0, float("inf"), 5), "box coordinates must be finite"),  # JSON token Infinity
    ]:
        groups, diags = parse_records(record_line(objects=[("cup", 0.9, bad)]))
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
    groups, diags = parse_records(line)
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
    groups, diags = parse_records("\n".join([good, *bad]))
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
    assert labels[SegmentKey("p1", "v1", 0)].name == "Self-Feeding"
    assert labels[SegmentKey("p1", "v1", 0)].id == 0

    with pytest.raises(RecordError, match="unknown ADL"):
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
    groups, _ = parse_records(lines)
    labels = load_manifest(
        "participant_id,video_id,segment_index,adl_label\np1,v1,0,Self-Feeding\n"
    )
    result = assemble_segments(groups, labels)
    assert len(result.segments) == 1
    assert len(result.segments[0].frames) == 60


def test_assemble_duplicate_frame_index():
    # parsing drops a group whose frame_index repeats, with a diagnostic, and
    # keeps its neighbours
    lines = [record_line(frame_idx=i) for i in (0, 0, 1)] + [record_line(seg=1)]
    parsed, diagnostics = parse_records("\n".join(lines))
    assert list(parsed) == [SegmentKey("p1", "v1", 1)]
    assert [d.line for d in diagnostics] == [2]
    assert diagnostics[0].message == (
        f"segment {SegmentKey('p1', 'v1', 0)}: frame_index 0 repeated; segment dropped"
    )


def test_assemble_training_mode_requires_labels():
    groups, _ = parse_records(record_line())
    with pytest.raises(RecordError, match="missing manifest"):
        assemble_segments(groups, {})
    result = assemble_segments(groups, None)
    assert result.segments[0].label is None


def test_labels_without_frames_reported():
    groups, _ = parse_records(record_line())
    labels = load_manifest(
        "participant_id,video_id,segment_index,adl_label\n"
        "p1,v1,0,Self-Feeding\np9,v1,0,Home Management\n"
    )
    result = assemble_segments(groups, labels)
    assert result.labels_without_frames == [SegmentKey("p9", "v1", 0)]


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
    groups1, d1 = parse_records("\n".join(lines))
    relines = [
        serialize_frame(key, f) for key, frames in groups1.items() for f in frames
    ]
    groups2, d2 = parse_records("\n".join(relines))
    assert not d1 and not d2
    assert groups1 == groups2
    assert relines == lines  # generator emits in canonical order already


def test_parse_records_shares_repeated_strings(table):
    spec = clean_genspec(participants=2, segments_per_participant=7, frames_per_segment=5, seed=11)
    corpus = generate(spec, table)
    groups, diagnostics = parse_records("\n".join(serialize_segments(corpus.segments)))
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
    groups, _ = parse_records("\n".join(serialize_segments(corpus.segments)))
    result, _ = load_corpus(
        "\n".join(serialize_segments(corpus.segments)), write_manifest(corpus.truth_segments)
    )
    assert len(result.segments) == len(groups)


def test_write_manifest_roundtrip():
    seg = segment([frame(0)], participant="pA", video="v2", index=3)
    text = write_manifest([seg])
    labels = load_manifest(text)
    assert labels[SegmentKey("pA", "v2", 3)] == seg.label


def test_serialize_segments_matches_frames():
    seg = segment([frame(0), frame(1)])
    assert len(list(serialize_segments([seg]))) == 2
