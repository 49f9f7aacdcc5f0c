"""Detection/interaction record parsing, the segment manifest, and assembly.

One frame record per line (UTF-8 JSON object)::

    {"participant_id": str, "video_id": str, "segment_index": int,
     "frame_index": int,
     "objects": [{"label": str, "score": float, "box": [x1, y1, x2, y2]}, ...],
     "hoi_objects": [{"box": [x1, y1, x2, y2],
                      "hand_side": "left"|"right"|"unknown",
                      "contact_state": str, "score": float}, ...]}

The segment manifest is CSV with header
``participant_id,video_id,segment_index,adl_label``.

Records, segments and diagnostics check nothing when built: outside input is
validated once, by the parser. A number is a JSON int or float, never a bool.
A malformed line is rejected on its own, as a diagnostic. A frame_index that
repeats within a segment leaves its frames ambiguous, so that segment is
dropped, with one diagnostic per repeated line. So every parsed group holds 1
to 60 frames in strictly increasing frame_index order.
"""

import io
import math
from dataclasses import dataclass, field
from itertools import repeat
from json.encoder import encode_basestring_ascii as _quote
from typing import Iterable, Iterator, NamedTuple, TextIO

from .documents import NUMBER_TYPES, csv_lines, read_csv, read_object
from .taxonomy import AdlLabel, adl_by_name

MAX_FRAMES_PER_SEGMENT = 60

HAND_SIDES = ("left", "right", "unknown")


class RecordError(ValueError):
    """Raised for structurally invalid records, manifests, or segments."""


class SegmentKey(NamedTuple):
    participant_id: str
    video_id: str
    segment_index: int


class Box2D(NamedTuple):
    """Axis-aligned pixel rectangle; parsed boxes are finite with x1 < x2, y1 < y2."""

    x1: float
    y1: float
    x2: float
    y2: float

    def area(self) -> float:
        return (self.x2 - self.x1) * (self.y2 - self.y1)


class ObjectDetection(NamedTuple):
    raw_label: str
    score: float
    box: Box2D


class HoiObject(NamedTuple):
    """An object-in-contact box from the hand-interaction stream."""

    box: Box2D
    hand_side: str
    contact_state: str
    score: float


class FrameObservation(NamedTuple):
    """One frame's detections at the 1 frame/second sampling grid."""

    frame_index: int
    objects: tuple[ObjectDetection, ...]
    hoi_objects: tuple[HoiObject, ...]


@dataclass(frozen=True)
class Segment:
    """One one-minute snippet; label is None when no manifest was given."""

    key: SegmentKey
    frames: tuple[FrameObservation, ...]
    label: AdlLabel | None = None


class Diagnostic(NamedTuple):
    line: int
    message: str


# The parser builds each record tuple with tuple.__new__, which a named
# tuple's own __new__ calls after a Python-level frame: one less call for
# each of the several named tuples every record line makes.
_new = tuple.__new__
_INF = math.inf


def _parse_box(values) -> Box2D:
    if not isinstance(values, list) or len(values) != 4:
        raise RecordError("box must be a list [x1, y1, x2, y2]")
    x1, y1, x2, y2 = values
    # inline checks, not a helper: they run for every coordinate of every record
    if not (type(x1) in NUMBER_TYPES and type(y1) in NUMBER_TYPES
            and type(x2) in NUMBER_TYPES and type(y2) in NUMBER_TYPES):
        raise RecordError("box coordinates must be numbers")
    try:
        x1, y1, x2, y2 = float(x1), float(y1), float(x2), float(y2)
    except OverflowError:  # an int beyond float range
        raise RecordError("box coordinates must be numbers") from None
    # a NaN fails every comparison, so it fails these too
    if not (-_INF < x1 < _INF and -_INF < y1 < _INF and -_INF < x2 < _INF and -_INF < y2 < _INF):
        raise RecordError("box coordinates must be finite")
    if not x1 < x2:
        raise RecordError("box violates x1 < x2")
    if not y1 < y2:
        raise RecordError("box violates y1 < y2")
    return _new(Box2D, (x1, y1, x2, y2))


def _check_score(value) -> float:
    if type(value) not in NUMBER_TYPES:
        raise RecordError("score must be a number")
    try:
        score = float(value)
    except OverflowError:  # an int beyond float range
        raise RecordError("score must be a number") from None
    if not 0.0 <= score <= 1.0:
        raise RecordError(f"score {score} outside [0, 1]")
    return score


def _parse_object(obj, strings: dict[str, str]) -> ObjectDetection:
    if not isinstance(obj, dict):
        raise RecordError("object entry must be an object")
    label = obj.get("label")
    if not isinstance(label, str):
        raise RecordError("object label must be a string")
    label = strings.setdefault(label, label)
    return _new(ObjectDetection, (label, _check_score(obj.get("score")), _parse_box(obj.get("box"))))


def _parse_hoi(obj, strings: dict[str, str]) -> HoiObject:
    if not isinstance(obj, dict):
        raise RecordError("hoi entry must be an object")
    hand_side = obj.get("hand_side", "unknown")
    if hand_side not in HAND_SIDES:
        raise RecordError(f"hand_side must be one of {HAND_SIDES}")
    contact_state = obj.get("contact_state", "")
    if not isinstance(contact_state, str):
        raise RecordError("contact_state must be a string")
    hand_side = strings.setdefault(hand_side, hand_side)
    contact_state = strings.setdefault(contact_state, contact_state)
    box = _parse_box(obj.get("box"))
    return _new(HoiObject, (box, hand_side, contact_state, _check_score(obj.get("score"))))


def parse_record_line(line: str, strings: dict[str, str]) -> tuple[SegmentKey, FrameObservation]:
    """Parse one frame record; raises RecordError on any invariant violation.

    Labels, hand sides and contact states are shared through the memo `strings`.
    Bytes that are not UTF-8 reach here as lone surrogates when the stream
    was opened with errors="surrogateescape"; such a line is rejected.
    """
    if not line.isascii():
        try:
            line.encode("utf-8")
        except UnicodeEncodeError:
            raise RecordError("line is not valid UTF-8") from None
    doc = read_object(line, RecordError, "invalid JSON")
    participant = doc.get("participant_id")
    video = doc.get("video_id")
    if not isinstance(participant, str) or not participant:
        raise RecordError("participant_id must be a nonempty string")
    if not isinstance(video, str) or not video:
        raise RecordError("video_id must be a nonempty string")
    seg_idx = doc.get("segment_index")
    frame_idx = doc.get("frame_index")
    if not isinstance(seg_idx, int) or isinstance(seg_idx, bool) or seg_idx < 0:
        raise RecordError("segment_index must be a nonnegative integer")
    if not isinstance(frame_idx, int) or isinstance(frame_idx, bool):
        raise RecordError("frame_index must be an integer")
    objects = doc.get("objects", [])
    hoi_objects = doc.get("hoi_objects", [])
    if not isinstance(objects, list) or not isinstance(hoi_objects, list):
        raise RecordError("objects and hoi_objects must be lists")
    detections = tuple(map(_parse_object, objects, repeat(strings)))
    hois = tuple(map(_parse_hoi, hoi_objects, repeat(strings)))
    if not 0 <= frame_idx < MAX_FRAMES_PER_SEGMENT:
        raise RecordError(f"frame_index {frame_idx} outside [0, {MAX_FRAMES_PER_SEGMENT})")
    key = _new(SegmentKey, (participant, video, seg_idx))
    return key, _new(FrameObservation, (frame_idx, detections, hois))


def parse_records(
    stream: Iterable[str] | TextIO,
) -> tuple[dict[SegmentKey, list[FrameObservation]], list[Diagnostic]]:
    """Group frame records by (participant, video, segment).

    Groups are ordered by key and frames by frame_index. Malformed lines are
    collected as diagnostics with 1-based line numbers; valid lines are kept.
    A group in which a frame_index repeats is left out, and each repeated
    line becomes a diagnostic that names the segment. Repeated strings are
    held once, through a memo that lives only as long as this call.
    """
    if isinstance(stream, str):
        stream = io.StringIO(stream)
    strings: dict[str, str] = {}
    groups: dict[SegmentKey, dict[int, FrameObservation]] = {}
    duplicated: set[SegmentKey] = set()
    diagnostics: list[Diagnostic] = []
    for lineno, line in enumerate(stream, start=1):
        if not line.strip():
            continue
        try:
            key, observation = parse_record_line(line, strings)
        except RecordError as exc:
            diagnostics.append(Diagnostic(lineno, str(exc)))
            continue
        group = groups.setdefault(key, {})
        if observation.frame_index in group:
            duplicated.add(key)
            diagnostics.append(
                Diagnostic(
                    lineno,
                    f"segment {key}: frame_index {observation.frame_index} repeated; "
                    "segment dropped",
                )
            )
            continue
        group[observation.frame_index] = observation
    ordered = {
        key: [groups[key][index] for index in sorted(groups[key])]
        for key in sorted(groups)
        if key not in duplicated
    }
    return ordered, diagnostics


def serialize_frame(key: SegmentKey, frame: FrameObservation) -> str:
    """Canonical one-line JSON form; parse(serialize(x)) == x.

    The bytes of json.dumps(..., separators=(",", ":"), ensure_ascii=True,
    allow_nan=False) on the record's dict, written through one template with
    the calls json's C encoder makes: encode_basestring_ascii for strings,
    int.__repr__ for the indices and float.__repr__ for scores and
    coordinates, which takes np.float64 but raises TypeError for np.float32,
    np.int64 or an int. A non-finite number raises ValueError.
    """
    quote, number = _quote, float.__repr__
    objects = []
    for label, score, box in frame.objects:
        score, box = number(score), ",".join(map(number, box))
        if "n" in score or "n" in box:  # "nan" or "inf": no finite repr has an "n"
            raise ValueError(f"record holds a non-finite number: {score},{box}")
        objects.append(f'{{"label":{quote(label)},"score":{score},"box":[{box}]}}')
    hois = []
    for box, hand_side, contact_state, score in frame.hoi_objects:
        box, score = ",".join(map(number, box)), number(score)
        if "n" in box or "n" in score:
            raise ValueError(f"record holds a non-finite number: {box},{score}")
        hois.append(
            f'{{"box":[{box}],"hand_side":{quote(hand_side)},'
            f'"contact_state":{quote(contact_state)},"score":{score}}}'
        )
    return (
        f'{{"participant_id":{quote(key.participant_id)},"video_id":{quote(key.video_id)},'
        f'"segment_index":{int.__repr__(key.segment_index)},'
        f'"frame_index":{int.__repr__(frame.frame_index)},'
        f'"objects":[{",".join(objects)}],"hoi_objects":[{",".join(hois)}]}}'
    )


def serialize_segments(segments: Iterable[Segment]) -> Iterator[str]:
    return (serialize_frame(segment.key, frame) for segment in segments for frame in segment.frames)


MANIFEST_HEADER = ("participant_id", "video_id", "segment_index", "adl_label")


def load_manifest(stream: Iterable[str] | TextIO) -> dict[SegmentKey, AdlLabel]:
    """Read the per-segment label manifest; duplicate keys are an error."""
    labels: dict[SegmentKey, AdlLabel] = {}
    for lineno, row in read_csv(stream, MANIFEST_HEADER, RecordError, "manifest"):
        if len(row) != 4:
            raise RecordError(f"manifest line {lineno}: expected 4 fields, got {len(row)}")
        participant, video, seg_idx_text, adl_name = (f.strip() for f in row)
        try:
            seg_idx = int(seg_idx_text)
        except ValueError:
            raise RecordError(
                f"manifest line {lineno}: segment_index {seg_idx_text!r} is not an integer"
            ) from None
        try:
            label = adl_by_name(adl_name)
        except Exception:
            raise RecordError(f"manifest line {lineno}: unknown ADL {adl_name!r}") from None
        key = SegmentKey(participant, video, seg_idx)
        if key in labels:
            raise RecordError(f"manifest line {lineno}: duplicate segment key {key}")
        labels[key] = label
    return labels


def write_manifest(segments: Iterable[Segment], header: bool = True) -> str:
    rows = [MANIFEST_HEADER] if header else []
    for segment in segments:
        if segment.label is None:
            raise RecordError(f"segment {segment.key} has no label to write")
        rows.append([*segment.key, segment.label.name])
    return "".join(csv_lines(rows))


@dataclass
class AssemblyResult:
    segments: list[Segment]
    labels_without_frames: list[SegmentKey] = field(default_factory=list)


def assemble_segments(
    groups: dict[SegmentKey, list[FrameObservation]],
    labels: dict[SegmentKey, AdlLabel] | None,
) -> AssemblyResult:
    """Join frame groups with manifest labels into Segments.

    The manifest alone decides labels: without one (labels None) every
    segment is unlabeled; with one, every group must have an entry.
    Manifest entries with no frames are reported, not fatal.
    """
    if labels is None:
        return AssemblyResult([Segment(key, tuple(frames)) for key, frames in groups.items()])
    missing = [key for key in groups if key not in labels]
    if missing:
        raise RecordError(f"{len(missing)} segment(s) have no manifest row, first {missing[0]}")
    segments = [Segment(key, tuple(frames), labels[key]) for key, frames in groups.items()]
    return AssemblyResult(segments, sorted(k for k in labels if k not in groups))


def load_corpus(
    record_stream: Iterable[str] | TextIO,
    manifest_stream: Iterable[str] | TextIO | None,
) -> tuple[AssemblyResult, list[Diagnostic]]:
    """Convenience: parse records + manifest and assemble in one step."""
    groups, diagnostics = parse_records(record_stream)
    labels = load_manifest(manifest_stream) if manifest_stream is not None else None
    return assemble_segments(groups, labels), diagnostics
