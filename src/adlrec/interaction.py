"""Active/passive object marking via box overlap with hand-interaction boxes.

A detected object counts as active when its box overlaps some hand-object
interaction box with IoU strictly greater than 0.8; exact ties stay passive.
The rule is purely geometric: every hoi box counts, whatever its contact-state
tag.

`best_ious` applies the rule to many frames in one numpy pass: it pairs every
object with each hoi box of its own frame and computes, per pair, the float
operations `iou` does in the same order, so its values equal the scalar
function's bit for bit.
"""

from collections.abc import Sequence
from itertools import chain
from typing import NamedTuple

import numpy as np

from .records import Box2D, FrameObservation

IOU_ACTIVE_THRESHOLD = 0.8


class ActivityMark(NamedTuple):
    """Activeness verdict for one object in a frame."""

    object_index: int
    active: bool
    best_iou: float


def iou(a: Box2D, b: Box2D) -> float:
    """IoU of two valid boxes, 0 when disjoint; kept for tests/test_acceptance.py."""
    ix = min(a.x2, b.x2) - max(a.x1, b.x1)
    iy = min(a.y2, b.y2) - max(a.y1, b.y1)
    if ix <= 0.0 or iy <= 0.0:
        return 0.0
    inter = ix * iy
    union = a.area() + b.area() - inter
    return inter / union


def _box_array(boxes: list[Box2D]) -> np.ndarray:
    """(n, 4) float64 columns x1, y1, x2, y2."""
    return np.fromiter(chain.from_iterable(boxes), np.float64, 4 * len(boxes)).reshape(len(boxes), 4)


def best_ious(frames: Sequence[FrameObservation]) -> np.ndarray:
    """Each object's largest IoU against the hoi boxes of its own frame, 0.0
    when there are none, as one (n_objects,) float64 array over the frames'
    objects in order."""
    objects = _box_array([d.box for f in frames for d in f.objects])
    hois = _box_array([h.box for f in frames for h in f.hoi_objects])
    n_objects = np.fromiter([len(f.objects) for f in frames], np.int64, len(frames))
    n_hois = np.fromiter([len(f.hoi_objects) for f in frames], np.int64, len(frames))
    # each object's hoi count and first hoi id; an object's pairs are
    # consecutive, one per hoi box of its frame in order
    pairs_of = np.repeat(n_hois, n_objects)
    first_hoi = np.repeat(np.cumsum(n_hois) - n_hois, n_objects)
    first_pair = np.cumsum(pairs_of) - pairs_of
    pair_object = np.repeat(np.arange(len(objects)), pairs_of)
    pair_hoi = np.arange(len(pair_object)) + np.repeat(first_hoi - first_pair, pairs_of)
    a, b = objects[pair_object].T, hois[pair_hoi].T
    # a huge box overflows to inf (and inf - inf to NaN) as Python floats do, silently
    with np.errstate(over="ignore", invalid="ignore"):
        ix = np.minimum(a[2], b[2]) - np.maximum(a[0], b[0])
        iy = np.minimum(a[3], b[3]) - np.maximum(a[1], b[1])
        inter = ix * iy
        union = (a[2] - a[0]) * (a[3] - a[1]) + (b[2] - b[0]) * (b[3] - b[1]) - inter
        values = np.divide(inter, union, out=np.zeros(len(inter)), where=(ix > 0.0) & (iy > 0.0))
    # fmax skips a NaN value, as the scalar loop's `value > best` does
    best = np.zeros(len(objects))
    np.fmax.at(best, pair_object, values)
    return best


def mark_active(frame: FrameObservation) -> list[ActivityMark]:
    """Mark each object active iff its max IoU against the hoi boxes exceeds
    IOU_ACTIVE_THRESHOLD (best_ious of one frame); kept for tests/test_acceptance.py."""
    return [
        ActivityMark(index, best > IOU_ACTIVE_THRESHOLD, best)
        for index, best in enumerate(best_ious([frame]).tolist())
    ]
