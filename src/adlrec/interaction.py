"""Active/passive object marking via box overlap with hand-interaction boxes.

A detected object counts as active when its box overlaps some hand-object
interaction box with IoU strictly greater than 0.8; exact ties stay passive.
The rule is purely geometric: every hoi box counts, whatever its contact-state
tag.
"""

from typing import NamedTuple

from .records import Box2D, FrameObservation

IOU_ACTIVE_THRESHOLD = 0.8


class ActivityMark(NamedTuple):
    """Activeness verdict for one object in a frame."""

    object_index: int
    active: bool
    best_iou: float


def iou(a: Box2D, b: Box2D) -> float:
    """Intersection over union of two valid boxes; 0 when disjoint."""
    ix = min(a.x2, b.x2) - max(a.x1, b.x1)
    iy = min(a.y2, b.y2) - max(a.y1, b.y1)
    if ix <= 0.0 or iy <= 0.0:
        return 0.0
    inter = ix * iy
    union = a.area() + b.area() - inter
    return inter / union


def mark_active(frame: FrameObservation) -> list[ActivityMark]:
    """Mark each object active iff its max IoU against the hoi boxes exceeds
    IOU_ACTIVE_THRESHOLD."""
    hoi_boxes = [h.box for h in frame.hoi_objects]
    marks = []
    for index, detection in enumerate(frame.objects):
        best = 0.0
        for hoi_box in hoi_boxes:
            value = iou(detection.box, hoi_box)
            if value > best:
                best = value
        marks.append(ActivityMark(index, best > IOU_ACTIVE_THRESHOLD, best))
    return marks
