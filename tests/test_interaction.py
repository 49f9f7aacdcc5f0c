import warnings

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from adlrec.interaction import IOU_ACTIVE_THRESHOLD, best_ious, iou, mark_active
from adlrec.records import Box2D

from helpers import box, det, frame, hoi, reference_best_ious


def rasterized_iou(a: Box2D, b: Box2D, canvas: int = 64) -> float:
    """Pixel-counting oracle for integer-coordinate boxes."""
    grid_a = np.zeros((canvas, canvas), dtype=bool)
    grid_b = np.zeros((canvas, canvas), dtype=bool)
    grid_a[int(a.y1) : int(a.y2), int(a.x1) : int(a.x2)] = True
    grid_b[int(b.y1) : int(b.y2), int(b.x1) : int(b.x2)] = True
    union = np.count_nonzero(grid_a | grid_b)
    return np.count_nonzero(grid_a & grid_b) / union


def integer_boxes(canvas=64):
    def make(draw):
        x1 = draw(st.integers(0, canvas - 1))
        x2 = draw(st.integers(x1 + 1, canvas))
        y1 = draw(st.integers(0, canvas - 1))
        y2 = draw(st.integers(y1 + 1, canvas))
        return Box2D(float(x1), float(y1), float(x2), float(y2))

    return st.composite(make)()


def float_boxes():
    coord = st.floats(-500, 500, allow_nan=False)
    size = st.floats(0.5, 400, allow_nan=False)

    def make(draw):
        x1 = draw(coord)
        y1 = draw(coord)
        return Box2D(x1, y1, x1 + draw(size), y1 + draw(size))

    return st.composite(make)()


def test_iou_identity():
    assert iou(box(0, 0, 10, 10), box(0, 0, 10, 10)) == 1.0


def test_iou_disjoint():
    assert iou(box(0, 0, 1, 1), box(5, 5, 6, 6)) == 0.0


def test_iou_area_arithmetic():
    # intersection 5x5 = 25, union 100 + 100 - 25 = 175
    assert abs(iou(box(0, 0, 10, 10), box(5, 5, 15, 15)) - 25 / 175) < 1e-15


def test_iou_exactly_threshold_stays_passive():
    a = box(0, 0, 8, 10)
    b = box(0, 0, 10, 10)
    assert iou(a, b) == IOU_ACTIVE_THRESHOLD
    marks = mark_active(frame(objects=[det(b=a)], hois=[hoi(b=b)]))
    assert not marks[0].active
    assert marks[0].best_iou == 0.8


@given(float_boxes(), float_boxes())
def test_iou_symmetric_and_bounded(a, b):
    v = iou(a, b)
    assert 0.0 <= v <= 1.0
    assert iou(b, a) == v


@given(float_boxes())
def test_iou_self_is_one(a):
    assert abs(iou(a, a) - 1.0) < 1e-12


@given(integer_boxes(), integer_boxes())
def test_iou_matches_rasterized_oracle(a, b):
    assert abs(iou(a, b) - rasterized_iou(a, b)) < 1e-9


@given(integer_boxes(), st.integers(1, 10), st.integers(1, 10))
def test_containment_monotonicity(a, grow1, grow2):
    # b1 contains a; b2 contains b1: IoU can only shrink as the superset grows
    b1 = Box2D(a.x1 - grow1, a.y1 - grow1, a.x2 + grow1, a.y2 + grow1)
    b2 = Box2D(b1.x1 - grow2, b1.y1 - grow2, b1.x2 + grow2, b1.y2 + grow2)
    v1 = iou(a, b1)
    v2 = iou(a, b2)
    assert abs(v1 - a.area() / b1.area()) < 1e-12  # contained-case oracle
    assert v2 <= v1 + 1e-12


def test_mark_active_identity_match():
    b = box(3, 3, 20, 30)
    marks = mark_active(frame(objects=[det(b=b)], hois=[hoi(b=b)]))
    assert marks[0].active
    assert marks[0].best_iou == 1.0


def test_mark_active_no_hoi_boxes():
    marks = mark_active(frame(objects=[det(), det(b=box(1, 1, 2, 2))]))
    assert [m.active for m in marks] == [False, False]
    assert all(m.best_iou == 0.0 for m in marks)


def test_mark_active_takes_max_over_hoi_boxes():
    target = box(0, 0, 10, 10)
    marks = mark_active(
        frame(
            objects=[det(b=target)],
            hois=[hoi(b=box(50, 50, 60, 60)), hoi(b=target)],
        )
    )
    assert marks[0].active and marks[0].best_iou == 1.0


def test_mark_active_shared_hoi_box():
    # several objects may match the same interaction box
    b = box(0, 0, 10, 10)
    marks = mark_active(frame(objects=[det(b=b), det(b=b)], hois=[hoi(b=b)]))
    assert [m.active for m in marks] == [True, True]


def test_contact_state_is_ignored():
    b = box(0, 0, 10, 10)
    f = frame(objects=[det(b=b)], hois=[hoi(b=b, contact="stationary_object")])
    assert mark_active(f)[0].active  # geometry-only


# Boxes whose pairs hit the kernel's edge cases: identical boxes (IoU 1),
# boxes touching along an edge or at a corner (IoU 0, never a division), the
# criterion-2 pair whose IoU is exactly 0.8, and a box so large that its
# area overflows to inf, whose IoU with itself is NaN and never the best.
_EDGE_BOXES = (
    box(0, 0, 10, 10),
    box(10, 0, 20, 10),
    box(10, 10, 20, 20),
    box(0, 0, 8, 10),
    Box2D(-1e308, -1e308, 1e308, 1e308),
)
# coordinates and sizes over many magnitudes, so that any change in the order
# of the float operations shows in the last bits of some IoU
_wide = st.floats(-1e6, 1e6, allow_nan=False)
_wide_boxes = st.builds(
    lambda x, y, w, h: Box2D(x, y, x + w, y + h), _wide, _wide, st.floats(1e-3, 1e6), st.floats(1e-3, 1e6)
)
_frame_boxes = st.one_of(st.sampled_from(_EDGE_BOXES), integer_boxes(), float_boxes(), _wide_boxes)
_frames = st.lists(
    st.builds(
        lambda objects, hois: frame(objects=[det(b=b) for b in objects], hois=[hoi(b=b) for b in hois]),
        st.lists(_frame_boxes, max_size=5),
        st.lists(_frame_boxes, max_size=12),
    ),
    max_size=6,
)


@given(_frames)
def test_best_ious_equal_the_scalar_maximum(frames):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the overflowing box must not warn
        best = best_ious(frames)
    expected = [value for f in frames for value in reference_best_ious(f)]
    assert best.dtype == np.float64 and best.shape == (len(expected),)
    assert best.tolist() == expected


def test_best_ious_of_edge_cases():
    exact = frame(objects=[det(b=box(0, 0, 8, 10))], hois=[hoi(b=box(0, 0, 10, 10))])
    touching = frame(
        objects=[det(b=box(0, 0, 10, 10))], hois=[hoi(b=box(10, 0, 20, 10)), hoi(b=box(10, 10, 20, 20))]
    )
    no_hois = frame(objects=[det(), det()])
    no_objects = frame(hois=[hoi()])
    # many hoi boxes in one frame, the best of them last
    many = frame(
        objects=[det(b=box(0, 0, 10, 10))], hois=[hoi(b=box(i, i, i + 10, i + 10)) for i in range(49, -1, -1)]
    )
    assert best_ious([exact, touching, no_hois, no_objects, many]).tolist() == [0.8, 0.0, 0.0, 0.0, 1.0]
    assert best_ious([]).shape == (0,)
