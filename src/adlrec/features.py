"""Bag-of-Objects segment features and row-wise min-max scaling.

One pass over a segment's frames builds an integer block with one row per
channel, each over the category table:

* counts — detections per category, summed across frames;
* active counts — the same over active-marked detections only;
* presence — frames in which the category appears at all;
* active presence — frames in which it appears as an active object.

Every feature config is a view of those blocks, stacked for the corpus into
one (n, 4, K) array: counts takes the counts rows, binary the presence rows,
"both" takes both groups, and the active rows are kept only with the active
distinction on. Each block of a feature row is min-max scaled by its own min
and max, so values land in [0, 1] regardless of frame count.
"""

from dataclasses import dataclass

import numpy as np

from .interaction import mark_active
from .records import Segment, SegmentKey
from .taxonomy import CategoryTable

# Each representation's independently scaled blocks, in column order: a
# column-name prefix and the block's first raw_block row. With the active
# distinction on, the next row (that group's active channel) joins the block.
_LAYOUT = {
    "counts": (("", 0),),
    "binary": (("", 2),),
    "both": (("counts_", 0), ("binary_", 2)),
}
REPRESENTATIONS = tuple(_LAYOUT)


class FeatureError(ValueError):
    """Raised for invalid feature configs or mismatched taxonomy versions."""


@dataclass(frozen=True)
class FeatureConfig:
    """One cell of the representation grid, pinned to a taxonomy version."""

    representation: str
    use_active: bool
    taxonomy_hash: str

    def __post_init__(self):
        if self.representation not in REPRESENTATIONS:
            raise FeatureError(
                f"representation must be one of {REPRESENTATIONS}, "
                f"got {self.representation!r}"
            )


def all_feature_configs(table: CategoryTable) -> list[FeatureConfig]:
    """The six ablation configurations in grid order."""
    return [
        FeatureConfig(rep, use_active, table.content_hash)
        for rep in REPRESENTATIONS
        for use_active in (False, True)
    ]


@dataclass(frozen=True)
class FeatureVector:
    values: np.ndarray


def raw_block(segment: Segment, table: CategoryTable) -> np.ndarray:
    """Integer (4, K) block: counts, active counts, presence, active presence.

    Every frame is marked once; configs without the active distinction
    ignore the active rows, so their values do not depend on the marking.
    """
    n, k = len(segment.frames), len(table)
    # One flat (frame, channel, category) index per detection, plus one in
    # the active channel for each active detection; counted by one bincount.
    cells = []
    for row, frame in enumerate(segment.frames):
        for mark, detection in zip(mark_active(frame), frame.objects):
            cell = 2 * k * row + table.map_label(detection.raw_label)
            cells.append(cell)
            if mark.active:
                cells.append(cell + k)
    counted = np.bincount(np.array(cells, dtype=np.int64), minlength=2 * k * n)
    per_frame = counted.reshape(n, 2, k)
    return np.concatenate([per_frame.sum(axis=0), (per_frame > 0).sum(axis=0)])


def feature_names(table: CategoryTable, config: FeatureConfig) -> list[str]:
    """Column names in feature_matrix() column order."""
    channels = ("", "active_") if config.use_active else ("",)
    layout = _LAYOUT[config.representation]
    return [p + ch + c for p, _ in layout for ch in channels for c in table.categories]


def raw_matrix(
    segments: list[Segment], table: CategoryTable
) -> tuple[np.ndarray, list[SegmentKey]]:
    """The raw_block of every segment, one (n, 4, K) array in segment-key order."""
    ordered = sorted(segments, key=lambda s: s.key)
    raw = np.empty((len(ordered), 4, len(table)), dtype=np.int64)
    for i, segment in enumerate(ordered):
        raw[i] = raw_block(segment, table)
    return raw, [s.key for s in ordered]


def feature_view(raw: np.ndarray, config: FeatureConfig) -> np.ndarray:
    """The config's scaled feature rows, one per row of a raw_matrix array."""
    n, _, k = raw.shape
    rows = 2 if config.use_active else 1
    layout = _LAYOUT[config.representation]
    X = np.empty((n, len(layout) * rows * k))
    for j, (_, first) in enumerate(layout):
        # the explicit width keeps the reshape valid when there are no rows
        block = raw[:, first : first + rows].reshape(n, rows * k)
        lo = block.min(axis=1, keepdims=True)
        span = block.max(axis=1, keepdims=True) - lo
        out = X[:, j * rows * k : (j + 1) * rows * k]
        # scaled in place; a constant row is all zeros after the subtraction
        np.subtract(block, lo, out=out)
        np.divide(out, span, out=out, where=span > 0)
    return X


def feature_matrix(
    segments: list[Segment], table: CategoryTable, config: FeatureConfig
) -> tuple[np.ndarray, list[SegmentKey]]:
    """The config's feature_view of the corpus's raw_matrix, in segment-key order."""
    if config.taxonomy_hash != table.content_hash:
        raise FeatureError(
            "feature config taxonomy hash does not match the loaded table "
            f"({config.taxonomy_hash[:12]}... vs {table.content_hash[:12]}...)"
        )
    raw, keys = raw_matrix(segments, table)
    return feature_view(raw, config), keys


def featurize(segment: Segment, table: CategoryTable, config: FeatureConfig) -> FeatureVector:
    """One segment's scaled feature row: the one-row case of feature_matrix."""
    X, _ = feature_matrix([segment], table, config)
    return FeatureVector(values=X[0])
