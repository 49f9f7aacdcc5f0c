"""Bag-of-Objects segment features and row-wise min-max scaling.

One pass over a segment's frames builds an integer block with one row per
channel, each over the category table:

* counts — detections per category, summed across frames;
* active counts — the same over active-marked detections only;
* presence — frames in which the category appears at all;
* active presence — frames in which it appears as an active object.

Every feature config is a view of that block: counts takes the counts rows,
binary the presence rows, "both" takes both groups, and the active rows are
kept only with the active distinction on. Each row is min-max scaled by its
own min and max, so values land in [0, 1] regardless of frame count.
"""

from dataclasses import dataclass

import numpy as np

from .interaction import mark_active
from .records import Segment, SegmentKey
from .taxonomy import CategoryTable

REPRESENTATIONS = ("counts", "binary", "both")


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

    def dimension(self, n_categories: int) -> int:
        d = n_categories * (2 if self.use_active else 1)
        if self.representation == "both":
            d *= 2
        return d


def all_feature_configs(table: CategoryTable) -> list[FeatureConfig]:
    """The six ablation configurations in grid order."""
    return [
        FeatureConfig(rep, use_active, table.content_hash)
        for rep in REPRESENTATIONS
        for use_active in (False, True)
    ]


@dataclass(frozen=True)
class FeatureVector:
    config: FeatureConfig
    key: SegmentKey
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


# First raw_block row of each representation group; the active row follows it.
_GROUP_ROW = {"counts": 0, "binary": 2}


def minmax_scale_row(raw: np.ndarray) -> np.ndarray:
    """(x - min) / (max - min) over one row; constant rows map to all zeros."""
    row = np.asarray(raw, dtype=np.float64)
    if row.size == 0:
        raise FeatureError("cannot scale an empty row")
    if not np.all(np.isfinite(row)):
        raise FeatureError("non-finite value in feature row")
    lo = row.min()
    hi = row.max()
    if hi == lo:
        return np.zeros_like(row)
    return (row - lo) / (hi - lo)


def featurize(segment: Segment, table: CategoryTable, config: FeatureConfig) -> FeatureVector:
    """Build one scaled feature row for a segment under `config`.

    Single representations scale the whole row jointly (base and active
    blocks together). For "both", the counts and binary blocks are scaled
    independently and concatenated, counts first.
    """
    if config.taxonomy_hash != table.content_hash:
        raise FeatureError(
            "feature config taxonomy hash does not match the loaded table "
            f"({config.taxonomy_hash[:12]}... vs {table.content_hash[:12]}...)"
        )
    block = raw_block(segment, table)
    width = 2 if config.use_active else 1
    groups = ("counts", "binary") if config.representation == "both" else (config.representation,)
    values = np.concatenate(
        [minmax_scale_row(block[_GROUP_ROW[g] : _GROUP_ROW[g] + width].ravel()) for g in groups]
    )
    return FeatureVector(config=config, key=segment.key, values=values)


def feature_names(table: CategoryTable, config: FeatureConfig) -> list[str]:
    """Column names matching featurize() output order."""

    def block(prefix: str) -> list[str]:
        names = [prefix + c for c in table.categories]
        if config.use_active:
            names += [prefix + "active_" + c for c in table.categories]
        return names

    if config.representation == "both":
        return block("counts_") + block("binary_")
    return block("")


def feature_matrix(
    segments: list[Segment], table: CategoryTable, config: FeatureConfig
) -> tuple[np.ndarray, list[SegmentKey]]:
    """Stack per-segment rows in segment-key order."""
    ordered = sorted(segments, key=lambda s: s.key)
    rows = [featurize(s, table, config).values for s in ordered]
    keys = [s.key for s in ordered]
    return np.asarray(rows, dtype=np.float64), keys
