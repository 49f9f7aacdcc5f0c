"""Bag-of-Objects segment features and row-wise min-max scaling.

Each segment's frames count into an integer block with one row per channel,
each over the category table:

* counts — detections per category, summed across frames;
* active counts — the same over active-marked detections only;
* presence — frames in which the category appears at all;
* active presence — frames in which it appears as an active object.

Every feature config is a view of those blocks, stacked for the corpus into
one (n, 4, K) array: counts takes the counts rows, binary the presence rows,
"both" takes both groups, and the active rows are kept only with the active
distinction on. Each block of a feature row is min-max scaled by its own min
and max, so values land in [0, 1] regardless of frame count.

`raw_matrix` marks and counts whole segments in batches of a few hundred
frames, each in a few numpy passes (`interaction.best_ious`, then a bincount
per segment for the counts and one for the presence), so its working arrays
stay the size of one batch however large the corpus.
"""

import reprlib
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .documents import InputError
# mark_active is not called here, but the benchmark's tracer
# (perfbench/tracing.py) hooks the name `adlrec.features.mark_active` and
# fails with KeyError when it is missing
from .interaction import IOU_ACTIVE_THRESHOLD, best_ious, mark_active
from .records import Segment, SegmentKey
from .taxonomy import CategoryTable

# Each representation's independently scaled blocks, in column order: a
# column-name prefix and the block's first row in a segment's raw_matrix
# block. With the active distinction on, the next row (that group's active
# channel) joins the block.
_LAYOUT = {
    "counts": (("", 0),),
    "binary": (("", 2),),
    "both": (("counts_", 0), ("binary_", 2)),
}
REPRESENTATIONS = tuple(_LAYOUT)

# Frames marked and counted in one batch of whole segments (more when one
# segment alone has more): large enough that numpy's per-call cost is spread
# thin, small enough that the batch's arrays stay far below the corpus's size.
_BATCH_FRAMES = 256


class FeatureError(InputError):
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


class FeatureVector(NamedTuple):
    values: np.ndarray


def feature_names(table: CategoryTable, config: FeatureConfig) -> list[str]:
    """Column names in feature_matrix() column order. FeatureError if two
    coincide, as the active column of cup and the column of active_cup do."""
    channels = ("", "active_") if config.use_active else ("",)
    layout = _LAYOUT[config.representation]
    names = [p + ch + c for p, _ in layout for ch in channels for c in table.categories]
    twice = [name for name, count in Counter(names).items() if count > 1]
    if twice:
        raise FeatureError(f"category table gives two feature columns the name {reprlib.repr(twice[0])}")
    return names


def raw_matrix(
    segments: list[Segment], table: CategoryTable
) -> tuple[np.ndarray, list[SegmentKey]]:
    """Each segment's integer (4, K) block, of counts, active counts, presence
    and active presence, in one (n, 4, K) array in segment-key order. Configs
    without the active distinction ignore the active rows. Whole segments are
    marked and counted a batch of up to _BATCH_FRAMES frames at a time.
    """
    ordered = sorted(segments, key=lambda s: s.key)
    raw = np.empty((len(ordered), 4, len(table.categories)), dtype=np.int64)
    category: dict[str, int] = {}  # raw label -> category index, for this call
    first = 0
    while first < len(ordered):
        # at least one segment, then as many more as fit in _BATCH_FRAMES
        last, frames = first + 1, list(ordered[first].frames)
        while last < len(ordered) and len(frames) + len(ordered[last].frames) <= _BATCH_FRAMES:
            frames += ordered[last].frames
            last += 1
        lengths = [len(s.frames) for s in ordered[first:last]]
        raw[first:last] = _count_batch(frames, lengths, table, category)
        first = last
    return raw, [s.key for s in ordered]


def _count_batch(
    frames: list, lengths: list[int], table: CategoryTable, category: dict[str, int]
) -> np.ndarray:
    """The (len(lengths), 4, K) blocks of consecutive segments whose frames,
    concatenated, are `frames`; segment i has lengths[i] of them."""
    n, k, m = len(frames), len(table.categories), len(lengths)
    labels = [d.raw_label for f in frames for d in f.objects]
    for label in set(labels).difference(category):
        category[label] = table.map_label(label)
    # one (frame, channel and category) entry per detection, plus one in the
    # active channel for each active detection
    row = np.repeat(np.arange(n), [len(f.objects) for f in frames])
    cell = np.fromiter(map(category.__getitem__, labels), np.int64, len(labels))
    active = best_ious(frames) > IOU_ACTIVE_THRESHOLD
    row = np.concatenate([row, row[active]])
    cell = np.concatenate([cell, cell[active] + k])
    # counted per segment, not per frame, so no array here has a frame-sized
    # block of every category; a segment with no frames counts zeros
    segment_of = np.repeat(np.arange(m), lengths)
    counts = np.bincount(2 * k * segment_of[row] + cell, minlength=2 * k * m)
    present = np.zeros((n, 2 * k), dtype=bool)
    present[row, cell] = True
    row, cell = np.nonzero(present)  # each (frame, channel and category) once
    presence = np.bincount(2 * k * segment_of[row] + cell, minlength=2 * k * m)
    return np.concatenate([counts.reshape(m, 2, k), presence.reshape(m, 2, k)], axis=1)


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
    """One segment's scaled feature row: the one-row case of feature_matrix,
    kept, with FeatureVector, for tests/test_acceptance.py."""
    X, _ = feature_matrix([segment], table, config)
    return FeatureVector(values=X[0])
