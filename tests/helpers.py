"""Hand-built fixture constructors shared across test modules."""

import hashlib
import json
import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from adlrec.interaction import IOU_ACTIVE_THRESHOLD, iou
from adlrec.models.tree import _grow
from adlrec.records import (
    AssemblyResult,
    Box2D,
    Diagnostic,
    FrameObservation,
    HoiObject,
    ObjectDetection,
    RecordError,
    Segment,
    SegmentKey,
    load_corpus,
    load_manifest,
    parse_record_line,
)
from adlrec.synthgen import CANVAS_H, CANVAS_W


def box(x1=0, y1=0, x2=10, y2=10):
    return Box2D(float(x1), float(y1), float(x2), float(y2))


def det(label="cup", b=None, score=0.9):
    return ObjectDetection(raw_label=label, score=score, box=b if b is not None else box())


def hoi(b=None, side="right", contact="portable_object", score=0.8):
    return HoiObject(
        box=b if b is not None else box(), hand_side=side, contact_state=contact, score=score
    )


def frame(index=0, objects=(), hois=()):
    return FrameObservation(frame_index=index, objects=tuple(objects), hoi_objects=tuple(hois))


def segment(frames, participant="p1", video="v1", index=0, label=0):
    return Segment(SegmentKey(participant, video, index), tuple(frames), label)


def config_label(config):
    """A feature config's grid cell name, e.g. "binary+no-active"."""
    return f"{config.representation}+{'active' if config.use_active else 'no-active'}"


def record_line(
    participant="p1", video="v1", seg=0, frame_idx=0, objects=(), hois=(), **overrides
):
    doc = {
        "participant_id": participant,
        "video_id": video,
        "segment_index": seg,
        "frame_index": frame_idx,
        "objects": [
            {"label": o[0], "score": o[1], "box": list(o[2])} for o in objects
        ],
        "hoi_objects": [
            {"box": list(h[0]), "hand_side": h[1], "contact_state": h[2], "score": h[3]}
            for h in hois
        ],
    }
    doc.update(overrides)
    return json.dumps(doc)


def loaded_groups(records):
    """Each loaded segment's frames by key, and the diagnostics, of records
    loaded without a manifest."""
    result, diagnostics = load_corpus(records, None)
    return {s.key: s.frames for s in result.segments}, diagnostics


def reference_load_corpus(lines, manifest):
    """`records.load_corpus` by brute force: the oracle for its one-pass
    grouping. Each line is parsed on its own, a repeat is found by looking
    back over every earlier line, and each segment's frames are gathered by a
    scan over all lines. Returns what load_corpus returns for the same lines
    and manifest text (or None), or raises the RecordError it raises."""
    parsed, repeated, diagnostics = [], set(), []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            key, frame = parse_record_line(line, {})
        except RecordError as exc:
            diagnostics.append(Diagnostic(lineno, str(exc)))
            continue
        if any(k == key and f.frame_index == frame.frame_index for k, f in parsed):
            repeated.add(key)
            diagnostics.append(Diagnostic(
                lineno, f"segment {key}: frame_index {frame.frame_index} repeated; segment dropped"
            ))
        parsed.append((key, frame))
    grouped = {key for key, _ in parsed}
    keys = sorted(grouped - repeated)
    labels = load_manifest(manifest) if manifest is not None else None
    if labels is not None:
        missing = [key for key in keys if key not in labels]
        if missing:
            raise RecordError(f"{len(missing)} segment(s) have no manifest row, first {min(missing)}")
    segments = [
        Segment(
            key,
            tuple(sorted((f for k, f in parsed if k == key), key=lambda f: f.frame_index)),
            None if labels is None else labels[key],
        )
        for key in keys
    ]
    # a dropped segment had frames, so it is not listed
    without_frames = [] if labels is None else sorted(k for k in labels if k not in grouped)
    return AssemblyResult(segments, without_frames), diagnostics


def reference_serialize_frame(key, frame):
    """The frame record as json.dumps writes its dict: the oracle for
    `records.serialize_frame`, which writes the same bytes through one
    template."""
    doc = {
        "participant_id": key.participant_id,
        "video_id": key.video_id,
        "segment_index": key.segment_index,
        "frame_index": frame.frame_index,
        "objects": [
            {"label": o.raw_label, "score": o.score, "box": list(o.box)}
            for o in frame.objects
        ],
        "hoi_objects": [
            {
                "box": list(h.box),
                "hand_side": h.hand_side,
                "contact_state": h.contact_state,
                "score": h.score,
            }
            for h in frame.hoi_objects
        ],
    }
    return json.dumps(doc, separators=(",", ":"), ensure_ascii=True, allow_nan=False)


def minmax_scale_row(raw):
    """(x - min) / (max - min) over one row; constant rows map to all zeros:
    the per-row oracle for `features.feature_matrix`, which scales every row
    of a block at once."""
    row = np.asarray(raw, dtype=np.float64)
    lo = row.min()
    hi = row.max()
    if hi == lo:
        return np.zeros_like(row)
    return (row - lo) / (hi - lo)


def reference_best_ious(frame):
    """Each object's largest scalar `iou` against its frame's hoi boxes, one
    frame and one pair at a time: the oracle for `interaction.best_ious`."""
    bests = []
    for detection in frame.objects:
        best = 0.0
        for hoi_object in frame.hoi_objects:
            value = iou(detection.box, hoi_object.box)
            if value > best:
                best = value
        bests.append(best)
    return bests


def reference_raw_block(segment, table):
    """Integer (4, K) block of one segment, counted one frame at a time: the
    oracle for `features.raw_matrix`, which counts batches of segments."""
    n, k = len(segment.frames), len(table.categories)
    cells = []
    for row, frame in enumerate(segment.frames):
        for best, detection in zip(reference_best_ious(frame), frame.objects):
            cell = 2 * k * row + table.map_label(detection.raw_label)
            cells.append(cell)
            if best > IOU_ACTIVE_THRESHOLD:
                cells.append(cell + k)
    counted = np.bincount(np.array(cells, dtype=np.int64), minlength=2 * k * n)
    per_frame = counted.reshape(n, 2, k)
    return np.concatenate([per_frame.sum(axis=0), (per_frame > 0).sum(axis=0)])


def reference_random_box(rng):
    """A random detection box from four scalar uniform draws: the oracle for
    `synthgen._random_box`, which takes the four doubles in one call."""
    w = rng.uniform(40.0, 240.0)
    h = rng.uniform(40.0, 240.0)
    x1 = rng.uniform(0.0, CANVAS_W - w)
    y1 = rng.uniform(0.0, CANVAS_H - h)
    return Box2D(x1, y1, x1 + w, y1 + h)


def reference_jitter_box(rng, box, jitter):
    """A jittered box from one rng.uniform(-jitter, jitter, size=4) call: the
    oracle for `synthgen._jitter_box`, which scales the four doubles itself."""
    deltas = rng.uniform(-jitter, jitter, size=4)
    x_lo, x_hi = sorted((box.x1 + deltas[0], box.x2 + deltas[1]))
    y_lo, y_hi = sorted((box.y1 + deltas[2], box.y2 + deltas[3]))
    if x_hi - x_lo < 1.0:
        x_hi = x_lo + 1.0
    if y_hi - y_lo < 1.0:
        y_hi = y_lo + 1.0
    return Box2D(x_lo, y_lo, x_hi, y_hi)


def reference_pick_best(scores, sorted_vals, valid, candidates):
    """Scalar split pick, one column at a time: the oracle for the tree kernel.

    Lexicographic (score, feature index, threshold) minimum over columns;
    None when no column has a finite valid score.
    """
    best = None
    for j, feat in enumerate(candidates):
        col_scores = np.where(valid[:, j], scores[:, j], np.inf)
        cut = int(np.argmin(col_scores))
        if not np.isfinite(col_scores[cut]):
            continue
        threshold = 0.5 * (sorted_vals[cut, j] + sorted_vals[cut + 1, j])
        # midpoint can collapse onto the upper value in float; fall back to
        # the lower value so the <= test still separates the two sides
        if threshold >= sorted_vals[cut + 1, j]:
            threshold = sorted_vals[cut, j]
        key = (float(col_scores[cut]), int(feat), float(threshold))
        if best is None or key < best:
            best = key
    if best is None:
        return None
    return best[1], best[2]


def reference_node_order(X, idx):
    """Rows `idx` (ascending) of X in each column's stable sorted order, and
    their values, both (columns, rows): the per-node sort that the boosting
    cut cache's filter replaces."""
    order = np.argsort(X[idx], axis=0, kind="stable")
    rows = idx[order]
    return rows.T, X[rows, np.arange(X.shape[1])].T


# The sort kernel that the cut-vector kernel of adlrec.models.tree replaced,
# kept as its reference: every column of a node sorted, every position
# scored, and the best cut picked from a (cuts, columns) score matrix.


class Presort(NamedTuple):
    """Rows of a matrix in each column's sorted order, stored column-major.

    `rows[j]` lists row ids in stable ascending order of column j, and
    `values[j]` those rows' values in column j: both (columns, rows).
    """

    rows: np.ndarray
    values: np.ndarray

    def subset(self, member: np.ndarray) -> "Presort":
        """The same orders restricted to the rows where `member`, (n,) by row
        id, is True.

        Filtering keeps each column's order, and a stable sort breaks ties by
        row id, so this equals a fresh stable sort of the member rows.
        """
        keep = np.flatnonzero(member[self.rows])
        k = len(self.rows)
        return Presort(self.rows.take(keep).reshape(k, -1), self.values.take(keep).reshape(k, -1))


def reference_presort(X: np.ndarray) -> Presort:
    """Stable sort of every column of X, (n, d), once."""
    columns = X.T
    rows = np.argsort(columns, axis=1, kind="stable")
    return Presort(rows, np.take_along_axis(columns, rows, axis=1))


def reference_matrix_pick(scores, sorted_vals, valid, features):
    """Lexicographic (score, feature index, threshold) minimum over columns.

    Column j of `scores` and `valid`, (m-1, k), and of `sorted_vals`, (m, k),
    holds feature `features[j]`, in any order. Feature indices are distinct,
    so the threshold only ranks cuts within a column, where the lowest cut of
    equal score wins. A column whose best valid score is not finite (NaN
    among them, or -inf) never wins. None when no column has a finite valid
    score.
    """
    by_feature = np.argsort(features)
    masked = np.where(valid, scores, np.inf).T[by_feature]  # (k, m-1), features ascending
    # the first minimum in row-major order: lowest feature, then lowest cut
    row, cut = divmod(int(np.argmin(masked)), masked.shape[1])
    if not math.isfinite(masked[row, cut]):
        # argmin stops at a NaN or -inf: drop every column holding one, look again
        masked[~np.isfinite(masked.min(axis=1))] = np.inf
        row, cut = divmod(int(np.argmin(masked)), masked.shape[1])
        if not math.isfinite(masked[row, cut]):
            return None
    j = by_feature[row]
    lower, upper = sorted_vals[cut, j], sorted_vals[cut + 1, j]
    threshold = 0.5 * (lower + upper)
    # midpoint can collapse onto the upper value in float; fall back to
    # the lower value so the <= test still separates the two sides
    if threshold >= upper:
        threshold = lower
    return int(features[j]), float(threshold)


def _reference_best_split(node: Presort, features, stats, score):
    scores = score(*[np.cumsum(stat[node.rows], axis=1) for stat in stats])
    vals = node.values
    return reference_matrix_pick(scores.T, vals.T, (vals[:, :-1] < vals[:, 1:]).T, features)


def _reference_gini_scores(cum, cum_weight, total_weight):
    left = cum[:, :-1]
    right = cum[:, -1:] - left
    wl = cum_weight[:, :-1]
    wr = total_weight - wl
    with np.errstate(divide="ignore", invalid="ignore"):
        gini_l = wl - np.sort(left**2, axis=2).sum(axis=2) / wl
        gini_r = wr - np.sort(right**2, axis=2).sum(axis=2) / wr
    return gini_l + gini_r


def _reference_sse_scores(csum, csqr):
    m = csum.shape[1]
    counts_l = np.arange(1, m, dtype=np.float64)
    counts_r = m - counts_l
    sum_l = csum[:, :-1]
    sum_r = csum[:, -1:] - sum_l
    sse_l = csqr[:, :-1] - sum_l**2 / counts_l
    sse_r = (csqr[:, -1:] - csqr[:, :-1]) - sum_r**2 / counts_r
    return sse_l + sse_r


def reference_classification_tree(X, y, sample_weight, n_classes, rng, max_features):
    """`build_classification_tree` on the sort kernel: each node sorts its
    candidate columns, in the random order drawn, and scores every position."""
    n, d = X.shape
    onehot = np.zeros((n, n_classes))
    onehot[np.arange(n), y] = 1.0
    weighted_onehot = onehot * sample_weight[:, None]

    def split(member, depth):
        idx = np.flatnonzero(member)
        class_totals = weighted_onehot[idx].sum(axis=0)
        if np.count_nonzero(class_totals) <= 1:
            return None
        Xn = X[idx]
        perm = rng.permutation(d)
        varies = Xn.min(axis=0) < Xn.max(axis=0)
        candidates = perm[varies[perm]][:max_features]
        if not candidates.size:
            return None
        rows = idx[np.argsort(Xn[:, candidates].T, axis=1, kind="stable")]
        total_weight = float(sample_weight[idx].sum())
        return _reference_best_split(
            Presort(rows, X[rows, candidates[:, None]]),
            candidates,
            (weighted_onehot, sample_weight),
            lambda cum, cum_weight: _reference_gini_scores(cum, cum_weight, total_weight),
        )

    def proportions(member):
        class_totals = weighted_onehot[np.flatnonzero(member)].sum(axis=0)
        return class_totals / class_totals.sum()

    return _grow(X, n_classes, split, proportions)[0]


def reference_regression_tree(X, target, leaf_value, max_depth):
    """`build_regression_tree` on the sort kernel: every node filters one
    presort of X, and every position is scored."""
    features = np.arange(X.shape[1])
    stats = (target, target**2)
    presort = reference_presort(X)

    def split(member, depth):
        values = target[member]
        if depth < max_depth and values.min() != values.max():
            return _reference_best_split(presort.subset(member), features, stats, _reference_sse_scores)
        return None

    return _grow(X, 1, split, lambda member: [leaf_value(member)])


def reference_apply(tree, X):
    """Leaf id of each row, walking the tree one row at a time."""
    out = np.empty(X.shape[0], dtype=np.int64)
    for i, row in enumerate(X):
        node = 0
        while tree.feature[node] != -1:
            if row[tree.feature[node]] <= tree.threshold[node]:
                node = tree.left[node]
            else:
                node = tree.right[node]
        out[i] = node
    return out


def redigest(doc: dict) -> str:
    """A model document's text with its digest recomputed, so that a load
    gets past the digest check and reaches the content checks."""
    body = {k: v for k, v in doc.items() if k != "digest"}
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"), allow_nan=False)
    return json.dumps(dict(body, digest=hashlib.sha256(canonical.encode("utf-8")).hexdigest()))


@dataclass
class PriorModel:
    """A prior-only classifier: every row gets the training class frequencies."""

    proba: np.ndarray  # (K,)

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return np.tile(self.proba, (X.shape[0], 1))

    def check(self, d: int, k: int) -> None:
        if self.proba.shape != (k,):
            raise ValueError(f"prior proba has shape {self.proba.shape}, not {(k,)}")


def fit_prior(X, y, n_classes, class_weight, seed):
    proba = np.bincount(y, minlength=n_classes) / y.size
    return PriorModel(proba=proba), {"iterations": 0, "stopping_reason": "converged"}


# a fifth model kind, with everything a kind module of adlrec.models declares
PRIOR_KIND = SimpleNamespace(
    NAME="prior",
    ALIASES=("pr",),
    DEFAULTS={},
    PARAMS=PriorModel,
    CONVERGED_REASONS=("converged",),
    fit=fit_prior,
)
