"""Hand-built fixture constructors shared across test modules."""

import hashlib
import json
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from adlrec.records import (
    Box2D,
    FrameObservation,
    HoiObject,
    ObjectDetection,
    Segment,
    SegmentKey,
)
from adlrec.taxonomy import ADL_LABELS


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


def segment(frames, participant="p1", video="v1", index=0, label=ADL_LABELS[0]):
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
    their values, both (columns, rows): the per-node sort that a presort's
    filter replaces."""
    order = np.argsort(X[idx], axis=0, kind="stable")
    rows = idx[order]
    return rows.T, X[rows, np.arange(X.shape[1])].T


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


def fit_prior(X, y, n_classes, class_weight, seed, hp):
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
