"""Leave-one-subject-out evaluation, metrics, and the ablation grid.

One scoring path serves both LOSO folds (`run_loso`) and a saved model
scored on a labeled corpus (`score_model`): it builds a prediction set's
confusion matrix once and derives per-class F1, support and weighted F1
from it.

Metrics follow the weighted-F1 convention: per-class F1 averaged with
weights proportional to true-class support, zero-support classes excluded,
and zero-denominator precision/recall/F1 defined as 0. The participant
threshold rate counts folds with weighted F1 strictly above 0.5. Fold
mean +/- std uses the population (N-denominator) std; the convention is
recorded in report provenance.
"""

import csv
import io
import os
from dataclasses import asdict, dataclass, replace
from typing import NamedTuple

import numpy as np

from .documents import to_document
from .features import FeatureConfig, all_feature_configs, feature_matrix
from .models import TrainConfig, TrainedModel, train_matrix
from .records import Segment
from .rng import derive_seed
from .taxonomy import ADL_NAMES, NUM_ADL_CLASSES, CategoryTable


class EvaluationError(ValueError):
    pass


def loso_split(segments: list[Segment]) -> list[tuple[list[Segment], list[Segment]]]:
    """One (train, test) fold per participant, ordered by participant id."""
    if any(s.label is None for s in segments):
        raise EvaluationError("all segments must be labeled for evaluation")
    participants = sorted({s.key.participant_id for s in segments})
    if len(participants) < 2:
        raise EvaluationError("leave-one-subject-out needs at least 2 participants")
    ordered = sorted(segments, key=lambda s: s.key)
    folds = []
    for participant in participants:
        test = [s for s in ordered if s.key.participant_id == participant]
        train = [s for s in ordered if s.key.participant_id != participant]
        folds.append((train, test))
    return folds


def confusion_matrix(y_true, y_pred, n_classes: int) -> np.ndarray:
    """Entry (i, j) counts samples with true class i predicted as j."""
    y_true = np.asarray(y_true, dtype=np.int64)
    y_pred = np.asarray(y_pred, dtype=np.int64)
    if y_true.shape != y_pred.shape:
        raise EvaluationError("label vectors differ in length")
    for name, arr in (("true", y_true), ("pred", y_pred)):
        if arr.size and (arr.min() < 0 or arr.max() >= n_classes):
            raise EvaluationError(f"{name} label outside [0, {n_classes})")
    matrix = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(matrix, (y_true, y_pred), 1)
    return matrix


def normalize_rows(matrix: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Row proportions; zero-support rows come back all-zero and flagged."""
    matrix = np.asarray(matrix, dtype=np.float64)
    sums = matrix.sum(axis=1)
    zero_rows = [int(i) for i in np.flatnonzero(sums == 0)]
    safe = np.where(sums == 0, 1.0, sums)
    return matrix / safe[:, None], zero_rows


class _Score(NamedTuple):
    """One prediction set scored from its confusion matrix, built once."""

    weighted_f1: float
    per_class_f1: np.ndarray
    support: np.ndarray
    confusion: np.ndarray


def _score(y_true, y_pred, n_classes: int = NUM_ADL_CLASSES) -> _Score:
    if np.asarray(y_true).size == 0:
        raise EvaluationError("empty label vectors")
    matrix = confusion_matrix(y_true, y_pred, n_classes)
    tp = np.diag(matrix).astype(np.float64)
    support = matrix.sum(axis=1)
    predicted = matrix.sum(axis=0)
    # a class never predicted, never present, or never right scores 0
    precision = np.divide(tp, predicted, out=np.zeros(n_classes), where=predicted > 0)
    recall = np.divide(tp, support, out=np.zeros(n_classes), where=support > 0)
    total = precision + recall
    f1 = np.divide(2 * precision * recall, total, out=np.zeros(n_classes), where=total > 0)
    return _Score(float((support * f1).sum() / support.sum()), f1, support, matrix)


def weighted_f1(y_true, y_pred, n_classes: int) -> float:
    """Support-weighted mean of per-class F1."""
    return _score(y_true, y_pred, n_classes).weighted_f1


@dataclass
class FoldResult:
    participant_id: str
    weighted_f1: float
    per_class_f1: np.ndarray
    support: np.ndarray
    confusion: np.ndarray
    train_seed: int
    iterations: int
    stopping_reason: str

    @property
    def n_test(self) -> int:
        return int(self.confusion.sum())


@dataclass(kw_only=True)
class EvaluationReport:
    """A LOSO run; its fields, in order, are the keys of report.json."""

    mean_weighted_f1: float
    std_weighted_f1: float
    percent_above_half: float
    class_names: tuple[str, ...] = ADL_NAMES
    pooled_confusion: np.ndarray
    normalized_confusion: np.ndarray
    zero_support_rows: list[int]
    folds: list[FoldResult]
    provenance: dict


def _aggregate(folds: list[FoldResult], provenance: dict) -> EvaluationReport:
    scores = np.array([f.weighted_f1 for f in folds])
    pooled = np.sum([f.confusion for f in folds], axis=0)
    normalized, zero_rows = normalize_rows(pooled)
    return EvaluationReport(
        folds=folds,
        mean_weighted_f1=float(scores.mean()),
        std_weighted_f1=float(scores.std()),  # population std over folds
        percent_above_half=float(100.0 * np.count_nonzero(scores > 0.5) / scores.size),
        pooled_confusion=pooled,
        normalized_confusion=normalized,
        zero_support_rows=zero_rows,
        provenance=provenance,
    )


def _labels(segments: list[Segment]) -> np.ndarray:
    return np.array([s.label.id for s in sorted(segments, key=lambda s: s.key)])


def run_loso(
    segments: list[Segment],
    table: CategoryTable,
    feature_config: FeatureConfig,
    train_config: TrainConfig,
) -> EvaluationReport:
    """Train per fold on the remaining participants, score the held-out one.

    Featurization is per-segment (row-wise scaling), so the feature matrix
    is computed once, outside the fold loop, and each fold takes its rows
    by participant; there is no cross-fold leakage by construction. Per-fold
    training seeds derive from (train_config.seed, participant id), making
    fold order irrelevant.
    """
    splits = loso_split(segments)
    X, keys = feature_matrix(segments, table, feature_config)
    y = _labels(segments)
    owners = np.array([key.participant_id for key in keys])
    folds = []
    for _, test_segments in splits:
        participant = test_segments[0].key.participant_id
        fold_seed = derive_seed(train_config.seed, "fold", participant)
        fold_cfg = replace(train_config, seed=fold_seed)
        test = owners == participant
        try:
            model = train_matrix(X[~test], y[~test], fold_cfg, feature_config)
        except Exception as exc:
            raise EvaluationError(f"fold {participant!r}: {exc}") from exc
        score = _score(y[test], model.predict_labels(X[test]))
        folds.append(
            FoldResult(
                participant_id=participant,
                **score._asdict(),
                train_seed=fold_seed,
                iterations=int(model.metadata["iterations"]),
                stopping_reason=model.metadata["stopping_reason"],
            )
        )
    kind, hp = train_config.resolved()
    provenance = {
        "feature_config": asdict(feature_config),
        "train_config": {"kind": kind.NAME, "seed": int(train_config.seed), "hyperparameters": hp},
        "fold_seeds": {f.participant_id: f.train_seed for f in folds},
        "std_convention": "population",
        "threshold_rule": "weighted_f1 > 0.5 (strict)",
    }
    return _aggregate(folds, provenance)


def score_model(model: TrainedModel, X: np.ndarray, y_true) -> tuple[dict, np.ndarray]:
    """Score a trained model on labeled rows: the fixed-model report
    document and the predicted label ids."""
    y_pred = model.predict_labels(X)
    score = _score(y_true, y_pred)
    normalized, zero_rows = normalize_rows(score.confusion)
    report = {
        "mode": "fixed-model",
        **to_document(score._asdict()),
        "normalized_confusion": normalized.tolist(),
        "zero_support_rows": zero_rows,
        "model_kind": model.kind,
        "model_metadata": model.metadata,
    }
    return report, y_pred


@dataclass
class AblationCell:
    feature_config: FeatureConfig
    kind: str
    report: EvaluationReport


def _ablation_cell(
    segments: list[Segment],
    table: CategoryTable,
    seed: int,
    feature_config: FeatureConfig,
    kind: str,
) -> AblationCell:
    cfg = TrainConfig(kind=kind, seed=seed)
    report = run_loso(segments, table, feature_config, cfg)
    return AblationCell(feature_config=feature_config, kind=cfg.resolved()[0].NAME, report=report)


# Set once per pool worker by _init_worker; never assigned in the parent.
_worker_inputs: tuple = ()


def _init_worker(*inputs) -> None:
    global _worker_inputs
    _worker_inputs = inputs


def _worker_cell(task: tuple[FeatureConfig, str]) -> AblationCell:
    return _ablation_cell(*_worker_inputs, *task)


def run_ablation(
    segments: list[Segment],
    table: CategoryTable,
    kinds: list[str],
    seed: int,
) -> list[AblationCell]:
    """All six feature configurations crossed with the requested models.

    Each cell featurizes the corpus for its own config, through the one
    pass that marks active objects; the no-active cells ignore the active
    rows, so their values do not depend on the marking.

    Cells are independent (fold seeds derive from (seed, participant)), so
    they run in a pool of one worker process per usable CPU, at most one per
    cell; with one usable CPU they run in this process, one after another.
    Workers are forked, so they inherit the corpus and each task carries
    only (feature config, kind). Cells come back in grid order, so the
    result is the same for any CPU count. If a cell raises, the cells not
    yet started are cancelled and the first failure in grid order is
    re-raised, as the serial loop would raise it.
    """
    tasks = [(fc, kind) for fc in all_feature_configs(table) for kind in kinds]
    inputs = (segments, table, seed)
    workers = min(len(os.sched_getaffinity(0)), len(tasks))
    if workers <= 1:
        return [_ablation_cell(*inputs, *task) for task in tasks]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # With fork, the executor starts every worker at the first submit, before
    # its own management thread exists, so no Python thread is forked.
    with ProcessPoolExecutor(
        max_workers=workers,
        mp_context=multiprocessing.get_context("fork"),
        initializer=_init_worker,
        initargs=inputs,
    ) as pool:
        try:
            return list(pool.map(_worker_cell, tasks))
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise


GRID_HEADER = (
    "representation",
    "active_objects",
    "model",
    "mean_weighted_f1",
    "std_weighted_f1",
    "percent_participants_above_0.5",
    "n_folds",
)


def grid_to_csv(cells: list[AblationCell]) -> str:
    """Flat ablation table, one row per config x classifier, full precision."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(GRID_HEADER)
    for cell in cells:
        writer.writerow(
            [
                cell.feature_config.representation,
                "yes" if cell.feature_config.use_active else "no",
                cell.kind,
                repr(cell.report.mean_weighted_f1),
                repr(cell.report.std_weighted_f1),
                repr(cell.report.percent_above_half),
                len(cell.report.folds),
            ]
        )
    return out.getvalue()


def ablation_to_document(cells: list[AblationCell]) -> list[dict]:
    """JSON-ready form of the grid: each cell's config, model and full report."""
    return [
        {
            "representation": cell.feature_config.representation,
            "use_active": cell.feature_config.use_active,
            "model": cell.kind,
            "report": to_document(cell.report),
        }
        for cell in cells
    ]
