"""Leave-one-subject-out evaluation, metrics, and the ablation grid.

One scoring path serves both LOSO folds (`run_loso_matrix`) and a saved model
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

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.typing import NDArray

from .documents import InputError, csv_lines, to_document
from .features import FeatureConfig, all_feature_configs, feature_matrix, feature_view, raw_matrix
from .models import TrainConfig, TrainedModel, train_matrix
from .parallel import fork_map
from .records import Segment, SegmentKey
from .rng import derive_seed
from .taxonomy import ADL_NAMES, NUM_ADL_CLASSES, CategoryTable


class EvaluationError(InputError):
    pass


def _loso_participants(segments: list[Segment]) -> list[str]:
    if any(s.label is None for s in segments):
        raise EvaluationError("all segments must be labeled for evaluation")
    participants = sorted({s.key.participant_id for s in segments})
    if len(participants) < 2:
        raise EvaluationError("leave-one-subject-out needs at least 2 participants")
    return participants


def loso_split(segments: list[Segment]) -> list[tuple[list[Segment], list[Segment]]]:
    """One (train, test) fold per participant, by id; kept for tests/test_acceptance.py."""
    ordered = sorted(segments, key=lambda s: s.key)
    folds = []
    for participant in _loso_participants(segments):
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
    """Support-weighted mean of per-class F1; kept for tests/test_acceptance.py."""
    return _score(y_true, y_pred, n_classes).weighted_f1


@dataclass
class FoldResult:
    participant_id: str
    weighted_f1: float
    per_class_f1: np.ndarray
    support: NDArray[np.int64]
    confusion: NDArray[np.int64]
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
    pooled_confusion: NDArray[np.int64]
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


def label_ids(segments: list[Segment], keys: list[SegmentKey]) -> np.ndarray:
    """The label id of each key's segment, in the order of `keys` (those of
    `feature_matrix`); an unlabeled segment gives None."""
    labels = {s.key: s.label for s in segments}
    return np.array([labels[key] for key in keys])


def run_loso_matrix(
    X: np.ndarray, y: np.ndarray, owners, feature_config: FeatureConfig, train_config: TrainConfig
) -> EvaluationReport:
    """One fold per participant id in `owners` (one per row), in id order."""
    folds = []
    for participant in np.unique(owners).tolist():
        # seeded by (seed, participant id), so fold order is irrelevant
        fold_seed = derive_seed(train_config.seed, "fold", participant)
        fold_cfg = train_config._replace(seed=fold_seed)
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
        "feature_config": to_document(feature_config),
        "train_config": {"kind": kind.NAME, "seed": int(train_config.seed), "hyperparameters": hp},
        "fold_seeds": {f.participant_id: f.train_seed for f in folds},
        "std_convention": "population",
        "threshold_rule": "weighted_f1 > 0.5 (strict)",
    }
    return _aggregate(folds, provenance)


def run_loso(
    segments: list[Segment],
    table: CategoryTable,
    feature_config: FeatureConfig,
    train_config: TrainConfig,
) -> EvaluationReport:
    """Train per fold on the remaining participants, score the held-out one:
    the folds of `run_loso_matrix` on the corpus's `feature_matrix`, each
    row's participant read from its key. Scaling is per row, so featurizing
    once, outside the fold loop, leaks nothing across folds."""
    _loso_participants(segments)
    X, keys = feature_matrix(segments, table, feature_config)
    owners = np.array([key.participant_id for key in keys])
    return run_loso_matrix(X, label_ids(segments, keys), owners, feature_config, train_config)


@dataclass(kw_only=True)
class ScoredReport:
    """A saved model scored on labeled rows; its fields, in order, are its report.json keys."""

    mode: str = "fixed-model"
    weighted_f1: float
    per_class_f1: np.ndarray
    support: NDArray[np.int64]
    confusion: NDArray[np.int64]
    normalized_confusion: np.ndarray
    zero_support_rows: list[int]
    model_kind: str
    model_metadata: dict


def score_model(model: TrainedModel, X: np.ndarray, y_true) -> tuple[ScoredReport, np.ndarray]:
    """Score a trained model on labeled rows: its report and the predicted label ids."""
    y_pred = model.predict_labels(X)
    score = _score(y_true, y_pred)
    normalized, zero_rows = normalize_rows(score.confusion)
    report = ScoredReport(
        **score._asdict(),
        normalized_confusion=normalized,
        zero_support_rows=zero_rows,
        model_kind=model.kind,
        model_metadata=model.metadata,
    )
    return report, y_pred


@dataclass
class AblationCell:
    """One grid cell; its fields, in order, are its entry in ablation.json."""

    representation: str
    use_active: bool
    model: str
    report: EvaluationReport


def run_ablation(
    segments: list[Segment],
    table: CategoryTable,
    kinds: list[str],
    seed: int,
) -> list[AblationCell]:
    """All six feature configurations crossed with the requested models.

    The corpus is featurized once (`raw_matrix`); each cell is its config's
    `feature_view` of that array and the folds of `run_loso_matrix`.

    Cells are independent (fold seeds derive from (seed, participant)), so
    they run through `parallel.fork_map`: in forked workers, one per usable
    CPU, that inherit the corpus and its raw array, or here, one after
    another, with one usable CPU; an unfit corpus is refused before any fork.
    Cells come back in grid order, so the result is the same for any CPU
    count. If a cell raises, the first failure in grid order is re-raised
    once the cells before it have run, as the serial loop would raise it;
    cells already sent to workers run to their end before it leaves this call.
    """
    _loso_participants(segments)
    raw, keys = raw_matrix(segments, table)
    y, owners = label_ids(segments, keys), np.array([key.participant_id for key in keys])

    def cell(task: tuple[FeatureConfig, TrainConfig]) -> AblationCell:
        fc, cfg = task
        report = run_loso_matrix(feature_view(raw, fc), y, owners, fc, cfg)
        return AblationCell(fc.representation, fc.use_active, cfg.resolved()[0].NAME, report)

    tasks = [(fc, TrainConfig(kind, seed)) for fc in all_feature_configs(table) for kind in kinds]
    return list(fork_map(cell, tasks))


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
    rows = (
        [
            cell.representation,
            "yes" if cell.use_active else "no",
            cell.model,
            repr(cell.report.mean_weighted_f1),
            repr(cell.report.std_weighted_f1),
            repr(cell.report.percent_above_half),
            len(cell.report.folds),
        ]
        for cell in cells
    )
    return "".join(csv_lines([GRID_HEADER, *rows]))
