import hashlib
import json
import os

import numpy as np
import pytest

from adlrec import features
from adlrec.documents import to_document
from adlrec.evaluation import (
    EvaluationError,
    FoldResult,
    _aggregate,
    _score,
    confusion_matrix,
    grid_to_csv,
    loso_split,
    normalize_rows,
    run_ablation,
    run_loso,
    weighted_f1,
)
from adlrec.features import FeatureConfig
from adlrec.models import TrainConfig, boosting
from adlrec.rng import make_generator
from adlrec.synthgen import clean_genspec, distractor_genspec, generate
from adlrec.taxonomy import NUM_ADL_CLASSES

from helpers import config_label, frame, segment


def brute_force_weighted_f1(y_true, y_pred, n_classes):
    """Independent oracle: per-class P/R/F1 recomputed from scratch."""
    total = len(y_true)
    acc = 0.0
    for c in range(n_classes):
        tp = sum(1 for t, p in zip(y_true, y_pred) if t == c and p == c)
        fp = sum(1 for t, p in zip(y_true, y_pred) if t != c and p == c)
        fn = sum(1 for t, p in zip(y_true, y_pred) if t == c and p != c)
        support = tp + fn
        if support == 0:
            continue
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn)
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        acc += support / total * f1
    return acc


def make_corpus(participant_classes):
    """participant_classes: {pid: list of ADL ids, one segment each}."""
    segments = []
    for pid, class_ids in participant_classes.items():
        for i, c in enumerate(class_ids):
            segments.append(
                segment([frame(0)], participant=pid, index=i, label=c)
            )
    return segments


def test_loso_partition_counts():
    segments = make_corpus({"a": [0] * 5, "b": [1] * 7, "c": [2] * 9})
    folds = loso_split(segments)
    assert [len(test) for _, test in folds] == [5, 7, 9]
    for train, test in folds:
        held_out = {s.key.participant_id for s in test}
        assert len(held_out) == 1
        assert held_out.isdisjoint({s.key.participant_id for s in train})
        assert len(train) + len(test) == len(segments)
        assert sorted(train + test, key=lambda s: s.key) == sorted(
            segments, key=lambda s: s.key
        )


def test_loso_sixteen_participants():
    segments = make_corpus({f"p{i:02d}": [0, 1] for i in range(16)})
    assert len(loso_split(segments)) == 16


def test_loso_requires_two_participants_and_labels():
    with pytest.raises(EvaluationError, match="2 participants"):
        loso_split(make_corpus({"solo": [0, 1]}))
    unlabeled = [segment([frame(0)], participant="a", label=None)]
    labeled = make_corpus({"b": [0]})
    with pytest.raises(EvaluationError, match="labeled"):
        loso_split(unlabeled + labeled)


def test_weighted_f1_perfect_is_exactly_one():
    assert weighted_f1([0, 1, 2, 3], [0, 1, 2, 3], 7) == 1.0


def test_weighted_f1_hand_example():
    # true [A,A,B], pred [A,B,B]: F1_A = F1_B = 2/3
    assert abs(weighted_f1([0, 0, 1], [0, 1, 1], 2) - 2 / 3) < 1e-15


def test_weighted_f1_absent_class_predictions():
    assert weighted_f1([0, 0, 0], [1, 1, 1], 2) == 0.0


def test_weighted_f1_validation():
    with pytest.raises(EvaluationError):
        weighted_f1([0, 1], [0], 2)
    with pytest.raises(EvaluationError):
        weighted_f1([], [], 2)
    with pytest.raises(EvaluationError):
        weighted_f1([0, 5], [0, 1], 2)


def test_weighted_f1_matches_brute_force():
    rng = make_generator(0, "f1")
    for _ in range(300):
        k = int(rng.integers(2, 8))
        n = int(rng.integers(1, 51))
        y_true = rng.integers(0, k, size=n).tolist()
        y_pred = rng.integers(0, k, size=n).tolist()
        assert abs(
            weighted_f1(y_true, y_pred, k) - brute_force_weighted_f1(y_true, y_pred, k)
        ) < 1e-12


def test_confusion_matrix_identity_and_normalization():
    matrix = confusion_matrix([0, 1, 2], [0, 1, 2], 3)
    assert np.array_equal(matrix, np.eye(3, dtype=int))
    normalized, zero_rows = normalize_rows(confusion_matrix([0, 0, 1], [0, 1, 1], 3))
    assert zero_rows == [2]
    assert np.allclose(normalized[0], [0.5, 0.5, 0])
    assert np.array_equal(normalized[2], np.zeros(3))
    assert np.allclose(normalized[:2].sum(axis=1), 1.0)


def test_per_class_f1_zero_denominators():
    score = _score([0, 0], [1, 1], 2)
    assert score.per_class_f1[0] == 0.0 and score.per_class_f1[1] == 0.0
    assert score.support.tolist() == [2, 0]


def fake_fold(pid, score):
    return FoldResult(
        participant_id=pid,
        weighted_f1=score,
        per_class_f1=np.zeros(NUM_ADL_CLASSES),
        confusion=np.eye(NUM_ADL_CLASSES, dtype=np.int64),
        support=np.ones(NUM_ADL_CLASSES, dtype=np.int64),
        train_seed=0,
        iterations=0,
        stopping_reason="converged",
    )


def test_threshold_rate_is_strict():
    report = _aggregate(
        [fake_fold("a", 0.6), fake_fold("b", 0.4), fake_fold("c", 0.51)], {}
    )
    assert abs(report.percent_above_half - 100 * 2 / 3) < 1e-9
    # exactly 0.5 does not count
    report = _aggregate([fake_fold("a", 0.5), fake_fold("b", 0.6)], {})
    assert report.percent_above_half == 50.0


def test_aggregate_population_std():
    report = _aggregate([fake_fold("a", 0.4), fake_fold("b", 0.8)], {})
    assert abs(report.mean_weighted_f1 - 0.6) < 1e-12
    assert abs(report.std_weighted_f1 - 0.2) < 1e-12  # N-denominator


def test_threshold_rate_invariant_under_monotone_rescaling():
    rng = make_generator(1, "rescale")
    scores = rng.uniform(0, 1, size=9).tolist()
    rate = _aggregate([fake_fold(str(i), s) for i, s in enumerate(scores)], {}).percent_above_half
    # strictly monotone map fixing 0.5 preserves the crossing set
    rescaled = [0.5 + (s - 0.5) ** 3 for s in scores]
    rate2 = _aggregate(
        [fake_fold(str(i), s) for i, s in enumerate(rescaled)], {}
    ).percent_above_half
    assert rate == rate2


@pytest.fixture(scope="module")
def small_corpus(table):
    spec = clean_genspec(
        participants=4, segments_per_participant=14, frames_per_segment=6, seed=17
    )
    return generate(spec, table).segments


def test_run_loso_report_contents(table, small_corpus):
    config = FeatureConfig("binary", True, table.content_hash)
    report = run_loso(small_corpus, table, config, TrainConfig(kind="logreg", seed=5))
    assert len(report.folds) == 4
    assert report.pooled_confusion.sum() == len(small_corpus)
    sums = report.normalized_confusion.sum(axis=1)
    for i, s in enumerate(sums):
        if i in report.zero_support_rows:
            assert s == 0.0
        else:
            assert abs(s - 1.0) < 1e-9
    assert report.provenance["std_convention"] == "population"
    assert report.provenance["train_config"]["kind"] == "logreg"
    assert set(report.provenance["fold_seeds"]) == {
        f.participant_id for f in report.folds
    }
    doc = to_document(report)
    assert doc["mean_weighted_f1"] == report.mean_weighted_f1
    assert len(doc["folds"]) == 4


def test_run_loso_invariant_to_input_order(table, small_corpus):
    config = FeatureConfig("counts", False, table.content_hash)
    cfg = TrainConfig(kind="logreg", seed=3)
    report_a = run_loso(small_corpus, table, config, cfg)
    shuffled = list(small_corpus)
    make_generator(0, "shuffle").shuffle(shuffled)
    report_b = run_loso(shuffled, table, config, cfg)
    assert report_a.mean_weighted_f1 == report_b.mean_weighted_f1
    assert [f.weighted_f1 for f in report_a.folds] == [f.weighted_f1 for f in report_b.folds]
    assert np.array_equal(report_a.pooled_confusion, report_b.pooled_confusion)


def test_single_class_fold_error_carries_fold_id(table):
    segments = make_corpus({"pA": [0, 1, 1], "pB": [0, 0]})
    config = FeatureConfig("binary", False, table.content_hash)
    with pytest.raises(EvaluationError, match="fold 'pA'"):
        run_loso(segments, table, config, TrainConfig(kind="logreg", seed=0))


def test_ablation_grid_shape_and_csv(table, small_corpus):
    cells = run_ablation(small_corpus, table, ["logreg"], seed=2)
    assert len(cells) == 6
    descriptions = [config_label(c) for c in cells]
    assert descriptions == [
        "counts+no-active",
        "counts+active",
        "binary+no-active",
        "binary+active",
        "both+no-active",
        "both+active",
    ]
    text = grid_to_csv(cells)
    lines = text.strip().split("\n")
    assert len(lines) == 7
    assert lines[0].startswith("representation,active_objects,model,mean_weighted_f1")
    assert all(line.count(",") == 6 for line in lines)


def test_ablation_grid_count_for_four_models(table):
    # 6 configs x 4 classifiers = 24 cells (grid arithmetic only; cheap corpus)
    spec = clean_genspec(participants=2, segments_per_participant=7, frames_per_segment=3, seed=1)
    segments = generate(spec, table).segments
    kinds = ["logreg", "rf", "gb", "mlp"]
    cells = run_ablation(segments, table, kinds, seed=2)
    assert len(cells) == 24


def _ablation_bytes(table, cpus: set[int]) -> tuple[str, str]:
    spec = distractor_genspec(participants=2, segments_per_participant=5, frames_per_segment=3, seed=5)
    segments = generate(spec, table).segments
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        cells = run_ablation(segments, table, ["logreg", "rf", "gb", "mlp"], seed=9)
    return grid_to_csv(cells), json.dumps(to_document(cells), indent=2)


@pytest.fixture(scope="module")
def serial_ablation(table):
    return _ablation_bytes(table, {0})


# {0} runs the grid in this process; {0, 1} forks two workers even on a
# one-CPU machine; {0, 1, 2, 3} forks four, fewer than the 24 cells.
@pytest.mark.parametrize("cpus", [{0}, {0, 1}, {0, 1, 2, 3}])
def test_ablation_pool_gives_the_serial_bytes(table, serial_ablation, cpus):
    assert _ablation_bytes(table, cpus) == serial_ablation
    assert len(serial_ablation[0].strip().split("\n")) == 1 + 24
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# sha256 of the serial grid's grid.csv and ablation.json text; any change in
# featurization, fold selection, training or scoring of a cell shows up here.
ABLATION_PINS = (
    "f5b69f73cf86f7ce0f537f876f1b3f0923bec914641f4e3ab7005086e33bcb65",
    "b55a32169c02088e3489698a81e07b185bdcf2aab8c953810d55b78494e1e0fb",
)


def _digests(texts) -> tuple[str, ...]:
    return tuple(hashlib.sha256(text.encode()).hexdigest() for text in texts)


def test_ablation_bytes_are_pinned(serial_ablation):
    assert _digests(serial_ablation) == ABLATION_PINS


def test_ablation_bytes_without_the_gb_stop_are_pinned(table, monkeypatch):
    # with boosting.TOL at 0.0 every gb fit builds all its stages: grid.csv
    # is byte for byte the grid from before the deviance stop, and
    # ablation.json its folds with the current hyperparameters objects
    monkeypatch.setattr(boosting, "TOL", 0.0)
    assert _digests(_ablation_bytes(table, {0})) == (
        "f5b69f73cf86f7ce0f537f876f1b3f0923bec914641f4e3ab7005086e33bcb65",
        "355bb57caa83154840c50c91e9c22bd1e961c9ca6e8c737569f8b864b2039741",
    )


def test_ablation_marks_each_frame_once(table, monkeypatch):
    spec = distractor_genspec(participants=2, segments_per_participant=5, frames_per_segment=3, seed=5)
    segments = generate(spec, table).segments
    marked = []
    best_ious = features.best_ious

    def counting(frames):
        marked.extend(map(id, frames))
        return best_ious(frames)

    # raw_matrix looks the kernel up as a global of features
    monkeypatch.setattr(features, "best_ious", counting)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    run_ablation(segments, table, ["logreg", "gb"], seed=9)
    assert sorted(marked) == sorted(id(f) for s in segments for f in s.frames)


@pytest.mark.parametrize("segments, message", [
    (make_corpus({"solo": [0, 1]}), "leave-one-subject-out needs at least 2 participants"),
    ([segment([frame(0)], participant="a", label=None)] + make_corpus({"b": [0]}),
     "all segments must be labeled for evaluation"),
])
def test_ablation_refuses_an_unfit_corpus_before_forking(table, monkeypatch, segments, message):
    def fork():
        raise AssertionError("a worker was forked")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(os, "fork", fork)
    with pytest.raises(EvaluationError) as raised:
        run_ablation(segments, table, ["logreg"], seed=0)
    assert str(raised.value) == message
