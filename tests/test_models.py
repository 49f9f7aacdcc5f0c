import inspect
import json
import math

import numpy as np
import pytest

from adlrec.evaluation import run_loso_matrix
from adlrec.features import FeatureConfig, feature_matrix
from adlrec.models import (
    KINDS,
    TrainConfig,
    TrainedModel,
    TrainingError,
    balanced_weights,
    boosting,
    forest,
    logreg,
    mlp,
    resolve_kind,
    train_matrix,
)
from adlrec.models.logreg import LogisticModel, _line_search, loss_and_grad
from adlrec.models.store import ModelFormatError, load_model, save_model
from adlrec.rng import make_generator
from adlrec.synthgen import distractor_genspec, generate
from adlrec.taxonomy import PAPER_CLASS_COUNTS

from helpers import PRIOR_KIND, redigest

FC = FeatureConfig("binary", True, "f" * 64)

FAST_DEFAULTS = (
    (logreg, "max_iter", 200),
    (forest, "n_trees", 20),
    (boosting, "n_stages", 20),
    (mlp, "max_epochs", 40),
)


@pytest.fixture
def fast_fits(monkeypatch):
    """Shorter fits of every kind, for tests of properties that hold at any length."""
    for module, name, value in FAST_DEFAULTS:
        monkeypatch.setitem(module.DEFAULTS, name, value)


def blobs(n_classes=4, per_class=25, d=10, seed=0, spread=0.3):
    rng = make_generator(seed, "blobs")
    centers = rng.normal(size=(n_classes, d)) * 4
    X = np.vstack([c + spread * rng.normal(size=(per_class, d)) for c in centers])
    y = np.repeat(np.arange(n_classes), per_class)
    return X, y, centers


def test_balanced_weights_uniform():
    assert np.allclose(balanced_weights((50, 50)).values, [1.0, 1.0])


def test_balanced_weights_by_hand():
    w = balanced_weights((75, 25)).values
    assert abs(w[0] - 2 / 3) < 1e-12
    assert w[1] == 2.0


def test_balanced_weights_paper_counts():
    cw = balanced_weights(PAPER_CLASS_COUNTS)
    assert abs(cw.values[0] - 1.2569) < 1e-4  # Self-Feeding: 2261 / (7 * 257)
    total = math.fsum(n * w for n, w in zip(PAPER_CLASS_COUNTS, cw.values))
    assert total == sum(PAPER_CLASS_COUNTS)


def test_balanced_weights_zero_count_rejected():
    with pytest.raises(TrainingError, match=r"zero-count class in \(5, 0, 3\)"):
        balanced_weights((5, 0, 3))
    with pytest.raises(TrainingError, match="no classes"):
        balanced_weights(())


def test_logreg_separates_two_clusters():
    X, y, _ = blobs(n_classes=2, per_class=20, seed=3)
    model = train_matrix(X, y, TrainConfig(kind="logreg", seed=0), FC)
    assert (model.predict_labels(X) == y).mean() == 1.0
    assert model.class_names == ("Self-Feeding", "Functional Mobility")
    with pytest.raises(TrainingError, match="dimension"):
        model.predict_proba_matrix(np.zeros((2, 3)))


def test_training_is_byte_reproducible(fast_fits):
    X, y, _ = blobs(seed=7)
    for kind in KINDS:
        cfg = TrainConfig(kind=kind.NAME, seed=7)
        a = save_model(train_matrix(X, y, cfg, FC))
        b = save_model(train_matrix(X, y, cfg, FC))
        assert a == b, kind


def test_logreg_gradient_check():
    rng = make_generator(1, "gradcheck")
    n, d, k = 10, 5, 3
    X = rng.normal(size=(n, d))
    y = rng.integers(0, k, size=n)
    W = rng.normal(size=(d, k))
    b = rng.normal(size=k)
    sw = rng.uniform(0.5, 2.0, size=k)[y]
    _, gw, gb = loss_and_grad(W, b, X, y, sw, l2=1.0)
    h = 1e-5
    for i in range(d):
        for j in range(k):
            Wp, Wm = W.copy(), W.copy()
            Wp[i, j] += h
            Wm[i, j] -= h
            lp = loss_and_grad(Wp, b, X, y, sw, 1.0)[0]
            lm = loss_and_grad(Wm, b, X, y, sw, 1.0)[0]
            num = (lp - lm) / (2 * h)
            rel = abs(gw[i, j] - num) / max(abs(gw[i, j]), abs(num), 1e-4)
            assert rel < 1e-4


def test_predict_proba_is_simplex_for_all_kinds(fast_fits):
    X, y, _ = blobs(n_classes=3, per_class=15, seed=5)
    probe = make_generator(2, "probe").normal(size=(40, X.shape[1]))
    for kind in KINDS:
        cfg = TrainConfig(kind=kind.NAME, seed=1)
        model = train_matrix(X, y, cfg, FC)
        proba = model.predict_proba_matrix(probe)
        assert proba.min() >= 0.0
        assert np.abs(proba.sum(axis=1) - 1.0).max() < 1e-9


def test_zero_weight_logreg_is_uniform():
    model = TrainedModel(
        kind="logreg",
        classes=(0, 1, 2, 3),
        class_names=("a", "b", "c", "d"),
        feature_dim=6,
        feature_config=FC,
        hyperparameters=dict(logreg.DEFAULTS),
        parameters=LogisticModel(weights=np.zeros((6, 4)), bias=np.zeros(4)),
        metadata={},
    )
    proba = model.predict_proba_matrix(np.ones((3, 6)))
    assert np.allclose(proba, 0.25)


def test_cluster_center_argmax():
    X, y, centers = blobs(n_classes=4, per_class=20, seed=9)
    model = train_matrix(X, y, TrainConfig(kind="logreg", seed=0), FC)
    assert np.array_equal(model.predict_labels(centers), np.arange(4))


def test_save_load_roundtrip_predictions(fast_fits):
    X, y, _ = blobs(seed=11)
    probe = make_generator(3, "probe").normal(size=(100, X.shape[1]))
    for kind in KINDS:
        cfg = TrainConfig(kind=kind.NAME, seed=4)
        model = train_matrix(X, y, cfg, FC)
        text = save_model(model)
        restored = load_model(text)
        assert save_model(restored) == text, kind
        assert np.allclose(
            model.predict_proba_matrix(probe), restored.predict_proba_matrix(probe)
        )
        assert np.array_equal(model.predict_labels(probe), restored.predict_labels(probe))
        assert restored.metadata == model.metadata


def test_tampered_digest_rejected():
    X, y, _ = blobs(n_classes=2, per_class=10, seed=1)
    text = save_model(train_matrix(X, y, TrainConfig(kind="logreg", seed=0), FC))
    doc = json.loads(text)
    doc["digest"] = "0" * 64
    with pytest.raises(ModelFormatError, match="digest"):
        load_model(json.dumps(doc))
    doc2 = json.loads(text)
    doc2["classes"] = [1, 0]  # content change without digest update
    with pytest.raises(ModelFormatError, match="digest"):
        load_model(json.dumps(doc2))


def test_consistent_but_malformed_documents_rejected(fast_fits):
    X, y, _ = blobs(n_classes=3, per_class=10, seed=2)
    for kind in KINDS:
        cfg = TrainConfig(kind=kind.NAME, seed=0)
        good = json.loads(save_model(train_matrix(X, y, cfg, FC)))
        doc = json.loads(json.dumps(good))
        del doc["feature_dim"]
        with pytest.raises(ModelFormatError, match="missing field 'feature_dim'"):
            load_model(redigest(doc))
        for field, bad in (("classes", good["classes"] + [7]), ("feature_dim", 2),
                           ("feature_config", "binary")):
            doc = json.loads(json.dumps(good))
            doc[field] = bad
            with pytest.raises(ModelFormatError, match="malformed model document"):
                load_model(redigest(doc))


def test_unsupported_schema_version_rejected():
    X, y, _ = blobs(n_classes=2, per_class=10, seed=1)
    doc = json.loads(save_model(train_matrix(X, y, TrainConfig(kind="logreg", seed=0), FC)))
    doc["schema_version"] = 0
    with pytest.raises(ModelFormatError, match="version"):
        load_model(json.dumps(doc))
    with pytest.raises(ModelFormatError, match="corrupted"):
        load_model("{broken")


def test_label_permutation_equivariance(fast_fits):
    X, y, _ = blobs(n_classes=3, per_class=20, seed=6)
    perm = np.array([2, 0, 1])  # new label of original class c is perm[c]
    probe = make_generator(4, "probe").normal(size=(25, X.shape[1]))
    for kind in KINDS:
        cfg = TrainConfig(kind=kind.NAME, seed=3)
        base = train_matrix(X, y, cfg, FC)
        permuted = train_matrix(X, perm[y], cfg, FC)
        p_base = base.predict_proba_matrix(probe)
        p_perm = permuted.predict_proba_matrix(probe)
        # column perm[c] of the permuted model tracks column c of the base
        assert np.allclose(p_perm[:, perm], p_base, atol=1e-9), kind
        # argmax comparison only where it is unique: exact probability ties
        # break to the lowest class index, which permutation relabels
        top2 = np.sort(p_base, axis=1)[:, -2:]
        untied = (top2[:, 1] - top2[:, 0]) > 1e-9
        assert untied.any()
        assert np.array_equal(
            permuted.predict_labels(probe)[untied],
            perm[base.predict_labels(probe)[untied]],
        ), kind


def test_training_input_validation():
    X, y, _ = blobs(n_classes=2, per_class=5, seed=0)
    with pytest.raises(TrainingError, match="single class"):
        train_matrix(X, np.zeros(len(y), dtype=int), TrainConfig(kind="logreg"), FC)
    with pytest.raises(TrainingError, match="labels"):
        train_matrix(X, y[:-1], TrainConfig(kind="logreg"), FC)
    bad = X.copy()
    bad[0, 0] = np.nan
    with pytest.raises(TrainingError, match="non-finite"):
        train_matrix(bad, y, TrainConfig(kind="logreg"), FC)
    with pytest.raises(TrainingError, match="empty"):
        train_matrix(np.zeros((0, 3)), np.zeros(0, dtype=int), TrainConfig(kind="logreg"), FC)
    with pytest.raises(TrainingError, match="unknown model kind"):
        resolve_kind("svm")


@pytest.mark.parametrize("ids, outside", [([0, 9], 9), ([-1, 0], -1), ([0, 7], 7)])
def test_training_refuses_labels_that_are_not_adl_ids(ids, outside):
    # load_model reads classes only as ADL label ids, so a model of other
    # labels would save and then not load
    X, y, _ = blobs(n_classes=2, per_class=5, seed=0)
    with pytest.raises(TrainingError) as raised:
        train_matrix(X, np.array(ids)[y], TrainConfig(kind="logreg"), FC)
    assert str(raised.value) == f"label {outside} is not an ADL label id (0 to 6)"
    # the first and the last ADL ids train a model that loads
    model = load_model(save_model(train_matrix(X, np.array([0, 6])[y], TrainConfig(kind="logreg"), FC)))
    assert model.class_names == ("Self-Feeding", "Leisure & Other Activities")


def test_stopping_reason_recorded():
    X, y, _ = blobs(n_classes=2, per_class=15, seed=8)
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(logreg.DEFAULTS, "max_iter", 3)
        model = train_matrix(X, y, TrainConfig(kind="logreg", seed=0), FC)
    assert model.metadata["stopping_reason"] == "max-iterations"
    assert model.metadata["iterations"] == 3
    assert model.metadata["seed"] == 0
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(logreg.DEFAULTS, "l2", 100.0)
        wide = train_matrix(X, y, TrainConfig(kind="logreg", seed=0), FC)
    assert wide.metadata["stopping_reason"] == "converged"


@pytest.mark.parametrize("kind", [*KINDS, PRIOR_KIND], ids=lambda kind: kind.NAME)
def test_every_kind_fits_from_five_arguments(kind):
    # a kind's hyperparameters reach its fit only through its DEFAULTS
    params = tuple(inspect.signature(kind.fit).parameters)
    assert params == ("X", "y", "n_classes", "class_weight", "seed")


def test_a_patched_default_reaches_the_fit_and_the_recorded_hyperparameters():
    X, y, _ = blobs(n_classes=2, per_class=15, seed=8)
    owners = np.array(["p1", "p2", "p3"] * 10)
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(logreg.DEFAULTS, "max_iter", 3)
        model = train_matrix(X, y, TrainConfig(kind="logreg", seed=0), FC)
        report = run_loso_matrix(X, y, owners, FC, TrainConfig(kind="logreg", seed=0))
    assert logreg.DEFAULTS["max_iter"] == 1000
    # each document keeps the value its fits read, not the module's current one
    assert model.metadata["iterations"] == 3
    assert model.hyperparameters == {**logreg.DEFAULTS, "max_iter": 3}
    assert [fold.iterations for fold in report.folds] == [3, 3, 3]
    assert report.provenance["train_config"]["hyperparameters"] == model.hyperparameters


def test_failed_line_search_is_not_reported_converged(monkeypatch):
    X, y, _ = blobs(n_classes=2, per_class=15, seed=8)
    true_loss_and_grad = logreg.loss_and_grad

    def uphill(*args):
        loss, grad_w, grad_b = true_loss_and_grad(*args)
        return loss, -grad_w, -grad_b  # every "descent" direction climbs

    monkeypatch.setattr(logreg, "loss_and_grad", uphill)
    model = train_matrix(X, y, TrainConfig(kind="logreg", seed=0), FC)
    assert model.metadata["stopping_reason"] == "line-search-failed"
    assert model.metadata["iterations"] == 0


@pytest.fixture(scope="module")
def distractor_fold(table):
    """Training rows of the first LOSO fold of criterion 5's seed-0 corpus,
    binary features without the active block: plain gradient descent stopped
    there at max_iter=1000."""
    spec = distractor_genspec(
        participants=8, segments_per_participant=21, frames_per_segment=13, seed=0
    )
    segments = generate(spec, table).segments
    X, keys = feature_matrix(segments, table, FeatureConfig("binary", False, table.content_hash))
    label_of = {s.key: s.label for s in segments}
    train = np.array([k.participant_id != keys[0].participant_id for k in keys])
    _, y = np.unique([label_of[k] for k in keys], return_inverse=True)
    class_weight = balanced_weights(np.bincount(y[train])).values
    return X[train], y[train], class_weight


def test_logreg_converges_on_distractor_fold(distractor_fold):
    X, y, class_weight = distractor_fold
    hp = dict(logreg.DEFAULTS)
    model, meta = logreg.fit(X, y, len(class_weight), class_weight, 0)
    assert meta["stopping_reason"] == "converged"
    assert meta["iterations"] <= 100
    loss, grad_w, grad_b = loss_and_grad(
        model.weights, model.bias, X, y, class_weight[y], hp["l2"]
    )
    assert max(np.abs(grad_w).max(), np.abs(grad_b).max()) < hp["grad_tol"]
    assert loss == meta["final_loss"]


def test_logreg_fit_is_byte_identical(distractor_fold):
    X, y, class_weight = distractor_fold
    first, _ = logreg.fit(X, y, len(class_weight), class_weight, 0)
    second, _ = logreg.fit(X, y, len(class_weight), class_weight, 0)
    assert first.weights.tobytes() == second.weights.tobytes()
    assert first.bias.tobytes() == second.bias.tobytes()


def test_line_search_refuses_a_direction_that_does_not_descend():
    def objective(theta):
        raise AssertionError("no step is tried along a direction that does not descend")

    theta, grad = np.zeros(2), np.array([1.0, -2.0])
    for direction in ([1.0, 0.0], [2.0, 1.0], [math.nan, 0.0]):  # uphill, flat, no slope
        assert _line_search(objective, theta, 1.0, grad, np.array(direction)) is None
