import numpy as np

from adlrec.evaluation import run_loso
from adlrec.features import FeatureConfig
from adlrec.models import TrainConfig, mlp, train_matrix
from adlrec.models.mlp import MlpModel, _validation_split, loss_and_grads
from adlrec.rng import make_generator
from adlrec.synthgen import clean_genspec, generate

FC = FeatureConfig("binary", False, "m" * 64)


def blobs(n_classes=3, per_class=30, d=8, seed=0):
    rng = make_generator(seed, "mlp-blobs")
    centers = rng.normal(size=(n_classes, d)) * 4
    X = np.vstack([c + 0.3 * rng.normal(size=(per_class, d)) for c in centers])
    y = np.repeat(np.arange(n_classes), per_class)
    return X, y


def test_mlp_learns_separable_blobs():
    X, y = blobs()
    model = train_matrix(X, y, TrainConfig(kind="mlp", seed=1), FC)
    assert (model.predict_labels(X) == y).mean() >= 0.95
    assert model.metadata["stopping_reason"] == "early-stopped"
    assert model.metadata["iterations"] < 200


def test_mlp_gradient_check_every_layer():
    rng = make_generator(2, "mlp-grad")
    n, d, k, hidden = 10, 5, 3, 6
    X = rng.normal(size=(n, d))
    y = rng.integers(0, k, size=n)
    model = MlpModel(
        w1=rng.normal(size=(d, hidden)) * 0.5,
        b1=rng.normal(size=hidden) * 0.1,
        w2=rng.normal(size=(hidden, k)) * 0.5,
        b2=rng.normal(size=k) * 0.1,
    )
    _, grads = loss_and_grads(model, X, y, k)
    h = 1e-5
    for name in ("w1", "b1", "w2", "b2"):
        arr = getattr(model, name)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + h
            lp, _ = loss_and_grads(model, X, y, k)
            arr[idx] = orig - h
            lm, _ = loss_and_grads(model, X, y, k)
            arr[idx] = orig
            num = (lp - lm) / (2 * h)
            ana = grads[name][idx]
            assert abs(ana - num) / max(abs(ana), abs(num), 1e-4) < 1e-4


def test_validation_split_is_stratified_and_deterministic():
    y = np.array([0] * 50 + [1] * 30 + [2] * 20)
    mask = _validation_split(y, n_classes=3, fraction=0.1)
    assert mask.sum() == 5 + 3 + 2
    assert np.array_equal(mask, _validation_split(y, 3, 0.1))
    for c, expected in ((0, 5), (1, 3), (2, 2)):
        assert mask[y == c].sum() == expected


def test_validation_never_empties_a_class():
    y = np.array([0, 1, 1, 1, 1, 1, 1, 1, 1, 1])
    mask = _validation_split(y, n_classes=2, fraction=0.5)
    assert (~mask[y == 0]).sum() >= 1
    assert (~mask[y == 1]).sum() >= 1


def test_tiny_datasets_skip_validation(monkeypatch):
    X, y = blobs(n_classes=2, per_class=6)
    monkeypatch.setitem(mlp.DEFAULTS, "max_epochs", 20)
    model = train_matrix(X, y, TrainConfig(kind="mlp", seed=0), FC)
    assert model.metadata["validation_used"] is False


def test_mlp_loso_separates_small_clean_corpus(table):
    spec = clean_genspec(participants=3, segments_per_participant=14, frames_per_segment=6, seed=1)
    corpus = generate(spec, table)
    config = FeatureConfig("binary", True, table.content_hash)
    report = run_loso(corpus.segments, table, config, TrainConfig(kind="mlp", seed=1729))
    assert report.mean_weighted_f1 >= 0.99
