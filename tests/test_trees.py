import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adlrec.cli import main
from adlrec.features import FeatureConfig
from adlrec.models import TrainConfig, boosting, forest, train_matrix, tree as tree_module
from adlrec.models.store import ModelFormatError, load_model, save_model
from adlrec.models.tree import CutCache, Tree, build_classification_tree, build_regression_tree
from adlrec.rng import make_generator
from adlrec.taxonomy import default_category_table

from helpers import (
    redigest,
    reference_apply,
    reference_classification_tree,
    reference_matrix_pick,
    reference_node_order,
    reference_pick_best,
    reference_regression_tree,
)

FC = FeatureConfig("counts", False, "t" * 64)
ORACLE = settings(max_examples=200, deadline=None)

# few distinct values, so columns repeat values and tie; 1.0 and its float
# successors have midpoints that round onto the upper value
ONE_UP = np.nextafter(1.0, 2.0)
VALUES = [-0.0, 0.0, 0.25, 0.5, 1.0, ONE_UP, np.nextafter(ONE_UP, 2.0), 3.0]
SCORES = [-0.0, 0.0, 0.5, 1.0, 2.0, np.inf, np.nan]


def mean_of(target):
    """The squared-error leaf rule: the mean of the leaf's targets."""
    return lambda member: target[member].mean()


def test_regression_tree_fits_step_function():
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    target = np.array([0.0, 0.0, 5.0, 5.0])
    tree, leaf_of = build_regression_tree(X, target, CutCache(X), mean_of(target), max_depth=1)
    assert tree.feature[0] == 0
    assert 1.0 <= tree.threshold[0] < 2.0
    pred = tree.predict_value(X)[:, 0]
    assert np.array_equal(pred, target)
    assert len(set(leaf_of)) == 2


def test_regression_tree_respects_depth_cap():
    rng = make_generator(0, "reg")
    X = rng.normal(size=(50, 3))
    target = rng.normal(size=50)
    tree, _ = build_regression_tree(X, target, CutCache(X), mean_of(target), max_depth=2)
    # depth <= 2 means at most 3 internal nodes + 4 leaves
    assert len(tree.feature) <= 7


def test_classification_tree_handles_xor():
    # no single split helps (zero gain everywhere), yet the grower must
    # keep splitting until leaves are pure
    X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    y = np.array([0, 1, 1, 0])
    rng = make_generator(3, "xor")
    tree = build_classification_tree(
        X, y, np.ones(4), n_classes=2, rng=rng, max_features=2
    )
    proba = tree.predict_value(X)
    assert np.array_equal(np.argmax(proba, axis=1), y)


def test_classification_tree_weighted_split_choice():
    # class 1 is rare; with balanced-style weights its purity dominates
    X = np.array([[0.0], [1.0], [2.0], [3.0], [4.0], [5.0]])
    y = np.array([0, 0, 0, 0, 1, 1])
    weight = np.where(y == 1, 3.0, 1.0)
    rng = make_generator(1, "w")
    tree = build_classification_tree(
        X, y, weight, n_classes=2, rng=rng, max_features=1
    )
    assert 3.0 <= tree.threshold[0] < 4.0
    assert np.array_equal(np.argmax(tree.predict_value(X), axis=1), y)


def test_single_tree_no_bootstrap_perfect_fit():
    # an unpruned tree grown on every row, not on a bootstrap sample, splits
    # until each leaf holds one class, so it fits distinct rows exactly
    rng = make_generator(0, "uniq")
    X = np.unique(rng.normal(size=(80, 6)).round(2), axis=0)
    y = rng.integers(0, 3, size=X.shape[0])
    tree = build_classification_tree(
        X, y, np.ones(X.shape[0]), n_classes=3, rng=make_generator(1, "every-row"), max_features=3
    )
    assert np.array_equal(np.argmax(tree.predict_value(X), axis=1), y)


def blob_data():
    rng = make_generator(5, "blobs")
    centers = rng.normal(size=(3, 8)) * 4
    X = np.vstack([c + 0.3 * rng.normal(size=(20, 8)) for c in centers])
    return X, np.repeat(np.arange(3), 20)


def test_forest_and_boosting_fit_blobs():
    X, y = blob_data()
    for kind, module, name in (
        ("random_forest", forest, "n_trees"),
        ("gradient_boosting", boosting, "n_stages"),
    ):
        with pytest.MonkeyPatch.context() as patch:
            patch.setitem(module.DEFAULTS, name, 30)
            model = train_matrix(X, y, TrainConfig(kind=kind, seed=2), FC)
        assert (model.predict_labels(X) == y).mean() == 1.0
        assert model.metadata["iterations"] == 30


def test_tree_document_roundtrip():
    rng = make_generator(7, "doc")
    X = rng.normal(size=(30, 4))
    y = rng.integers(0, 2, size=30)
    tree = build_classification_tree(
        X, y, np.ones(30), n_classes=2, rng=rng, max_features=2
    )
    restored = Tree.from_document(tree.to_document())
    assert np.array_equal(restored.apply(X), tree.apply(X))
    assert np.allclose(restored.predict_value(X), tree.predict_value(X))
    target = rng.normal(size=30)
    regression, leaf_of = build_regression_tree(X, target, CutCache(X), mean_of(target), max_depth=3)
    for grown in (tree, regression):
        assert_grown_well(grown)
    assert np.array_equal(regression.apply(X), leaf_of)


def test_tree_builders_are_called_through_their_module_globals(monkeypatch):
    # perfbench/tracing.py counts tree builds and nodes by wrapping these two
    # globals, and reads a Tree from rf and a (Tree, leaf ids) pair from gb
    calls = {"rf": [], "gb": []}

    def watch(module, name, kind):
        built = getattr(module, name)

        def counted(*args, **kwargs):
            result = built(*args, **kwargs)
            calls[kind].append(result)
            return result

        monkeypatch.setattr(module, name, counted)

    watch(forest, "build_classification_tree", "rf")
    watch(boosting, "build_regression_tree", "gb")
    monkeypatch.setitem(forest.DEFAULTS, "n_trees", 5)
    monkeypatch.setitem(boosting.DEFAULTS, "n_stages", 4)
    rng = make_generator(2, "hooks")
    X = rng.choice(VALUES, size=(40, 5))
    y = rng.integers(0, 3, size=40)
    train_matrix(X, y, TrainConfig(kind="random_forest", seed=0), FC)
    train_matrix(X, y, TrainConfig(kind="gradient_boosting", seed=0), FC)
    assert len(calls["rf"]) == 5
    assert all(type(tree) is Tree for tree in calls["rf"])
    assert len(calls["gb"]) == 4 * 3
    for built in calls["gb"]:
        assert type(built) is tuple and len(built) == 2
        tree, leaf_of = built
        assert type(tree) is Tree and leaf_of.dtype == np.int64
        assert np.array_equal(tree.apply(X), leaf_of)


def test_boosting_prior_initialization(monkeypatch):
    # with zero stages the prediction is the class prior
    X = np.zeros((10, 2))
    X[:, 0] = np.arange(10)
    y = np.array([0] * 7 + [1] * 3)
    monkeypatch.setitem(boosting.DEFAULTS, "n_stages", 0)
    model = train_matrix(X, y, TrainConfig(kind="gradient_boosting", seed=0), FC)
    proba = model.predict_proba_matrix(np.zeros((1, 2)))
    assert np.allclose(proba, [[0.7, 0.3]])


def assert_saved_models_pinned(tmp_path, synth_args, pinned):
    corpus = tmp_path / "corpus"
    assert main(["synth", *synth_args, "--seed", "11", "--out", str(corpus)]) == 0
    for kind, digest in pinned.items():
        out = tmp_path / kind
        assert main(["train", "--records", str(corpus / "records.jsonl"),
                     "--manifest", str(corpus / "manifest.csv"), "--representation", "both",
                     "--active", "--model", kind, "--seed", "11", "--out", str(out)]) == 0
        assert hashlib.sha256((out / "model.json").read_bytes()).hexdigest() == digest, kind


def test_saved_tree_models_are_pinned(tmp_path, monkeypatch):
    # sha256 of model.json as written by `adlrec train`; any change to what
    # the split search picks, or to how trees serialize, moves these bytes.
    # Pinned with numpy 2.4 on x86-64 Linux; a different numpy or libm may
    # round exp/log differently and move them without a code change.
    synth = ["--preset", "distractor", "--participants", "3", "--segments", "14", "--frames", "6"]
    assert_saved_models_pinned(
        tmp_path / "stopped",
        synth,
        {
            "gb": "c60458aa7224ba7423546fc3b5e679bdb2c9d46bf16d39db8b513a576517fee5",
            "rf": "9d6e30ee251e7a98ecf3d2f40491aa1d7c2d99d8754924559af31dc1dd95ddc0",
        },
    )
    # with the deviance stop off, gb builds all 100 stages: the trees of
    # every fit before the stop, saved with the current hyperparameters object
    monkeypatch.setattr(boosting, "TOL", 0.0)
    assert_saved_models_pinned(
        tmp_path / "full",
        synth,
        {"gb": "2e30583aa928b1c6f34156649a62fbb8320fa7ee35018e0ad64308b653ff3192"},
    )


@pytest.mark.parametrize(
    "kind, removed",
    [
        ("random_forest", {"min_samples_split": 2, "bootstrap": True}),
        ("gradient_boosting", {"min_samples_split": 2}),
    ],
)
def test_model_saved_with_the_removed_tree_settings_loads_and_predicts_alike(kind, removed):
    # a model.json written while rf and gb still recorded these settings,
    # which changed no tree, loads and predicts as the current model of the same fit
    X, y = blob_data()
    model = train_matrix(X, y, TrainConfig(kind, seed=4), FC)
    assert not removed.keys() & model.hyperparameters.keys()
    doc = json.loads(save_model(model))
    doc["hyperparameters"].update(removed)
    loaded = load_model(redigest(doc))
    assert loaded.hyperparameters == {**model.hyperparameters, **removed}
    probe = np.vstack([X, make_generator(4, "old-keys").normal(size=(20, X.shape[1])) * 4])
    assert loaded.predict_proba_matrix(probe).tobytes() == model.predict_proba_matrix(probe).tobytes()


def test_saved_tree_models_on_larger_nodes_are_pinned(tmp_path, monkeypatch):
    # as above, on a clean corpus whose nodes hold tens of rows with many
    # tied values
    synth = ["--preset", "clean", "--participants", "2", "--segments", "40", "--frames", "13"]
    assert_saved_models_pinned(
        tmp_path / "stopped",
        synth,
        {
            "gb": "dc9d4936c09187574a54245dfe91b1612a0d5ef941f647dd80ae5769ea5bac77",
            "rf": "5d294ee96e034f6be8e0797296a2c3dcf453b8bd8d6bf04fd7faf1c51e0d4c4b",
        },
    )
    monkeypatch.setattr(boosting, "TOL", 0.0)
    assert_saved_models_pinned(
        tmp_path / "full",
        synth,
        {"gb": "f15942bf66758355314298d57e4d94a992886ecfc4f786e21765bc27e8cf5768"},
    )


def miss_heavy_data():
    # continuous columns of noise labelled at random: node row sets seldom
    # repeat, and the training deviance stays far above boosting.TOL
    rng = make_generator(5, "miss-heavy")
    return rng.normal(size=(90, 6)), rng.integers(0, 4, size=90)


def test_gb_model_whose_fit_mostly_misses_the_cut_cache_is_pinned():
    # most of the fit's cut requests filter the one sort afresh (1,786 of
    # 2,338), where the pins above mostly reuse cached cuts
    X, y = miss_heavy_data()
    fc = FeatureConfig("binary", True, default_category_table().content_hash)
    text = save_model(train_matrix(X, y, TrainConfig("gb", 0), fc))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
        "deb4d07a932a138ef04564da64a62bebdcdbe8bdfdecef61ef775cccb5f41e36"
    )


def tree_bytes(tree: Tree) -> tuple:
    return (tree.depth, *(getattr(tree, name).tobytes()
                          for name in ("feature", "threshold", "left", "right", "value")))


def mean_deviance(model, X, y, stages: int) -> float:
    """-mean log p(y) of the model cut to its first `stages` stages."""
    params = model.parameters
    cut = boosting.BoostingModel(params.init_raw, params.stages[:stages], params.learning_rate)
    return -np.log(cut.predict_proba(X)[np.arange(len(y)), y]).mean()


def test_gb_stop_only_truncates_the_full_fit(monkeypatch):
    X, y = blob_data()
    stopped = train_matrix(X, y, TrainConfig("gb", 2), FC)
    monkeypatch.setattr(boosting, "TOL", 0.0)
    full = train_matrix(X, y, TrainConfig("gb", 2), FC)
    m = len(stopped.parameters.stages)
    assert 0 < m < boosting.DEFAULTS["n_stages"]
    assert (stopped.metadata["stopping_reason"], stopped.metadata["iterations"]) == ("converged", m)
    assert (full.metadata["stopping_reason"], full.metadata["iterations"]) == ("max-iterations", 100)
    assert stopped.parameters.init_raw.tobytes() == full.parameters.init_raw.tobytes()
    assert [list(map(tree_bytes, stage)) for stage in stopped.parameters.stages] == [
        list(map(tree_bytes, stage)) for stage in full.parameters.stages[:m]
    ]
    # the fit stopped at the first stage whose deviance is below the default TOL
    monkeypatch.undo()
    assert mean_deviance(full, X, y, m) < boosting.TOL <= mean_deviance(full, X, y, m - 1)


def test_gb_fit_that_never_reaches_tol_builds_every_stage():
    X, y = miss_heavy_data()
    model = train_matrix(X, y, TrainConfig("gb", 0), FC)
    assert len(model.parameters.stages) == boosting.DEFAULTS["n_stages"] == 100
    assert (model.metadata["stopping_reason"], model.metadata["iterations"]) == ("max-iterations", 100)
    assert mean_deviance(model, X, y, 100) >= boosting.TOL


def test_saved_logreg_and_mlp_models_are_pinned(tmp_path):
    # as above, for the two kinds without trees, on both corpora
    assert_saved_models_pinned(
        tmp_path / "distractor",
        ["--preset", "distractor", "--participants", "3", "--segments", "14", "--frames", "6"],
        {
            "logreg": "85bff34e9ffabc91f2bd6dc104b18da222fe1ee8f9f8d0598f1e7429cadc6a31",
            "mlp": "eaa661c2650b3b88157c097210b2de08990f47e0417993d63e58073548f49efd",
        },
    )
    assert_saved_models_pinned(
        tmp_path / "clean",
        ["--preset", "clean", "--participants", "2", "--segments", "40", "--frames", "13"],
        {
            "logreg": "ee9f2c2f86a65bf08fc59041b58c703286afc7135617f541da769409138d57f1",
            "mlp": "b636cab31e3f94635dc315e29e15a6ee4d1bcffcbcf2f12b699ee9c2d36a6f6a",
        },
    )


@st.composite
def pick_inputs(draw):
    m = draw(st.integers(2, 7))
    k = draw(st.integers(1, 5))
    cells = st.lists(st.sampled_from(VALUES), min_size=m * k, max_size=m * k)
    sorted_vals = np.sort(np.array(draw(cells)).reshape(m, k), axis=0)
    score_cells = st.lists(st.sampled_from(SCORES), min_size=(m - 1) * k, max_size=(m - 1) * k)
    scores = np.array(draw(score_cells)).reshape(m - 1, k)
    mask_cells = st.lists(st.booleans(), min_size=(m - 1) * k, max_size=(m - 1) * k)
    keep = np.array(draw(mask_cells)).reshape(m - 1, k)
    valid = (sorted_vals[:-1] < sorted_vals[1:]) & keep
    features = np.array(draw(st.permutations(range(12)))[:k])
    return scores, sorted_vals, valid, features


def pick(scores, sorted_vals, valid, features):
    """The kernel's pick over the cuts of columns `sorted_vals`, (m, k), of
    features `features`, each cut scored from `scores`, (m-1, k), or +inf
    where not `valid`. Columns go in by ascending feature, as the builders
    give them."""
    m, k = sorted_vals.shape
    X = np.zeros((m, 12))
    X[:, features] = sorted_vals
    by_feature = np.sort(features)
    cuts = tree_module._cuts(X, np.tile(np.arange(m), (k, 1)), by_feature)
    j = np.argsort(features)[np.searchsorted(by_feature, cuts.feature)]
    position = cuts.at % m
    at_cuts = np.where(valid[position, j], scores[position, j], np.inf)
    return tree_module._best_split(cuts, (), lambda cuts: at_cuts)


@ORACLE
@given(pick_inputs())
def test_pick_best_matches_scalar_reference(inputs):
    got = pick(*inputs)
    assert repr(got) == repr(reference_pick_best(*inputs))  # repr tells -0.0 from 0.0
    assert repr(got) == repr(reference_matrix_pick(*inputs))


def test_pick_best_tie_rules():
    # equal scores in two columns: lowest feature index, whatever the column order
    sorted_vals = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
    scores = np.array([[1.0, 1.0], [1.0, 1.0]])
    valid = np.ones((2, 2), dtype=bool)
    assert pick(scores, sorted_vals, valid, np.array([7, 3])) == (3, 0.5)
    # within a column the lowest threshold wins
    assert pick(scores, sorted_vals, valid, np.array([2, 3])) == (2, 0.5)
    # no valid cut anywhere
    assert pick(scores, sorted_vals, ~valid, np.array([2, 3])) is None
    # a midpoint that rounds onto the upper value falls back to the lower one
    collapse = np.array([[1.0], [ONE_UP]])
    assert pick(np.zeros((1, 1)), collapse, np.ones((1, 1), bool), np.array([0])) == (0, 1.0)


def assert_same_tree(a: Tree, b: Tree):
    for name in ("feature", "threshold", "left", "right", "value"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes(), name
    assert a.depth == b.depth


def assert_grown_well(tree: Tree):
    """The node numbering holds: the tree survives its own document array
    for array, depth included, and only leaves carry a value."""
    assert_same_tree(Tree.from_document(tree.to_document()), tree)
    assert not tree.value[tree.feature != tree_module.LEAF].any()


@st.composite
def tree_inputs(draw):
    n = draw(st.integers(1, 30))
    d = draw(st.integers(1, 6))
    cells = st.lists(st.sampled_from(VALUES[1:6]), min_size=n * d, max_size=n * d)
    X = np.array(draw(cells)).reshape(n, d)
    return X, draw(st.integers(0, 2**16))


# 9e153 squares to a finite number but two of them sum to one whose square
# overflows, so a cut's squared error is -inf; 1e200 squares to inf, and
# inf - inf gives NaN scores
HUGE_TARGETS = [-1.0, 0.0, 0.5, 9e153, -9e153, 1e200]


@ORACLE
@given(tree_inputs(), st.integers(1, 4), st.data())
def test_regression_tree_matches_reference_kernel(inputs, max_depth, data):
    # several targets share one X and one cut cache over three stages, as a
    # boosting fit's trees do, so row sets hit, miss and are evicted
    X, seed = inputs
    rng = make_generator(seed, "oracle-target")
    targets = [
        rng.normal(size=X.shape[0]).round(1),
        rng.choice(VALUES, size=X.shape[0]),
        rng.choice(HUGE_TARGETS, size=X.shape[0]),
    ]
    cache = CutCache(X)
    for _ in range(3):
        for t in data.draw(st.lists(st.integers(0, 2), min_size=1, max_size=4)):
            target = targets[t]
            with np.errstate(over="ignore", invalid="ignore"):
                tree, leaf_of = build_regression_tree(X, target, cache, mean_of(target), max_depth=max_depth)
                want, want_leaf_of = reference_regression_tree(X, target, mean_of(target), max_depth)
            assert_same_tree(tree, want)
            assert_grown_well(tree)
            assert np.array_equal(leaf_of, want_leaf_of)
            assert np.array_equal(tree.apply(X), leaf_of)
        cache.rotate()


def test_cut_cache_keeps_only_the_last_two_stages(monkeypatch):
    requested = [set()]  # node row sets asked for, per boosting stage
    outcomes = {"hit": 0, "miss": 0, "evicted": 0}

    class Watched(CutCache):
        def cuts(self, member):
            key = member.tobytes()
            outcomes["hit" if key in self.current or key in self.previous else "miss"] += 1
            requested[-1].add(key)
            return super().cuts(member)

        def rotate(self):
            held = set(self.current) | set(self.previous)
            super().rotate()
            assert set(self.current) | set(self.previous) == requested[-1]
            outcomes["evicted"] += len(held - requested[-1])
            requested.append(set())

    monkeypatch.setattr(boosting, "CutCache", Watched)
    monkeypatch.setitem(boosting.DEFAULTS, "n_stages", 6)
    rng = make_generator(4, "cache-bound")
    X = rng.choice(VALUES, size=(60, 5))
    y = rng.integers(0, 3, size=60)
    train_matrix(X, y, TrainConfig(kind="gradient_boosting", seed=0), FC)
    assert len(requested) == 7  # one rotation per stage
    assert all(outcomes.values()), outcomes


@ORACLE
@given(tree_inputs(), st.integers(2, 4))
def test_classification_tree_matches_reference_kernel(inputs, n_classes):
    X, seed = inputs
    rng = make_generator(seed, "oracle-labels")
    y = rng.integers(0, n_classes, size=X.shape[0])
    weight = rng.choice([0.5, 1.0, 3.0], size=X.shape[0])
    max_features = int(rng.integers(1, X.shape[1] + 1))
    args = (X, y, weight, n_classes)
    tree = build_classification_tree(*args, make_generator(seed, "oracle-tree"), max_features)
    want = reference_classification_tree(*args, make_generator(seed, "oracle-tree"), max_features)
    assert_same_tree(tree, want)
    assert_grown_well(tree)


@ORACLE
@given(tree_inputs(), st.data())
def test_cut_cache_matches_a_fresh_stable_sort(inputs, data):
    X, _ = inputs
    X = np.where(data.draw(st.lists(st.booleans(), min_size=X.size, max_size=X.size)),
                 -X.ravel(), X.ravel()).reshape(X.shape)  # -0.0 and 0.0 tie
    # non-empty row sets in any order, as the builders ask for them; the
    # last repeats one, so the cache answers it from its memo
    masks = st.lists(st.booleans(), min_size=X.shape[0], max_size=X.shape[0]).filter(any)
    members = [np.array(m) for m in data.draw(st.lists(masks, min_size=1, max_size=4))]
    members.append(members[data.draw(st.integers(0, len(members) - 1))])
    cache = CutCache(X)
    for member in members:
        node = cache.cuts(member)
        rows, values = reference_node_order(X, np.flatnonzero(member))
        varies = values[:, 0] < values[:, -1]
        rows, values = rows[varies], values[varies]
        assert np.array_equal(node.rows, rows)
        column, position = np.nonzero(values[:, :-1] < values[:, 1:])
        m = values.shape[1]
        assert np.array_equal(node.at, column * m + position)
        assert np.array_equal(node.end, column * m + m - 1)
        assert node.left.tobytes() == (position + 1.0).tobytes()
        assert np.array_equal(node.feature, np.flatnonzero(varies)[column])
        want = [reference_pick_best(np.zeros((1, 1)), values[c, p : p + 2, None], np.ones((1, 1), bool), [0])[1]
                for c, p in zip(column, position)]
        assert node.threshold.tobytes() == np.array(want, dtype=np.float64).tobytes()  # bytes tell -0.0 from 0.0


def test_cut_cache_of_a_matrix_with_no_columns_has_no_cuts():
    # train_matrix accepts an (n, 0) matrix; its boosting trees are single leaves
    assert CutCache(np.zeros((4, 0))).cuts(np.array([True, False, True, True])).at.size == 0


@ORACLE
@given(tree_inputs())
def test_apply_matches_row_by_row_walk(inputs):
    X, seed = inputs
    rng = make_generator(seed, "oracle-apply")
    tree = build_classification_tree(
        X, rng.integers(0, 3, size=X.shape[0]), np.ones(X.shape[0]), 3, rng, X.shape[1]
    )
    probe = rng.choice(VALUES, size=(20, X.shape[1]))
    for rows in (X, probe):
        assert np.array_equal(tree.apply(rows), reference_apply(tree, rows))


def small_tree_document():
    # root splits feature 1 at 0.5; node 1 is a leaf, node 2 splits feature 0
    return {
        "feature": [1, -1, 0, -1, -1],
        "threshold": [0.5, 0.0, 0.25, 0.0, 0.0],
        "left": [1, -1, 3, -1, -1],
        "right": [2, -1, 4, -1, -1],
        "value": [[], [0.1, 0.9], [], [1.0, 0.0], [0.0, 1.0]],
    }


def test_tree_document_keeps_bytes_and_predictions():
    doc = small_tree_document()
    tree = Tree.from_document(doc)
    assert tree.to_document() == doc
    assert tree.depth == 2
    X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    assert tree.apply(X).tolist() == [1, 3, 4]
    assert tree.predict_value(X).tolist() == [[0.1, 0.9], [1.0, 0.0], [0.0, 1.0]]


@pytest.mark.parametrize(
    "field, bad, message",
    [
        ("threshold", [0.5, 0.0, 0.25, 0.0], "length"),
        ("threshold", [[0.5]] * 5, "length"),
        ("left", [1, -1, 0, -1, -1], "not after it"),
        ("right", [2, -1, 2, -1, -1], "not after it"),
        ("right", [2, -1, 5, -1, -1], "out of range"),
        ("left", [1, 3, 3, -1, -1], "leaf 1 has a child"),
        ("feature", [1, -1, 0.5, -1, -1], "integers"),
        ("left", [1, -1, True, -1, -1], "integers"),
        ("feature", [1, -1, -2, -1, -1], "negative"),
        ("value", [[], [0.1], [], [1.0, 0.0], [0.0, 1.0]], "width"),
        ("value", [[], [0.1, 0.9], [0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], "internal node"),
    ],
)
def test_tree_document_rejects_unwalkable_trees(field, bad, message):
    doc = small_tree_document()
    doc[field] = bad
    with pytest.raises(ValueError, match=message):
        Tree.from_document(doc)


SINGLE_LEAF = {"feature": [-1], "threshold": [0.0], "left": [-1], "right": [-1]}


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda tree: dict(tree, value=[v + [0.0] if v else [] for v in tree["value"]]),
         "tree leaf value width is not 3"),
        (lambda tree: {key: [] for key in tree}, "tree has no nodes"),
        (lambda tree: dict(SINGLE_LEAF, value=[[[1.0], [0.0], [0.0]]]),
         "tree leaf values must be lists of numbers"),
    ],
    ids=["leaf-width", "no-nodes", "nested-leaf-values"],
)
def test_load_model_refuses_a_forest_tree_it_could_not_apply(edit, message, monkeypatch):
    # a three-class forest whose first tree `edit` rewrites, re-digested
    monkeypatch.setitem(forest.DEFAULTS, "n_trees", 3)
    X, y = make_generator(0, "forest-doc").normal(size=(30, 4)), np.arange(30) % 3
    doc = json.loads(save_model(train_matrix(X, y, TrainConfig(kind="random_forest", seed=0), FC)))
    trees = doc["parameters"]["trees"]
    trees[0] = edit(trees[0])
    with pytest.raises(ModelFormatError) as caught:
        load_model(redigest(doc))
    assert str(caught.value) == f"malformed model document: {message}"
