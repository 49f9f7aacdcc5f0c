"""Single-hidden-layer perceptron: 100 rectified units, softmax output.

Mini-batch Adam (Kingma & Ba, ICLR 2015) on unweighted cross-entropy, with
step size `lr_init` and Adam's default moment decays: every row counts once,
and `class_weight` is ignored. Training stops early when the held-out
stratified validation loss stalls for `patience` epochs (the best
validation-loss parameters are restored). The output layer starts at zero;
hidden-layer symmetry is broken by the seeded Glorot draw.
"""

from dataclasses import dataclass

import numpy as np

from ..rng import make_generator
from .logreg import check_shapes, log_softmax, softmax

NAME = "mlp"
ALIASES = ()
DEFAULTS = {
    "hidden": 100,
    "batch_size": 32,
    "lr_init": 1e-3,
    "tol": 1e-4,
    "patience": 10,
    "max_epochs": 200,
    "validation_fraction": 0.1,
}
CONVERGED_REASONS = ("early-stopped",)  # the validation loss stalled

# Below this many samples a validation split is too small to be meaningful;
# early stopping then monitors training loss instead.
MIN_SAMPLES_FOR_VALIDATION = 20

# Adam's moment decay rates and denominator guard, as in Kingma & Ba.
BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8


@dataclass
class MlpModel:
    w1: np.ndarray  # (d, hidden)
    b1: np.ndarray  # (hidden,)
    w2: np.ndarray  # (hidden, K)
    b2: np.ndarray  # (K,)

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        hidden = np.maximum(X @ self.w1 + self.b1, 0.0)
        return softmax(hidden @ self.w2 + self.b2)

    def check(self, d: int, k: int) -> None:
        """Raise ValueError unless the layers fit d features and k classes."""
        hidden = len(self.b1)
        expected = {"w1": (d, hidden), "b1": (hidden,), "w2": (hidden, k), "b2": (k,)}
        check_shapes(NAME, self, expected)


PARAMS = MlpModel


def init_params(d: int, hidden: int, n_classes: int, rng: np.random.Generator) -> MlpModel:
    bound = np.sqrt(6.0 / (d + hidden))
    w1 = rng.uniform(-bound, bound, size=(d, hidden))
    return MlpModel(
        w1=w1,
        b1=np.zeros(hidden),
        w2=np.zeros((hidden, n_classes)),
        b2=np.zeros(n_classes),
    )


def loss_and_grads(
    model: MlpModel, X: np.ndarray, y: np.ndarray, n_classes: int
) -> tuple[float, dict[str, np.ndarray]]:
    """Mean cross-entropy over the batch and gradients for every layer."""
    n = X.shape[0]
    pre_hidden = X @ model.w1 + model.b1
    hidden = np.maximum(pre_hidden, 0.0)
    log_proba = log_softmax(hidden @ model.w2 + model.b2)
    loss = float(-log_proba[np.arange(n), y].mean())

    delta_out = np.exp(log_proba)
    delta_out[np.arange(n), y] -= 1.0
    delta_out /= n
    grad_w2 = hidden.T @ delta_out
    grad_b2 = delta_out.sum(axis=0)
    delta_hidden = (delta_out @ model.w2.T) * (pre_hidden > 0.0)
    grad_w1 = X.T @ delta_hidden
    grad_b1 = delta_hidden.sum(axis=0)
    return loss, {"w1": grad_w1, "b1": grad_b1, "w2": grad_w2, "b2": grad_b2}


def mean_cross_entropy(model: MlpModel, X: np.ndarray, y: np.ndarray) -> float:
    proba = model.predict_proba(X)
    return float(-np.log(np.clip(proba[np.arange(X.shape[0]), y], 1e-300, None)).mean())


def _validation_split(y: np.ndarray, n_classes: int, fraction: float) -> np.ndarray:
    """Deterministic stratified split: the last ~fraction of each class."""
    val_mask = np.zeros(y.size, dtype=bool)
    for c in range(n_classes):
        members = np.flatnonzero(y == c)
        take = int(round(fraction * members.size))
        take = min(take, members.size - 1)
        if take > 0:
            val_mask[members[-take:]] = True
    return val_mask


def fit(
    X: np.ndarray, y: np.ndarray, n_classes: int, class_weight: np.ndarray, seed: int, hp: dict
) -> tuple[MlpModel, dict]:
    rng = make_generator(seed, "mlp")
    model = init_params(X.shape[1], int(hp["hidden"]), n_classes, rng)

    use_validation = X.shape[0] >= MIN_SAMPLES_FOR_VALIDATION
    if use_validation:
        val_mask = _validation_split(y, n_classes, float(hp["validation_fraction"]))
        use_validation = bool(val_mask.any())
    if use_validation:
        X_train, y_train = X[~val_mask], y[~val_mask]
        X_val, y_val = X[val_mask], y[val_mask]
    else:
        X_train, y_train = X, y
        X_val, y_val = X, y

    lr = float(hp["lr_init"])
    tol = float(hp["tol"])
    batch_size = int(hp["batch_size"])
    patience = int(hp["patience"])
    max_epochs = int(hp["max_epochs"])

    best_val_loss = np.inf
    epochs_since_best = 0
    best_state = None
    reason = "max-iterations"
    epochs_run = max_epochs

    names = ("w1", "b1", "w2", "b2")
    first = {name: np.zeros_like(getattr(model, name)) for name in names}
    second = {name: np.zeros_like(getattr(model, name)) for name in names}
    step = 0
    n_train = X_train.shape[0]
    for epoch in range(max_epochs):
        order = rng.permutation(n_train)
        for start in range(0, n_train, batch_size):
            batch = order[start : start + batch_size]
            _, grads = loss_and_grads(model, X_train[batch], y_train[batch], n_classes)
            step += 1
            # bias-corrected step size (Kingma & Ba, end of section 2)
            rate = lr * np.sqrt(1.0 - BETA2**step) / (1.0 - BETA1**step)
            for name, grad in grads.items():
                first[name] = BETA1 * first[name] + (1.0 - BETA1) * grad
                second[name] = BETA2 * second[name] + (1.0 - BETA2) * grad**2
                param = getattr(model, name)
                param -= rate * first[name] / (np.sqrt(second[name]) + EPSILON)

        val_loss = mean_cross_entropy(model, X_val, y_val)
        if val_loss < best_val_loss - tol:
            best_val_loss = val_loss
            epochs_since_best = 0
            best_state = [getattr(model, name).copy() for name in names]
        else:
            epochs_since_best += 1
            if epochs_since_best >= patience:
                reason = "early-stopped"
                epochs_run = epoch + 1
                break

    if best_state is not None:
        model = MlpModel(*best_state)
    meta = {
        "iterations": epochs_run,
        "stopping_reason": reason,
        "validation_used": use_validation,
    }
    return model, meta
