"""Multinomial softmax regression with class-weighted cross-entropy.

Objective: sum_i s_i * (-log p_{i, y_i}) + (l2 / 2) * ||W||^2, bias
unpenalized, s_i the balanced weight of sample i's class. Minimized by
L-BFGS (Liu & Nocedal 1989; Nocedal & Wright, Numerical Optimization,
ch. 7) from a zero initialization: each direction comes from the two-loop
recursion over the last MEMORY curvature pairs, and its step from an Armijo
backtracking line search. Every operation is fixed, so training is
deterministic.

A fit stops as "converged" once max|grad| < grad_tol, as "max-iterations"
after max_iter steps, or as "line-search-failed" when neither the L-BFGS
direction nor the steepest-descent direction yields a decrease.
"""

from dataclasses import dataclass

import numpy as np

NAME = "logreg"
ALIASES = ("lr",)
DEFAULTS = {"l2": 1.0, "max_iter": 1000, "grad_tol": 1e-4}
CONVERGED_REASONS = ("converged",)  # the gradient test passed

MEMORY = 20  # curvature pairs (s, y) kept by L-BFGS
ARMIJO = 1e-4  # sufficient-decrease constant
MIN_STEP = 1e-16  # the line search fails below this step length


@dataclass
class LogisticModel:
    weights: np.ndarray  # (d, K)
    bias: np.ndarray  # (K,)

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return softmax(X @ self.weights + self.bias)

    def check(self, d: int, k: int) -> None:
        """Raise ValueError unless the parameters fit d features and k classes."""
        check_shapes(NAME, self, {"weights": (d, k), "bias": (k,)})


PARAMS = LogisticModel


def check_shapes(kind: str, params, expected: dict) -> None:
    """Raise ValueError unless each named array of `params` has its expected shape."""
    for name, shape in expected.items():
        if getattr(params, name).shape != shape:
            raise ValueError(f"{kind} {name} has shape {getattr(params, name).shape}, not {shape}")


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    expz = np.exp(shifted)
    # sorted reduction: the normalizer is a function of the value multiset,
    # so permuting class columns permutes probabilities bit-exactly
    norm = np.sort(expz, axis=1).sum(axis=1, keepdims=True)
    return expz / norm


def log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1))[:, None]


def loss_and_grad(
    weights: np.ndarray,
    bias: np.ndarray,
    X: np.ndarray,
    y: np.ndarray,
    sample_weight: np.ndarray,
    l2: float,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Weighted cross-entropy + ridge penalty, with analytic gradients."""
    log_proba = log_softmax(X @ weights + bias)
    n = X.shape[0]
    loss = -(sample_weight * log_proba[np.arange(n), y]).sum()
    loss += 0.5 * l2 * float((weights**2).sum())

    proba = np.exp(log_proba)
    delta = proba.copy()
    delta[np.arange(n), y] -= 1.0
    delta *= sample_weight[:, None]
    grad_w = X.T @ delta + l2 * weights
    grad_b = delta.sum(axis=0)
    return float(loss), grad_w, grad_b


def _two_loop(grad: np.ndarray, pairs: list) -> np.ndarray:
    """-H grad, H the L-BFGS inverse-Hessian estimate from the kept pairs."""
    q = -grad
    alphas = []
    for s, y, rho in reversed(pairs):
        alpha = rho * (s @ q)
        q -= alpha * y
        alphas.append(alpha)
    s, y, _ = pairs[-1]
    q *= (s @ y) / (y @ y)
    for (s, y, rho), alpha in zip(pairs, reversed(alphas)):
        q += (alpha - rho * (y @ q)) * s
    return q


def _line_search(objective, theta, loss, grad, direction):
    """Halve the step from 1 until the Armijo condition holds; None on failure.

    A step must also lower the loss strictly: when t * slope falls below the
    float resolution of the loss, the Armijo bound rounds to the loss itself
    and would accept a step that makes no progress.
    """
    slope = float(grad @ direction)
    if not slope < 0.0:
        return None
    step = 1.0
    while step >= MIN_STEP:
        cand = theta + step * direction
        cand_loss, cand_grad = objective(cand)
        if cand_loss < loss and cand_loss <= loss + ARMIJO * step * slope:
            return cand, cand_loss, cand_grad
        step *= 0.5
    return None


def fit(
    X: np.ndarray, y: np.ndarray, n_classes: int, class_weight: np.ndarray, seed: int, hp: dict
) -> tuple[LogisticModel, dict]:
    d = X.shape[1]
    sample_weight = class_weight[y]
    l2 = float(hp["l2"])
    grad_tol = float(hp["grad_tol"])
    max_iter = int(hp["max_iter"])

    # theta = (W flattened row-major, b); W and b are views into it
    def unpack(theta):
        return theta[: d * n_classes].reshape(d, n_classes), theta[d * n_classes :]

    def objective(theta):
        weights, bias = unpack(theta)
        loss, grad_w, grad_b = loss_and_grad(weights, bias, X, y, sample_weight, l2)
        return loss, np.concatenate([grad_w.ravel(), grad_b])

    theta = np.zeros((d + 1) * n_classes)
    loss, grad = objective(theta)
    pairs: list = []
    reason = "max-iterations"
    iterations = max_iter
    for iteration in range(max_iter):
        if np.abs(grad).max(initial=0.0) < grad_tol:
            reason = "converged"
            iterations = iteration
            break
        found = None
        if pairs:
            found = _line_search(objective, theta, loss, grad, _two_loop(grad, pairs))
        if found is None:
            # no memory yet, or its direction failed: steepest descent, scaled
            # so that the unit step moves theta by at most 1 in norm
            pairs.clear()
            direction = -grad / max(1.0, float(np.sqrt(grad @ grad)))
            found = _line_search(objective, theta, loss, grad, direction)
        if found is None:
            reason = "line-search-failed"
            iterations = iteration
            break
        cand, cand_loss, cand_grad = found
        s, yk = cand - theta, cand_grad - grad
        sy = float(s @ yk)
        if sy > 0.0:
            pairs.append((s, yk, 1.0 / sy))
            del pairs[:-MEMORY]
        theta, loss, grad = cand, cand_loss, cand_grad

    weights, bias = unpack(theta)
    meta = {"iterations": iterations, "stopping_reason": reason, "final_loss": loss}
    return LogisticModel(weights=weights, bias=bias), meta
