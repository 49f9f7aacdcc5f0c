"""Balanced class weights: w_c = N / (K * n_c)."""

from dataclasses import dataclass

import numpy as np


class WeightError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class ClassWeights:
    """Per-class positive weights under the balanced rule."""

    counts: tuple[int, ...]
    values: np.ndarray


def balanced_weights(counts) -> ClassWeights:
    counts = tuple(int(c) for c in counts)
    if not counts:
        raise WeightError("no classes")
    if any(c <= 0 for c in counts):
        raise WeightError(f"zero-count class in {counts}")
    n = sum(counts)
    k = len(counts)
    values = np.array([n / (k * c) for c in counts], dtype=np.float64)
    return ClassWeights(counts=counts, values=values)
