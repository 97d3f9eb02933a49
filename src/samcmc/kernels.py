"""Proposal generators for the Metropolis-Hastings steps of the engines.

Two proposal families cover the sample spaces used here: Gaussian random
walks (optionally reflected into a bounding box, which keeps the proposal
symmetric) and row-stochastic neighbor proposals on finite state spaces.
The engines draw from them and do the acceptance arithmetic themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

ROW_SUM_TOL = 1e-12


@dataclass(frozen=True)
class Box:
    """Axis-aligned bounds; used both as proposal bounds and space descriptor."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lower", np.atleast_1d(np.asarray(self.lower, float)))
        object.__setattr__(self, "upper", np.atleast_1d(np.asarray(self.upper, float)))
        if self.lower.shape != self.upper.shape:
            raise ValueError("bounds must have matching shapes")
        if np.any(self.lower >= self.upper):
            raise ValueError("lower bounds must be strictly below upper bounds")

    def contains(self, x: np.ndarray) -> bool:
        return bool(np.all(x >= self.lower) and np.all(x <= self.upper))


def reflect_into_box(y: np.ndarray, box: Box) -> np.ndarray:
    """Fold a point into the box by reflecting at the walls.

    Points already inside are returned untouched, so astronomically wide
    boxes (used as compactness safeguards) never degrade precision.
    """
    y = np.asarray(y, dtype=float)
    lower, upper = box.lower, box.upper
    inside = (y >= lower) & (y <= upper)
    if inside.all():
        return y
    period = 2.0 * (upper - lower)
    t = np.mod(y - lower, period)
    folded = lower + np.minimum(t, period - t)
    return np.where(inside, y, folded)


@dataclass(frozen=True)
class RandomWalk:
    """Isotropic Gaussian step proposal, reflected into bounds when given."""

    step: float
    bounds: Box | None = None

    def __post_init__(self):
        if self.step <= 0:
            raise ValueError("step must be positive")


@dataclass(frozen=True)
class DiscreteNeighbor:
    """Finite-state proposal: row x of the matrix is the law of y given x."""

    matrix: np.ndarray

    def __post_init__(self):
        matrix = np.asarray(self.matrix, dtype=float)
        object.__setattr__(self, "matrix", matrix)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError("proposal matrix must be square")
        if np.any(matrix < 0):
            raise ValueError("proposal entries must be nonnegative")
        row_err = np.abs(matrix.sum(axis=1) - 1.0).max()
        if not row_err <= ROW_SUM_TOL:  # a NaN entry fails too
            raise ValueError(f"proposal rows must sum to 1 (max error {row_err:.3g})")
        cdf = np.cumsum(matrix, axis=1)
        cdf[:, -1] = 1.0
        object.__setattr__(self, "_cdf", cdf)


Proposal = Union[RandomWalk, DiscreteNeighbor]
