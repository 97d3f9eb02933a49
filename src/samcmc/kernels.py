"""Metropolis-Hastings kernels and proposal generators.

Two proposal families cover the sample spaces used here: Gaussian random
walks (optionally reflected into a bounding box, which keeps the proposal
symmetric) and row-stochastic neighbor proposals on finite state spaces.
All acceptance arithmetic is done in log space; the reweighted targets met
in adaptive runs carry exp(theta) factors that would overflow otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Union

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

    def log_density(self, x: np.ndarray, y: np.ndarray) -> float:
        """Log proposal density ignoring reflection images.

        Inside the bounds this is a lower bound on the true reflected
        density, which is all the local-positivity condition needs.
        """
        x = np.atleast_1d(np.asarray(x, float))
        y = np.atleast_1d(np.asarray(y, float))
        z = (y - x) / self.step
        return float(-0.5 * np.dot(z, z)
                     - z.size * (0.5 * np.log(2.0 * np.pi) + np.log(self.step)))


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


def propose(proposal: Proposal, x, rng: np.random.Generator):
    """Draw y ~ q(x, .); returns (y, log q(x,y), log q(y,x)).

    Raises if the reverse move has zero proposal mass: such a pair cannot
    appear in a reversible acceptance ratio.
    """
    if isinstance(proposal, RandomWalk):
        x = np.asarray(x, dtype=float)
        y = x + proposal.step * rng.standard_normal(x.shape)
        if proposal.bounds is not None:
            y = reflect_into_box(y, proposal.bounds)
        # reflection preserves the symmetry of the Gaussian kernel, so the
        # forward and backward log densities cancel in any MH ratio
        return y, 0.0, 0.0
    if isinstance(proposal, DiscreteNeighbor):
        row_cdf = proposal._cdf[x]
        y = int(np.searchsorted(row_cdf, rng.random(), side="right"))
        forward = proposal.matrix[x, y]
        backward = proposal.matrix[y, x]
        if backward == 0.0:
            raise ValueError(f"non-reversible proposal pair: q({y},{x}) = 0")
        return y, float(np.log(forward)), float(np.log(backward))
    raise TypeError(f"unknown proposal type: {type(proposal).__name__}")


def mh_step(x, log_target: Callable, proposal: Proposal,
            rng: np.random.Generator):
    """One Metropolis-Hastings step; returns (x_next, accepted).

    The acceptance uniform is always consumed, so the random stream does
    not depend on the proposed point. A -inf target at the proposal is a
    plain rejection; NaN is treated as a model bug. Rejections return the
    input object itself.
    """
    lt_x = float(log_target(x))
    if not np.isfinite(lt_x):
        raise ValueError(f"log_target must be finite at the current point, got {lt_x}")
    y, log_q_fwd, log_q_bwd = propose(proposal, x, rng)
    lt_y = float(log_target(y))
    u = rng.random()
    if np.isnan(lt_y):
        raise ValueError("log_target returned NaN at the proposed point")
    log_ratio = lt_y - lt_x + log_q_bwd - log_q_fwd
    # clamp before exponentiating: immune to |log r| far beyond 700, and
    # r >= 1 accepts even at u's supremum
    if u < np.exp(min(0.0, log_ratio)):
        return y, True
    return x, False
