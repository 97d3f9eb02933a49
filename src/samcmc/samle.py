"""Stochastic approximation MLE with simulated missing data.

Each iteration refreshes the latent data x by Metropolis-Hastings steps
targeting its predictive density given the current parameter, then moves
the parameter along the complete-data log likelihood gradient evaluated
at the imputed x, with the usual decaying gain and truncation safeguard.

A small Gaussian location fixture ships with the package: observations
y_i = theta + z_i + w_i with independent standard normal z, w, for which
the exact MLE is the sample mean of y and the latent posterior is
x_i | y_i, theta ~ N((theta + y_i)/2, 1/2).
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from typing import Callable, Sequence

import numpy as np

from .sa import GainSchedule, Lockstep, RunTrace, TruncationLadder

CHUNK = 2048


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
        if not self.step > 0:       # NaN fails too
            raise ValueError("step must be positive")


@dataclass(frozen=True)
class MissingDataModel:
    """Incomplete-data problem: gradient oracle plus latent predictive law.

    grad_complete_loglik(x, theta) is the complete-data score at theta;
    predictive_log_density(x, theta) is log f(x | observed data, theta) up
    to an additive constant. Both take x of shape (rows, dim x) and theta
    of shape (rows, dim theta) and return (rows, dim theta) gradients and
    (rows,) log densities, row by row: a row's value may not depend on the
    other rows or on how many there are, since the lockstep engine stacks
    rows of several chains or points into one call.
    """

    grad_complete_loglik: Callable
    predictive_log_density: Callable
    x_space: Box


class NonFiniteGradientError(RuntimeError):
    """Complete-data gradient overflowed or hit an invalid region."""

    def __init__(self, k: int, theta: np.ndarray, x: np.ndarray,
                 grad: np.ndarray):
        self.iteration = k
        self.theta = np.asarray(theta)
        self.x = np.asarray(x)
        self.grad = np.asarray(grad)
        super().__init__(
            f"nonfinite gradient at iteration {k}: grad={np.asarray(grad)}, "
            f"theta={np.asarray(theta)}, x={np.asarray(x)}")


def run_samle(model: MissingDataModel, schedule: GainSchedule,
              ladder: TruncationLadder, k_max: int, seed: int, *,
              proposal: RandomWalk | None = None, sweeps: int = 1,
              snapshot_stride: int = 1000) -> RunTrace:
    """Run one chain for k_max iterations and keep the full parameter path.

    sweeps > 1 applies that many MH refreshes to the latent data before
    each gradient step. This is the lockstep engine with a single chain,
    so a solo run is bit-identical to the matching batch member.
    """
    return run_samle_batch(model, schedule, ladder, k_max, [seed],
                           proposal=proposal, sweeps=sweeps,
                           snapshot_stride=snapshot_stride, store_thetas=True)[0]


def _walls_out_of_reach(box: Box, xs: np.ndarray, x0: np.ndarray,
                        offsets: np.ndarray) -> bool:
    """True when no proposal in this block can leave the box.

    Every latent state in the block starts at a current state or at the
    reset point x0 and then moves by at most one offset per MH step, so
    each proposal lies within that hull widened by the count of steps
    times the largest offset. The bound is widened once more for the
    rounding of that many additions; NaN or inf anywhere makes it fail.
    """
    steps = offsets.shape[0] * offsets.shape[1]
    reach = steps * max(offsets.max(), -offsets.min())
    lo = np.minimum(xs.min(axis=0), x0) - reach
    hi = np.maximum(xs.max(axis=0), x0) + reach
    slack = steps * 2.0 ** -50 * np.maximum(np.abs(lo), np.abs(hi))
    return bool(np.all(lo - slack >= box.lower)
                and np.all(hi + slack <= box.upper))


def run_samle_batch(model: MissingDataModel, schedule: GainSchedule,
                    ladder: TruncationLadder, k_max: int,
                    seeds: Sequence[int], *, proposal: RandomWalk | None = None,
                    sweeps: int = 1, snapshot_stride: int = 1000,
                    store_thetas: bool = False) -> list[RunTrace]:
    """Run many chains in lockstep with vectorized arithmetic.

    Chain b consumes only default_rng(seeds[b]). Per block of CHUNK
    iterations each chain draws its proposal normals first (one
    (CHUNK, sweeps, dim) block) and then its acceptance uniforms, making
    every chain's stream independent of the batch composition.

    Per iteration the first sweep scores the current latents and their
    proposals in one stacked model call. The iterates of a block are kept
    and folded into the compensated running sum at every snapshot and when
    the block ends.
    """
    lock = Lockstep(schedule, ladder, k_max, seeds, ladder.reinit_theta.size,
                    snapshot_stride, store_thetas)
    if sweeps < 1:
        raise ValueError("sweeps must be >= 1")
    proposal = proposal or RandomWalk(step=1.0, bounds=model.x_space)
    box = proposal.bounds or model.x_space
    predictive = model.predictive_log_density
    score = model.grad_complete_loglik

    center = lock.ladder.center
    reinit_theta = lock.ladder.reinit_theta
    x0 = lock.ladder.reinit_state
    if x0 is None:
        raise ValueError("ladder.reinit_state must hold the initial latent data")
    x0 = np.asarray(x0, dtype=float)
    d = reinit_theta.size
    dx = x0.size

    B = len(seeds)
    # rows :B hold each chain's latent data and rows B: its proposal, so
    # the first sweep scores both at the current theta in one model call
    pair = np.tile(x0, (2 * B, 1))
    xs, ys = pair[:B], pair[B:]
    # two copies of theta (one per half of pair) and then the ball center;
    # rows 1: are what the truncation test measures the half-step from
    th_ref = np.empty((3, B, d))
    th_ref[2] = center
    th_pair, th_rows = th_ref[:2], th_ref[:2].reshape(2 * B, d)
    th_from = th_ref[1:]
    lp = np.empty(2 * B)
    lp_x, lp_y = lp[:B], lp[B:]
    ratio = np.empty(B)
    zeros = np.zeros(B)
    accept = np.empty(B, dtype=bool)
    accept_col = accept[:, None]
    # row i + 1 holds theta after the block's i-th step, row 0 the block's
    # starting theta; the truncation test writes its half-step in place
    path = np.empty((CHUNK + 1, B, d))
    path[0] = reinit_theta
    # row 0 tests the move |theta_half - theta| against b_k, row 1 the
    # distance |theta_half - center| against the active ball's radius
    sq = np.empty((2, B, d))
    norms = np.empty((2, B))
    limits = np.empty((CHUNK, 2, B))
    within = np.empty((2, B), dtype=bool)

    # one block of draws laid out step-major, so each step reads
    # contiguous (B, dx) offsets and (B,) uniforms
    offsets = np.empty((min(CHUNK, k_max), sweeps, B, dx))
    uniforms = np.empty((min(CHUNK, k_max), sweeps, B))

    stride = lock.stride
    k = 0
    while k < k_max:
        length = min(CHUNK, k_max - k)
        z, u = offsets[:length], uniforms[:length]
        for b, rng in enumerate(lock.rngs):
            np.multiply(rng.standard_normal((length, sweeps, dx)),
                        proposal.step, out=z[:, :, b, :])
            u[:, :, b] = rng.random((length, sweeps))
        reflect = not _walls_out_of_reach(box, xs, x0, z)
        gains, thresholds = lock.block_schedule(k, length)
        gains = gains.tolist()      # a Python float multiplies faster per step
        limits[:length, 0] = thresholds[:, None]
        limits[:length, 1] = lock.radius
        folded = 0      # path rows 1..folded of this chunk are summed

        for i in range(length):
            k += 1
            th = path[i]
            th_half = path[i + 1]
            np.copyto(th_pair, th)
            for s in range(sweeps):
                np.add(xs, z[i, s], out=ys)
                if reflect:
                    np.copyto(ys, reflect_into_box(ys, box))
                if s == 0:
                    np.copyto(lp, predictive(pair, th_rows))
                else:
                    np.copyto(lp_y, predictive(ys, th))
                np.subtract(lp_y, lp_x, out=ratio)
                np.minimum(ratio, zeros, out=ratio)
                np.exp(ratio, out=ratio)
                np.less(u[i, s], ratio, out=accept)
                np.copyto(xs, ys, where=accept_col)
                if s + 1 < sweeps:
                    np.copyto(lp_x, lp_y, where=accept)

            grad = np.asarray(score(xs, th), dtype=float)
            if np.count_nonzero(np.isfinite(grad)) < grad.size:
                b = int(np.argwhere(~np.isfinite(grad).all(axis=1))[0, 0])
                raise NonFiniteGradientError(k, th[b].copy(), xs[b].copy(),
                                             grad[b])
            np.multiply(grad, gains[i], out=th_half)
            np.add(th, th_half, out=th_half)
            np.subtract(th_half, th_from, out=sq)
            np.multiply(sq, sq, out=sq)
            np.add.reduce(sq, axis=2, out=norms)
            np.sqrt(norms, out=norms)
            np.less_equal(norms, limits[i], out=within)
            if np.count_nonzero(within) < within.size:
                reset = ~(within[0] & within[1])
                np.copyto(th_half, reinit_theta, where=reset[:, None])
                np.copyto(xs, x0, where=reset[:, None])
                lock.reset(reset, k)
                limits[i + 1:length, 1] = lock.radius
            # a fold block ends at every snapshot and at the chunk's end
            if k % stride == 0 or i + 1 == length:
                lock.fold(path[folded + 1:i + 2], k)
                folded = i + 1
        path[0] = path[length]

    return lock.traces(path[0], [x.copy() for x in xs])


def load_gaussian_toy() -> np.ndarray:
    """Packaged observations for the Gaussian location fixture."""
    text = resources.files("samcmc.data").joinpath("gaussian_toy.txt").read_text()
    values = [float(line) for line in text.splitlines()
              if line.strip() and not line.lstrip().startswith("#")]
    return np.asarray(values)


def gaussian_location_model(y: np.ndarray) -> MissingDataModel:
    """Latent x_i ~ N(theta, 1) observed through y_i = x_i + N(0, 1) noise.

    The complete-data score is sum(x_i - theta) and the latent posterior
    is N((theta + y_i)/2, 1/2) componentwise; the MLE from y alone is its
    sample mean. Callables broadcast over a leading batch axis.
    """
    y = np.asarray(y, dtype=float)
    n = y.size

    def grad(x, theta):
        x = np.asarray(x, dtype=float)
        theta = np.asarray(theta, dtype=float)
        return np.add.reduce(x - theta, axis=-1, keepdims=True)

    def predictive(x, theta):
        x = np.asarray(x, dtype=float)
        theta = np.asarray(theta, dtype=float)
        r = x - 0.5 * (theta + y)
        # posterior variance is 1/2, so the quadratic coefficient is 1
        return -np.add.reduce(r * r, axis=-1)

    bound = np.full(n, 1e100)
    return MissingDataModel(
        grad_complete_loglik=grad,
        predictive_log_density=predictive,
        x_space=Box(-bound, bound),
    )
