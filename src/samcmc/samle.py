"""Stochastic approximation MLE with simulated missing data.

Each iteration refreshes the latent data x by Metropolis-Hastings steps
targeting its predictive density given the current parameter, then moves
the parameter along the complete-data log likelihood gradient evaluated
at the imputed x, with the usual decaying gain and truncation safeguard.

A solo run is run_sa on samle_problem; batches run on a vectorized
multi-chain engine. Both are bit-for-bit reproducible chain by chain, and
a solo run equals the matching batch member.

A small Gaussian location fixture ships with the package: observations
y_i = theta + z_i + w_i with independent standard normal z, w, for which
the exact MLE is the sample mean of y and the latent posterior is
x_i | y_i, theta ~ N((theta + y_i)/2, 1/2).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace
from importlib import resources
from math import isfinite
from typing import Callable, Sequence

import numpy as np

from .sa import (GainSchedule, Lockstep, NonFiniteIterateError, RunTrace,
                 SaProblem, TruncationLadder, mh_accept, run_sa)

__all__ = [
    "Box",
    "MissingDataModel",
    "NonFiniteGradientError",
    "RandomWalk",
    "gaussian_location_model",
    "load_gaussian_toy",
    "reflect_into_box",
    "run_samle",
    "run_samle_batch",
]

CHUNK = 2048
# most steps run_samle_batch takes before it tests their half-steps in
# one pass; a block that fails the pass is replayed step by step
BLOCK_STEPS = 32


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
        if not np.all(self.lower < self.upper):     # NaN fails too
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
        if not 0 < self.step < np.inf:      # NaN fails too
            raise ValueError("step must be positive and finite")


@dataclass(frozen=True)
class MissingDataModel:
    """Incomplete-data problem: gradient oracle plus latent predictive law.

    grad_complete_loglik(x, theta) is the complete-data score at theta;
    predictive_log_density(x, theta) is log f(x | observed data, theta) up
    to an additive constant. Both take x of shape (rows, dim x) and theta
    of shape (rows, dim theta) and return float arrays of (rows, dim theta)
    gradients and (rows,) log densities, row by row: a row's value may not
    depend on the other rows or on how many there are, since the engines
    stack rows of several chains or points into one call. The engines call
    them only on the caller's thread. They must be pure: run_samle_batch
    may call them on rows of a block of steps that it then replays, rows
    past a truncation that the replay resets, and drops what they return
    or raise there. The solo path scores two sweeps per call, so also the
    proposal its chain does not reach, and drops what they return or
    raise there; a warning given there prints unless warnings are errors.
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


def _reset_point(ladder: TruncationLadder) -> np.ndarray:
    if ladder.reinit_state is None:
        raise ValueError("ladder.reinit_state must hold the initial latent data")
    return np.asarray(ladder.reinit_state, dtype=float)


def samle_problem(model: MissingDataModel, *, proposal: RandomWalk | None = None,
                  sweeps: int = 1) -> SaProblem:
    """One chain of run_samle_batch as a run_sa problem, with the same draws.

    Each run draws its blocks from its own rng by _draw_block, as in the
    batch, with the point it starts from as the reset point; a proposal
    step that overflows a block's offsets raises ValueError. A step runs
    the sweeps and returns the new point and the gradient there.

    Two sweeps are scored per model call, on four rows: the latents x,
    their proposal y and the next sweep's proposal from each. So the call
    also scores, and then drops, the proposal the chain does not reach. If
    it raises, the pair is rescored sweep by sweep, so what the model
    returns or raises on that row never reaches the chain; a warning it
    gives there still prints unless warnings are errors. An odd last sweep
    is scored alone, with x if it is the first. So a step makes
    (sweeps + 1) // 2 + 1 model calls, the gradient last, each row made as
    in the batch; sample points are never modified.
    """
    if sweeps < 1:
        raise ValueError("sweeps must be >= 1")
    proposal = proposal or RandomWalk(step=1.0, bounds=model.x_space)
    box = proposal.bounds or model.x_space
    predictive, score = model.predictive_log_density, model.grad_complete_loglik
    firsts = range(0, sweeps, 2)        # the first sweep of each pair

    def start(rng, x0, k_max):
        offsets = uniforms = reflect = rows = th = pair = th2 = th1 = None
        k = 0

        def step(theta, x):
            nonlocal offsets, uniforms, reflect, rows, th, pair, th2, th1, k
            if k % CHUNK == 0:      # the block's draws are spent
                z = np.empty((min(CHUNK, k_max - k), sweeps, 1, x.size))
                us = np.empty(z.shape[:3])
                reflect = _draw_block([rng], z, us, proposal.step, k, box, x[None], x0)
                offsets = iter(z.reshape(-1, x.size))
                uniforms = iter(us[:, :, 0].tolist())
                # x, y and the next sweep's proposals from both, each at theta
                rows, th = np.empty((4, x.size)), np.empty((4, len(theta)))
                pair, th2, th1 = rows[:2], th[:2], th[:1]
            k += 1
            th[:] = theta
            us, lp_x = next(uniforms), None
            for s in firsts:        # sweeps s and s + 1
                y = x + next(offsets)
                if reflect:
                    y = reflect_into_box(y, box)
                if s + 1 == sweeps:     # an odd last sweep, scored alone
                    if lp_x is None:
                        pair[0], pair[1] = x, y
                        lp_x, lp_y = predictive(pair, th2).tolist()
                    else:
                        lp_y = predictive(y[None], th1).tolist()[0]
                    if mh_accept(lp_y - lp_x, us[s]):
                        x = y
                    break
                rows[0], rows[1] = x, y
                np.add(pair, next(offsets), out=rows[2:])
                if reflect:
                    rows[2:] = reflect_into_box(rows[2:], box)
                try:
                    lp = predictive(rows, th).tolist()
                except Exception:   # sweep by sweep: it may fail on the dropped row
                    lp = predictive(pair, th2).tolist() + [None, None]
                j = 1 if mh_accept(lp[1] - lp[0], us[s]) else 0
                if lp[2] is None:
                    lp[j + 2] = predictive(rows[j + 2:j + 3], th1).tolist()[0]
                if mh_accept(lp[j + 2] - lp[j], us[s + 1]):
                    j += 2
                if j:
                    x = y if j == 1 else rows[j].copy()
                lp_x = lp[j]
            grad = score(x[None], th1).tolist()[0]
            if not all(map(isfinite, grad)):
                raise NonFiniteGradientError(k, np.array(theta), x, np.array(grad))
            return x, grad

        return step

    return SaProblem(start=start)


@np.errstate(over="ignore")
def run_samle(model: MissingDataModel, schedule: GainSchedule,
              ladder: TruncationLadder, k_max: int, seed: int, *,
              proposal: RandomWalk | None = None, sweeps: int = 1,
              snapshot_stride: int = 1000) -> RunTrace:
    """Run one chain for k_max iterations and keep the full parameter path.

    sweeps > 1 applies that many MH refreshes to the latent data before
    each gradient step. This is run_sa on samle_problem, so a solo run is
    bit-identical to the matching batch member, at a fraction of its cost
    per iteration: it scores two sweeps per model call, so it may score
    and drop the proposal its chain does not reach, with what the model
    returns or raises there; a warning there prints unless warnings are
    errors. Overflow warnings are off, as in the batch: a nonfinite
    gradient or half-step raises an error naming the iteration.
    """
    problem = samle_problem(model, proposal=proposal, sweeps=sweeps)
    ladder = replace(ladder, reinit_state=_reset_point(ladder))
    return run_sa(problem, schedule, ladder, k_max, seed,
                  snapshot_stride=snapshot_stride)


@np.errstate(over="ignore")
def _walls_out_of_reach(box: Box, xs: np.ndarray, x0: np.ndarray,
                        steps: int, largest: float) -> bool:
    """True when no proposal in a block of steps MH steps can leave the box.

    Every latent state in the block starts at a current state or at the
    reset point x0 and then moves by at most one offset, of size at most
    largest, per MH step, so each proposal lies within that hull widened
    by steps * largest. The bound is widened once more for the rounding
    of that many additions; NaN or inf anywhere, or a reach past float
    range, makes it fail.
    """
    reach = steps * largest
    lo = np.minimum(xs.min(axis=0), x0) - reach
    hi = np.maximum(xs.max(axis=0), x0) + reach
    slack = steps * 2.0 ** -50 * np.maximum(np.abs(lo), np.abs(hi))
    return bool(np.all(lo - slack >= box.lower)
                and np.all(hi + slack <= box.upper))


# a new thread starts at numpy's default error state, so the helper's
# draws need the caller's overflow setting of their own
@np.errstate(over="ignore")
def _fill_chains(rngs, chains, z, u, step):
    """Draw chain b's block into z[:, :, b] and u[:, :, b], for b in chains."""
    for b in chains:
        np.multiply(rngs[b].standard_normal(z.shape[:2] + z.shape[3:]), step,
                    out=z[:, :, b, :])
        u[:, :, b] = rngs[b].random(u.shape[:2])


def _draw_block(rngs, z, u, step, k, box, xs, x0) -> bool:
    """Draw the block after iteration k; return whether to reflect into box.

    The odd chains draw on a helper thread: numpy's generators release the
    GIL while they fill, and each writes only its own chain's column, so
    the draws do not depend on the split. A helper's exception is raised
    here after the join; offsets that overflow raise ValueError.
    """
    if len(rngs) == 1:
        _fill_chains(rngs, [0], z, u, step)
    else:
        failed = []

        def fill_odd():
            try:
                _fill_chains(rngs, range(1, len(rngs), 2), z, u, step)
            except BaseException as exc:    # re-raised on the caller's thread
                failed.append(exc)

        helper = threading.Thread(target=fill_odd, name="samle-fill")
        helper.start()
        try:
            _fill_chains(rngs, range(0, len(rngs), 2), z, u, step)
        finally:
            helper.join()
        if failed:
            raise failed[0]
    # NaN and inf show in the extremes; no block-sized mask is made
    lo, hi = z.min(), z.max()
    if not -np.inf < lo <= hi < np.inf:
        raise ValueError(
            f"proposal step {step!r} overflows the proposal offsets of the "
            f"block from iteration {k + 1}")
    return not _walls_out_of_reach(box, xs, x0, z.shape[0] * z.shape[1], max(hi, -lo))


@np.errstate(over="ignore")
def run_samle_batch(model: MissingDataModel, schedule: GainSchedule,
                    ladder: TruncationLadder, k_max: int,
                    seeds: Sequence[int], *, proposal: RandomWalk | None = None,
                    sweeps: int = 1, snapshot_stride: int = 1000,
                    store_thetas: bool = False) -> list[RunTrace]:
    """Run many chains in lockstep with vectorized arithmetic.

    Chain b consumes only default_rng(seeds[b]). Per block of CHUNK
    iterations each chain draws its proposal normals first (one
    (CHUNK, sweeps, dim) block) and then its acceptance uniforms, making
    every chain's stream independent of the batch composition. Blocks are
    drawn by _draw_block, as in samle_problem: a helper thread draws the
    odd chains' while the caller draws the even ones. Each generator is
    used by one thread only, in the same order, so the bits do not depend
    on the split; the model's callables run on the caller's thread alone.

    Per iteration the first sweep scores the current latents and their
    proposals in one stacked model call. The iterates of a block of draws
    are kept and folded into the compensated running sum at every snapshot
    and when the block ends. Overflow warnings are off: a nonfinite
    gradient or half-step raises an error naming the iteration, as in
    run_sa, and a proposal step that overflows a block's offsets a
    ValueError naming the step and the block's first iteration, as in
    samle_problem.

    Steps run in test blocks of at most BLOCK_STEPS that end at every
    snapshot and where the draws do. A block is taken untested and then
    tested in one Lockstep.outside call on all its steps. If a half-step
    fails, or a step raises or hits a divide or invalid floating-point
    fault, the block is replayed from its starting latents with the test
    at every step. The draws are indexed by step, so resets and errors
    fall where run_sa has them, bit for bit. The model's callables must
    so be pure: they may be called on rows past a would-be reset, and
    what they return or raise there is dropped.
    """
    lock = Lockstep(schedule, ladder, k_max, seeds, snapshot_stride, store_thetas)
    if sweeps < 1:
        raise ValueError("sweeps must be >= 1")
    x0 = _reset_point(ladder)
    proposal = proposal or RandomWalk(step=1.0, bounds=model.x_space)
    box = proposal.bounds or model.x_space
    predictive = model.predictive_log_density
    score = model.grad_complete_loglik

    center = ladder.center
    d = center.size
    dx = x0.size

    B = len(seeds)
    # rows :B hold each chain's latent data and rows B: its proposal, so
    # the first sweep scores both at the current theta in one model call
    pair = np.tile(x0, (2 * B, 1))
    xs, ys = pair[:B], pair[B:]
    # two copies of theta, one per half of pair
    th_pair = np.empty((2, B, d))
    th_rows = th_pair.reshape(2 * B, d)
    lp = np.empty(2 * B)
    lp_x, lp_y = lp[:B], lp[B:]
    ratio = np.empty(B)
    accept = np.empty(B, dtype=bool)
    accept_col = accept[:, None]
    # row i + 1 holds theta after the draw block's i-th step, row 0 the
    # block's starting theta; a step writes its half-step in place
    path = np.empty((CHUNK + 1, B, d))
    path[0] = center

    # one block of draws laid out step-major, so each step reads
    # contiguous (B, dx) offsets and (B,) uniforms
    offsets = np.empty((min(CHUNK, k_max), sweeps, B, dx))
    uniforms = np.empty((min(CHUNK, k_max), sweeps, B))

    # the latents at a block's start, to replay it from
    x_start = np.empty_like(xs)

    def run_steps(k, lo, hi, test):
        """Take steps lo..hi - 1 of the draws, the first iteration k + 1,
        each tested as run_sa tests it if test is set."""
        for i in range(lo, hi):
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
                # u < 1, so exp(r) decides as exp(min(r, 0)) would
                np.subtract(lp_y, lp_x, out=ratio)
                np.exp(ratio, out=ratio)
                np.less(u[i, s], ratio, out=accept)
                np.copyto(xs, ys, where=accept_col)
                if s + 1 < sweeps:
                    np.copyto(lp_x, lp_y, where=accept)

            grad = score(xs, th)
            np.multiply(grad, gains[i], out=th_half)
            np.add(th, th_half, out=th_half)
            if not test:
                continue
            reset = lock.outside(th_half, th, thresholds[i])
            if reset is not None:
                # a nonfinite gradient or half-step fails the move test
                bad = ~np.isfinite(th_half).all(axis=1)
                if bad.any():
                    b = int(bad.argmax())
                    if np.isfinite(grad[b]).all():
                        raise NonFiniteIterateError(k, th_half[b].copy())
                    raise NonFiniteGradientError(k, th[b].copy(), xs[b].copy(), grad[b])
                np.copyto(th_half, center, where=reset[:, None])
                np.copyto(xs, x0, where=reset[:, None])
                lock.reset(reset, k)

    stride = lock.stride
    k = 0
    while k < k_max:
        length = min(CHUNK, k_max - k)
        z, u = offsets[:length], uniforms[:length]
        reflect = _draw_block(lock.rngs, z, u, proposal.step, k, box, xs, x0)
        gains, thresholds = lock.block_schedule(k, length)
        folded = 0      # path rows 1..folded of this chunk are summed
        c = 0
        while c < length:
            # a test block ends at every snapshot and at the draws' end
            n = min(BLOCK_STEPS, length - c, stride - k % stride)
            np.copyto(x_start, xs)
            try:
                # a floating-point fault replays the block, where it
                # warns, raises or is ignored as the caller's errstate says
                with np.errstate(divide="raise", invalid="raise"):
                    run_steps(k, c, c + n, test=False)
                    stands = lock.outside(path[c + 1:c + n + 1], path[c:c + n],
                                          thresholds[c:c + n]) is None
            except Exception:       # the tested replay raises it if it is real
                stands = False
            if not stands:
                np.copyto(xs, x_start)
                run_steps(k, c, c + n, test=True)
            k += n
            c += n
            if k % stride == 0 or c == length:
                lock.fold(path[folded + 1:c + 1], k)
                folded = c
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
    sample mean. Callables take arrays and broadcast over a leading batch
    axis.
    """
    y = np.asarray(y, dtype=float)
    n, half_y = y.size, 0.5 * y

    def grad(x, theta):
        return np.add.reduce(x - theta, axis=-1, keepdims=True)

    def predictive(x, theta):
        # 0.5 * theta + half_y is 0.5 * (theta + y) bit for bit, away from
        # overflow and the subnormal range
        r = x - (0.5 * theta + half_y)
        r *= r
        # posterior variance is 1/2, so the quadratic coefficient is 1
        return -np.add.reduce(r, axis=-1)

    bound = np.full(n, 1e100)
    return MissingDataModel(
        grad_complete_loglik=grad,
        predictive_log_density=predictive,
        x_space=Box(-bound, bound),
    )
