"""Stochastic approximation Monte Carlo: operations and run drivers.

The sampler targets a reweighted density proportional to psi(x) *
exp(-theta^(j(x))) on each of m labeled subregions and adapts theta so
that each subregion is visited with a prescribed frequency pi. Only the
first m-1 components of theta are free; the last is pinned at zero, so
trial densities are invariant to the additive drift the update would
otherwise accumulate.

Runs use a vectorized multi-chain engine over a finite state space; it
is bit-for-bit reproducible chain by chain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .kernels import DiscreteNeighbor, Proposal
from .oracle import FiniteChainSpec
from .sa import GainSchedule, Lockstep, RunTrace, TruncationLadder

# iterations per pre-drawn randomness block in the vectorized engine; bounds
# transient memory without changing any draw (the chunking is part of the
# draw-order contract, see run_samc_batch)
CHUNK = 8192
# steps folded into the compensated running sum at a time: at most
# FOLD_ROWS steps and FOLD_CELLS extended theta entries, so the fold
# buffers stay small at large batch sizes
FOLD_ROWS = 64
FOLD_CELLS = 16384


@dataclass(frozen=True)
class FiniteStates:
    """Sample space 0..n_states-1 with an optional default proposal matrix."""

    n_states: int
    proposal: np.ndarray | None = None

    def __post_init__(self):
        if self.n_states < 1:
            raise ValueError("n_states must be >= 1")
        if self.proposal is not None:
            object.__setattr__(
                self, "proposal", np.asarray(self.proposal, dtype=float))
            if self.proposal.shape != (self.n_states, self.n_states):
                raise ValueError("proposal matrix shape must match n_states")


@dataclass(frozen=True)
class SamcModel:
    """Target description: unnormalized log density, labeling, and weights.

    log_psi(x) and classify(x) must be pure functions; classify returns a
    1-based label in 1..m. pi is the desired visiting distribution.
    """

    log_psi: Callable
    classify: Callable
    m: int
    pi: np.ndarray
    space: FiniteStates

    def __post_init__(self):
        if not isinstance(self.space, FiniteStates):
            raise TypeError("space must be FiniteStates, got "
                            f"{type(self.space).__name__}")
        if self.m < 1:
            raise ValueError("m must be >= 1")
        pi = np.asarray(self.pi, dtype=float)
        object.__setattr__(self, "pi", pi)
        if pi.shape != (self.m,):
            raise ValueError(f"pi must have shape ({self.m},)")
        if np.any(pi <= 0):
            raise ValueError("pi must be strictly positive")
        if abs(pi.sum() - 1.0) > 1e-12:
            raise ValueError("pi must sum to 1")

    @classmethod
    def from_chain(cls, chain: FiniteChainSpec) -> "SamcModel":
        log_psi = chain.log_psi
        labels = chain.labels

        def log_psi_fn(x: int) -> float:
            return float(log_psi[x])

        def classify_fn(x: int) -> int:
            return int(labels[x])

        return cls(
            log_psi=log_psi_fn,
            classify=classify_fn,
            m=chain.m,
            pi=chain.pi,
            space=FiniteStates(chain.n_states, chain.proposal),
        )


@dataclass(frozen=True)
class SamcTheta:
    """Log weight adjustments for the first m-1 subregions; the m-th is 0."""

    theta: np.ndarray
    m: int

    def __post_init__(self):
        theta = np.asarray(self.theta, dtype=float)
        object.__setattr__(self, "theta", theta)
        if theta.shape != (self.m - 1,):
            raise ValueError(f"theta must have shape ({self.m - 1},)")
        if theta.size and not np.all(np.isfinite(theta)):
            raise ValueError("theta components must be finite")

    @classmethod
    def zeros(cls, m: int) -> "SamcTheta":
        return cls(np.zeros(m - 1), m)

    def component(self, j: int) -> float:
        """Extended component for a 1-based label; the pinned one is 0."""
        if not 1 <= j <= self.m:
            raise ValueError(f"label {j} outside 1..{self.m}")
        return 0.0 if j == self.m else float(self.theta[j - 1])

    def extended(self) -> np.ndarray:
        return np.append(self.theta, 0.0)


def _as_theta(theta, m: int) -> SamcTheta:
    if isinstance(theta, SamcTheta):
        if theta.m != m:
            raise ValueError(f"theta has m={theta.m}, model has m={m}")
        return theta
    return SamcTheta(np.asarray(theta, dtype=float), m)


def trial_log_density(model: SamcModel, theta, x) -> float:
    """Log of the reweighted target psi(x) exp(-theta^(j(x))), unnormalized."""
    th = _as_theta(theta, model.m)
    j = model.classify(x)
    return float(model.log_psi(x)) - th.component(j)


def samc_log_ratio(theta, m: int, j_x: int, j_y: int,
                   log_psi_x: float, log_psi_y: float,
                   log_q_fwd: float, log_q_bwd: float) -> float:
    """Log MH ratio for the reweighted target, assembled from parts.

    Useful when log_psi values are already at hand; run drivers use it to
    avoid recomputing the current point's density every step.
    """
    th = _as_theta(theta, m)
    return (th.component(j_x) - th.component(j_y)
            + log_psi_y - log_psi_x + log_q_bwd - log_q_fwd)


def samc_update(theta, m: int, j_visited: int, pi: np.ndarray,
                a: float) -> SamcTheta:
    """Gain-weighted step theta + a*(indicator - pi) on the free components.

    The full m-component update vector sums to zero by construction and
    has norm at most sqrt(2); both are asserted (debug runs only).
    """
    th = _as_theta(theta, m)
    if not 1 <= j_visited <= m:
        raise ValueError(f"visited label {j_visited} outside 1..{m}")
    pi = np.asarray(pi, dtype=float)
    indicator = np.zeros(m - 1)
    if j_visited < m:
        indicator[j_visited - 1] = 1.0
    h = indicator - pi[: m - 1]
    if __debug__:
        h_full = np.append(h, (1.0 if j_visited == m else 0.0) - pi[m - 1])
        assert abs(h_full.sum()) < 1e-12, "update vector must sum to zero"
        assert np.dot(h_full, h_full) <= 2.0 + 1e-12, "update norm exceeds sqrt(2)"
    return SamcTheta(th.theta + a * h, m)


def omega_hat(theta_bar, pi: np.ndarray) -> np.ndarray:
    """Subregion weight estimates from an averaged theta.

    Computed as softmax(log pi + extended theta): normalization happens in
    log space so huge theta components cannot overflow.
    """
    pi = np.asarray(pi, dtype=float)
    theta_bar = np.asarray(theta_bar, dtype=float)
    if theta_bar.shape != (pi.size - 1,):
        raise ValueError(
            f"theta_bar must have {pi.size - 1} components for {pi.size} subregions")
    log_w = np.log(pi) + np.append(theta_bar, 0.0)
    log_w -= log_w.max()
    w = np.exp(log_w)
    return w / w.sum()


def visit_freq(trace: RunTrace) -> np.ndarray:
    """Empirical subregion visiting frequencies over a completed run."""
    if trace.visit_counts is None:
        raise ValueError("trace carries no visit counts")
    return trace.visit_counts / trace.k


def _tabulate(model: SamcModel) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate log_psi and classify over a finite space once, up front."""
    n = model.space.n_states
    log_psi = np.array([float(model.log_psi(x)) for x in range(n)])
    labels = np.array([int(model.classify(x)) for x in range(n)], dtype=np.int64)
    if labels.min() < 1 or labels.max() > model.m:
        raise ValueError("classify must return labels in 1..m")
    return log_psi, labels


def run_samc(model: SamcModel, schedule: GainSchedule, ladder: TruncationLadder,
             k_max: int, seed: int, *, proposal: Proposal | None = None,
             snapshot_stride: int = 1000) -> RunTrace:
    """Run one adaptive chain for k_max steps; stores the full theta path.

    This is the vectorized engine with a single chain, so a solo run is
    bit-identical to the corresponding member of a batch.
    """
    return run_samc_batch(model, schedule, ladder, k_max, [seed], proposal=proposal,
                          snapshot_stride=snapshot_stride, store_thetas=True)[0]


def _step_bounds(gains: np.ndarray, row_norm: float, m: int,
                 theta_max: float) -> np.ndarray:
    """Bounds on the realized norm of each step of a block of iterations.

    Step k moves theta by a_k times one label's update row, so its norm is
    at most a_k * row_norm, widened for the rounding of the half step, of
    the difference and of the norm. That rounding scales with |theta|,
    whose entries stay below theta_max (the largest starting or reset
    entry) plus the block's summed gains, as update entries are below 1;
    the sum is doubled for slack. NaN or inf in, NaN or inf out.
    """
    theta_norm = 2.0 * np.sqrt(m - 1) * (theta_max + gains.sum())
    return (gains * row_norm + 2.0 ** -52 * theta_norm) * (1.0 + (m + 32) * 2.0 ** -50)


def _ball_may_fail(theta: np.ndarray, center: np.ndarray, radius: np.ndarray,
                   gains: np.ndarray, row_norm: float, m: int) -> bool:
    """False when no chain can leave its active ball within a fold block.

    theta holds each chain's iterate at the block's start. With no
    truncation in the block, radii stay put and each chain ends every step
    within the sum of the step bounds of where it started. NaN anywhere
    makes the test run.
    """
    dev = theta - center
    dev = np.sqrt(np.add.reduce(dev * dev, axis=1))
    reach = _step_bounds(gains, row_norm, m,
                         float(np.abs(theta).max(initial=0.0))).sum()
    bound = (dev + reach) * (1.0 + (m + 32) * 2.0 ** -50)
    return not bool(np.all(bound < radius))


def run_samc_batch(model: SamcModel, schedule: GainSchedule,
                   ladder: TruncationLadder, k_max: int, seeds: Sequence[int],
                   *, proposal: Proposal | None = None,
                   snapshot_stride: int = 1000,
                   store_thetas: bool = False) -> list[RunTrace]:
    """Run many finite-space chains in lockstep with vectorized arithmetic.

    Chain b is driven purely by default_rng(seeds[b]): each chain draws,
    per block of CHUNK iterations, first its proposal uniforms and then its
    acceptance uniforms. A batch member therefore reproduces the same
    chain run solo, bit for bit. The draws are kept step-major, one column
    per chain; that layout changes where a draw is stored, not which draw
    a step uses or the order in which a chain makes them.

    Iterates are folded into the compensated running sum in short blocks
    that end at every snapshot. The move test is skipped for a block of
    draws, and the ball test for a fold block, only when a bound padded
    for rounding shows that every chain passes it.
    """
    m, pi = model.m, model.pi
    n = model.space.n_states
    lock = Lockstep(schedule, ladder, k_max, seeds, m - 1, snapshot_stride,
                    store_thetas)
    if proposal is None:
        q = model.space.proposal
        proposal = DiscreteNeighbor(np.full((n, n), 1.0 / n) if q is None else q)
    if not isinstance(proposal, DiscreteNeighbor):
        raise TypeError("finite state spaces need a DiscreteNeighbor proposal")

    log_psi, labels = _tabulate(model)
    if proposal.matrix.shape != (n, n):
        raise ValueError("proposal matrix shape must match the state space")
    cdf = proposal._cdf
    q = proposal.matrix
    bad = (q > 0) & (q.T == 0)
    if bad.any():
        x_bad, y_bad = map(int, np.argwhere(bad)[0])
        raise ValueError(
            f"non-reversible proposal pair: q({x_bad},{y_bad}) > 0 "
            f"but q({y_bad},{x_bad}) = 0")
    log_q = np.where(q > 0, np.log(np.maximum(q, 1e-300)), -np.inf)
    # log MH ratio of the unweighted target, tabulated over ordered state
    # pairs; entries for pairs with no proposal mass are never gathered.
    # The broadcast order matches the per-step arithmetic bit for bit.
    with np.errstate(invalid="ignore"):
        ratio_table = (log_psi[None, :] - log_psi[:, None] + log_q.T) - log_q

    # per-label update rows and their squared norms; label j moves theta by
    # a * update_rows[j-1], which covers every possible step of the chain
    eye = np.eye(m)[:, : m - 1]
    update_rows = eye - pi[None, : m - 1]
    full = np.concatenate([update_rows, (np.eye(m)[:, m - 1:] - pi[None, m - 1:])],
                          axis=1)
    assert np.abs(full.sum(axis=1)).max() < 1e-12
    assert (full * full).sum(axis=1).max() <= 2.0 + 1e-12
    # the same rows extended by the pinned component, whose step is 0
    steps_ext = np.zeros((m, m))
    steps_ext[:, : m - 1] = update_rows
    row_norm = float(np.sqrt((update_rows * update_rows).sum(axis=1)).max())

    ladder = lock.ladder
    center = ladder.center
    reinit_theta = ladder.reinit_theta
    if center.shape != (m - 1,):
        raise ValueError(f"ladder center must have shape ({m - 1},)")
    x0 = ladder.reinit_state
    if x0 is None:
        raise ValueError("ladder.reinit_state must hold the initial state index")
    x0 = int(x0)
    if not 0 <= x0 < n:
        raise ValueError(f"initial state {x0} outside 0..{n - 1}")
    label_idx = labels - 1
    j0 = int(label_idx[x0])
    reinit_ext = np.append(reinit_theta, 0.0)
    reinit_max = float(np.abs(reinit_theta).max(initial=0.0))

    B = len(seeds)
    rows = np.arange(B)
    # path[r] holds every chain's extended theta after the r-th step of a
    # fold block (row 0: before it); the pinned last column stays 0, so
    # one flat gather reads theta's extended component for any label
    fold = max(1, min(FOLD_ROWS, FOLD_CELLS // max(1, B * m)))
    path = np.zeros((fold + 1, B, m))
    path[0] = reinit_ext
    path_flat = path.reshape(-1)
    ext_rows = list(path)
    free_rows = [row[:, : m - 1] for row in ext_rows]
    row_base = (np.arange(fold + 1)[:, None] * B + rows) * m
    visited = np.empty((fold, B), dtype=np.int64)  # label index after each step
    count_base = rows * m

    xs = np.full(B, x0, dtype=np.int64)
    ys = np.empty(B, dtype=np.int64)
    # row 0: the current state's label index, row 1: the proposal's
    labs = np.full((2, B), j0, dtype=np.int64)
    j_cur, j_prop = labs
    idx = np.empty((2, B), dtype=np.int64)
    th_pair = np.empty((2, B))
    th_x, th_y = th_pair
    cdf_rows = np.empty((B, n))
    above = np.empty((B, n), dtype=bool)
    accept = np.empty(B, dtype=bool)
    step = np.empty((B, m))
    sq = np.empty((B, m - 1))
    norm = np.empty(B)
    ok = np.empty(B, dtype=bool)
    inside = np.empty(B, dtype=bool)
    counts = np.zeros((B, m), dtype=np.int64)

    # one block of draws laid out step-major, one column per chain, so each
    # step reads contiguous (B,) uniforms
    u_prop = np.empty((min(CHUNK, k_max), B))
    u_acc = np.empty_like(u_prop)
    u_prop_col = u_prop[:, :, None]

    k = 0
    while k < k_max:
        length = min(CHUNK, k_max - k)
        for b, rng in enumerate(lock.rngs):
            u_prop[:length, b] = rng.random(length)
            u_acc[:length, b] = rng.random(length)
        gains, thresholds = lock.block_schedule(k, length)
        # the move test runs only on chunks where some step can exceed b_k
        theta_max = max(float(np.abs(ext_rows[0]).max(initial=0.0)), reinit_max)
        move_test = not np.all(
            _step_bounds(gains, row_norm, m, theta_max) < thresholds)
        c = 0
        while c < length:
            # a fold block ends at the chunk's end and at every snapshot
            steps = min(fold, length - c, lock.stride - k % lock.stride)
            # the bound costs about as much as two steps' ball tests
            ball_test = move_test or steps < 3 or _ball_may_fail(
                free_rows[0], center, lock.radius, gains[c:c + steps], row_norm, m)
            for i in range(steps):
                k += 1
                # proposal draw by inverse cdf on the current state's row:
                # the first entry above u is the count of entries <= u, as
                # the row is nondecreasing and ends at 1 > u
                cdf.take(xs, axis=0, out=cdf_rows, mode="clip")
                np.greater(cdf_rows, u_prop_col[c], out=above)
                above.argmax(axis=1, out=ys)
                log_r = ratio_table[xs, ys]
                label_idx.take(ys, out=j_prop, mode="clip")
                np.add(labs, row_base[i], out=idx)
                path_flat.take(idx, out=th_pair, mode="clip")
                np.subtract(th_x, th_y, out=th_x)
                np.add(log_r, th_x, out=log_r)
                np.minimum(0.0, log_r, out=log_r)
                np.exp(log_r, out=log_r)
                np.less(u_acc[c], log_r, out=accept)
                np.copyto(xs, ys, where=accept)
                np.copyto(j_cur, j_prop, where=accept)

                steps_ext.take(j_cur, axis=0, out=step, mode="clip")
                np.multiply(step, gains[c], out=step)
                np.add(ext_rows[i], step, out=ext_rows[i + 1])
                th_half = free_rows[i + 1]
                # norm of the realized difference, not of a*update: matches
                # the scalar truncation_decide arithmetic bit for bit
                if move_test:
                    np.subtract(th_half, free_rows[i], out=sq)
                    np.multiply(sq, sq, out=sq)
                    np.add.reduce(sq, axis=1, out=norm)
                    np.sqrt(norm, out=norm)
                    np.less_equal(norm, thresholds[c], out=ok)
                if ball_test:
                    np.subtract(th_half, center, out=sq)
                    np.multiply(sq, sq, out=sq)
                    np.add.reduce(sq, axis=1, out=norm)
                    np.sqrt(norm, out=norm)
                    if move_test:
                        np.less_equal(norm, lock.radius, out=inside)
                        np.logical_and(ok, inside, out=ok)
                    else:
                        np.less_equal(norm, lock.radius, out=ok)
                if ball_test and not np.logical_and.reduce(ok):
                    reset = ~ok
                    np.copyto(ext_rows[i + 1], reinit_ext, where=reset[:, None])
                    np.copyto(xs, x0, where=reset)
                    np.copyto(j_cur, j0, where=reset)
                    lock.reset(reset, k)
                np.copyto(visited[i], j_cur)
                c += 1

            counts += np.bincount((visited[:steps] + count_base).ravel(),
                                  minlength=B * m).reshape(B, m)
            lock.fold(path[1:steps + 1, :, : m - 1], k, counts)
            path[0] = path[steps]

    return lock.traces(free_rows[0], xs.tolist(), counts)
