"""Stochastic approximation Monte Carlo: model tables, estimates and engines.

The sampler targets a reweighted density proportional to psi(x) *
exp(-theta^(j(x))) on each of m labeled subregions and adapts theta so
that each subregion is visited with a prescribed frequency pi. Only the
first m-1 components of theta are free; the last is pinned at zero, so
trial densities are invariant to the additive drift the update would
otherwise accumulate.

A solo run is run_sa on the chain's tables; batches run on a vectorized
multi-chain engine. Both are bit-for-bit reproducible chain by chain, and
a solo run equals the matching batch member.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .oracle import FiniteChainSpec
from .sa import (GainSchedule, Lockstep, NonFiniteIterateError, RunTrace,
                 SaProblem, TruncationLadder, mh_accept, run_sa)

__all__ = [
    "SamcModel",
    "run_samc",
    "run_samc_batch",
    "visit_freq",
]

# iterations per block of draws: each chain draws a block's proposal
# uniforms, then its acceptance ones (the draw-order contract, see
# run_samc_batch)
CHUNK = 8192
# steps of draws the vectorized engine holds per chain at a time, each
# chain's in one contiguous row; bounds its memory without changing any draw
DRAW_ROWS = 512
# steps folded into the compensated running sum at a time: at most
# FOLD_ROWS steps and FOLD_CELLS extended theta entries, so the fold
# buffers stay small at large batch sizes. The fold takes the extended
# rows whole, pinned component included, so they stay contiguous; from
# sa.ROW_LOOP_CELLS entries per row (B * m) it sums them row by row
FOLD_ROWS = 64
FOLD_CELLS = 16384


@dataclass(frozen=True)
class SamcModel:
    """A finite chain and the engine's tables for it, built by from_chain.

    cdf holds the proposal's row cdfs. ratio_table holds the log MH ratio
    of the unweighted target over ordered state pairs; entries for pairs
    with no proposal mass are never read. Label j moves theta by a times
    steps[j-1], the update row extended by the pinned component, whose
    step is 0; row_norm is the largest norm of a row's free part.
    """

    chain: FiniteChainSpec
    cdf: np.ndarray = field(repr=False)
    ratio_table: np.ndarray = field(repr=False)
    steps: np.ndarray = field(repr=False)
    row_norm: float
    m: int

    @classmethod
    def from_chain(cls, chain: FiniteChainSpec) -> "SamcModel":
        q, log_psi, m = chain.proposal, chain.log_psi, chain.m
        bad = (q > 0) & (q.T == 0)
        if bad.any():
            x_bad, y_bad = map(int, np.argwhere(bad)[0])
            raise ValueError(
                f"non-reversible proposal pair: q({x_bad},{y_bad}) > 0 "
                f"but q({y_bad},{x_bad}) = 0")
        cdf = np.cumsum(q, axis=1)
        cdf[:, -1] = 1.0
        log_q = np.where(q > 0, np.log(np.maximum(q, 1e-300)), -np.inf)
        # the broadcast order matches the per-step arithmetic bit for bit
        with np.errstate(invalid="ignore"):
            ratio_table = (log_psi[None, :] - log_psi[:, None] + log_q.T) - log_q
        # row j: the indicator of label j+1 less pi, the pinned component 0
        steps = np.eye(m) - chain.pi
        steps[:, -1] = 0.0
        free = steps[:, : m - 1]
        return cls(chain, cdf, ratio_table, steps,
                   float(np.sqrt((free * free).sum(axis=1)).max()), m)


def visit_freq(trace: RunTrace) -> np.ndarray:
    """Empirical subregion visiting frequencies over a completed run."""
    if trace.visit_counts is None:
        raise ValueError("trace carries no visit counts")
    return trace.visit_counts / trace.k


def _initial_state(model: SamcModel, ladder: TruncationLadder) -> int:
    """The state every run starts and restarts at, checked against the model."""
    if ladder.center.shape != (model.m - 1,):
        raise ValueError(f"ladder center must have shape ({model.m - 1},)")
    if ladder.reinit_state is None:
        raise ValueError("ladder.reinit_state must hold the initial state index")
    x0, n = int(ladder.reinit_state), model.chain.n_states
    if not 0 <= x0 < n:
        raise ValueError(f"initial state {x0} outside 0..{n - 1}")
    return x0


def samc_problem(model: SamcModel) -> SaProblem:
    """One chain of run_samc_batch as a run_sa problem, with the same draws.

    A step returns the new state and its label's update row. Acceptance
    is mh_accept, which decides as the batch engine's numpy exp. Each run
    draws from its own rng, block by block, for the k_max steps it takes.
    """
    cdf, n, d = model.cdf, model.chain.n_states, model.m - 1
    # bisect only the entries where a row rises: the first above u < 1 is one
    xs, ys = np.nonzero(np.diff(cdf, axis=1, prepend=-1.0) > 0)
    bounds = np.searchsorted(xs, np.arange(n + 1)).tolist()
    targets, levels = ys.tolist(), cdf[xs, ys].tolist()
    ratios = model.ratio_table[xs, ys].tolist()
    labels, rows = model.chain.labels0.tolist(), model.steps[:, :d].tolist()

    def start(rng, x0, k_max):
        # per block of CHUNK steps: the proposal uniforms, then the acceptance ones
        blocks = (rng.random(min(CHUNK, k_max - k)) for k in range(0, k_max, CHUNK))
        draws = (pair for u_prop in blocks
                 for pair in zip(u_prop.tolist(), rng.random(u_prop.size).tolist()))

        def step(theta, x):
            u_prop, u_acc = next(draws)
            i = bisect_right(levels, u_prop, bounds[x], bounds[x + 1])
            y = targets[i]
            jx, jy = labels[x], labels[y]
            # theta_x - theta_y, with the pinned component 0
            log_r = ratios[i] + ((theta[jx] if jx < d else 0.0)
                                 - (theta[jy] if jy < d else 0.0))
            return (y, rows[jy]) if mh_accept(log_r, u_acc) else (x, rows[jx])

        return step

    return SaProblem(start=start, labels=labels, h_norm_max=model.row_norm)


def run_samc(model: SamcModel, schedule: GainSchedule, ladder: TruncationLadder,
             k_max: int, seed: int, *, snapshot_stride: int = 1000) -> RunTrace:
    """Run one adaptive chain for k_max steps; stores the full theta path.

    This is run_sa on samc_problem, so a solo run is bit-identical to the
    corresponding member of a batch, at a fraction of its cost per step.
    """
    ladder = replace(ladder, reinit_state=_initial_state(model, ladder))
    return run_sa(samc_problem(model), schedule, ladder, k_max, seed,
                  snapshot_stride=snapshot_stride)


@np.errstate(over="ignore")
def run_samc_batch(model: SamcModel, schedule: GainSchedule,
                   ladder: TruncationLadder, k_max: int, seeds: Sequence[int],
                   *, snapshot_stride: int = 1000,
                   store_thetas: bool = False) -> list[RunTrace]:
    """Run many finite-space chains in lockstep with vectorized arithmetic.

    Chain b is driven purely by default_rng(seeds[b]): each chain draws,
    per block of CHUNK iterations, first its proposal uniforms and then its
    acceptance uniforms. A batch member therefore reproduces the same
    chain run solo, bit for bit. The engine holds DRAW_ROWS steps of draws
    per chain at a time, chain-major, one contiguous row per chain: each
    chain draws those steps' proposal uniforms, jumps its PCG64 ahead to
    their acceptance uniforms, draws them and jumps back. random spends one
    64-bit output per double, so the jumps change where and when a draw is
    made, not which draw a step uses or where a chain's stream ends a block.

    Iterates are folded into the compensated running sum in short blocks
    that end at every snapshot, as contiguous extended rows whose pinned
    component sums to exactly 0. Per fold block, the block's proposal
    uniforms are copied step-major, each step's gain scales every update
    row at once, and the visits are read off the theta gather's index at
    the block's end. The truncation test is skipped for a fold block only
    when Lockstep.may_truncate, the bound run_sa skips by, shows that every
    chain passes both its move and its ball test there. The test takes the
    iterate before the step: the realized difference, not a*update,
    matches run_sa bit for bit, and a nonfinite half-step raises as there.
    """
    m, n = model.m, model.chain.n_states
    x0 = _initial_state(model, ladder)
    lock = Lockstep(schedule, ladder, k_max, seeds, snapshot_stride, store_thetas)
    cdf, ratio_table, steps_ext = model.cdf, model.ratio_table, model.steps

    label_idx = model.chain.labels0
    j0 = int(label_idx[x0])
    reinit_ext = np.append(ladder.center, 0.0)

    B = len(seeds)
    # path[r] holds every chain's extended theta after the r-th step of a
    # fold block (row 0: before it); the pinned last column stays 0, so
    # one flat gather reads theta's extended component for any label
    fold = max(1, min(FOLD_ROWS, FOLD_CELLS // max(1, B * m)))
    path = np.zeros((fold + 1, B, m))
    path[0] = reinit_ext
    path_flat = path.reshape(-1)
    ext_rows = list(path)
    free_rows = [row[:, : m - 1] for row in ext_rows]
    # idx[i] gathers step i's label pair from path[i] at offsets base[i];
    # idx[i + 1, 0] less base[i + 1, 0, 0] is j + b*m for label j after step i
    base = np.repeat((np.arange((fold + 1) * B) * m).reshape(-1, 1, B), 2, axis=1)
    idx = np.empty_like(base)

    # rows: the state, its label index, the proposal's label index, the
    # proposal; one copy moves the proposal's pair into the state's
    st = np.empty((4, B), dtype=np.int64)
    xs, j_cur, j_prop, ys = st
    cur, labs, prop = st[:2], st[1:3], st[3:1:-1]
    start = np.array([[x0], [j0]])
    cur[:] = start
    th_pair = np.empty((2, B))
    th_x, th_y = th_pair
    cdf_rows = np.empty((B, n))
    above = np.empty((B, n), dtype=bool)
    accept = np.empty(B, dtype=bool)
    counts = np.zeros((B, m), dtype=np.int64)

    # DRAW_ROWS steps of a block's draws laid out chain-major, one row per
    # chain, so each chain fills a contiguous run; a fold block copies its
    # proposal uniforms step-major, so a step compares a contiguous column
    u_prop = np.empty((B, min(DRAW_ROWS, k_max)))
    u_acc = np.empty_like(u_prop)
    u_col = np.empty((fold, B, 1))

    k = 0
    while k < k_max:
        length = min(CHUNK, k_max - k)
        gains, thresholds = map(np.array, lock.block_schedule(k, length))
        c = 0
        while c < length:
            if c % DRAW_ROWS == 0:
                # each rng sits at step c's proposal uniform; its acceptance
                # uniform lies length - held outputs past the last one drawn
                held = min(DRAW_ROWS, length - c)
                for b, rng in enumerate(lock.rngs):
                    rng.random(out=u_prop[b, :held])
                    if held < length:
                        rng.bit_generator.advance(length - held)
                    rng.random(out=u_acc[b, :held])
                    if c + held < length:
                        rng.bit_generator.advance(-length)
            # a fold block ends at the chunk's end, at every snapshot and
            # where the held draws run out
            steps = min(fold, length - c, lock.stride - k % lock.stride,
                        DRAW_ROWS - c % DRAW_ROWS)
            test = lock.may_truncate(free_rows[0], gains[c:c + steps],
                                     thresholds[c:c + steps], model.row_norm)
            cols = slice(c % DRAW_ROWS, c % DRAW_ROWS + steps)
            np.copyto(u_col[:steps, :, 0], u_prop[:, cols].T)
            # each step's gain times every label's update row, the same
            # doubles as the product formed per step
            scaled = np.multiply.outer(gains[c:c + steps], steps_ext)
            for i, u_p, u_a, rows_i, b_i, base_i, idx_i in zip(
                    range(steps), u_col, u_acc[:, cols].T, scaled,
                    thresholds[c:c + steps], base, idx):
                # proposal draw by inverse cdf on the current state's row:
                # the first entry above u is the count of entries <= u, as
                # the row is nondecreasing and ends at 1 > u
                cdf.take(xs, axis=0, out=cdf_rows, mode="clip")
                np.greater(cdf_rows, u_p, out=above)
                above.argmax(axis=1, out=ys)
                log_r = ratio_table[xs, ys]
                label_idx.take(ys, out=j_prop, mode="clip")
                np.add(labs, base_i, out=idx_i)
                path_flat.take(idx_i, out=th_pair, mode="clip")
                np.subtract(th_x, th_y, out=th_x)
                np.add(log_r, th_x, out=log_r)
                # u < 1, so exp(r) decides as exp(min(r, 0)) would
                np.exp(log_r, out=log_r)
                np.less(u_a, log_r, out=accept)
                np.copyto(cur, prop, where=accept)

                rows_i.take(j_cur, axis=0, out=ext_rows[i + 1], mode="clip")
                np.add(ext_rows[i + 1], ext_rows[i], out=ext_rows[i + 1])
                if test:
                    reset = lock.outside(free_rows[i + 1], free_rows[i], b_i)
                    if reset is not None:
                        bad = ~np.isfinite(free_rows[i + 1]).all(axis=1)
                        if bad.any():   # a nonfinite half-step fails the test
                            raise NonFiniteIterateError(
                                k + i + 1, free_rows[i + 1][bad.argmax()])
                        np.copyto(ext_rows[i + 1], reinit_ext, where=reset[:, None])
                        np.copyto(cur, start, where=reset)
                        lock.reset(reset, k + i + 1)
            k += steps
            c += steps

            np.add(labs, base[steps], out=idx[steps])
            after = idx[1:steps + 1, 0] - base[1:steps + 1, 0, :1]
            counts += np.bincount(after.ravel(), minlength=B * m).reshape(B, m)
            lock.fold(path[1:steps + 1], k, counts)
            path[0] = path[steps]

    return lock.traces(free_rows[0], xs.tolist(), counts)
