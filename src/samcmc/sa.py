"""Varying-truncation stochastic approximation with trajectory averaging.

The driver iterates

    x_{k+1}  ~ one kernel step at the current parameter
    theta'   = theta_k + a_k * H(theta_k, x_{k+1})
    accept theta' if it moved at most b_k and stayed inside the active
    compact set; otherwise reset (theta, x) to the run's initial point and
    enlarge the active set.

Estimates are read off as running averages of the iterates, which is what
makes the plain recursion asymptotically efficient regardless of the gain
constant. Gain and threshold sequences are power laws a_k = c1*k^-eta,
b_k = c2*k^-xi; `validate_schedule` checks the summability conditions the
convergence theory needs, clause by clause.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

__all__ = [
    "GainSchedule",
    "KahanSum",
    "NonFiniteIterateError",
    "RunTrace",
    "SaProblem",
    "ScheduleClause",
    "ScheduleValidationError",
    "Snapshot",
    "TruncationLadder",
    "ValidationReport",
    "gain_at",
    "run_sa",
    "threshold_at",
    "trajectory_average",
    "validate_schedule",
]


@dataclass(frozen=True)
class GainSchedule:
    """Power-law gain a_k = c1*k^-eta and move threshold b_k = c2*k^-xi.

    tau and alpha do not enter the sequences themselves; they are the
    noise-moment and drift exponents the validator needs to check the
    summability conditions.
    """

    c1: float = 1.0
    eta: float = 0.7
    c2: float = 2.0
    xi: float = 0.55
    tau: float = 0.5
    alpha: float = 10.0

    def __post_init__(self):
        # written so that NaN fails each test
        if not (0 < self.c1 < np.inf and 0 < self.c2 < np.inf):
            raise ValueError("gain and threshold scales must be positive and finite")
        if not 0 < self.tau <= 1:
            raise ValueError("tau must lie in (0, 1]")
        if not self.alpha >= 2:
            raise ValueError("alpha must be >= 2")


def gain_at(schedule: GainSchedule, k: int) -> float:
    return schedule.c1 * k ** -schedule.eta


def threshold_at(schedule: GainSchedule, k: int) -> float:
    return schedule.c2 * k ** -schedule.xi


@dataclass(frozen=True)
class ScheduleClause:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    clauses: tuple[ScheduleClause, ...]
    tau_interval: tuple[float, float] | None   # valid tau range when eta in (1/2, 1)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.clauses)

    @property
    def first_failure(self) -> ScheduleClause | None:
        for c in self.clauses:
            if not c.passed:
                return c
        return None

    def __str__(self) -> str:
        lines = [f"[{'pass' if c.passed else 'FAIL'}] {c.name}: {c.detail}"
                 for c in self.clauses]
        if self.tau_interval is not None:
            lo, hi = self.tau_interval
            lines.append(f"[info] valid tau exists: ({lo:.6g}, {hi:g}]")
        else:
            lines.append("[info] no valid tau in (0, 1] (requires 1/2 < eta < 1)")
        return "\n".join(lines)


class ScheduleValidationError(ValueError):
    """Raised when a schedule is rejected; carries the full report."""

    def __init__(self, report: ValidationReport):
        self.report = report
        worst = report.first_failure
        super().__init__(f"invalid gain schedule: fails \"{worst.name}\" ({worst.detail})")


def validate_schedule(schedule: GainSchedule) -> ValidationReport:
    """Evaluate the gain-sequence conditions symbolically for power laws.

    Each clause is an exact exponent inequality, so the report is a proof,
    not a numerical probe. Rejection messages cite the first failing clause
    in the order listed.
    """
    eta, xi, tau, alpha = schedule.eta, schedule.xi, schedule.tau, schedule.alpha
    clauses = [
        ScheduleClause(
            "positive nonincreasing",
            eta >= 0 and xi >= 0,
            f"requires eta >= 0 and xi >= 0; eta={eta:g}, xi={xi:g}"),
        ScheduleClause(
            "sum a_k = infinity",
            eta <= 1,
            f"requires eta <= 1; eta={eta:g}"),
        ScheduleClause(
            "lim k*a_k = infinity",
            eta < 1,
            f"requires eta < 1; eta={eta:g}"),
        ScheduleClause(
            "(a_{k+1}-a_k)/a_k = o(a_{k+1})",
            eta < 1,
            f"holds for power laws iff eta < 1; eta={eta:g}"),
        ScheduleClause(
            "a_k = O(k^-eta) requires eta > 1/2",
            eta > 0.5,
            f"eta={eta:g}"),
        ScheduleClause(
            "sum a_k^((1+tau)/2)/sqrt(k) < infinity",
            eta * (1.0 + tau) / 2.0 + 0.5 > 1.0,
            f"requires eta*(1+tau)/2 + 1/2 > 1; got {eta * (1 + tau) / 2 + 0.5:g}"),
        ScheduleClause(
            "sum a_i*b_i < infinity",
            eta + xi > 1,
            f"requires eta + xi > 1; got {eta + xi:g}"),
        ScheduleClause(
            "sum (a_i/b_i)^alpha < infinity",
            alpha * (eta - xi) > 1,
            f"requires alpha*(eta-xi) > 1; got {alpha * (eta - xi):g}"),
    ]
    tau_interval = None
    if 0.5 < eta < 1.0:
        tau_interval = (max(0.0, 1.0 / eta - 1.0), 1.0)
    return ValidationReport(clauses=tuple(clauses), tau_interval=tau_interval)


# ---------------------------------------------------------------------------
# truncation ladder
# ---------------------------------------------------------------------------

@dataclass
class TruncationLadder:
    """Nested norm balls K_s of radius r0*growth^s around a fixed center.

    A run's truncation count s selects the active ball. The reset map is
    deterministic: back to (center, reinit_state), where every run starts.
    """

    center: np.ndarray
    r0: float = 10.0
    growth: float = 10.0
    reinit_state: Any = None

    def __post_init__(self):
        self.center = np.atleast_1d(np.asarray(self.center, dtype=float))
        # written so that NaN fails each test
        if not self.r0 > 0:
            raise ValueError("r0 must be positive")
        if not self.growth > 1:
            raise ValueError("growth must exceed 1")
        if not np.all(np.isfinite(self.center)):
            raise ValueError("center must be finite")

    def radius_at(self, s: int | np.ndarray) -> float | np.ndarray:
        """Radius of K_s for a count or an integer array of counts.

        Past float range the ball saturates to all of R^d. A count is
        computed as a length-1 array, since numpy's power may round a 0-d
        operand differently from an array element.
        """
        with np.errstate(over="ignore"):
            radius = self.r0 * self.growth ** np.array(s, dtype=float, ndmin=1)
        return radius if np.ndim(s) else radius[0]


# ---------------------------------------------------------------------------
# run traces
# ---------------------------------------------------------------------------

class KahanSum:
    """Compensated vector accumulator; keeps averages exact over long runs.

    Neumaier's variant of Kahan summation: the branch keeps the low-order
    bits even when an addend cancels the running total outright.
    """

    def __init__(self, shape):
        self.total = np.zeros(shape)
        self._comp = np.zeros(shape)
        # per block: both running sums from the state before it and the
        # branch of each correction; reused while blocks fit
        self._work = np.empty((2, 0) + self.total.shape)
        self._ge = np.empty((0,) + self.total.shape, dtype=bool)

    def add(self, v: np.ndarray) -> None:
        self.add_rows(np.asarray(v)[None])

    def add_rows(self, rows: np.ndarray) -> None:
        """Add rows[0], rows[1], ... in turn.

        Both running sums are sequential: rows of at least ROW_LOOP_CELLS
        entries are added one at a time, narrower ones with
        np.add.accumulate, which makes the same additions in the same
        order. Either way the state left behind matches one add per row
        bit for bit.
        """
        rows = np.ascontiguousarray(rows)
        n = len(rows)
        if self._work.shape[1] <= n:
            self._work = np.empty((2, n + 1) + self.total.shape)
            self._ge = np.empty((n,) + self.total.shape, dtype=bool)
        totals, comps = self._work[:, :n + 1]
        before, after, fix, ge = totals[:-1], totals[1:], comps[1:], self._ge[:n]
        # the correction where the running total is the larger operand
        big = np.empty((n,) + self.total.shape)
        totals[0], comps[0] = self.total, self._comp
        by_row = self.total.size >= ROW_LOOP_CELLS
        _running_sum(totals, rows, by_row)
        # each add's rounding error, computed from its larger operand
        np.abs(before, out=big)
        np.abs(rows, out=fix)
        np.greater_equal(big, fix, out=ge)
        np.subtract(before, after, out=big)
        np.add(big, rows, out=big)
        np.subtract(rows, after, out=fix)
        np.add(fix, before, out=fix)
        np.copyto(fix, big, where=ge)
        _running_sum(comps, fix, by_row)
        self.total, self._comp = totals[-1].copy(), comps[-1].copy()

    @property
    def value(self) -> np.ndarray:
        # fold the pending correction; total alone can be short by the
        # entire low-order mass parked in the compensation term
        return self.total + self._comp


# entries per row from which KahanSum adds rows one at a time: on short
# blocks np.add.accumulate runs as a scalar loop over the first axis, and
# one np.add per row is faster past about this width
ROW_LOOP_CELLS = 256


def _running_sum(sums: np.ndarray, rows: np.ndarray, by_row: bool) -> None:
    """sums[i + 1] = sums[i] + rows[i] in turn, from the given sums[0].

    rows may be sums[1:] itself.
    """
    if by_row:
        for i, row in enumerate(rows):
            np.add(sums[i], row, out=sums[i + 1])
    else:
        np.copyto(sums[1:], rows)
        np.add.accumulate(sums, axis=0, out=sums)


@dataclass(frozen=True)
class Snapshot:
    """Periodic record of a run: iterate, visit frequencies, running sum."""

    k: int
    theta: np.ndarray
    pi_hat: np.ndarray | None
    sigma: int
    theta_sum: np.ndarray


@dataclass
class RunTrace:
    """History of one run.

    thetas holds every iterate (row k-1 is theta_k); replication drivers may
    drop it (None) and keep only snapshots plus running sums. running_sum is
    the compensated componentwise sum of all k iterates.
    """

    thetas: np.ndarray | None
    sigma_events: list[int]
    running_sum: np.ndarray
    k: int
    seed: int
    visit_counts: np.ndarray | None = None
    snapshots: list[Snapshot] = field(default_factory=list)
    final_theta: np.ndarray | None = None
    final_sigma: int = 0
    final_state: Any = None


class NonFiniteIterateError(RuntimeError):
    """A parameter update produced NaN or infinity; signals a model bug."""

    def __init__(self, k: int, theta_half: np.ndarray):
        self.iteration = k
        self.theta_half = np.asarray(theta_half)
        bad = np.flatnonzero(~np.isfinite(self.theta_half))[0]
        super().__init__(
            f"nonfinite parameter update at iteration {k}: "
            f"component {bad} = {self.theta_half[bad]}")


def trajectory_average(trace: RunTrace, k0: int = 0) -> np.ndarray:
    """Mean of iterates theta_{k0+1}..theta_k; k0 = 0 averages the whole run."""
    if k0 < 0:
        raise ValueError("k0 must be nonnegative")
    if k0 >= trace.k:
        raise ValueError("empty averaging window")
    if trace.thetas is not None:
        return trace.thetas[k0:].mean(axis=0)
    if k0 == 0:
        return trace.running_sum / trace.k
    for snap in trace.snapshots:
        if snap.k == k0:
            return (trace.running_sum - snap.theta_sum) / (trace.k - k0)
    raise ValueError(
        f"light trace: k0={k0} must be 0 or a snapshot point for averaging")


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx) on uint32
# words: its t-th hashmix call xors with init * mult**t and multiplies by
# the next power, so every call's constants are known ahead
_POOL_MIX, _STATE_MIX = (
    np.array([init * pow(mult, t, 2**32) % 2**32 for t in range(calls + 1)], dtype=np.uint32)
    for init, mult, calls in [(0x43B0D7E5, 0x931E8875, 16), (0x8B51F9DD, 0x58F38DED, 8)])


def _hashmix(words: np.ndarray, consts: np.ndarray) -> np.ndarray:
    words = (words ^ consts[:-1]) * consts[1:]
    return words ^ (words >> 16)


@dataclass
class _StateWords:
    """A seed sequence whose words for PCG64, generate_state(4, uint64), are hashed."""

    words: np.ndarray

    def generate_state(self, n_words, dtype=None) -> np.ndarray:
        return self.words


def _rngs(seeds: Sequence) -> list:
    """default_rng(seed) for every seed, the seeds hashed in one array pass.

    An integer seed in [0, 2**128) is at most the 4 words of SeedSequence's
    pool, zero-padded, and is hashed here as SeedSequence hashes it: the
    words, the cross-mix, then generate_state(4, uint64). Any other seed
    goes to default_rng, so it gets the same stream or exception as there.
    So does a single seed, as the hash pays only from about ten.
    """
    from numpy.random import PCG64, Generator, bit_generator, default_rng
    if len(seeds) == 1:
        return [default_rng(seeds[0])]
    bit_generator.ISeedSequence.register(_StateWords)
    ints = [int(s) if isinstance(s, (int, np.integer)) else -1 for s in seeds]
    hashed = [0 <= n < 2 ** 128 for n in ints]
    # each seed's 4 words, low first, into the pool, then each into the rest
    words = np.array([[n % 2**64, n >> 64] for n, h in zip(ints, hashed) if h],
                     dtype=np.uint64).reshape(-1, 2).astype("<u8").view("<u4")
    pool = _hashmix(words, _POOL_MIX[:5])
    for src, t in enumerate(range(4, 16, 3)):
        dst = [j for j in range(4) if j != src]
        mixed = (pool[:, dst] * 0xCA01F9DD
                 - _hashmix(pool[:, src:src + 1], _POOL_MIX[t:t + 4]) * 0x4973F715)
        pool[:, dst] = mixed ^ (mixed >> 16)
    state = iter(_hashmix(np.tile(pool, 2), _STATE_MIX)
                 .astype("<u4").view("<u8").astype(np.uint64))
    return [Generator(PCG64(_StateWords(next(state)))) if h else default_rng(s)
            for s, h in zip(seeds, hashed)]


class Lockstep:
    """Bookkeeping of B chains that an engine runs in lockstep.

    Chain b draws only from rngs[b] = default_rng(seeds[b]). The engine
    moves every chain, tests its half-steps a step or a block at a time
    (outside, unless may_truncate shows that none can fail) and reports
    truncations (reset) and blocks of iterates (fold); this class keeps
    the truncation rule's ball, each chain's truncation count and
    iterations, the array of radii that reset rebinds, the compensated
    sums, the stored iterates if asked for, and the snapshots.
    """

    def __init__(self, schedule: GainSchedule, ladder: TruncationLadder,
                 k_max: int, seeds: Sequence[int], snapshot_stride: int,
                 store_thetas: bool):
        if k_max < 1:
            raise ValueError("k_max must be >= 1")
        if snapshot_stride < 1:
            raise ValueError("snapshot_stride must be >= 1")
        if len(seeds) < 1:
            raise ValueError("seeds must hold at least one seed")
        self.schedule, self.k_max, self.seeds = schedule, k_max, seeds
        self.ladder, self.d = ladder, ladder.center.size
        self.stride = snapshot_stride
        B = len(seeds)
        self.rngs = _rngs(seeds)
        self.sig = np.zeros(B, dtype=np.int64)
        self.events: list[list[int]] = [[] for _ in range(B)]
        self.ksum: KahanSum | None = None   # as wide as the folded rows
        self.thetas = np.empty((B, k_max, self.d)) if store_thetas else None
        self.snaps: list[list[Snapshot]] = [[] for _ in range(B)]
        self.radius = ladder.radius_at(self.sig)

    def block_schedule(self, k: int, length: int) -> tuple[list[float], list[float]]:
        """Gains a_j and move thresholds b_j for iterations j = k+1..k+length."""
        js = range(k + 1, k + length + 1)
        return ([gain_at(self.schedule, j) for j in js],
                [threshold_at(self.schedule, j) for j in js])

    def outside(self, half: np.ndarray, prev: np.ndarray,
                b: float | np.ndarray) -> np.ndarray | None:
        """Truncation test of every chain's half-step, at one step or many.

        half holds each chain's half-step and prev its iterate before the
        step, both (..., B, d): one step's (B, d) or n steps' (n, B, d). b
        holds the move threshold b_k of each step, or a limit per chain and
        step; the ball has the ladder's center and each chain's radius,
        which holds through a block, as no chain resets within one. Returns
        None when every step passes both, else the mask (half.shape[:-1])
        of steps to reset; a NaN or inf half-step fails, as b_k is finite.
        Each norm is a running sum of squares along the last axis, so
        summed left to right as _dist sums it, and 0 at d = 0; the rest is
        elementwise, so a step's norms do not depend on its block.
        """
        shape = half.shape[:-2] + (2, half.shape[-2])
        sq = np.zeros(shape + (max(self.d, 1),))
        limits = np.empty(shape)
        limits[..., 0, :] = np.reshape(b, shape[:-2] + (-1,))
        limits[..., 1, :] = self.radius
        np.subtract(half, prev, out=sq[..., 0, :, :self.d])
        np.subtract(half, self.ladder.center, out=sq[..., 1, :, :self.d])
        np.multiply(sq, sq, out=sq)
        if self.d > 1:      # else each total is its one square already
            np.add.accumulate(sq, axis=-1, out=sq)
        within = np.sqrt(sq[..., -1]) <= limits
        if np.count_nonzero(within) == within.size:
            return None
        return ~(within[..., 0, :] & within[..., 1, :])

    def may_truncate(self, theta: np.ndarray, gains: np.ndarray,
                     thresholds: np.ndarray, h_norm_max: float) -> bool:
        """False when no chain can fail the truncation test within a block.

        theta (B, d) holds each chain's iterate at the block's start, and
        ||H|| <= h_norm_max at every step. Step j moves theta by a_j * H,
        so its norm is at most a_j * h_norm_max, widened for the rounding
        of the half step, of the difference and of the norm. That rounding
        scales with |theta|, whose entries stay below their largest value
        at the start plus the summed a_j * h_norm_max, as no entry of H
        exceeds its norm; the sum is doubled for slack. The pad of
        (d + 33) * 2**-50 covers the norm, a left-to-right sum of d
        squares, whose relative error is at most (d - 1) * 2**-53. While no
        chain truncates, radii stay put and each chain stays within the
        summed step bounds of its start, so by induction none truncates,
        and every half-step is finite. No norm may reach 2**511, whose
        square overflows; NaN or inf anywhere makes the test run.
        """
        d = self.d
        pad = 1.0 + (d + 33) * 2.0 ** -50
        theta_norm = 2.0 * np.sqrt(d) * (np.abs(theta).max(initial=0.0)
                                         + gains.sum() * h_norm_max)
        bounds = (gains * h_norm_max + 2.0 ** -52 * theta_norm) * pad
        dev = np.linalg.norm(theta - self.ladder.center, axis=1)
        return not (np.all(bounds < thresholds) and np.all(
            (dev + bounds.sum()) * pad < np.minimum(self.radius, 2.0 ** 511)))

    def reset(self, mask: np.ndarray, k: int) -> None:
        """Count a truncation at iteration k for every chain in mask."""
        self.sig += mask
        self.radius = self.ladder.radius_at(self.sig)
        for b in np.nonzero(mask)[0]:
            self.events[b].append(k)

    def fold(self, rows: np.ndarray, k: int,
             counts: np.ndarray | None = None) -> None:
        """Add the iterates of the steps that end at iteration k.

        rows has shape (steps, B, width), width >= d: the iterates are the
        first d entries of a row, and the sums run over the whole row, so
        an engine can fold contiguous rows that carry extra columns. Every
        fold of a run must have the same width; only [:d] is reported. When
        k is a snapshot point, each chain records one; counts, if the
        engine keeps them, are the (B, m) visit counts after step k.
        """
        if self.ksum is None:
            self.ksum = KahanSum(rows.shape[1:])
        self.ksum.add_rows(rows)
        d = self.d
        if self.thetas is not None:
            self.thetas[:, k - len(rows):k] = rows[:, :, :d].transpose(1, 0, 2)
        if k % self.stride == 0 or k == self.k_max:
            # each field made once for the batch; each chain gets its row
            pi_hat = [None] * len(self.snaps) if counts is None else counts / k
            for snaps, theta, p, sigma, theta_sum in zip(
                    self.snaps, rows[-1, :, :d].copy(), pi_hat, self.sig.tolist(),
                    self.ksum.value[:, :d]):
                snaps.append(Snapshot(k=k, theta=theta, pi_hat=p, sigma=sigma,
                                      theta_sum=theta_sum))

    def traces(self, theta: np.ndarray, states: Sequence,
               counts: np.ndarray | None = None) -> list[RunTrace]:
        """One trace per chain, given the final iterates and sample points."""
        none = [None] * len(self.seeds)
        return [
            RunTrace(thetas=thetas, sigma_events=events, running_sum=total,
                     k=self.k_max, seed=seed, visit_counts=visits,
                     snapshots=snaps, final_theta=final, final_sigma=sigma,
                     final_state=state)
            for thetas, events, total, seed, visits, snaps, final, sigma, state
            in zip(none if self.thetas is None else self.thetas, self.events,
                   self.ksum.value[:, :self.d], self.seeds,
                   none if counts is None else counts.copy(), self.snaps,
                   theta.copy(), self.sig.tolist(), states)
        ]


@dataclass(frozen=True)
class SaProblem:
    """A generic stochastic-approximation problem.

    start(rng, x0, k_max) begins a run of k_max steps from sample point
    x0, drawing from rng, and returns the run's step(theta, x). A step
    moves the sample chain one step from x, leaving the theta-indexed
    stationary law invariant (caller's obligation), and returns (x_new,
    H(theta, x_new)), the direction a sequence of floats. It gets theta
    as a list of floats, which it must not modify. If labels is given,
    labels[x] is the subregion index of sample point x, from 0 to
    max(labels), and run_sa counts the visits. If h_norm_max is given,
    ||H(theta, x)|| never exceeds it, and run_sa skips the truncation
    test where Lockstep.may_truncate allows.
    """

    start: Callable[[np.random.Generator, Any, int],
                    Callable[[list[float], Any], tuple[Any, Sequence[float]]]]
    labels: Sequence[int] | None = None
    h_norm_max: float | None = None


def _dist(u: Sequence[float], v: Sequence[float]) -> float:
    """Norm of u - v summed left to right, as the engines do; inf past float range."""
    total = 0.0
    for p, q in zip(u, v):
        total += (p - q) * (p - q)
    return math.sqrt(total)


def mh_accept(log_r: float, u: float) -> bool:
    """Whether u in [0, 1) is below exp(min(log_r, 0)), as the engines decide.

    numpy's exp decides where libm's, at most an ulp off, lies near u.
    """
    if log_r >= 0.0:
        return True
    e = math.exp(log_r)
    if abs(u - e) <= 2.0 * math.ulp(e):
        e = np.exp(np.array([log_r]))[0]
    return u < e


# most iterations kept as Python lists before they are stored and folded
BLOCK = 4096


def run_sa(problem: SaProblem, schedule: GainSchedule, ladder: TruncationLadder,
           k_max: int, seed: int, *, snapshot_stride: int = 1000) -> RunTrace:
    """Run the varying-truncation recursion for k_max iterations.

    The run starts at (ladder.center, ladder.reinit_state) and is
    bit-reproducible for a fixed seed. problem.start gets the run's
    default_rng(seed), the reset point and k_max, and each iteration
    makes one call of the step it returns and moves theta by a_k times
    the direction that returns; nonfinite parameter updates abort. This
    is the lockstep engines' recursion for one chain, on Python floats:
    the same norms and ball radii, and Lockstep's bookkeeping, with
    blocks of iterates folded in at every snapshot. When the problem
    declares h_norm_max, a block whose every step Lockstep.may_truncate
    shows to pass takes its half-steps without the test.
    """
    lock = Lockstep(schedule, ladder, k_max, [seed], snapshot_stride, store_thetas=True)
    labels, radius = problem.labels, float(lock.radius[0])
    center, reinit = ladder.center.tolist(), ladder.reinit_state
    step = problem.start(lock.rngs[0], reinit, k_max)
    theta, x = center, reinit
    counts = None if labels is None else [0] * (max(labels) + 1)
    k = 0
    while k < k_max:
        length = min(BLOCK, k_max - k, snapshot_stride - k % snapshot_stride)
        gains, thresholds = lock.block_schedule(k, length)
        skip = problem.h_norm_max is not None and not lock.may_truncate(
            np.array([theta]), np.array(gains), np.array(thresholds),
            problem.h_norm_max)
        rows = []
        for a, b in zip(gains, thresholds):
            k += 1
            x, h_new = step(theta, x)
            half = [t + a * h for t, h in zip(theta, h_new)]
            # accept the half-step iff it moved at most b_k and stayed in K_sigma
            if skip or ((move := _dist(half, theta)) <= b
                        and _dist(half, center) <= radius):
                theta = half
            else:
                # a finite move means a finite half-step
                if not move < math.inf and not all(map(math.isfinite, half)):
                    raise NonFiniteIterateError(k, half)
                theta, x = center, reinit
                lock.reset(np.ones(1, dtype=bool), k)
                radius = float(lock.radius[0])
            rows.append(theta)
            if counts is not None:
                counts[labels[x]] += 1
        visits = None if counts is None else np.array([counts], dtype=np.int64)
        lock.fold(np.array(rows, dtype=float)[:, None], k, visits)
    # a copy, so the trace never aliases ladder.reinit_state
    return lock.traces(np.array([theta], dtype=float), [copy.copy(x)], visits)[0]
