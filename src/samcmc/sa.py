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

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Sequence

import numpy as np


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

    @classmethod
    def for_samc(cls, c1: float = 1.0, eta: float = 0.7, tau: float = 0.5,
                 alpha: float = 10.0) -> "GainSchedule":
        """Threshold slaved to the gain: b_k = 2*a_k^((1+tau)/2).

        With the update direction bounded by sqrt(2) this threshold never
        binds, so truncations can only come from leaving the active set.
        """
        power = 0.5 * (1.0 + tau)
        return cls(c1=c1, eta=eta, c2=2.0 * c1 ** power, xi=eta * power,
                   tau=tau, alpha=alpha)


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

    sigma counts truncations so far and selects the active ball. The reset
    map is deterministic: back to (reinit_theta, reinit_state), which
    defaults to the center and is required to lie in the base ball.
    """

    center: np.ndarray
    r0: float = 10.0
    growth: float = 10.0
    sigma: int = 0
    reinit_theta: np.ndarray | None = None
    reinit_state: Any = None

    def __post_init__(self):
        self.center = np.atleast_1d(np.asarray(self.center, dtype=float))
        # written so that NaN fails each test
        if not self.r0 > 0:
            raise ValueError("r0 must be positive")
        if not self.growth > 1:
            raise ValueError("growth must exceed 1")
        if self.sigma < 0:
            raise ValueError("sigma must be nonnegative")
        if self.reinit_theta is None:
            self.reinit_theta = self.center.copy()
        else:
            self.reinit_theta = np.atleast_1d(np.asarray(self.reinit_theta, dtype=float))
        if not (np.all(np.isfinite(self.center))
                and np.all(np.isfinite(self.reinit_theta))):
            raise ValueError("center and reinit_theta must be finite")
        if not np.linalg.norm(self.reinit_theta - self.center) <= self.r0:
            raise ValueError("reinit_theta must lie in the base ball K_0")

    def radius_at(self, s: int) -> float:
        # saturates instead of overflowing: past float range the ball is
        # effectively all of R^d and containment must stay trivially true
        try:
            return self.r0 * self.growth ** s
        except OverflowError:
            return float("inf")

    def contains(self, theta: np.ndarray, s: int | None = None) -> bool:
        if s is None:
            s = self.sigma
        # past float range the norm saturates to inf like the radius does
        with np.errstate(over="ignore"):
            dist = np.linalg.norm(np.asarray(theta) - self.center)
        return bool(dist <= self.radius_at(s))


@dataclass(frozen=True)
class TruncationDecision:
    accepted: bool
    theta: np.ndarray
    state: Any          # reset sample-space point; None on accept
    sigma: int          # truncation count after the decision


def truncation_decide(theta_prev: np.ndarray, theta_half: np.ndarray, k: int,
                      schedule: GainSchedule,
                      ladder: TruncationLadder) -> TruncationDecision:
    """Accept the half-step iff it moved at most b_k and stayed in K_sigma."""
    move = np.linalg.norm(np.asarray(theta_half) - np.asarray(theta_prev))
    if move <= threshold_at(schedule, k) and ladder.contains(theta_half):
        return TruncationDecision(True, theta_half, None, ladder.sigma)
    return TruncationDecision(False, ladder.reinit_theta.copy(),
                              ladder.reinit_state, ladder.sigma + 1)


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

    def add(self, v: np.ndarray) -> None:
        t = self.total + v
        big = np.abs(self.total) >= np.abs(v)
        self._comp += np.where(big, (self.total - t) + v, (v - t) + self.total)
        self.total = t

    def add_rows(self, rows: np.ndarray) -> np.ndarray:
        """Add rows[0], rows[1], ... in turn; returns the value after each.

        Both running sums are sequential accumulations, so the returned
        values and the state left behind match one add per row bit for bit.
        """
        totals = np.add.accumulate(
            np.concatenate((self.total[None], rows)), axis=0)
        before, after = totals[:-1], totals[1:]
        fix = np.where(np.abs(before) >= np.abs(rows),
                       (before - after) + rows, (rows - after) + before)
        comps = np.add.accumulate(
            np.concatenate((self._comp[None], fix)), axis=0)
        self.total, self._comp = after[-1].copy(), comps[-1].copy()
        return after + comps[1:]

    @property
    def value(self) -> np.ndarray:
        # fold the pending correction; total alone can be short by the
        # entire low-order mass parked in the compensation term
        return self.total + self._comp


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


@dataclass(frozen=True)
class SaProblem:
    """A generic stochastic-approximation problem.

    sample_step(theta, x, rng) advances the sample-chain one step; it must
    leave the theta-indexed stationary law invariant (caller's obligation).
    h_noisy(theta, x_new) returns the update direction H(theta, x_new).
    """

    sample_step: Callable[[np.ndarray, Any, np.random.Generator], Any]
    h_noisy: Callable[[np.ndarray, Any], np.ndarray]


def _check_run_args(k_max: int, snapshot_stride: int) -> None:
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    if snapshot_stride < 1:
        raise ValueError("snapshot_stride must be >= 1")


def run_sa(problem, schedule: GainSchedule, ladder: TruncationLadder,
           k_max: int, seed: int, *, snapshot_stride: int = 1000) -> RunTrace:
    """Run the varying-truncation recursion for k_max iterations.

    The run starts at (ladder.reinit_theta, ladder.reinit_state) and is
    bit-reproducible for a fixed seed. Nonfinite parameter updates abort.
    """
    _check_run_args(k_max, snapshot_stride)
    ladder = replace(ladder)                 # private sigma state for this run
    rng = np.random.default_rng(seed)
    theta = ladder.reinit_theta.copy()
    x = ladder.reinit_state
    d = theta.shape[0]
    thetas = np.empty((k_max, d))
    acc = KahanSum(d)
    events: list[int] = []
    snapshots: list[Snapshot] = []
    for k in range(1, k_max + 1):
        x = problem.sample_step(theta, x, rng)
        direction = np.asarray(problem.h_noisy(theta, x), dtype=float)
        theta_half = theta + gain_at(schedule, k) * direction
        if not np.all(np.isfinite(theta_half)):
            raise NonFiniteIterateError(k, theta_half)
        decision = truncation_decide(theta, theta_half, k, schedule, ladder)
        if decision.accepted:
            theta = decision.theta
        else:
            theta = decision.theta
            x = decision.state
            ladder.sigma = decision.sigma
            events.append(k)
        thetas[k - 1] = theta
        acc.add(theta)
        if k % snapshot_stride == 0 or k == k_max:
            snapshots.append(Snapshot(k=k, theta=theta.copy(), pi_hat=None,
                                      sigma=ladder.sigma, theta_sum=acc.value.copy()))
    return RunTrace(thetas=thetas, sigma_events=events, running_sum=acc.value,
                    k=k_max, seed=seed, snapshots=snapshots, final_theta=theta.copy(),
                    final_sigma=ladder.sigma, final_state=x)


class Lockstep:
    """Bookkeeping of B chains that a vectorized engine runs in lockstep.

    Chain b draws only from rngs[b] = default_rng(seeds[b]). The engine
    moves every chain and reports truncations (reset) and blocks of
    iterates (fold); this class keeps each chain's truncation count, ball
    radius and truncation iterations, the compensated running sums, the
    stored iterates if asked for, and the snapshots.
    """

    def __init__(self, schedule: GainSchedule, ladder: TruncationLadder,
                 k_max: int, seeds: Sequence[int], d: int,
                 snapshot_stride: int, store_thetas: bool):
        _check_run_args(k_max, snapshot_stride)
        self.schedule, self.k_max, self.seeds = schedule, k_max, seeds
        self.ladder = replace(ladder)            # private sigma state for this run
        self.stride = snapshot_stride
        B = len(seeds)
        self.rngs = [np.random.default_rng(s) for s in seeds]
        self.sig = np.full(B, self.ladder.sigma, dtype=np.int64)
        self.radius = self._radius()
        self.events: list[list[int]] = [[] for _ in range(B)]
        self.ksum = KahanSum((B, d))
        self.thetas = np.empty((B, k_max, d)) if store_thetas else None
        self.snaps: list[list[Snapshot]] = [[] for _ in range(B)]

    def _radius(self) -> np.ndarray:
        with np.errstate(over="ignore"):  # huge sigma saturates to inf
            return self.ladder.r0 * self.ladder.growth ** self.sig.astype(float)

    def block_schedule(self, k: int, length: int) -> tuple[np.ndarray, np.ndarray]:
        """Gains a_j and move thresholds b_j for iterations j = k+1..k+length."""
        js = range(k + 1, k + length + 1)
        gains = np.fromiter((gain_at(self.schedule, j) for j in js), float, length)
        thresholds = np.fromiter((threshold_at(self.schedule, j) for j in js),
                                 float, length)
        return gains, thresholds

    def reset(self, mask: np.ndarray, k: int) -> None:
        """Count a truncation at iteration k for every chain in mask."""
        self.sig += mask
        self.radius = self._radius()
        for b in np.nonzero(mask)[0]:
            self.events[b].append(k)

    def fold(self, rows: np.ndarray, k: int,
             counts: np.ndarray | None = None) -> None:
        """Add the iterates of the steps that end at iteration k.

        rows has shape (steps, B, d). When k is a snapshot point, each chain
        records one; counts, if the engine keeps them, are the (B, m) visit
        counts after step k.
        """
        sums = self.ksum.add_rows(rows)
        if self.thetas is not None:
            self.thetas[:, k - len(rows):k] = rows.transpose(1, 0, 2)
        if k % self.stride == 0 or k == self.k_max:
            for b, snaps in enumerate(self.snaps):
                snaps.append(Snapshot(
                    k=k, theta=rows[-1, b].copy(),
                    pi_hat=None if counts is None else counts[b] / k,
                    sigma=int(self.sig[b]), theta_sum=sums[-1, b].copy()))

    def traces(self, theta: np.ndarray, states: Sequence,
               counts: np.ndarray | None = None) -> list[RunTrace]:
        """One trace per chain, given the final iterates and sample points."""
        total = self.ksum.value
        return [
            RunTrace(
                thetas=None if self.thetas is None else self.thetas[b],
                sigma_events=self.events[b],
                running_sum=total[b].copy(),
                k=self.k_max,
                seed=seed,
                visit_counts=None if counts is None else counts[b].copy(),
                snapshots=self.snaps[b],
                final_theta=theta[b].copy(),
                final_sigma=int(self.sig[b]),
                final_state=states[b],
            )
            for b, seed in enumerate(self.seeds)
        ]
