"""Gain schedules, validator clauses, truncation, driver, and averaging."""

import dataclasses
import functools
import importlib
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from samcmc import (
    GainSchedule,
    KahanSum,
    NonFiniteIterateError,
    RunTrace,
    SaProblem,
    SamcModel,
    Snapshot,
    TruncationLadder,
    chain10,
    gain_at,
    gaussian_location_model,
    load_gaussian_toy,
    run_sa,
    run_samc,
    run_samc_batch,
    run_samle,
    run_samle_batch,
    threshold_at,
    trajectory_average,
    validate_schedule,
)
from samcmc.sa import ROW_LOOP_CELLS, Lockstep, _dist, mh_accept
from test_samle import assert_same_trace, trace_digest

# trace_digest of run_sa on the noisy-mean problem below, once on the
# default ladder and once on a tight one that truncates twice; computed
# before the lockstep engines' bookkeeping moved into sa.py, and kept since
GOLDEN_RUN_SA = "8d1c78d1ccae26fe043862705a934d4a280669632219b946f015e63ba4b51030"
GOLDEN_RUN_SA_TRUNCATING = (
    "5bc252034f6ee19fc82a4e51a5b99a99bc7324902cc5dc888bcf5b4366450e8d")


def noisy_mean_step(th, x, rng):
    """A standard normal draw and H = x - theta there."""
    x = rng.standard_normal()
    return x, [x - th[0]]


def test_gain_at_values():
    assert gain_at(GainSchedule(c1=1.0, eta=0.7), 1) == 1.0
    assert abs(gain_at(GainSchedule(c1=1.0, eta=0.7), 100) - 10 ** -1.4) < 1e-15
    assert abs(gain_at(GainSchedule(c1=1.0, eta=0.7), 100) - 0.039811) < 1e-6
    assert abs(gain_at(GainSchedule(c1=2.0, eta=0.6), 32) - 0.25) < 1e-12


def test_threshold_at_values():
    sched = GainSchedule()
    assert threshold_at(sched, 1) == 2.0
    assert abs(threshold_at(sched, 100) - 2 * 100 ** -0.55) < 1e-15


def test_gain_and_threshold_nonincreasing():
    sched = GainSchedule()
    ks = np.arange(1, 2000)
    gains = [gain_at(sched, int(k)) for k in ks]
    thresholds = [threshold_at(sched, int(k)) for k in ks]
    assert all(g > 0 for g in gains)
    assert all(b > 0 for b in thresholds)
    assert all(a >= b for a, b in zip(gains, gains[1:]))
    assert all(a >= b for a, b in zip(thresholds, thresholds[1:]))


def test_schedule_field_validation():
    with pytest.raises(ValueError):
        GainSchedule(c1=0.0)
    with pytest.raises(ValueError):
        GainSchedule(c2=-1.0)
    with pytest.raises(ValueError):
        GainSchedule(tau=0.0)
    with pytest.raises(ValueError):
        GainSchedule(tau=1.5)
    with pytest.raises(ValueError):
        GainSchedule(alpha=1.5)
    # NaN fails every check, and the scales must be finite
    for field in ("c1", "c2", "tau", "alpha"):
        with pytest.raises(ValueError):
            GainSchedule(**{field: float("nan")})
    with pytest.raises(ValueError, match="finite"):
        GainSchedule(c1=float("inf"))


def test_validator_default_passes():
    report = validate_schedule(GainSchedule())
    assert report.passed
    assert report.first_failure is None
    lo, hi = report.tau_interval
    assert abs(lo - (1 / 0.7 - 1)) < 1e-12 and hi == 1.0


def test_validator_eta_one_cites_lim_clause():
    report = validate_schedule(GainSchedule(eta=1.0))
    assert not report.passed
    assert report.first_failure.name == "lim k*a_k = infinity"
    # the divergent-sum clause is weaker and still holds
    by_name = {c.name: c.passed for c in report.clauses}
    assert by_name["sum a_k = infinity"]


def test_validator_eta_small_cites_half_clause():
    report = validate_schedule(GainSchedule(eta=0.4, xi=0.7))
    assert report.first_failure.name == "a_k = O(k^-eta) requires eta > 1/2"


def test_validator_single_clause_flips():
    # perturbing one exponent across its own boundary flips only its clause
    cases = [
        (GainSchedule(xi=0.65), "sum (a_i/b_i)^alpha < infinity"),
        (GainSchedule(xi=0.25), "sum a_i*b_i < infinity"),
        (GainSchedule(tau=0.1), "sum a_k^((1+tau)/2)/sqrt(k) < infinity"),
        (GainSchedule(alpha=5.0), "sum (a_i/b_i)^alpha < infinity"),
    ]
    for sched, expected in cases:
        report = validate_schedule(sched)
        failed = [c.name for c in report.clauses if not c.passed]
        assert failed == [expected]


def test_validator_tau_interval_absent_outside_range():
    assert validate_schedule(GainSchedule(eta=1.0)).tau_interval is None


def test_ladder_geometry():
    ladder = TruncationLadder(center=np.zeros(2), r0=0.5, growth=10.0)
    center = ladder.center.tolist()
    assert ladder.radius_at(0) == 0.5
    assert ladder.radius_at(2) == 50.0
    assert _dist([0.3, 0.4], center) <= ladder.radius_at(0)
    assert not _dist([0.3, 0.5], center) <= ladder.radius_at(0)
    assert _dist([3.0, 4.0], center) <= ladder.radius_at(1)


def test_ladder_radius_saturates_past_float_range():
    # many threshold-driven truncations can push sigma past the largest
    # representable power; the ball must become everything, not an error,
    # and the norm saturates to inf alike
    ladder = TruncationLadder(center=np.zeros(2), r0=0.5, growth=10.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert ladder.radius_at(400) == np.inf
        for d in (2, 9):
            far = _dist([1e300] * d, [0.0] * d)
            assert far == np.inf and far <= ladder.radius_at(400)


def lockstep(d, chains, radius):
    """A Lockstep of chains around a zero center, each with the given radius."""
    lock = Lockstep(GainSchedule(), TruncationLadder(center=np.zeros(d)), 1,
                    range(chains), 1, False)
    lock.radius[:] = radius
    return lock


def either(*resets):
    """The rows any of the tests resets, or None if none resets one."""
    masks = [r.reshape(-1) for r in resets if r is not None]
    return np.any(masks, axis=0) if masks else None


def truncation_test(d, half, ref, limits):
    """Lockstep.outside per step, one chain per row of half: the move from
    ref[0] against limits[0], then the ball norm of half - ref[1] around
    the zero center against the radii limits[1]."""
    ball = half - ref[1]
    return either(
        lockstep(d, len(half), np.inf).outside(half, ref[0], limits[0]),
        lockstep(d, len(half), limits[1]).outside(ball, np.zeros_like(ball), np.inf))


def block_test(d, half, ref, limits, steps=4):
    """The block form of the test on the same rows: the move test on the
    rows split into steps, the ball test on one step of them all, as a
    chain keeps its radius through a block."""
    n = len(half) // steps
    block = (steps, n, d)
    ball = (half - ref[1])[None]
    return either(
        lockstep(d, n, np.inf).outside(half.reshape(block), ref[0].reshape(block),
                                       limits[0].reshape(steps, n)),
        lockstep(d, len(half), limits[1]).outside(ball, np.zeros_like(ball), [np.inf]))


@pytest.mark.parametrize("d", [0, 1, 2, 3, 7, 8, 9, 12, 16, 130])
def test_norm_matches_the_engines_rule(d):
    # _dist must give the bits of both norms of the lockstep engines'
    # truncation test: a chain passes at a limit equal to _dist and fails
    # one ulp below it. Numbers spread over 16 orders of magnitude make the
    # order of the sum show: both sum left to right, where numpy's reduce
    # sums 8 entries or more pairwise
    rng = np.random.default_rng(d)
    u, v = (rng.standard_normal((400, d)) * 10.0 ** rng.integers(-8, 8, (400, d))
            for _ in range(2))
    got = np.array([_dist(a, b) for a, b in zip(u.tolist(), v.tolist())])
    below = np.nextafter(got, -np.inf)
    ref = np.stack([v, v])
    # the block form, with a leading steps axis, takes the same norms
    for test in (truncation_test, block_test):
        assert test(d, u, ref, np.stack([got, got])) is None
        for limits in ([below, got], [got, below]):
            assert test(d, u, ref, np.array(limits)).all()
    if d >= 8:
        w = (u - v).tolist()
        left_to_right = [math.sqrt(functools.reduce(lambda t, x: t + x * x, row, 0.0))
                         for row in w]
        assert left_to_right == got.tolist()
        pairwise = np.sqrt(np.add.reduce((u - v) ** 2, axis=1))
        assert (pairwise != got).any(), "the case must tell the two orders apart"


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_truncation_tests_reject_a_nonfinite_half_step(bad):
    # as b_k is finite, the move test fails such a half-step even in a ball
    # that has grown to all of R^d
    half = np.zeros((4, 3))
    half[1, 0] = half[3, 2] = bad
    limits = np.array([[1.0] * 4, [np.inf] * 4])
    for test in (truncation_test, block_test):
        reset = test(3, half, np.zeros((2, 4, 3)), limits)
        assert reset.tolist() == [False, True, False, True]
    for row in half.tolist():
        passes = _dist(row, [0.0] * 3) <= 1.0
        assert passes == all(map(math.isfinite, row))


def test_reset_widens_the_ball_of_its_chains_alone():
    # the next test after a reset reads the radii it wrote: a half-step
    # between r0 and r0*growth from the center fails on both chains, and
    # once chain 0 truncates, passes on chain 0 and fails on chain 1, in
    # the per-step test and in the block form
    ladder = TruncationLadder(center=np.array([1.0, -2.0]), r0=0.5, growth=10.0)
    lock = Lockstep(GainSchedule(), ladder, 1, [0, 1], 1, False)
    half = np.tile(ladder.center + [3.0, 0.0], (2, 1))
    assert lock.outside(half, half, 1.0).tolist() == [True, True]
    lock.reset(np.array([True, False]), 1)
    assert lock.outside(half, half, 1.0).tolist() == [False, True]
    assert lock.outside(half[None], half[None], [1.0]).tolist() == [[False, True]]


@pytest.mark.parametrize("growth", [10.0, 1.5, 1.6])
def test_ladder_radius_of_count_array_matches_scalar_calls(growth):
    # the lockstep engines ask for every chain's radius at once, run_sa for
    # one; both must give the same bits, and saturate without a warning.
    # at growth 1.6, numpy rounds 1.6**2 for a 0-d operand unlike for an array
    ladder = TruncationLadder(center=np.zeros(1), r0=0.5, growth=growth)
    counts = np.arange(2000, dtype=np.int64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        radii = ladder.radius_at(counts)
        scalars = [ladder.radius_at(int(s)) for s in counts]
    assert radii.shape == counts.shape
    np.testing.assert_array_equal(radii, scalars)
    assert radii[-1] == np.inf and np.all(np.isfinite(radii[:3]))


def test_ladder_validation():
    with pytest.raises(ValueError):
        TruncationLadder(center=np.zeros(2), r0=0.0)
    with pytest.raises(ValueError):
        TruncationLadder(center=np.zeros(2), growth=1.0)
    nan = float("nan")
    with pytest.raises(ValueError, match="r0"):
        TruncationLadder(center=np.zeros(2), r0=nan)
    with pytest.raises(ValueError, match="growth"):
        TruncationLadder(center=np.zeros(2), growth=nan)
    with pytest.raises(ValueError, match="finite"):
        TruncationLadder(center=np.array([nan, 0.0]))


def test_run_sa_contraction():
    # H(theta, x) = -theta with no noise: |theta_k| is nonincreasing and
    # converges to the root at 0
    problem = SaProblem(step=lambda th, x, rng: (x, [-th[0]]))
    ladder = TruncationLadder(center=np.array([1.0]), r0=10.0,
                              reinit_state=None)
    trace = run_sa(problem, GainSchedule(), ladder, 2000, seed=0)
    mags = np.abs(trace.thetas[:, 0])
    assert np.all(np.diff(mags) <= 1e-15)
    assert mags[-1] < 1e-3
    assert trace.sigma_events == []


def test_run_sa_zero_field_is_fixed_point():
    problem = SaProblem(step=lambda th, x, rng: (rng.random(), [0.0]))
    ladder = TruncationLadder(center=np.array([0.7]), reinit_state=0.0)
    trace = run_sa(problem, GainSchedule(), ladder, 500, seed=1)
    assert np.all(trace.thetas == 0.7)
    assert trace.final_sigma == 0


def test_run_sa_deterministic_reruns():
    problem = SaProblem(step=noisy_mean_step)
    ladder = TruncationLadder(center=np.zeros(1), reinit_state=0.0)
    a = run_sa(problem, GainSchedule(), ladder, 3000, seed=42)
    b = run_sa(problem, GainSchedule(), ladder, 3000, seed=42)
    c = run_sa(problem, GainSchedule(), ladder, 3000, seed=43)
    np.testing.assert_array_equal(a.thetas, b.thetas)
    assert a.sigma_events == b.sigma_events
    assert not np.array_equal(a.thetas, c.thetas)


def test_run_sa_aborts_on_nonfinite_update():
    def step(th, x, rng):
        return x + 1, [math.inf] if x + 1 >= 3 else [0.1]

    problem = SaProblem(step=step)
    ladder = TruncationLadder(center=np.zeros(1), reinit_state=0)
    with pytest.raises(NonFiniteIterateError, match="iteration 3"):
        run_sa(problem, GainSchedule(), ladder, 100, seed=0)


def test_run_sa_truncation_resets_to_initial_pair():
    # a huge update direction trips the threshold immediately
    problem = SaProblem(step=lambda th, x, rng: (x, [100.0]))
    ladder = TruncationLadder(center=np.zeros(1), r0=0.5, reinit_state="x0")
    trace = run_sa(problem, GainSchedule(), ladder, 5, seed=0)
    assert trace.sigma_events == [1, 2, 3, 4, 5]
    assert trace.final_sigma == 5
    assert np.all(trace.thetas == 0.0)
    assert trace.final_state == "x0"


def test_run_sa_steps_once_per_iteration_and_moves_by_the_returned_direction():
    # x counts the steps since the last reset and each direction is a new
    # draw, so an extra or a missing call, or a direction other than the
    # one returned with the step's point, shows in the path
    calls = []

    def step(th, x, rng):
        h = [rng.uniform(-1.0, 1.0)]
        calls.append((list(th), x, h))
        return x + 1, h

    schedule = GainSchedule(c1=2.0)
    ladder = TruncationLadder(center=[0.25], r0=0.1, growth=1.02, reinit_state=0)
    trace = run_sa(SaProblem(step=step), schedule, ladder, 3000, seed=5,
                   snapshot_stride=700)
    assert len(calls) == 3000
    # resets in the first fold block and past it
    assert trace.sigma_events[0] == 1 and trace.sigma_events[-1] > 700
    theta, x = 0.25, 0
    for k, (th, x_in, h), row in zip(range(1, 3001), calls,
                                     trace.thetas[:, 0].tolist()):
        assert (th, x_in) == ([theta], x), f"iteration {k}"
        if k in trace.sigma_events:
            theta, x = 0.25, 0
        else:
            theta, x = theta + gain_at(schedule, k) * h[0], x + 1
        assert row == theta, f"iteration {k}"
    assert trace.final_state == x


def test_run_sa_final_state_does_not_alias_the_reset_point():
    # a truncation on the last iteration leaves x at the reset point; the
    # trace must hold a copy, or mutating it would change the ladder
    problem = SaProblem(step=lambda th, x, rng: (x + 1.0, [100.0]))
    ladder = TruncationLadder(center=np.zeros(1), r0=0.5,
                              reinit_state=np.zeros(2))
    trace = run_sa(problem, GainSchedule(), ladder, 5, seed=0)
    assert trace.sigma_events == [1, 2, 3, 4, 5]
    trace.final_state[:] = 42.0
    np.testing.assert_array_equal(ladder.reinit_state, np.zeros(2))


# directions of norm 1.25 exactly (0.75**2 + 1.0**2 = 1.5625 in doubles)
# and their negatives, so theta wanders without drift
BOUNDED_STEPS = [(0.75, 1.0, 0.0), (0.0, 0.75, -1.0), (-1.0, 0.0, 0.75),
                 (1.25, 0.0, 0.0), (0.0, 0.0, 1.25)]
BOUNDED_STEPS += [tuple(-h for h in step) for step in BOUNDED_STEPS]


@pytest.mark.parametrize("c1, c2, r0", [(2.0, 2.0, 1.0), (4.0, 10.0, 2.0)])
def test_run_sa_bound_at_the_norm_of_every_step_changes_no_bit(c1, c2, r0):
    # at c1 = c2 = 2 the move test fails at k = 1, as a_1 * 1.25 > b_1; in
    # both the ball of radius r0 * 1.2**s truncates the walk now and then,
    # also after 50-step blocks that skipped the test
    problem = SaProblem(
        step=lambda th, x, rng: (j := int(rng.integers(10)), BOUNDED_STEPS[j]),
        h_norm_max=1.25)
    ladder = TruncationLadder(center=np.zeros(3), r0=r0, growth=1.2, reinit_state=0)
    schedule = GainSchedule(c1=c1, c2=c2)
    for seed in range(3):
        skipping = run_sa(problem, schedule, ladder, 5000, seed, snapshot_stride=50)
        testing = run_sa(dataclasses.replace(problem, h_norm_max=None), schedule,
                         ladder, 5000, seed, snapshot_stride=50)
        assert skipping.sigma_events, f"seed {seed}, c1={c1:g}: no truncation"
        assert_same_trace(testing, skipping, f"seed {seed}, bounded steps, c1={c1:g}")


def test_mh_accept_decides_as_numpy_exp_on_an_array():
    # the lockstep engines accept iff u < exp(min(log_r, 0)) with numpy's
    # exp on an array; mh_accept must agree for every pair below, near
    # ties included: u at, just below and just above numpy's exp and,
    # where libm's differs from it (as on AVX-512 builds), libm's
    rng = np.random.default_rng(11)
    near = -rng.exponential(2.0, 4000)
    ties = near[np.exp(near) != np.array([math.exp(v) for v in near.tolist()])]
    if ties.size:
        assert ties.size > 20
    specials = np.array([0.0, 0.5, 3.0, np.inf, np.nan, -np.inf, -745.2, -800.0])
    log_r = np.concatenate((specials, ties))
    us = [0.0, 0.25, 0.999]
    pairs = [(lr, u) for lr in log_r.tolist() for u in us]
    for lr, e in zip(near[:200].tolist(), np.exp(near[:200]).tolist()):
        pairs += [(lr, e), (lr, math.nextafter(e, 0.0)),
                  (lr, math.nextafter(e, 1.0))]
    for lr in ties.tolist():
        for e in (math.exp(lr), float(np.exp(np.array([lr]))[0])):
            pairs += [(lr, e), (lr, math.nextafter(e, 0.0)),
                      (lr, math.nextafter(e, 1.0))]
    lrs, u = np.array(pairs).T
    with np.errstate(invalid="ignore"):
        engine = u < np.exp(np.minimum(lrs, 0.0))
    decided = [mh_accept(a, b) for a, b in pairs]
    assert decided == engine.tolist()


def test_numpy_exp_of_a_nonnegative_double_is_at_least_one():
    # both lockstep engines accept iff u < exp(log_r) with u < 1, which
    # decides as exp(min(log_r, 0)) only while exp never drops below 1 here
    spread = np.concatenate(([0.0], np.logspace(-300, 2, 300_001)))
    tiny = np.arange(1, 1_000_001, dtype=np.int64).view(np.float64)
    assert tiny[0] == 5e-324 and tiny[-1] > tiny[-2] > 0
    for x in (spread, tiny):
        e = np.empty_like(x)
        np.exp(x, out=e)
        assert (e >= 1.0).all(), x[e < 1.0][:5]


@pytest.mark.parametrize("h, r0, events", [
    (0.0, 1e-6, []),
    (0.6, 0.5, [1]),
    (3.0, 100.0, [1]),
], ids=["zero-move", "leaves-ball", "too-fast"])
def test_run_sa_accepts_or_truncates(h, r0, events):
    # at k = 1 the gain is 1 and the move threshold 2: a zero move stays in
    # a tiny ball, a move of 0.6 leaves a ball of radius 0.5, and one of 3
    # stays in a ball of radius 100 but is too fast
    problem = SaProblem(step=lambda th, x, rng: (x + 1, [h]))
    start = 0.2 * r0
    ladder = TruncationLadder(center=[start], r0=r0, reinit_state=0)
    trace = run_sa(problem, GainSchedule(), ladder, 1, seed=0)
    assert trace.sigma_events == events
    assert trace.final_sigma == len(events)
    if events:      # reset to the (center, reinit_state) pair
        assert trace.thetas[0, 0] == start and trace.final_state == 0
    else:
        assert trace.thetas[0, 0] == start + h and trace.final_state == 1


def test_run_sa_golden_digests():
    problem = SaProblem(step=noisy_mean_step)
    plain = run_sa(problem, GainSchedule(),
                   TruncationLadder(center=np.zeros(1), reinit_state=0.0),
                   3000, seed=42, snapshot_stride=500)
    tight = run_sa(problem, GainSchedule(),
                   TruncationLadder(center=np.zeros(1), r0=0.5, growth=1.5,
                                    reinit_state=0.0),
                   3000, seed=43, snapshot_stride=500)
    assert plain.sigma_events == []
    assert tight.sigma_events == [2, 5]
    assert trace_digest(plain) == GOLDEN_RUN_SA
    assert trace_digest(tight) == GOLDEN_RUN_SA_TRUNCATING


# golden digests of the SAMC and SA-MLE batch engines and of solo run_sa
# runs, and the engines' exp bound, for a process of their own
DIGEST_CHECKS = """
from samcmc import SamcModel, chain10, load_gaussian_toy
import test_samc, test_samle, test_sa_core
model = SamcModel.from_chain(chain10())
test_samc.test_batch_engine_golden_digests_tight_ladder(model)
test_samc.test_batch_engine_golden_digest_wide_batch(model)
test_samc.test_random_chain_golden_digest_eleven_components()
test_samc.test_solo_run_golden_digest(model)
test_samle.test_batch_engine_reflects_at_narrow_box_walls(load_gaussian_toy())
test_sa_core.test_run_sa_golden_digests()
test_sa_core.test_numpy_exp_of_a_nonnegative_double_is_at_least_one()
"""


def test_golden_digests_hold_at_lower_cpu_dispatch_levels():
    # numpy picks its SIMD kernels by CPU at import; switching the higher
    # dispatch targets off for one process runs the kernels a CPU without
    # them would, and the digests must not move
    umath = importlib.import_module(
        "numpy._core._multiarray_umath" if int(np.__version__.split(".")[0]) >= 2
        else "numpy.core._multiarray_umath")
    targets = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
    if not targets:
        pytest.skip("numpy dispatches no SIMD targets on this CPU")
    tests = Path(__file__).resolve().parent
    path = os.pathsep.join([str(tests.parent / "src"), str(tests)])
    runs = {}
    for i in range(len(targets)):
        off = " ".join(targets[i:])
        env = {**os.environ, "PYTHONPATH": path, "NPY_DISABLE_CPU_FEATURES": off}
        runs[off] = subprocess.Popen(
            [sys.executable, "-W", "error", "-c", DIGEST_CHECKS], env=env,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    failed = []
    for off, run in runs.items():
        out = run.communicate(timeout=300)[0]
        if run.returncode:
            failed.append(f"with {off} off (numpy {np.__version__}):\n{out}")
    assert not failed, "\n".join(failed)


def run_sa_with(stride):
    problem = SaProblem(step=lambda th, x, rng: (x, [-th[0]]))
    run_sa(problem, GainSchedule(),
           TruncationLadder(center=np.zeros(1), reinit_state=0.0),
           10, seed=0, snapshot_stride=stride)


def run_samc_batch_with(stride, seeds=(0, 1)):
    run_samc_batch(SamcModel.from_chain(chain10()), GainSchedule(),
                   TruncationLadder(center=np.zeros(2), reinit_state=0),
                   10, list(seeds), snapshot_stride=stride)


def run_samle_batch_with(stride, seeds=(0, 1), sweeps=1):
    y = load_gaussian_toy()
    run_samle_batch(gaussian_location_model(y), GainSchedule(),
                    TruncationLadder(center=np.zeros(1), reinit_state=y),
                    10, list(seeds), snapshot_stride=stride, sweeps=sweeps)


@pytest.mark.parametrize("engine", [run_sa_with, run_samc_batch_with,
                                    run_samle_batch_with])
@pytest.mark.parametrize("stride", [0, -3])
def test_engines_reject_snapshot_stride_below_one(engine, stride):
    engine(1)
    with pytest.raises(ValueError, match="snapshot_stride must be >= 1"):
        engine(stride)


@pytest.mark.parametrize("engine", [run_samc_batch_with, run_samle_batch_with])
def test_lockstep_engines_reject_an_empty_seed_list(engine):
    with pytest.raises(ValueError, match="seeds must hold at least one seed"):
        engine(1, seeds=[])


@pytest.mark.parametrize("engine, seeds", [(run_samc, 0), (run_samc_batch, [0, 1])],
                         ids=["solo", "batch"])
@pytest.mark.parametrize("center, state, message", [
    (np.zeros(3), 0, "ladder center must have shape (2,)"),
    (np.zeros(2), None, "ladder.reinit_state must hold the initial state index"),
    (np.zeros(2), 10, "initial state 10 outside 0..9"),
    (np.zeros(2), -1, "initial state -1 outside 0..9"),
], ids=["center-shape", "no-state", "state-above", "state-below"])
def test_samc_engines_check_where_they_start(engine, seeds, center, state, message):
    ladder = TruncationLadder(center=center, reinit_state=state)
    with pytest.raises(ValueError, match=re.escape(message)):
        engine(SamcModel.from_chain(chain10()), GainSchedule(), ladder, 10, seeds)


@pytest.mark.parametrize("engine, seeds", [(run_samle, 0), (run_samle_batch, [0, 1])],
                         ids=["solo", "batch"])
def test_samle_engines_need_the_initial_latent_data(engine, seeds):
    ladder = TruncationLadder(center=np.zeros(1))
    with pytest.raises(ValueError, match="reinit_state must hold the initial latent data"):
        engine(gaussian_location_model(load_gaussian_toy()), GainSchedule(), ladder,
               10, seeds)


def test_samle_batch_rejects_zero_sweeps():
    run_samle_batch_with(1, sweeps=1)
    with pytest.raises(ValueError, match="sweeps must be >= 1"):
        run_samle_batch_with(1, sweeps=0)


def make_trace(thetas, snapshot_at=()):
    thetas = np.asarray(thetas, dtype=float).reshape(len(thetas), -1)
    sums = np.cumsum(thetas, axis=0)
    snaps = [Snapshot(k=k, theta=thetas[k - 1], pi_hat=None, sigma=0,
                      theta_sum=sums[k - 1]) for k in snapshot_at]
    return RunTrace(thetas=thetas, sigma_events=[], running_sum=sums[-1],
                    k=len(thetas), seed=0, snapshots=snaps,
                    final_theta=thetas[-1], final_sigma=0)


def test_trajectory_average_examples():
    assert trajectory_average(make_trace([1.0, 2.0, 3.0]), 0)[0] == 2.0
    assert trajectory_average(make_trace([10.0, 2.0, 4.0]), 1)[0] == 3.0
    const = make_trace([0.3] * 17)
    for k0 in (0, 5, 16):
        assert abs(trajectory_average(const, k0)[0] - 0.3) < 1e-15


def test_trajectory_average_window_errors():
    trace = make_trace([1.0, 2.0])
    with pytest.raises(ValueError, match="empty averaging window"):
        trajectory_average(trace, 2)
    with pytest.raises(ValueError):
        trajectory_average(trace, -1)


def test_trajectory_average_light_trace():
    full = make_trace(np.arange(1.0, 11.0), snapshot_at=(5, 10))
    light = RunTrace(thetas=None, sigma_events=[], running_sum=full.running_sum,
                     k=10, seed=0, snapshots=full.snapshots,
                     final_theta=full.final_theta, final_sigma=0)
    assert trajectory_average(light, 0)[0] == trajectory_average(full, 0)[0]
    assert trajectory_average(light, 5)[0] == trajectory_average(full, 5)[0]
    with pytest.raises(ValueError, match="snapshot"):
        trajectory_average(light, 3)


def test_running_sum_matches_average():
    problem = SaProblem(step=noisy_mean_step)
    ladder = TruncationLadder(center=np.zeros(1), reinit_state=0.0)
    trace = run_sa(problem, GainSchedule(), ladder, 20000, seed=9)
    lhs = trajectory_average(trace, 0) * trace.k
    np.testing.assert_allclose(lhs, trace.running_sum, rtol=1e-12, atol=1e-9)


def test_kahan_sum_tracks_fsum_at_million_adds():
    # one million accumulations of values spanning 16 orders of magnitude;
    # compensation keeps the total at fsum accuracy
    rng = np.random.default_rng(12)
    rows, d = 10000, 100
    values = np.where(rng.random((rows, d)) < 0.5, 1.0, 1e-16)
    acc = KahanSum(d)
    for row in values:
        acc.add(row)
    exact = np.array([math.fsum(values[:, j]) for j in range(d)])
    assert (np.abs(acc.value - exact) / np.abs(exact)).max() < 1e-15


def test_kahan_sum_survives_cancellation():
    # triples (1e8, tiny, -1e8): the big terms cancel exactly and only the
    # compensation keeps the tiny mass; uncompensated summation loses it all
    d = 8
    tiny = (np.arange(d) + 1) * 1e-9
    values = np.zeros((3 * 3333, d))
    values[0::3] = 1e8
    values[1::3] = tiny
    values[2::3] = -1e8
    acc = KahanSum(d)
    for row in values:
        acc.add(row)
    exact = np.array([math.fsum(values[:, j]) for j in range(d)])
    assert (np.abs(acc.value - exact) / np.abs(exact)).max() < 1e-12
    assert (np.abs(values.sum(axis=0) - exact) / np.abs(exact)).max() > 1e-3


def neumaier_per_row(rows):
    """The value after each row of one compensated add per row, from 0."""
    total, comp, expected = np.zeros(rows.shape[1:]), np.zeros(rows.shape[1:]), []
    for row in rows:
        t = total + row
        big = np.abs(total) >= np.abs(row)
        comp = comp + np.where(big, (total - t) + row, (row - t) + total)
        total = t
        expected.append(total + comp)
    return np.array(expected)


def test_kahan_add_rows_matches_one_add_per_row():
    # block adds must reproduce Neumaier's per-row recursion bit for bit,
    # from a nonzero state, through exact cancellations and mixed magnitudes
    rng = np.random.default_rng(5)
    values = rng.standard_normal((600, 3, 2)) * 10.0 ** rng.integers(
        -12, 12, (600, 3, 2))
    values[100:400:3] = 1e8
    values[102:400:3] = -1e8
    expected = neumaier_per_row(np.concatenate((values, values[:1])))
    blk = KahanSum((3, 2))
    for row in values[:7]:
        blk.add(row)
    assert blk.value.tobytes() == expected[6].tobytes()
    blk.add_rows(values[7:300])
    assert blk.value.tobytes() == expected[299].tobytes()
    blk.add_rows(values[300:])
    assert blk.value.tobytes() == expected[599].tobytes()
    blk.add(values[0])
    assert blk.value.tobytes() == expected[600].tobytes()


@pytest.mark.parametrize("layout", ["contiguous", "strided"])
def test_kahan_add_rows_of_wide_rows_matches_one_add_per_row(layout):
    # rows of 100 x 3 entries take the row-by-row sums; blocks of changing
    # length reuse and regrow the work buffers, and one-row blocks give the
    # value after every row. From a nonzero state, through exact
    # cancellations, bit for bit
    rng = np.random.default_rng(8)
    values = rng.standard_normal((200, 100, 4)) * 10.0 ** rng.integers(
        -12, 12, (200, 100, 4))
    values[20:150:3] = 1e8
    values[22:150:3] = -1e8
    rows = values[..., :3] if layout == "strided" else values[..., :3].copy()
    assert rows[0].size >= ROW_LOOP_CELLS
    assert rows.flags.c_contiguous == (layout == "contiguous")
    start = rng.standard_normal((2, 100, 3))
    blk, one = KahanSum((100, 3)), KahanSum((100, 3))
    for row in start:
        blk.add(row)
        one.add(row)
    expected = neumaier_per_row(np.concatenate((start, rows)))[2:]
    cuts = [0, 5, 69, 70, 200]
    for a, b in zip(cuts, cuts[1:]):
        blk.add_rows(rows[a:b])
        assert blk.value.tobytes() == expected[b - 1].tobytes()
    for i in range(len(rows)):
        one.add_rows(rows[i:i + 1])
        assert one.value.tobytes() == expected[i].tobytes()


def test_snapshot_sums_match_prefix_means():
    problem = SaProblem(step=noisy_mean_step)
    ladder = TruncationLadder(center=np.zeros(1), reinit_state=0.0)
    trace = run_sa(problem, GainSchedule(), ladder, 5000, seed=3,
                   snapshot_stride=1000)
    assert [s.k for s in trace.snapshots] == [1000, 2000, 3000, 4000, 5000]
    for snap in trace.snapshots:
        np.testing.assert_allclose(snap.theta_sum,
                                   trace.thetas[: snap.k].sum(axis=0),
                                   rtol=1e-12, atol=1e-9)
