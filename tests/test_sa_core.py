"""Gain schedules, validator clauses, truncation, driver, and averaging."""

import math

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
    run_samc_batch,
    run_samle_batch,
    threshold_at,
    trajectory_average,
    truncation_decide,
    validate_schedule,
)
from test_samle import trace_digest

# trace_digest of run_sa on the noisy-mean problem below, once on the
# default ladder and once on a tight one that truncates twice; computed
# before the lockstep engines' bookkeeping moved into sa.py, and kept since
GOLDEN_RUN_SA = "8d1c78d1ccae26fe043862705a934d4a280669632219b946f015e63ba4b51030"
GOLDEN_RUN_SA_TRUNCATING = (
    "5bc252034f6ee19fc82a4e51a5b99a99bc7324902cc5dc888bcf5b4366450e8d")


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


def test_for_samc_threshold_rule():
    # the SAMC default is b_k = 2 * a_k^((1+tau)/2); for_samc encodes it
    # as an equivalent power law
    sched = GainSchedule.for_samc(c1=1.0, eta=0.7)
    for k in (1, 10, 1000):
        a = gain_at(sched, k)
        assert abs(threshold_at(sched, k) - 2 * a ** 0.75) < 1e-12
    assert abs(sched.xi - 0.525) < 1e-15
    assert validate_schedule(sched).passed


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
    assert ladder.radius_at(0) == 0.5
    assert ladder.radius_at(2) == 50.0
    assert ladder.contains(np.array([0.3, 0.4]))
    assert not ladder.contains(np.array([0.3, 0.5]))
    assert ladder.contains(np.array([3.0, 4.0]), s=1)


def test_ladder_radius_saturates_past_float_range():
    # many threshold-driven truncations can push sigma past the largest
    # representable power; the ball must become everything, not an error
    ladder = TruncationLadder(center=np.zeros(2), r0=0.5, growth=10.0)
    assert ladder.radius_at(400) == np.inf
    assert ladder.contains(np.array([1e300, 1e300]), s=400)


def test_ladder_validation():
    with pytest.raises(ValueError):
        TruncationLadder(center=np.zeros(2), r0=0.0)
    with pytest.raises(ValueError):
        TruncationLadder(center=np.zeros(2), growth=1.0)
    with pytest.raises(ValueError):
        TruncationLadder(center=np.zeros(2), sigma=-1)
    with pytest.raises(ValueError, match="base ball"):
        TruncationLadder(center=np.zeros(2), r0=1.0,
                         reinit_theta=np.array([2.0, 0.0]))
    nan = float("nan")
    with pytest.raises(ValueError, match="r0"):
        TruncationLadder(center=np.zeros(2), r0=nan)
    with pytest.raises(ValueError, match="growth"):
        TruncationLadder(center=np.zeros(2), growth=nan)
    with pytest.raises(ValueError, match="finite"):
        TruncationLadder(center=np.array([nan, 0.0]))
    with pytest.raises(ValueError, match="finite"):
        TruncationLadder(center=np.zeros(2), reinit_theta=np.array([0.0, nan]))


def test_truncation_decide_zero_move_accepts():
    ladder = TruncationLadder(center=np.zeros(2), r0=1e-6)
    sched = GainSchedule()
    theta = np.zeros(2)
    decision = truncation_decide(theta, theta.copy(), 10 ** 9, sched, ladder)
    assert decision.accepted
    assert decision.sigma == 0


def test_truncation_decide_outside_ball_reinits():
    ladder = TruncationLadder(center=np.zeros(2), r0=0.5,
                              reinit_state="anchor")
    sched = GainSchedule()
    decision = truncation_decide(np.array([0.4, 0.0]), np.array([0.6, 0.0]),
                                 1, sched, ladder)
    assert not decision.accepted
    assert decision.sigma == 1
    np.testing.assert_array_equal(decision.theta, np.zeros(2))
    assert decision.state == "anchor"


def test_truncation_decide_threshold_violation_reinits():
    ladder = TruncationLadder(center=np.zeros(2), r0=100.0)
    sched = GainSchedule()
    k = 50
    b = threshold_at(sched, k)
    theta = np.zeros(2)
    theta_half = np.array([1.5 * b, 0.0])       # inside the ball, too fast
    assert ladder.contains(theta_half)
    decision = truncation_decide(theta, theta_half, k, sched, ladder)
    assert not decision.accepted


def test_run_sa_contraction():
    # H(theta, x) = -theta with no noise: |theta_k| is nonincreasing and
    # converges to the root at 0
    problem = SaProblem(sample_step=lambda th, x, rng: x,
                        h_noisy=lambda th, x: -th)
    ladder = TruncationLadder(center=np.array([1.0]), r0=10.0,
                              reinit_state=None)
    trace = run_sa(problem, GainSchedule(), ladder, 2000, seed=0)
    mags = np.abs(trace.thetas[:, 0])
    assert np.all(np.diff(mags) <= 1e-15)
    assert mags[-1] < 1e-3
    assert trace.sigma_events == []


def test_run_sa_zero_field_is_fixed_point():
    problem = SaProblem(sample_step=lambda th, x, rng: rng.random(),
                        h_noisy=lambda th, x: np.zeros(1))
    ladder = TruncationLadder(center=np.array([0.7]), reinit_state=0.0)
    trace = run_sa(problem, GainSchedule(), ladder, 500, seed=1)
    assert np.all(trace.thetas == 0.7)
    assert trace.final_sigma == 0


def test_run_sa_deterministic_reruns():
    problem = SaProblem(sample_step=lambda th, x, rng: rng.standard_normal(),
                        h_noisy=lambda th, x: np.atleast_1d(x - th))
    ladder = TruncationLadder(center=np.zeros(1), reinit_state=0.0)
    a = run_sa(problem, GainSchedule(), ladder, 3000, seed=42)
    b = run_sa(problem, GainSchedule(), ladder, 3000, seed=42)
    c = run_sa(problem, GainSchedule(), ladder, 3000, seed=43)
    np.testing.assert_array_equal(a.thetas, b.thetas)
    assert a.sigma_events == b.sigma_events
    assert not np.array_equal(a.thetas, c.thetas)


def test_run_sa_aborts_on_nonfinite_update():
    def h(th, x):
        return np.array([np.inf]) if x >= 3 else np.array([0.1])

    problem = SaProblem(sample_step=lambda th, x, rng: x + 1, h_noisy=h)
    ladder = TruncationLadder(center=np.zeros(1), reinit_state=0)
    with pytest.raises(NonFiniteIterateError, match="iteration 3"):
        run_sa(problem, GainSchedule(), ladder, 100, seed=0)


def test_run_sa_truncation_resets_to_initial_pair():
    # a huge update direction trips the threshold immediately
    problem = SaProblem(sample_step=lambda th, x, rng: x,
                        h_noisy=lambda th, x: np.array([100.0]))
    ladder = TruncationLadder(center=np.zeros(1), r0=0.5, reinit_state="x0")
    trace = run_sa(problem, GainSchedule(), ladder, 5, seed=0)
    assert trace.sigma_events == [1, 2, 3, 4, 5]
    assert trace.final_sigma == 5
    assert np.all(trace.thetas == 0.0)
    assert trace.final_state == "x0"


def test_run_sa_golden_digests():
    problem = SaProblem(sample_step=lambda th, x, rng: rng.standard_normal(),
                        h_noisy=lambda th, x: np.atleast_1d(x - th))
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


def run_sa_with(stride):
    problem = SaProblem(sample_step=lambda th, x, rng: x,
                        h_noisy=lambda th, x: -th)
    run_sa(problem, GainSchedule(),
           TruncationLadder(center=np.zeros(1), reinit_state=0.0),
           10, seed=0, snapshot_stride=stride)


def run_samc_batch_with(stride):
    run_samc_batch(SamcModel.from_chain(chain10()), GainSchedule(),
                   TruncationLadder(center=np.zeros(2), reinit_state=0),
                   10, [0, 1], snapshot_stride=stride)


def run_samle_batch_with(stride):
    y = load_gaussian_toy()
    run_samle_batch(gaussian_location_model(y), GainSchedule(),
                    TruncationLadder(center=np.zeros(1), reinit_state=y),
                    10, [0, 1], snapshot_stride=stride)


@pytest.mark.parametrize("engine", [run_sa_with, run_samc_batch_with,
                                    run_samle_batch_with])
@pytest.mark.parametrize("stride", [0, -3])
def test_engines_reject_snapshot_stride_below_one(engine, stride):
    engine(1)
    with pytest.raises(ValueError, match="snapshot_stride must be >= 1"):
        engine(stride)


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
    problem = SaProblem(sample_step=lambda th, x, rng: rng.standard_normal(),
                        h_noisy=lambda th, x: np.atleast_1d(x) - th)
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


def test_kahan_add_rows_matches_one_add_per_row():
    # block adds must reproduce the per-row recursion bit for bit, from a
    # nonzero state, through exact cancellations and mixed magnitudes
    rng = np.random.default_rng(5)
    values = rng.standard_normal((600, 3, 2)) * 10.0 ** rng.integers(
        -12, 12, (600, 3, 2))
    values[100:400:3] = 1e8
    values[102:400:3] = -1e8
    ref = KahanSum((3, 2))
    blk = KahanSum((3, 2))
    for row in values[:7]:
        ref.add(row)
        blk.add(row)
    expected = []
    for row in values[7:]:
        ref.add(row)
        expected.append(ref.value.copy())
    got = np.concatenate([blk.add_rows(values[7:300]),
                          blk.add_rows(values[300:])])
    assert got.tobytes() == np.array(expected).tobytes()
    ref.add(values[0])
    blk.add(values[0])
    assert blk.value.tobytes() == ref.value.tobytes()


def test_snapshot_sums_match_prefix_means():
    problem = SaProblem(sample_step=lambda th, x, rng: rng.standard_normal(),
                        h_noisy=lambda th, x: np.atleast_1d(x) - th)
    ladder = TruncationLadder(center=np.zeros(1), reinit_state=0.0)
    trace = run_sa(problem, GainSchedule(), ladder, 5000, seed=3,
                   snapshot_stride=1000)
    assert [s.k for s in trace.snapshots] == [1000, 2000, 3000, 4000, 5000]
    for snap in trace.snapshots:
        np.testing.assert_allclose(snap.theta_sum,
                                   trace.thetas[: snap.k].sum(axis=0),
                                   rtol=1e-12, atol=1e-9)
