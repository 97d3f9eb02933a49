"""Missing-data maximum likelihood driver and the Gaussian location toy."""

import functools
import hashlib
import os
import re
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from samcmc import (
    Box,
    GainSchedule,
    MissingDataModel,
    NonFiniteGradientError,
    NonFiniteIterateError,
    RandomWalk,
    TruncationLadder,
    gaussian_location_model,
    load_gaussian_toy,
    reflect_into_box,
    run_sa,
    run_samle,
    run_samle_batch,
)
from samcmc import sa, samle

YBAR = 0.7409467391596104

# sha256 of each batch member's running sum, final (theta, x), truncation
# iterations and snapshot prefix sums; computed from the lockstep engine
# as it stood before its per-iteration cost was cut, and kept since
GOLDEN_TOY = {
    0: "869f62b98075dda291ab7801c37971835991c1c83454193c4f6361da33e43397",
    1: "b4c2232dec5a81d3f4e7e69c705b7af183b1266addc5ef267270fbec5d02f6fd",
    2: "6c00c592d45eab2c1ececaaf43f3f7aabb218c6cfaf13d54b34d78ad38aba735",
}
GOLDEN_TIGHT_LADDER = {
    5: "380f9550b75e16658b0270528fec0e1e3ffcc2e8f5e24abbefa4c590d975294a",
    6: "1e21401da53b04842451a96224bdcfc66504254cdde01d2986f92866b46ddb05",
}
GOLDEN_NARROW_BOX = {
    7: "e63d35801ff7c5e9afbda16d64545b9064cc311271cfc888988ffde3f617e772",
    8: "12a4afaa8d094df972e09449d1763c7e4f7887450aafd161fce2775c87226410",
}


@pytest.fixture(scope="module")
def toy_y():
    return load_gaussian_toy()


def flat_model(n, grad):
    """Model with a flat latent law and a gradient rule applied row by row."""
    bound = np.full(n, 1e100)
    return MissingDataModel(
        grad_complete_loglik=lambda xs, thetas: np.array(
            [grad(x, theta) for x, theta in zip(xs, thetas)]),
        predictive_log_density=lambda xs, thetas: np.zeros(len(xs)),
        x_space=Box(-bound, bound),
    )


def trace_digest(trace):
    h = hashlib.sha256()
    for arr in (trace.running_sum, trace.final_theta, trace.final_state):
        h.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    h.update(np.asarray(trace.sigma_events, dtype="<i8").tobytes())
    for snap in trace.snapshots:
        h.update(np.ascontiguousarray(snap.theta_sum, dtype="<f8").tobytes())
    return h.hexdigest()


def assert_same_trace(solo, member, where):
    """Every RunTrace field equal byte for byte; a failure names where."""
    differ = np.flatnonzero(np.any(solo.thetas != member.thetas, axis=1))
    where += (f", first differing iteration {differ[0] + 1}" if differ.size
              else ", iterates equal")

    def same(a, b):
        return (a is None) == (b is None) and (
            a is None or (a.dtype == b.dtype and a.shape == b.shape
                          and a.tobytes() == b.tobytes()))

    for name in ("thetas", "running_sum", "visit_counts", "final_theta"):
        assert same(getattr(solo, name), getattr(member, name)), f"{name}: {where}"
    for name in ("sigma_events", "k", "seed", "final_sigma", "final_state"):
        a, b = getattr(solo, name), getattr(member, name)
        equal = same(a, b) if isinstance(a, np.ndarray) else a == b
        assert equal and type(a) is type(b), f"{name}: {where}"
    assert len(solo.snapshots) == len(member.snapshots), where
    for a, b in zip(solo.snapshots, member.snapshots):
        assert a.k == b.k and a.sigma == b.sigma, f"snapshot at {a.k}: {where}"
        for name in ("theta", "pi_hat", "theta_sum"):
            assert same(getattr(a, name), getattr(b, name)), \
                f"snapshot {name} at {a.k}: {where}"


def narrow_box_model(y):
    """The toy model with latents confined to y_i +- 0.5, so walls get hit."""
    base = gaussian_location_model(y)
    return MissingDataModel(
        grad_complete_loglik=base.grad_complete_loglik,
        predictive_log_density=base.predictive_log_density,
        x_space=Box(y - 0.5, y + 0.5),
    )


def test_fixture_values(toy_y):
    assert toy_y.shape == (20,)
    assert abs(toy_y.mean() - YBAR) < 1e-15


def test_model_callables(toy_y):
    model = gaussian_location_model(np.array([1.0, 2.0, 3.0]))
    g = model.grad_complete_loglik(np.array([1.0, 2.0, 3.0]), np.array([0.5]))
    np.testing.assert_allclose(g, [4.5], rtol=1e-15)
    # batched shapes broadcast over the leading axis
    gb = model.grad_complete_loglik(np.zeros((4, 3)), np.zeros((4, 1)))
    assert gb.shape == (4, 1)
    lp = model.predictive_log_density(np.zeros((4, 3)), np.zeros((4, 1)))
    assert lp.shape == (4,)
    # density peaks at the posterior mean (theta + y)/2
    theta = np.array([2.0])
    peak = 0.5 * (2.0 + np.array([1.0, 2.0, 3.0]))
    lp0 = model.predictive_log_density(peak, theta)
    assert lp0 == 0.0
    assert model.predictive_log_density(peak + 0.3, theta) < lp0


def test_mean_field_matches_monte_carlo(toy_y):
    # E[grad | y, theta] = sum(y_i - theta)/2 under x_i ~ N((theta+y_i)/2, 1/2)
    model = gaussian_location_model(toy_y)
    rng = np.random.default_rng(7)
    n_mc = 4000
    se = np.sqrt(toy_y.size * 0.5 / n_mc)
    for theta in (-1.0, 0.0, YBAR, 2.0, 5.0):
        x = 0.5 * (theta + toy_y) + np.sqrt(0.5) * rng.standard_normal(
            (n_mc, toy_y.size))
        mc = model.grad_complete_loglik(x, np.array([theta])).mean()
        exact = 0.5 * (toy_y - theta).sum()
        assert abs(mc - exact) <= 3.5 * se


def test_mean_field_descends_squared_error(toy_y):
    # v(theta) = sum(y_i - theta)^2/4 has gradient -h, so h is a descent
    # direction everywhere away from the sample mean
    def v(theta):
        return ((toy_y - theta) ** 2).sum() / 4.0

    for theta in (-2.0, 0.0, 0.5, 1.0, 3.0):
        h = 0.5 * (toy_y - theta).sum()
        if abs(theta - YBAR) < 1e-12:
            continue
        assert -h * h < 0.0
        assert v(theta + 0.01 * h) < v(theta)


def test_zero_gradient_leaves_theta_fixed():
    model = flat_model(2, lambda x, theta: np.zeros(1))
    ladder = TruncationLadder(center=np.array([0.3]), reinit_state=np.zeros(2))
    trace = run_samle(model, GainSchedule(), ladder, 50, seed=1)
    assert np.all(trace.thetas == 0.3)
    assert trace.sigma_events == []
    assert not np.array_equal(trace.final_state, np.zeros(2))


def test_noise_free_recursion_finds_sample_mean(toy_y):
    # gradient equal to the mean field makes the recursion deterministic;
    # with a_1 * n/2 = 1 the first step lands exactly on the root
    model = flat_model(
        toy_y.size, lambda x, theta: 0.5 * (toy_y - theta).sum(keepdims=True))
    ladder = TruncationLadder(center=np.zeros(1), reinit_state=toy_y.copy())
    schedule = GainSchedule(c1=0.1)
    trace = run_samle(model, schedule, ladder, 200, seed=2)
    assert abs(trace.thetas[0, 0] - YBAR) < 1e-12
    assert abs(trace.final_theta[0] - YBAR) < 1e-12


def test_truncation_resets_both_coordinates():
    model = flat_model(1, lambda x, theta: np.full(1, 100.0))
    ladder = TruncationLadder(center=np.zeros(1), r0=0.5,
                              reinit_state=np.zeros(1))
    trace = run_samle(model, GainSchedule(), ladder, 5, seed=3)
    # every half-step jumps by ~100 a_k, far past both safeguards
    assert trace.sigma_events == [1, 2, 3, 4, 5]
    assert np.all(trace.thetas == 0.0)
    assert trace.final_sigma == 5
    np.testing.assert_array_equal(trace.final_state, np.zeros(1))
    # the trace holds a copy of the reset point, not the ladder's array
    trace.final_state[0] = 42.0
    np.testing.assert_array_equal(ladder.reinit_state, np.zeros(1))


def test_engine_survives_unbounded_sigma(toy_y):
    # a gradient too large for the schedule truncates every iteration, so
    # sigma outruns the float range of the ball radius; the run must keep
    # going silently with the ball saturated at infinity
    import warnings

    base = gaussian_location_model(toy_y)
    model = MissingDataModel(
        grad_complete_loglik=lambda x, th: np.full((x.shape[0], 1), 100.0),
        predictive_log_density=base.predictive_log_density,
        x_space=base.x_space,
    )
    ladder = TruncationLadder(center=np.zeros(1), r0=0.5,
                              reinit_state=toy_y.copy())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        trace = run_samle(model, GainSchedule(), ladder, 800, seed=0)
    assert trace.final_sigma == 800
    assert np.all(trace.thetas == 0.0)


def test_nonfinite_gradient_aborts_solo_run():
    model = flat_model(1, lambda x, theta: np.array([np.inf]))
    ladder = TruncationLadder(center=np.zeros(1), reinit_state=np.zeros(1))
    with pytest.raises(NonFiniteGradientError,
                       match="nonfinite gradient at iteration 1") as info:
        run_samle(model, GainSchedule(), ladder, 10, seed=4)
    assert info.value.iteration == 1


def test_nonfinite_gradient_aborts_batch_path(toy_y):
    base = gaussian_location_model(toy_y)
    model = MissingDataModel(
        grad_complete_loglik=lambda x, th: np.full((x.shape[0], 1), np.nan),
        predictive_log_density=base.predictive_log_density,
        x_space=base.x_space,
    )
    ladder = TruncationLadder(center=np.zeros(1), reinit_state=toy_y.copy())
    with pytest.raises(NonFiniteGradientError, match="iteration 1"):
        run_samle_batch(model, GainSchedule(), ladder, 10, seeds=[0, 1])


def test_argument_validation(toy_y):
    model = gaussian_location_model(toy_y)
    ladder = TruncationLadder(center=np.zeros(1), reinit_state=toy_y.copy())
    with pytest.raises(ValueError, match="k_max"):
        run_samle(model, GainSchedule(), ladder, 0, seed=0)
    with pytest.raises(ValueError, match="sweeps"):
        run_samle(model, GainSchedule(), ladder, 10, seed=0, sweeps=0)
    for step in (0.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="step must be positive and finite"):
            RandomWalk(step=step)


def test_batch_member_matches_solo_run(toy_y):
    model = gaussian_location_model(toy_y)
    schedule = GainSchedule(c1=0.1)

    def ladder():
        return TruncationLadder(center=np.zeros(1), reinit_state=toy_y.copy())

    batch = run_samle_batch(model, schedule, ladder(), 5000, seeds=[3, 4],
                            sweeps=2, proposal=RandomWalk(step=0.4),
                            store_thetas=True)
    for seed, member in zip([3, 4], batch):
        solo = run_samle(model, schedule, ladder(), 5000, seed=seed,
                         sweeps=2, proposal=RandomWalk(step=0.4))
        assert_same_trace(solo, member, f"seed {seed}")
    assert not np.array_equal(batch[0].thetas, batch[1].thetas)


def test_solo_run_tests_every_half_step(toy_y, monkeypatch):
    # the SA-MLE gradient has no bound, so run_sa takes both norms at
    # every iteration that does not truncate
    calls = []
    dist = sa._dist
    monkeypatch.setattr(sa, "_dist", lambda u, v: calls.append(1) or dist(u, v))
    ladder = TruncationLadder(center=np.zeros(1), reinit_state=toy_y.copy())
    trace = run_samle(gaussian_location_model(toy_y), GainSchedule(c1=0.1), ladder,
                      2000, seed=3, sweeps=2, proposal=RandomWalk(step=0.4))
    assert trace.sigma_events == [] and len(calls) == 2 * 2000


def test_single_observation_root_is_that_observation():
    y = np.array([2.5])
    # pinning x at its predictive mean makes the recursion deterministic
    # with field (y_1 - theta)/2, whose only root is y_1 itself
    pinned = flat_model(1, lambda x, theta: 0.5 * (y - theta))
    ladder = TruncationLadder(center=np.zeros(1), reinit_state=y.copy())
    trace = run_samle(pinned, GainSchedule(), ladder, 2000, seed=5)
    assert abs(trace.final_theta[0] - 2.5) < 1e-5

    model = gaussian_location_model(y)
    ladder = TruncationLadder(center=np.zeros(1), reinit_state=y.copy())
    trace = run_samle(model, GainSchedule(), ladder, 20000, seed=0)
    theta_bar = trace.running_sum[0] / trace.k
    assert abs(theta_bar - 2.5) <= 0.05


def test_started_at_root_average_stays_near_root(toy_y):
    model = gaussian_location_model(toy_y)
    ladder = TruncationLadder(center=np.array([YBAR]),
                              reinit_state=toy_y.copy())
    trace = run_samle(model, GainSchedule(c1=0.1), ladder, 30000, seed=0,
                      sweeps=3, proposal=RandomWalk(step=0.4),
                      snapshot_stride=1000)
    for snap in trace.snapshots:
        if snap.k >= 5000:
            assert abs(snap.theta_sum[0] / snap.k - YBAR) <= 0.02


def test_batch_engine_golden_digests(toy_y):
    model = gaussian_location_model(toy_y)
    traces = run_samle_batch(
        model, GainSchedule(c1=0.1),
        TruncationLadder(center=np.zeros(1), reinit_state=toy_y.copy()),
        20_000, seeds=[0, 1, 2], proposal=RandomWalk(step=0.4), sweeps=2)
    assert {t.seed: trace_digest(t) for t in traces} == GOLDEN_TOY


def test_batch_engine_golden_digests_with_truncations(toy_y):
    # a tight, slowly growing ladder resets each chain several times, at
    # different iterations per chain, so the masked reset path is pinned
    model = gaussian_location_model(toy_y)
    ladder = TruncationLadder(center=np.zeros(1), r0=0.6, growth=1.1,
                              reinit_state=toy_y.copy())
    traces = run_samle_batch(model, GainSchedule(c1=0.1), ladder, 20_000,
                             seeds=[5, 6])
    assert traces[0].sigma_events == [1, 2, 4, 846, 1946, 7782, 18887]
    assert traces[1].sigma_events == [1, 2, 4, 1367, 3123, 11632, 17326]
    assert {t.seed: trace_digest(t) for t in traces} == GOLDEN_TIGHT_LADDER


def test_box_validation():
    with pytest.raises(ValueError):
        Box(np.zeros(2), np.zeros(3))
    with pytest.raises(ValueError):
        Box(np.array([0.0, 1.0]), np.array([1.0, 1.0]))
    for lower, upper in ([np.nan], [1.0]), ([0.0], [np.nan]):
        with pytest.raises(ValueError, match="strictly below"):
            Box(lower, upper)
    box = Box(np.zeros(2), np.ones(2))
    assert box.contains(np.array([0.5, 1.0]))
    assert not box.contains(np.array([0.5, 1.1]))


def test_reflect_values():
    box = Box(np.array([0.0]), np.array([1.0]))
    assert abs(reflect_into_box(np.array([1.06]), box)[0] - 0.94) < 1e-15
    assert abs(reflect_into_box(np.array([-0.2]), box)[0] - 0.2) < 1e-15
    # several periods out still folds back inside
    assert 0.0 <= reflect_into_box(np.array([7.3]), box)[0] <= 1.0


def test_reflect_skips_interior_points():
    # points already inside huge safeguard boxes pass through untouched,
    # with no precision loss from the folding arithmetic
    box = Box(np.full(3, -1e100), np.full(3, 1e100))
    y = np.array([0.1234567890123456, -7.5, 42.0])
    out = reflect_into_box(y, box)
    np.testing.assert_array_equal(out, y)


def test_batch_engine_reflects_at_narrow_box_walls(toy_y):
    model = narrow_box_model(toy_y)

    def run(m):
        return run_samle_batch(
            m, GainSchedule(c1=0.1),
            TruncationLadder(center=np.zeros(1), reinit_state=toy_y.copy()),
            5000, seeds=[7, 8], proposal=RandomWalk(step=0.4), sweeps=3,
            snapshot_stride=500)

    traces = run(model)
    for t in traces:
        assert model.x_space.contains(t.final_state)
    assert {t.seed: trace_digest(t) for t in traces} == GOLDEN_NARROW_BOX
    # the same streams in the unbounded box give other chains, so the
    # walls were actually hit and the reflection branch ran
    wide = run(gaussian_location_model(toy_y))
    for t, w in zip(traces, wide):
        assert not np.array_equal(t.final_state, w.final_state)


@pytest.mark.parametrize("make_model, seeds", [
    (gaussian_location_model, [0, 5, 7]),
    (narrow_box_model, [7]),
], ids=["toy", "narrow-box"])
def test_engine_replays_run_sa(toy_y, make_model, seeds):
    """The lockstep engine equals the scalar recursion byte for byte.

    run_samle is run_sa on samle.samle_problem, so this ties the batch
    engine to the production solo path.
    """
    model = make_model(toy_y)
    proposal, sweeps, k_max = RandomWalk(step=0.4), 3, 5000
    schedule = GainSchedule(c1=0.1)
    ladder = TruncationLadder(center=np.zeros(1), r0=0.6, growth=1.1,
                              reinit_state=toy_y.copy())
    for seed in seeds:
        trace = run_samle_batch(model, schedule, ladder, k_max, [seed],
                                proposal=proposal, sweeps=sweeps,
                                store_thetas=True)[0]
        ref = run_samle(model, schedule, ladder, k_max, seed,
                        proposal=proposal, sweeps=sweeps)
        assert trace.sigma_events, "r0 must be tight enough to truncate"
        assert_same_trace(ref, trace, f"seed {seed}")
        assert trace_digest(trace) == trace_digest(ref)


def walk_model(_y):
    """d = 3 on five flat latents: theta chases the walk's first three."""
    return flat_model(5, lambda x, theta: x[:3] - theta)


SHAPES = {"toy": gaussian_location_model, "narrow-box": narrow_box_model,
          "flat-d3": walk_model}


@pytest.mark.parametrize("shape, sweeps, chains", [
    *(pytest.param(shape, sweeps, 2, id=f"{shape}-{sweeps}")
      for shape in sorted(SHAPES) for sweeps in (1, 2, 3)),
    pytest.param("toy", 2, 5, id="toy-2-5-chains"),
])
def test_solo_run_matches_batch_member_across_shapes(toy_y, shape, sweeps,
                                                     chains):
    # run_samle against every member of a batch on a tight, slowly growing
    # ladder; k = 5000 crosses samle.CHUNK, and the stride 777 does not
    # divide it. The helper thread draws the odd members: member 1 of 2,
    # members 1 and 3 of 5.
    model = SHAPES[shape](toy_y)
    x0 = toy_y[:5].copy() if shape == "flat-d3" else toy_y.copy()
    d = 3 if shape == "flat-d3" else 1
    ladder = TruncationLadder(center=np.zeros(d), r0=0.6, growth=1.1,
                              reinit_state=x0)
    k_max, seed = 5000, 10 * sweeps + len(shape)
    assert k_max > samle.CHUNK and k_max % 777
    args = (model, GainSchedule(c1=0.1), ladder, k_max)
    kwargs = dict(proposal=RandomWalk(step=0.4, bounds=model.x_space),
                  sweeps=sweeps, snapshot_stride=777)
    seeds = list(range(seed, seed + chains))
    batch = run_samle_batch(*args, seeds, store_thetas=True, **kwargs)
    for member in batch:
        solo = run_samle(*args, member.seed, **kwargs)
        assert solo.sigma_events, "the ladder must truncate"
        assert_same_trace(solo, member,
                          f"{shape}, sweeps {sweeps}, seed {member.seed} "
                          f"of {chains} chains")


def test_one_problem_serves_many_runs(toy_y):
    # a new rng restarts the problem's draws and its reset point, so one
    # problem replays each batch member in turn, and the first again
    model, proposal, k_max = narrow_box_model(toy_y), RandomWalk(step=0.4), 5000
    schedule = GainSchedule(c1=0.1)
    ladder = TruncationLadder(center=np.zeros(1), r0=0.6, growth=1.1,
                              reinit_state=toy_y.copy())
    problem = samle.samle_problem(model, k_max, proposal=proposal, sweeps=2)
    batch = run_samle_batch(model, schedule, ladder, k_max, [3, 4],
                            proposal=proposal, sweeps=2, store_thetas=True)
    for member in batch + batch[:1]:
        solo = run_sa(problem, schedule, ladder, k_max, member.seed)
        assert_same_trace(solo, member, f"seed {member.seed}")


def counting(model, calls, threads=None):
    """model with each callable call appended to calls, and the thread
    that made it to threads if given."""
    def count(name, fn):
        def wrapped(x, theta):
            calls.append((name, len(x)))
            if threads is not None:
                threads.append(threading.get_ident())
            return fn(x, theta)
        return wrapped

    return MissingDataModel(
        grad_complete_loglik=count("grad", model.grad_complete_loglik),
        predictive_log_density=count("density", model.predictive_log_density),
        x_space=model.x_space)


@pytest.mark.parametrize("sweeps", [1, 3])
def test_solo_run_makes_sweeps_plus_one_model_calls(toy_y, sweeps):
    calls = []
    model = counting(gaussian_location_model(toy_y), calls)
    ladder = TruncationLadder(center=np.zeros(1), reinit_state=toy_y.copy())
    run_samle(model, GainSchedule(c1=0.1), ladder, 300, seed=1,
              proposal=RandomWalk(step=0.4), sweeps=sweeps)
    # the first sweep scores the current point and its proposal in one call
    per_iteration = ([("density", 2)] + [("density", 1)] * (sweeps - 1)
                     + [("grad", 1)])
    assert calls == per_iteration * 300


BLOCK_END_CASES = [(shape, sweeps) for shape in ("toy", "narrow-box")
                   for sweeps in (1, 2, 3)]


def block_end_runs(y):
    """Two chains per case on a tight, slowly growing ladder; k = 2500
    crosses samle.CHUNK, and the stride 777 does not divide it."""
    runs = []
    for shape, sweeps in BLOCK_END_CASES:
        model = SHAPES[shape](y)
        ladder = TruncationLadder(center=np.zeros(1), r0=0.6, growth=1.1,
                                  reinit_state=y.copy())
        runs.append(run_samle_batch(
            model, GainSchedule(c1=0.1), ladder, 2500, [sweeps, 10 + sweeps],
            proposal=RandomWalk(step=0.4, bounds=model.x_space), sweeps=sweeps,
            snapshot_stride=777, store_thetas=True))
    return runs


@pytest.fixture(scope="module")
def default_block_runs(toy_y):
    return block_end_runs(toy_y)


@pytest.mark.parametrize("steps", [1, 2, 7, 64, samle.CHUNK])
def test_block_ends_change_no_bit(toy_y, default_block_runs, monkeypatch, steps):
    # a test block ends at BLOCK_STEPS, at every snapshot and at the draws'
    # end, and one where a chain truncates is replayed, so no block size
    # may move a bit
    monkeypatch.setattr(samle, "BLOCK_STEPS", steps)
    for (shape, sweeps), ref, got in zip(BLOCK_END_CASES, default_block_runs,
                                         block_end_runs(toy_y)):
        assert all(t.sigma_events for t in ref), "the ladder must truncate"
        for a, b in zip(ref, got):
            assert_same_trace(a, b, f"{shape}, sweeps {sweeps}, seed {a.seed}, "
                                    f"BLOCK_STEPS {steps}")


SPIKE = 1000.0


class SpikeGenerator:
    """Stand-in for default_rng: every proposal offset is 0 but the first
    latent's at the first sweep of the iterations in spikes, which is
    SPIKE; every acceptance uniform is 1/2."""

    def __init__(self, spikes):
        self.spikes, self.k = spikes, 0

    def standard_normal(self, shape):       # (steps, sweeps, dim x)
        z = np.zeros(shape)
        for j in self.spikes:
            if self.k < j <= self.k + shape[0]:
                z[j - self.k - 1, 0, 0] = SPIKE
        self.k += shape[0]
        return z

    def random(self, shape):
        return np.full(shape, 0.5)


def spiking(monkeypatch, spikes):
    """Chains whose seed is a key of spikes draw from a SpikeGenerator.

    On a flat latent law every proposal is accepted, so the first latent
    is 0 from the reset point until a spike takes it to SPIKE."""
    monkeypatch.setattr(np.random, "default_rng",
                        lambda seed: SpikeGenerator(spikes[seed]))


def spike_model(grad=lambda x, theta: x[:1], guard=None):
    """One flat latent; guard(x, theta), if given, vets every row first."""
    def check(xs, thetas):
        if guard is not None:
            for x, theta in zip(xs, thetas):
                guard(x, theta)

    def density(xs, thetas):
        check(xs, thetas)
        return np.zeros(len(xs))

    def score(xs, thetas):
        check(xs, thetas)
        return np.array([grad(x, theta) for x, theta in zip(xs, thetas)])

    bound = np.full(1, 1e100)
    return MissingDataModel(grad_complete_loglik=score,
                            predictive_log_density=density,
                            x_space=Box(-bound, bound))


def spike_ladder():
    return TruncationLadder(center=np.zeros(1), reinit_state=np.zeros(1))


def block_spikes():
    """Spikes on a test block's first and last step, and two chains' on
    different steps of one block; blocks start after multiples of
    BLOCK_STEPS, as no snapshot falls inside the run."""
    n = samle.BLOCK_STEPS
    return {0: [2 * n + 1], 1: [3 * n], 2: [4 * n + 1 + n // 4],
            3: [4 * n + 1 + 3 * n // 4], 4: []}


def test_failures_inside_a_block_match_solo_runs(monkeypatch):
    # each spike makes one half-step jump by a_j * SPIKE, past b_j, so its
    # chain truncates there and nowhere else; between spikes theta drifts
    # by a_j per step and stays inside both safeguards
    spikes = block_spikes()
    spiking(monkeypatch, spikes)
    model = spike_model(grad=lambda x, theta: x[:1] + 1.0)
    k_max = 6 * samle.BLOCK_STEPS
    args = (model, GainSchedule(c1=0.1), spike_ladder(), k_max)
    batch = run_samle_batch(*args, list(spikes), store_thetas=True)
    for member in batch:
        assert member.sigma_events == spikes[member.seed]
        assert_same_trace(run_samle(*args, member.seed), member,
                          f"seed {member.seed}, spikes at {spikes[member.seed]}")


@pytest.mark.parametrize("value, error, c1", [
    (np.inf, NonFiniteGradientError, 0.1), (np.nan, NonFiniteGradientError, 0.1),
    (1e308, NonFiniteIterateError, 100.0),
], ids=["inf-gradient", "nan-gradient", "overflowing-step"])
def test_nonfinite_values_inside_a_block_fail_as_solo_runs_do(monkeypatch, value,
                                                               error, c1):
    # chain 1's gradient turns nonfinite at its spike, in mid-block, or
    # a_j * 1e308 overflows there; the untested steps after it run on
    # nonfinite theta, which must neither warn nor change the error
    n = samle.BLOCK_STEPS
    spikes = {0: [], 1: [2 * n + n // 2]}
    spiking(monkeypatch, spikes)
    model = spike_model(grad=lambda x, theta: [value if x[0] > 1.0 else 0.0])
    args = (model, GainSchedule(c1=c1), spike_ladder(), 4 * n)
    failures = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for run in (lambda: run_samle_batch(*args, [0, 1]),
                    lambda: run_samle(*args, 1)):
            with pytest.raises(error, match=f"at iteration {spikes[1][0]}:") as info:
                run()
            failures.append(info.value)
    assert [str(w.message) for w in caught] == []
    batch, solo = failures
    assert batch.iteration == solo.iteration == spikes[1][0]
    assert str(batch) == str(solo)


class LeakedRow(RuntimeError):
    pass


def test_rows_past_a_would_be_reset_do_not_leak(monkeypatch):
    # theta is 0 until the spike, whose step truncates; a chain that were
    # not reset would next see the spiked latent at a nonzero theta, rows
    # on which both callables raise
    def guard(x, theta):
        if x[0] > 1.0 and theta[0] != 0.0:
            raise LeakedRow(f"row x={x}, theta={theta}")

    n = samle.BLOCK_STEPS
    spikes = {0: [2 * n + 1 + n // 2], 1: []}
    spiking(monkeypatch, spikes)
    args = (spike_model(guard=guard), GainSchedule(c1=0.1), spike_ladder(), 4 * n)
    batch = run_samle_batch(*args, [0, 1], store_thetas=True)
    for member in batch:
        assert member.sigma_events == spikes[member.seed]
        assert_same_trace(run_samle(*args, member.seed), member,
                          f"seed {member.seed}")


@pytest.mark.parametrize("sweeps", [1, 2, 3])
def test_batch_makes_sweeps_plus_one_model_calls(toy_y, sweeps):
    calls, threads, B, k_max = [], [], 3, 300
    model = counting(gaussian_location_model(toy_y), calls, threads)
    ladder = TruncationLadder(center=np.zeros(1), reinit_state=toy_y.copy())
    traces = run_samle_batch(model, GainSchedule(c1=0.1), ladder, k_max,
                             range(B), proposal=RandomWalk(step=0.4), sweeps=sweeps)
    assert not any(t.sigma_events for t in traces)
    per_iteration = ([("density", 2 * B)] + [("density", B)] * (sweeps - 1)
                     + [("grad", B)])
    assert calls == per_iteration * k_max
    assert set(threads) == {threading.get_ident()}


def test_replayed_block_repeats_its_model_calls_once(monkeypatch):
    # chain 0 truncates in the third test block, which is replayed whole
    n = samle.BLOCK_STEPS
    spiking(monkeypatch, {0: [2 * n + 3], 1: []})
    calls, threads = [], []
    model = counting(spike_model(), calls, threads)
    traces = run_samle_batch(model, GainSchedule(c1=0.1), spike_ladder(),
                             4 * n, [0, 1], sweeps=2)
    assert [t.sigma_events for t in traces] == [[2 * n + 3], []]
    per_iteration = [("density", 4), ("density", 2), ("grad", 2)]
    # 4n iterations, and the n of the replayed block once more
    assert calls == per_iteration * (5 * n)
    assert set(threads) == {threading.get_ident()}


def first_step_then(value):
    """One flat latent; gradient 1 while theta < 1, then value."""
    return flat_model(1, lambda x, theta: np.array(
        [1.0 if theta[0] < 1.0 else value]))


def solo_path(model, schedule, ladder, k_max):
    run_samle(model, schedule, ladder, k_max, seed=0)


def batch_path(model, schedule, ladder, k_max):
    run_samle_batch(model, schedule, ladder, k_max, seeds=[0, 1])


@pytest.mark.parametrize("path", [solo_path, batch_path], ids=["solo", "batch"])
@pytest.mark.parametrize("value, error", [
    (np.inf, NonFiniteGradientError), (np.nan, NonFiniteGradientError),
    (1e308, NonFiniteIterateError),
], ids=["inf-gradient", "nan-gradient", "overflowing-step"])
def test_nonfinite_values_abort_both_paths_alike(path, value, error):
    # a_1 = 4 takes theta from 0 to 4, inside both safeguards; at
    # iteration 2 the gradient is nonfinite, or a_2 * 1e308 overflows
    schedule = GainSchedule(c1=4.0, c2=10.0)
    ladder = TruncationLadder(center=np.zeros(1), reinit_state=np.zeros(1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match="at iteration 2:") as info:
            path(first_step_then(value), schedule, ladder, 10)
    assert info.value.iteration == 2


@pytest.mark.parametrize("path, step, seeds, first", [
    ("solo", 1e308, [0], 1), ("solo", 4e307, [2], samle.CHUNK + 1),
    ("batch", 1e308, [0], 1), ("batch", 1e308, [0, 1], 1),
    ("batch", 4e307, [2], samle.CHUNK + 1), ("batch", 4e307, [1, 2], samle.CHUNK + 1),
], ids=["solo-first-block", "solo-second-block", "batch-first-block",
        "batch-B2-first-block", "batch-second-block", "batch-B2-second-block"])
def test_overflowing_proposal_step_fails_loudly(toy_y, path, step, seeds, first):
    # normals beyond float max / step overflow the offsets; without the
    # check the latents would turn NaN at the walls or never move. At 4e307
    # that takes |z| > 4.5: seed 2's first block has none and its second
    # some, seed 1's first two blocks none
    model = gaussian_location_model(toy_y)
    ladder = TruncationLadder(center=np.zeros(1), reinit_state=toy_y.copy())
    args = (model, GainSchedule(c1=0.1), ladder, 2 * samle.CHUNK)
    message = re.escape(f"proposal step {step!r} overflows the proposal offsets "
                        f"of the block from iteration {first}") + "$"
    with pytest.raises(ValueError, match=message):
        if path == "solo":
            run_samle(*args, seeds[0], proposal=RandomWalk(step=step))
        else:
            run_samle_batch(*args, seeds, proposal=RandomWalk(step=step))


class DrawFault(RuntimeError):
    pass


class WatchedGenerator:
    """rng's draws, recording the thread of each; standard_normal waits
    delay seconds first and raises DrawFault on draw fail_at (counted
    from 1)."""

    def __init__(self, rng, threads, delay, fail_at):
        self.rng, self.threads = rng, threads
        self.delay, self.fail_at = delay, fail_at

    def standard_normal(self, shape):
        self.threads.append(threading.get_ident())
        if len(self.threads) == self.fail_at:
            raise DrawFault(f"draw {self.fail_at}")
        time.sleep(self.delay)
        return self.rng.standard_normal(shape)

    def random(self, shape):
        self.threads.append(threading.get_ident())
        return self.rng.random(shape)


def watch_draws(monkeypatch, chains, fail_chain=None):
    """Wrap each chain's generator in a WatchedGenerator; returns the list
    of draw threads per chain. Odd chains' normals come 50 ms late, so a
    caller that does not wait for the helper reads unfilled draws; chain
    fail_chain fails its second block."""
    threads = [[] for _ in range(chains)]

    class WatchedLockstep(samle.Lockstep):
        def __init__(self, *args):
            super().__init__(*args)
            self.rngs = [WatchedGenerator(rng, threads[b], 0.05 * (b % 2),
                                          3 if b == fail_chain else None)
                         for b, rng in enumerate(self.rngs)]

    monkeypatch.setattr(samle, "Lockstep", WatchedLockstep)
    return threads


def on_fresh_thread(fn):
    """fn() on a new thread joined with a timeout: {"thread": its ident,
    and "value" or "error": what fn returned or raised}."""
    out = {}

    def call():
        try:
            out["value"] = fn()
        except BaseException as exc:
            out["error"] = exc

    worker = threading.Thread(target=call)
    worker.start()
    out["thread"] = worker.ident
    worker.join(timeout=60)
    assert not worker.is_alive(), "run_samle_batch still running after 60 s"
    return out


def thread_test_run(model, seeds, k_max=samle.CHUNK + 10, **kwargs):
    ladder = TruncationLadder(center=np.zeros(1),
                              reinit_state=np.zeros(model.x_space.lower.size))
    return run_samle_batch(model, GainSchedule(c1=0.1), ladder, k_max, seeds,
                           proposal=RandomWalk(step=0.4), sweeps=2, **kwargs)


@pytest.mark.parametrize("chains", [1, 5])
def test_helper_thread_draws_odd_chains_only(toy_y, monkeypatch, chains):
    # two blocks; the caller draws the even chains and runs every model
    # call, one helper the odd chains, and no thread outlives the call
    base = gaussian_location_model(toy_y)
    reference = thread_test_run(base, list(range(chains)), store_thetas=True)
    draws = watch_draws(monkeypatch, chains)
    calls = []
    model = MissingDataModel(
        grad_complete_loglik=lambda x, th: calls.append(
            threading.get_ident()) or base.grad_complete_loglik(x, th),
        predictive_log_density=lambda x, th: calls.append(
            threading.get_ident()) or base.predictive_log_density(x, th),
        x_space=base.x_space)
    before = threading.active_count()
    out = on_fresh_thread(lambda: thread_test_run(
        model, list(range(chains)), store_thetas=True))
    assert "error" not in out, out
    assert threading.active_count() == before
    for a, b in zip(reference, out["value"]):
        assert_same_trace(a, b, f"seed {a.seed}")
    assert set(calls) == {out["thread"]}
    for b, threads in enumerate(draws):
        assert len(threads) == 4, f"chain {b}: two blocks, two draws each"
        assert len(set(threads[:2])) == 1 and len(set(threads[2:])) == 1
        for block in (0, 2):
            on_caller = threads[block] == out["thread"]
            assert on_caller == (b % 2 == 0), f"chain {b}, block {block // 2}"


def test_helper_thread_fault_is_raised_by_the_caller(toy_y, monkeypatch):
    # chain 3's standard_normal raises in the second block on the helper;
    # the caller raises that same exception, with no thread left behind
    # and nothing reported to threading.excepthook
    draws = watch_draws(monkeypatch, 5, fail_chain=3)
    unhandled = []
    monkeypatch.setattr(threading, "excepthook", unhandled.append)
    before = threading.active_count()
    out = on_fresh_thread(lambda: thread_test_run(
        gaussian_location_model(toy_y), list(range(5))))
    assert isinstance(out.get("error"), DrawFault), out
    assert str(out["error"]) == "draw 3"
    assert draws[3][2] != out["thread"], "chain 3 must be drawn by the helper"
    assert threading.active_count() == before
    assert unhandled == []


def test_import_starts_no_thread():
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import threading, samcmc, samcmc.cli; "
            "print(threading.active_count())")
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    assert out.split() == ["1"]


def test_one_chain_draws_start_no_thread(toy_y, monkeypatch):
    # a solo run and a batch of one draw every block on the caller's thread
    def no_thread(*args, **kwargs):
        raise AssertionError("a one-chain run started a thread")

    model = gaussian_location_model(toy_y)
    monkeypatch.setattr(threading, "Thread", no_thread)
    ladder = TruncationLadder(center=np.zeros(1), reinit_state=toy_y.copy())
    run_samle(model, GainSchedule(c1=0.1), ladder, samle.CHUNK + 10, seed=0,
              sweeps=2, proposal=RandomWalk(step=0.4))
    thread_test_run(model, [0])


def test_import_loads_no_executor_or_logging():
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import sys, samcmc; "
            "print(*(m in sys.modules for m in ('concurrent.futures', 'logging')))")
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    assert out.split() == ["False", "False"]


def test_batch_bits_hold_under_frequent_thread_switches(toy_y):
    # B = 7 splits the draws 4 to 3; a 1 us switch interval interleaves
    # the two fills as finely as the interpreter allows
    model = narrow_box_model(toy_y)
    run = functools.partial(thread_test_run, model, list(range(20, 27)),
                            k_max=samle.CHUNK + 100, store_thetas=True)
    reference = run()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        stressed = run()
    finally:
        sys.setswitchinterval(interval)
    for a, b in zip(reference, stressed):
        assert_same_trace(a, b, f"seed {a.seed}")


def test_overflowing_acceptance_ratio_decides_silently():
    # log densities 1000 x on [-1, 1]: an uphill move of more than 0.71
    # makes exp(lp_y - lp_x) overflow to inf, which accepts as exp(0)
    # did; under the error filter any warning fails the test
    bound = np.ones(1)
    model = MissingDataModel(
        grad_complete_loglik=lambda x, theta: x - theta,
        predictive_log_density=lambda x, theta: 1000.0 * x[:, 0],
        x_space=Box(-bound, bound))
    ladder = TruncationLadder(center=np.zeros(1), reinit_state=-bound)
    args = (model, GainSchedule(c1=0.1), ladder, 500)
    kwargs = dict(proposal=RandomWalk(step=1.0), sweeps=2)
    batch = run_samle_batch(*args, [0, 1, 2], store_thetas=True, **kwargs)
    for member in batch:
        solo = run_samle(*args, member.seed, **kwargs)
        assert_same_trace(solo, member, f"seed {member.seed}")
