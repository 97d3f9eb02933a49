"""Adaptive reweighting operations and the finite-state run engines."""

import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest

from samcmc import (
    FiniteChainSpec,
    GainSchedule,
    RunTrace,
    SamcModel,
    SamcTheta,
    TruncationLadder,
    chain10,
    exact_omega,
    gain_at,
    omega_hat,
    run_samc,
    run_samc_batch,
    samc_log_ratio,
    samc_update,
    stationary_dist,
    theta_star,
    threshold_at,
    transition_matrix,
    trial_log_density,
    truncation_decide,
    visit_freq,
)
from samcmc import samc
from test_samle import trace_digest

THETA_STAR = np.array([math.log(6 / 34), math.log(15 / 34)])


@pytest.fixture(scope="module")
def chain():
    return chain10()


@pytest.fixture(scope="module")
def model(chain):
    return SamcModel.from_chain(chain)


@pytest.fixture(scope="module")
def m1_model(chain):
    """chain10 as one subregion: SAMC at m = 1 is plain MH on psi."""
    return SamcModel.from_chain(replace(
        chain, labels=np.ones(chain.n_states, dtype=int), pi=np.array([1.0])))


def uniform_model(n, m):
    """n equally sized subregions, a flat density and a uniform proposal,
    so theta* = 0."""
    assert n % m == 0
    return SamcModel.from_chain(FiniteChainSpec(
        n_states=n, log_psi=np.zeros(n), labels=1 + np.arange(n) * m // n,
        proposal=np.full((n, n), 1.0 / n), pi=np.full(m, 1.0 / m)))


# ---------------------------------------------------------------------------
# single-step operations
# ---------------------------------------------------------------------------

def test_trial_log_density_subtracts_component():
    model = uniform_model(4, 2)
    theta = np.array([0.5])
    # subregion 1 carries -theta_1, subregion 2 is pinned at zero
    assert trial_log_density(model, theta, 0) == -0.5
    assert trial_log_density(model, theta, 3) == 0.0


def test_trial_log_density_m1_degenerate():
    model = uniform_model(3, 1)
    assert trial_log_density(model, np.zeros(0), 1) == 0.0


def test_samc_log_ratio_example():
    # m = 2, theta = (0.5,), move from subregion 1 to subregion 2 with equal
    # densities and symmetric proposal: log ratio is exactly theta_1
    r = samc_log_ratio(np.array([0.5]), 2, j_x=1, j_y=2,
                       log_psi_x=-1.3, log_psi_y=-1.3,
                       log_q_fwd=-2.0, log_q_bwd=-2.0)
    assert r == 0.5


def test_samc_log_ratio_invariant_to_common_shift():
    rng = np.random.default_rng(0)
    theta = rng.standard_normal(2)
    args = dict(j_x=1, j_y=2, log_psi_x=0.3, log_psi_y=-0.9,
                log_q_fwd=-1.0, log_q_bwd=-1.5)
    base = samc_log_ratio(theta, 3, **args)
    # both labels free: adding a constant to every free component cancels
    shifted = samc_log_ratio(theta + 7.25, 3, **args)
    assert abs(base - shifted) < 1e-12


def test_samc_update_example():
    pi = np.full(3, 1.0 / 3.0)
    new = samc_update(np.zeros(2), 3, j_visited=2, pi=pi, a=0.1)
    np.testing.assert_allclose(new.theta, [-1 / 30, 2 / 30], rtol=1e-12)


def test_samc_update_visits_pinned_subregion():
    pi = np.full(3, 1.0 / 3.0)
    new = samc_update(np.zeros(2), 3, j_visited=3, pi=pi, a=0.1)
    np.testing.assert_allclose(new.theta, [-1 / 30, -1 / 30], rtol=1e-12)


def test_samc_update_full_vector_properties():
    rng = np.random.default_rng(1)
    for _ in range(50):
        m = int(rng.integers(1, 7))
        pi = rng.random(m) + 0.1
        pi /= pi.sum()
        j = int(rng.integers(1, m + 1))
        a = float(rng.random()) + 0.01
        old = rng.standard_normal(m - 1)
        new = samc_update(old, m, j, pi, a)
        delta_free = new.theta - old
        delta_pinned = a * ((1.0 if j == m else 0.0) - pi[m - 1])
        full = np.append(delta_free, delta_pinned)
        assert abs(full.sum()) < 1e-12
        assert np.dot(full, full) <= (a ** 2) * 2.0 + 1e-12


def test_samc_update_rejects_bad_label():
    pi = np.full(2, 0.5)
    with pytest.raises(ValueError, match="outside 1..2"):
        samc_update(np.zeros(1), 2, j_visited=3, pi=pi, a=0.1)


def test_samc_theta_accessors():
    th = SamcTheta(np.array([0.4, -0.2]), 3)
    assert th.component(1) == 0.4
    assert th.component(3) == 0.0
    np.testing.assert_array_equal(th.extended(), [0.4, -0.2, 0.0])
    with pytest.raises(ValueError, match="outside"):
        th.component(4)
    with pytest.raises(ValueError, match="shape"):
        SamcTheta(np.zeros(3), 3)
    with pytest.raises(ValueError, match="finite"):
        SamcTheta(np.array([np.inf, 0.0]), 3)
    assert SamcTheta.zeros(1).theta.shape == (0,)


def test_theta_model_mismatch_detected():
    model = uniform_model(4, 2)
    with pytest.raises(ValueError, match="m=3"):
        trial_log_density(model, SamcTheta(np.zeros(2), 3), 0)


def test_from_chain_wires_tables(chain, model):
    assert model.chain is chain and model.m == chain.m
    np.testing.assert_array_equal(model.pi, chain.pi)
    np.testing.assert_array_equal(model.cdf[:, -1], 1.0)
    np.testing.assert_array_equal(model.steps[:, -1], 0.0)


# ---------------------------------------------------------------------------
# weight estimates
# ---------------------------------------------------------------------------

def test_omega_hat_round_trip():
    rng = np.random.default_rng(2)
    for _ in range(20):
        m = int(rng.integers(2, 6))
        w = rng.random(m) + 0.05
        w /= w.sum()
        pi = rng.random(m) + 0.05
        pi /= pi.sum()
        theta = np.log(w[:-1] / pi[:-1]) - math.log(w[-1] / pi[-1])
        np.testing.assert_allclose(omega_hat(theta, pi), w, atol=1e-12)


def test_omega_hat_chain10_root(chain):
    np.testing.assert_allclose(
        omega_hat(THETA_STAR, chain.pi),
        np.array([6.0, 15.0, 34.0]) / 55.0, atol=1e-14)


def test_omega_hat_zero_theta_returns_pi():
    pi = np.array([0.2, 0.3, 0.5])
    np.testing.assert_allclose(omega_hat(np.zeros(2), pi), pi, atol=1e-15)


def test_omega_hat_huge_components_stay_finite():
    w = omega_hat(np.array([1000.0, 500.0]), np.full(3, 1 / 3))
    assert np.all(np.isfinite(w))
    assert abs(w.sum() - 1.0) < 1e-12
    assert w.argmax() == 0


def test_omega_hat_rejects_wrong_length():
    with pytest.raises(ValueError, match="2 components"):
        omega_hat(np.zeros(3), np.full(3, 1 / 3))


def test_visit_freq():
    trace = RunTrace(thetas=None, sigma_events=[], running_sum=np.zeros(1),
                     k=100, seed=0, visit_counts=np.array([25, 75]))
    np.testing.assert_array_equal(visit_freq(trace), [0.25, 0.75])
    bare = RunTrace(thetas=None, sigma_events=[], running_sum=np.zeros(1),
                    k=100, seed=0)
    with pytest.raises(ValueError, match="visit counts"):
        visit_freq(bare)


# ---------------------------------------------------------------------------
# run drivers
# ---------------------------------------------------------------------------

def test_engine_rejects_nonreversible_proposal():
    cycle = np.array([[0.0, 1.0, 0.0],
                      [0.0, 0.0, 1.0],
                      [1.0, 0.0, 0.0]])
    chain = FiniteChainSpec(n_states=3, log_psi=np.zeros(3),
                            labels=np.array([1, 2, 3]), proposal=cycle,
                            pi=np.full(3, 1 / 3))
    with pytest.raises(ValueError, match="non-reversible proposal pair"):
        SamcModel.from_chain(chain)


def test_run_m1_is_plain_mh(m1_model):
    ladder = TruncationLadder(center=np.zeros(0), reinit_state=0)
    trace = run_samc(m1_model, GainSchedule(), ladder, 500, seed=0)
    assert trace.thetas.shape == (500, 0)
    np.testing.assert_array_equal(trace.visit_counts, [500])
    assert trace.sigma_events == []
    assert trace.final_sigma == 0


def test_finite_chain_occupation_matches_stationary(chain, m1_model):
    # 40000 chains of 64 steps from state 0 end in the stationary law up
    # to an exact distance of about 1e-15, so the tally of final states
    # must match it within TV 0.01
    ladder = TruncationLadder(center=np.zeros(0), reinit_state=0)
    n = 40000
    traces = run_samc_batch(m1_model, GainSchedule(), ladder, 64, range(n))
    counts = np.bincount([t.final_state for t in traces],
                         minlength=chain.n_states)
    f = stationary_dist(transition_matrix(chain, np.zeros(2)))
    tv = 0.5 * np.abs(counts / n - f).sum()
    assert tv < 0.01


def test_batch_member_matches_solo_run(model):
    # 12000 iterations crosses the pre-draw block boundary; r0 = 0.5 forces
    # early truncations so the reset path is part of the comparison
    schedule = GainSchedule()
    k_max = 12000
    seeds = [5, 6, 7]

    def ladder():
        return TruncationLadder(center=np.zeros(2), r0=0.5, reinit_state=0)

    batch = run_samc_batch(model, schedule, ladder(), k_max, seeds,
                           store_thetas=True)
    for seed, member in zip(seeds, batch):
        solo = run_samc(model, schedule, ladder(), k_max, seed=seed)
        np.testing.assert_array_equal(solo.thetas, member.thetas)
        np.testing.assert_array_equal(solo.visit_counts, member.visit_counts)
        assert solo.sigma_events == member.sigma_events
        assert solo.final_state == member.final_state
        assert solo.final_sigma == member.final_sigma
        np.testing.assert_array_equal(solo.running_sum, member.running_sum)
        for a, b in zip(solo.snapshots, member.snapshots):
            assert a.k == b.k and a.sigma == b.sigma
            np.testing.assert_array_equal(a.theta_sum, b.theta_sum)


def test_engine_replays_single_step_operations(chain, model):
    """The vectorized engine and the scalar operations agree bit for bit.

    The replay consumes the engine's exact randomness: per block of 8192
    iterations, one block of proposal uniforms then one block of acceptance
    uniforms, with the proposal read off the row cdf by counting entries
    <= u.
    """
    schedule = GainSchedule()
    k_max = 20000
    seed = 11
    ladder = TruncationLadder(center=np.zeros(2), r0=0.4, reinit_state=0)
    trace = run_samc(model, schedule, ladder, k_max, seed=seed)
    assert trace.sigma_events, "r0 must be tight enough to truncate"

    cdf = model.cdf
    labels = chain.labels
    log_psi = chain.log_psi
    log_q = np.where(chain.proposal > 0, np.log(chain.proposal), -np.inf)
    m, pi = model.m, model.pi
    ladder = TruncationLadder(center=np.zeros(2), r0=0.4, reinit_state=0)
    rng = np.random.default_rng(seed)
    theta = SamcTheta(np.zeros(2), m)
    x = 0
    counts = np.zeros(m, dtype=np.int64)
    thetas = np.empty((k_max, m - 1))
    events = []
    k = 0
    while k < k_max:
        length = min(8192, k_max - k)
        u_prop = rng.random(length)
        u_acc = rng.random(length)
        for i in range(length):
            k += 1
            y = int((cdf[x] <= u_prop[i]).sum())
            log_r = samc_log_ratio(
                theta, m, int(labels[x]), int(labels[y]),
                float(log_psi[x]), float(log_psi[y]),
                float(log_q[x, y]), float(log_q[y, x]))
            if u_acc[i] < np.exp(np.minimum(0.0, log_r)):
                x = y
            j = int(labels[x])
            theta_half = samc_update(theta, m, j, pi, gain_at(schedule, k))
            decision = truncation_decide(theta.theta, theta_half.theta, k,
                                         schedule, ladder)
            if decision.accepted:
                theta = theta_half
            else:
                theta = SamcTheta(decision.theta, m)
                x = decision.state
                ladder.sigma = decision.sigma
                events.append(k)
                j = int(labels[x])
            counts[j - 1] += 1
            thetas[k - 1] = theta.theta

    np.testing.assert_array_equal(trace.thetas, thetas)
    np.testing.assert_array_equal(trace.visit_counts, counts)
    assert trace.sigma_events == events
    assert trace.final_state == x
    assert trace.final_sigma == ladder.sigma


def test_snapshots_carry_prefix_sums(model):
    ladder = TruncationLadder(center=np.zeros(2), reinit_state=0)
    trace = run_samc(model, GainSchedule(), ladder, 3500, seed=1,
                     snapshot_stride=1000)
    assert [s.k for s in trace.snapshots] == [1000, 2000, 3000, 3500]
    for snap in trace.snapshots:
        np.testing.assert_array_equal(snap.theta, trace.thetas[snap.k - 1])
        np.testing.assert_allclose(
            snap.theta_sum / snap.k, trace.thetas[: snap.k].mean(axis=0),
            rtol=1e-12)
        np.testing.assert_allclose(snap.pi_hat.sum(), 1.0, rtol=1e-12)


def test_flat_target_stays_near_zero():
    model = uniform_model(9, 3)
    ladder = TruncationLadder(center=np.zeros(2), reinit_state=0)
    trace = run_samc(model, GainSchedule(), ladder, 5000, seed=3)
    norms = np.abs(trace.thetas[1000:]).max()
    assert norms <= 0.3
    assert np.abs(visit_freq(trace) - 1 / 3).max() <= 0.02


def test_averaged_error_shrinks_with_run_length(model):
    # compare the averaged estimate after 10% of the run against the full
    # run; the trajectory average must improve for nearly every seed
    ladder = TruncationLadder(center=np.zeros(2), reinit_state=0)
    k_max = 100000
    traces = run_samc_batch(model, GainSchedule(), ladder, k_max,
                            seeds=list(range(10)), snapshot_stride=10000)
    improved = 0
    for trace in traces:
        early = next(s for s in trace.snapshots if s.k == 10000)
        err_early = np.linalg.norm(early.theta_sum / early.k - THETA_STAR)
        err_full = np.linalg.norm(trace.running_sum / k_max - THETA_STAR)
        improved += err_full < err_early
    assert improved >= 9


# ---------------------------------------------------------------------------
# golden digests of the lockstep engine
# ---------------------------------------------------------------------------

# sha256 of samc_digest per seed; computed from the lockstep engine as it
# stood before its per-step cost was cut, and kept since
GOLDEN_CHAIN10 = {
    0: "e065971283832e48d19b29f1b20d404da2754d45a9a831582b7ed2452b7dabfc",
    1: "3f84e7528713fe1272373decfe7486d72c602de87ae866b6d0c29b2df6b14e82",
    2: "a1e7835b382aa4809d0a141a280e61fd6e3cd06c6c498a607d895165836c321f",
}
GOLDEN_CHAIN10_TIGHT = {
    3: "635366824ff045d7b941343adb19556ab2922dcdc34f2b6ab4d0eb0549071901",
    4: "6446990014f193513b4bd141cbc4ae03bcab08329a2486e9768e456694338e2c",
    5: "c99739ac8ab3286c79d77268be417773525f59930f7190020fff9e0e743d7ea3",
}
GOLDEN_SOLO = (
    "8c58aa10f388085310d312445148af25294fd7b03f38349210746132003ef4a6")
GOLDEN_RANDOM_CHAIN = {
    21: "8090d82a8f6736bead61969aa9b7ab24b7d73231453cbb94abe0fe8f44dc7888",
    22: "2cf2319d44b1235675adbcd5f6b979ec30854d6d35e1c4690d69dcf619631da4",
    23: "de723062b217ee3e39ae0a57a52c9fe448b97069b4c3afd8398e0a36d92a8de2",
}
GOLDEN_M1 = {
    8: "980f632974bd28c863bdeb4862357a73c2e60313da964e0fa6b293c69dad8811",
    9: "7201d96fccfacd82f6df0ef5a11215b8ec5fdab538de8dfd1f476b5890c6b63d",
}
GOLDEN_MOVE_BINDS = {
    31: "48d480d1f24af71ff334f7afacf57527172c951d395e92eb6fbac79a5ec9856d",
    32: "872b2b8d4522520db4b94c8b1ff71400a42541c6f7c47a33e3f790645c585ec1",
}


def samc_digest(trace):
    """trace_digest extended with visit counts, snapshot pi-hat and iterates."""
    h = hashlib.sha256(trace_digest(trace).encode())
    h.update(np.asarray(trace.visit_counts, dtype="<i8").tobytes())
    for snap in trace.snapshots:
        h.update(np.asarray([snap.k, snap.sigma], dtype="<i8").tobytes())
        for arr in (snap.theta, snap.pi_hat):
            h.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    if trace.thetas is not None:
        h.update(np.ascontiguousarray(trace.thetas, dtype="<f8").tobytes())
    return h.hexdigest()


def digests(traces):
    return {t.seed: samc_digest(t) for t in traces}


def random_chain(seed=2024, n=60, m=8):
    """A seeded chain: rough density, non-uniform pi, lopsided proposal.

    The proposal support is symmetric (a ring plus random pairs), so every
    move can be reversed, but the weights on it are not.
    """
    rng = np.random.default_rng(seed)
    log_psi = 2.0 * rng.standard_normal(n)
    labels = np.concatenate([np.arange(1, m + 1), rng.integers(1, m + 1, n - m)])
    pi = rng.random(m) + 0.5
    pi /= pi.sum()
    support = rng.random((n, n)) < 0.1
    ring = np.arange(n)
    support[ring, (ring + 1) % n] = True
    support |= support.T
    weights = rng.random((n, n)) * support
    proposal = weights / weights.sum(axis=1, keepdims=True)
    return FiniteChainSpec(n_states=n, log_psi=log_psi, labels=labels,
                           proposal=proposal, pi=pi)


def test_batch_engine_golden_digests(model):
    ladder = TruncationLadder(center=np.zeros(2), reinit_state=0)
    traces = run_samc_batch(model, GainSchedule(), ladder, 20_000, [0, 1, 2])
    assert digests(traces) == GOLDEN_CHAIN10


def test_batch_engine_golden_digests_tight_ladder(model):
    ladder = TruncationLadder(center=np.zeros(2), r0=0.5, reinit_state=0)
    traces = run_samc_batch(model, GainSchedule(), ladder, 20_000, [3, 4, 5])
    assert all(t.sigma_events for t in traces)
    assert digests(traces) == GOLDEN_CHAIN10_TIGHT


def test_solo_run_golden_digest(model):
    ladder = TruncationLadder(center=np.zeros(2), r0=0.4, reinit_state=0)
    trace = run_samc(model, GainSchedule(), ladder, 20_000, seed=11)
    assert trace.thetas.shape == (20_000, 2)
    assert samc_digest(trace) == GOLDEN_SOLO


def test_random_chain_golden_digests_and_solo_runs():
    chain = random_chain()
    model = SamcModel.from_chain(chain)
    assert not np.allclose(chain.proposal, chain.proposal.T)
    schedule = GainSchedule()
    k_max, seeds = 12_000, [21, 22, 23]

    def ladder():
        # a tight, slowly growing ladder truncates each chain at its own
        # iterations, one of them past the first block of draws
        return TruncationLadder(center=np.zeros(chain.m - 1), r0=2.0,
                                growth=1.1, reinit_state=5)

    batch = run_samc_batch(model, schedule, ladder(), k_max, seeds,
                           snapshot_stride=700, store_thetas=True)
    assert [t.sigma_events for t in batch] == [
        [8, 508], [6, 53, 10697], [5, 145, 8980]]
    assert digests(batch) == GOLDEN_RANDOM_CHAIN
    for seed, member in zip(seeds, batch):
        solo = run_samc(model, schedule, ladder(), k_max, seed,
                        snapshot_stride=700)
        assert samc_digest(solo) == samc_digest(member)


def test_tables_match_the_oracle_kernel_on_random_chains():
    # 50 seeded chains, N from 2 to 100 and m from 1 to 8. The MH kernel
    # the engine samples from its tables, with acceptance exp(min(0,
    # ratio + theta_x - theta_y)), must match the oracle's within a few
    # ulps at theta = 0, theta* and two random points
    eps = np.finfo(float).eps
    rng = np.random.default_rng(77)
    for seed in range(50):
        n = int(rng.integers(2, 101))
        m = int(rng.integers(1, min(n, 8) + 1))
        chain = random_chain(seed, n, m)
        model = SamcModel.from_chain(chain)
        where = f"chain seed {seed}, N={n}, m={m}"
        q = np.diff(model.cdf, axis=1, prepend=0.0)
        np.testing.assert_allclose(q, chain.proposal, rtol=0, atol=4 * eps,
                                   err_msg=where)
        support = chain.proposal > 0
        assert np.all(np.isfinite(model.ratio_table[support])), where
        tstar = theta_star(exact_omega(chain), chain.pi)
        for theta in (np.zeros(m - 1), tstar, tstar + 3 * rng.standard_normal(m - 1),
                      5 * rng.standard_normal(m - 1)):
            ext = np.append(theta, 0.0)[chain.labels0]
            log_r = np.where(support, model.ratio_table, 0.0) + (ext[:, None] - ext)
            p = np.where(support, q * np.exp(np.minimum(0.0, log_r)), 0.0)
            np.fill_diagonal(p, 0.0)
            np.fill_diagonal(p, 1.0 - p.sum(axis=1))
            np.testing.assert_allclose(p, transition_matrix(chain, theta), rtol=0,
                                       atol=4 * eps, err_msg=f"{where}, theta={theta}")


def test_m1_chain_golden_digests(m1_model):
    ladder = TruncationLadder(center=np.zeros(0), reinit_state=0)
    traces = run_samc_batch(m1_model, GainSchedule(), ladder, 10_000, [8, 9],
                            store_thetas=True)
    assert digests(traces) == GOLDEN_M1


MOVE_BINDS_PI = np.array([0.02, 0.49, 0.49])
MOVE_BINDS_SCHEDULE = GainSchedule(c1=1.0, eta=0.7, c2=0.8, xi=0.6658)


def test_move_threshold_binds_now_and_then(chain):
    # pi puts 2 % on subregion 1, whose update row is the longest (norm
    # about 1.10 against about 0.51). b_k/a_k = 0.8 k^0.034 lies between
    # the two until k is about 1e4, so visits to subregion 1 truncate on
    # the move test there; past that the threshold cannot bind
    model = SamcModel.from_chain(replace(chain, pi=MOVE_BINDS_PI))
    ladder = TruncationLadder(center=np.zeros(2), r0=1e6, reinit_state=9)
    traces = run_samc_batch(model, MOVE_BINDS_SCHEDULE, ladder, 20_000, [31, 32])
    for t in traces:
        assert 0 < len(t.sigma_events) < 1000
        assert t.sigma_events[-1] < 16_384
    assert digests(traces) == GOLDEN_MOVE_BINDS


def test_move_test_runs_only_where_the_threshold_can_bind():
    # the engine runs the move test on the first two blocks of draws of
    # the run above and skips it on the third, so the digests pin both
    rows = np.eye(3)[:, :2] - MOVE_BINDS_PI[:2]
    row_norm = np.sqrt((rows * rows).sum(axis=1)).max()

    def may_bind(first, last):
        ks = range(first, last + 1)
        bounds = samc._step_bounds(
            np.array([gain_at(MOVE_BINDS_SCHEDULE, k) for k in ks]), row_norm, 3, 1.0)
        return not np.all(bounds < [threshold_at(MOVE_BINDS_SCHEDULE, k) for k in ks])

    assert may_bind(1, 8192) and may_bind(8193, 16_384)
    assert not may_bind(16_385, 20_000)
