"""Adaptive reweighting operations and the finite-state run engines."""

import collections
import hashlib
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from samcmc import (
    FiniteChainSpec,
    GainSchedule,
    RunTrace,
    SamcModel,
    TruncationLadder,
    chain10,
    exact_omega,
    omega_hat,
    run_sa,
    run_samc,
    run_samc_batch,
    stationary_dist,
    theta_star,
    transition_matrix,
    visit_freq,
)
from samcmc import sa, samc
from samcmc.sa import ROW_LOOP_CELLS
from test_samle import assert_same_trace, trace_digest

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
# model tables
# ---------------------------------------------------------------------------

def test_from_chain_wires_tables(chain, model):
    assert model.chain is chain and model.m == chain.m
    np.testing.assert_array_equal(model.cdf[:, -1], 1.0)
    np.testing.assert_array_equal(model.steps[:, -1], 0.0)


def test_samc_update_example():
    # m = 3, pi uniform, a = 0.1: a visit to label 2 moves the free
    # components by (-1/30, 2/30)
    flat = uniform_model(3, 3)
    np.testing.assert_allclose(0.1 * flat.steps[1, :2], [-1 / 30, 2 / 30], rtol=1e-12)


def test_samc_update_visits_pinned_subregion():
    # a visit to the pinned label 3 moves each free component by -1/30
    flat = uniform_model(3, 3)
    np.testing.assert_allclose(0.1 * flat.steps[2, :2], [-1 / 30, -1 / 30], rtol=1e-12)


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


def first_proposals(matrix, x0, n_chains):
    """The state each of n_chains reaches in one step from x0.

    On a flat target at m = 1 the engine is plain MH; every proposal used
    below is symmetric, so it is always accepted and the final state is
    the proposal that the engine drew from the matrix.
    """
    n = len(matrix)
    model = SamcModel.from_chain(FiniteChainSpec(
        n_states=n, log_psi=np.zeros(n), labels=np.ones(n, dtype=int),
        proposal=matrix, pi=np.array([1.0])))
    ladder = TruncationLadder(center=np.zeros(0), reinit_state=x0)
    traces = run_samc_batch(model, GainSchedule(), ladder, 1, range(n_chains))
    return [t.final_state for t in traces]


def test_discrete_neighbor_uniform_off_diagonal():
    matrix = np.full((10, 10), 1 / 9)
    np.fill_diagonal(matrix, 0.0)
    assert set(first_proposals(matrix, 3, 500)) == set(range(10)) - {3}


def test_discrete_neighbor_never_draws_zero_mass_state():
    matrix = [[0.5, 0.0, 0.5], [0.0, 1.0, 0.0], [0.5, 0.0, 0.5]]
    assert set(first_proposals(matrix, 0, 300)) == {0, 2}


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
# sha256 over the samc_digest of each of 128 chains on the r0 = 0.5 ladder
GOLDEN_CHAIN10_WIDE = (
    "5e539d2a1c35d980f806ef6be334abab3f0b72cffcc3ba40fa4196c57bea4b78")
# sha256 over the samc_digest of each of 3 chains with 11 free components
GOLDEN_RANDOM_CHAIN_M12 = (
    "aa15b83d9c4e39895204d8b6c496a026e98ab1521581794fc55e11ecc2b9fea1")
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


@pytest.mark.parametrize("make_chain, r0, growth, x0, k_max, seeds", [
    (chain10, 0.4, 10.0, 0, 20_000, [11]),
    (random_chain, 2.0, 1.1, 5, 12_000, [21, 22, 23]),
], ids=["chain10", "random-chain"])
def test_engine_replays_run_sa(make_chain, r0, growth, x0, k_max, seeds):
    """The lockstep engine equals the scalar recursion byte for byte.

    run_samc is run_sa on samc.samc_problem, so this ties the batch engine
    to the production solo path.
    """
    chain = make_chain()
    model = SamcModel.from_chain(chain)
    ladder = TruncationLadder(center=np.zeros(chain.m - 1), r0=r0,
                              growth=growth, reinit_state=x0)
    for seed in seeds:
        trace = run_samc_batch(model, GainSchedule(), ladder, k_max, [seed],
                               store_thetas=True)[0]
        ref = run_samc(model, GainSchedule(), ladder, k_max, seed)
        assert trace.sigma_events, "r0 must be tight enough to truncate"
        np.testing.assert_array_equal(trace.thetas, ref.thetas)
        assert trace.sigma_events == ref.sigma_events
        assert trace.final_state == ref.final_state
        assert trace_digest(trace) == trace_digest(ref)


@pytest.mark.parametrize("chain_seed, n, m", [
    (1, 30, 1), (2, 40, 2), (3, 60, 8), (4, 300, 9), (5, 50, 12),
], ids=["N30-m1", "N40-m2", "N60-m8", "N300-m9", "N50-m12"])
def test_solo_run_matches_batch_member_on_random_chains(chain_seed, n, m):
    # run_samc (scalar) against member 0 of run_samc_batch([seed, seed + 1])
    # (vectorized) on seeded chains: m - 1 >= 8 free components take
    # numpy's pairwise norm; a tight, slowly growing ladder truncates, except
    # at m = 1, where theta has no component to move; k = 9000 crosses
    # samc.CHUNK, and the stride 700 does not divide it
    chain = random_chain(chain_seed, n, m)
    model = SamcModel.from_chain(chain)
    ladder = TruncationLadder(center=np.zeros(m - 1), r0=0.5, growth=1.1,
                              reinit_state=n // 2)
    k_max, seed = 9000, 40 + chain_seed
    assert k_max > samc.CHUNK and k_max % 700
    solo = run_samc(model, GainSchedule(), ladder, k_max, seed, snapshot_stride=700)
    member = run_samc_batch(model, GainSchedule(), ladder, k_max, [seed, seed + 1],
                            snapshot_stride=700, store_thetas=True)[0]
    assert bool(solo.sigma_events) == (m > 1), "the ladder must truncate"
    assert_same_trace(solo, member, f"seed {seed}, N={n}, m={m}")


def test_wide_batch_members_match_solo_runs(model):
    # 128 chains fold rows of 128 x 3 extended entries, so the compensated
    # sums take the row-by-row path; r0 = 0.5 truncates, k = 9000 crosses
    # samc.CHUNK and the stride 700 does not divide it
    B, k_max = 128, 9000
    assert B * model.m >= ROW_LOOP_CELLS
    assert k_max > samc.CHUNK and k_max % 700
    ladder = TruncationLadder(center=np.zeros(2), r0=0.5, reinit_state=0)
    batch = run_samc_batch(model, GainSchedule(), ladder, k_max, list(range(B)),
                           snapshot_stride=700, store_thetas=True)
    for b in (0, 64, 127):
        solo = run_samc(model, GainSchedule(), ladder, k_max, b, snapshot_stride=700)
        assert solo.sigma_events, "the ladder must truncate"
        assert_same_trace(solo, batch[b], f"seed {b} of {B}")


def test_overflowing_acceptance_ratio_decides_silently():
    # log psi jumps by 900 between the subregions, so an uphill proposal's
    # exp(log_r) overflows to inf, which accepts as exp(0) did; under the
    # error filter any warning fails the test
    model = SamcModel.from_chain(FiniteChainSpec(
        n_states=4, log_psi=np.array([0.0, 0.0, 900.0, 900.0]),
        labels=np.array([1, 1, 2, 2]), proposal=(1 - np.eye(4)) / 3,
        pi=np.array([0.5, 0.5])))
    assert np.nanmax(model.ratio_table) > math.log(np.finfo(float).max)
    ladder = TruncationLadder(center=np.zeros(1), reinit_state=0)
    batch = run_samc_batch(model, GainSchedule(), ladder, 3000, [0, 1, 2],
                           snapshot_stride=700, store_thetas=True)
    for member in batch:
        solo = run_samc(model, GainSchedule(), ladder, 3000, member.seed,
                        snapshot_stride=700)
        assert_same_trace(solo, member, f"seed {member.seed}")


class Draws:
    """Stands in for a Generator: hands out the given blocks of uniforms."""

    def __init__(self, *blocks):
        self.blocks = list(blocks)

    def random(self, size):
        block = self.blocks.pop(0)
        assert len(block) == size
        return np.array(block)


def test_solo_accept_decision_follows_numpy_exp_at_near_ties():
    # the solo path must decide the acceptance test as the batch engine,
    # whose exp is numpy's on an array, for u at that exp and its
    # neighbours. The chain has two states, one per subregion, a flat
    # density and a proposal that always moves, so the log ratio of the
    # move from 0 to 1 is theta_1
    model = SamcModel.from_chain(FiniteChainSpec(
        n_states=2, log_psi=np.zeros(2), labels=np.array([1, 2]),
        proposal=np.array([[0.0, 1.0], [1.0, 0.0]]), pi=np.full(2, 0.5)))
    step = samc.samc_problem(model, 1).step
    log_r = -np.random.default_rng(3).exponential(2.0, 20_000)
    engine_exp = np.exp(log_r)
    libm_exp = np.array([math.exp(v) for v in log_r.tolist()])

    def moved(i, u):
        return step([float(log_r[i])], 0, Draws([0.5], [u]))[0] == 1

    for i in range(300):
        e = float(engine_exp[i])
        for u in (math.nextafter(e, 0.0), e, math.nextafter(e, 1.0)):
            assert moved(i, u) == (u < e), f"log ratio {log_r[i]!r}, u {u!r}"
    # where libm's exp and numpy's differ in the last bit (a few % of
    # inputs on AVX-512 builds, none where numpy's kernel matches libm),
    # u at the smaller of the two makes them decide differently
    ties = np.flatnonzero(engine_exp != libm_exp)
    if ties.size:
        assert ties.size > 100
    for i in ties.tolist():
        u = min(engine_exp[i], libm_exp[i])
        assert moved(i, u) == (u < engine_exp[i]), f"log ratio {log_r[i]!r}, u {u!r}"
        assert moved(i, u) != (u < libm_exp[i])


def test_batch_engine_golden_digests(model):
    ladder = TruncationLadder(center=np.zeros(2), reinit_state=0)
    traces = run_samc_batch(model, GainSchedule(), ladder, 20_000, [0, 1, 2])
    assert digests(traces) == GOLDEN_CHAIN10


def test_batch_engine_golden_digests_tight_ladder(model):
    ladder = TruncationLadder(center=np.zeros(2), r0=0.5, reinit_state=0)
    traces = run_samc_batch(model, GainSchedule(), ladder, 20_000, [3, 4, 5])
    assert all(t.sigma_events for t in traces)
    assert digests(traces) == GOLDEN_CHAIN10_TIGHT


def test_batch_engine_golden_digest_wide_batch(model):
    # wide enough for the compensated sums' row-by-row path
    ladder = TruncationLadder(center=np.zeros(2), r0=0.5, reinit_state=0)
    traces = run_samc_batch(model, GainSchedule(), ladder, 2000, list(range(128)),
                            snapshot_stride=300)
    assert all(t.sigma_events for t in traces)
    assert 128 * model.m >= ROW_LOOP_CELLS
    digest = hashlib.sha256("".join(map(samc_digest, traces)).encode())
    assert digest.hexdigest() == GOLDEN_CHAIN10_WIDE


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


def test_random_chain_golden_digest_eleven_components():
    # theta has 11 components, more than the 7 below which numpy's reduce
    # sums left to right too; r0 = 0.5 truncates every chain, and the
    # stride 700 does not divide k
    chain = random_chain(12, 60, 12)
    ladder = TruncationLadder(center=np.zeros(11), r0=0.5, growth=1.1,
                              reinit_state=30)
    traces = run_samc_batch(SamcModel.from_chain(chain), GainSchedule(), ladder,
                            5000, [61, 62, 63], snapshot_stride=700)
    assert all(t.sigma_events for t in traces)
    digest = hashlib.sha256("".join(map(samc_digest, traces)).encode())
    assert digest.hexdigest() == GOLDEN_RANDOM_CHAIN_M12


@pytest.mark.parametrize("fold_rows, draw_rows",
                         [(1, 512), (5, 512), (64, 3), (64, 64), (5, 7)])
def test_block_ends_change_no_bit(monkeypatch, fold_rows, draw_rows):
    # fold and draw blocks end where FOLD_ROWS and DRAW_ROWS say; visits
    # are read off at a fold block's end and the update rows scaled per
    # fold block, so no block size may move a bit. Both ladders truncate
    ten, rand = chain10(), random_chain()
    cases = [
        (ten, TruncationLadder(center=np.zeros(2), r0=0.5, reinit_state=0),
         3000, [3, 4, 5]),
        (rand, TruncationLadder(center=np.zeros(rand.m - 1), r0=2.0, growth=1.1,
                                reinit_state=5), 12_000, [21, 22, 23]),
    ]

    def run_all():
        return [digests(run_samc_batch(SamcModel.from_chain(chain), GainSchedule(),
                                       ladder, k_max, seeds, snapshot_stride=700,
                                       store_thetas=True))
                for chain, ladder, k_max, seeds in cases]

    ref = run_all()
    monkeypatch.setattr(samc, "FOLD_ROWS", fold_rows)
    monkeypatch.setattr(samc, "DRAW_ROWS", draw_rows)
    assert run_all() == ref


@pytest.mark.parametrize("n", [1, 7, 400, 8192])
def test_random_spends_one_output_per_double(n):
    # run_samc_batch jumps each chain's PCG64 from a block's proposal
    # uniforms to its acceptance ones and back, which holds only while
    # random(n) spends exactly n 64-bit outputs
    drawn, jumped = np.random.default_rng(5), np.random.default_rng(5)
    start = drawn.bit_generator.state
    drawn.random(n)
    jumped.bit_generator.advance(n)
    where = f"n = {n}, numpy {np.__version__}"
    assert drawn.bit_generator.state == jumped.bit_generator.state, where
    drawn.bit_generator.advance(-n)
    assert drawn.bit_generator.state == start, where


@pytest.mark.parametrize("make_chain", [chain10, lambda: random_chain(7, 300, 8)],
                         ids=["chain10", "N300-m8"])
def test_batch_engine_holds_a_few_hundred_steps_of_draws(make_chain):
    # a whole block of draws would take 2 * CHUNK * B doubles, 16 MiB here;
    # at 300 states the peak stays flat: only the (B, N) compare buffers
    # grow with N, not with the steps held
    chain = make_chain()
    model = SamcModel.from_chain(chain)
    B, k_max = 128, samc.CHUNK + 1
    whole_block = 2 * samc.CHUNK * B * 8
    ladder = TruncationLadder(center=np.zeros(chain.m - 1), reinit_state=0)
    tracemalloc.start()
    try:
        run_samc_batch(model, GainSchedule(), ladder, k_max, list(range(B)),
                       snapshot_stride=k_max)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < whole_block / 4, f"peak {peak / 2**20:.1f} MiB"


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


def test_truncation_test_runs_only_where_a_chain_may_fail(chain):
    # on the run above, a 64-step fold block runs the test where the move
    # threshold may bind and skips it past k = 16,384, so the digests pin both
    model = SamcModel.from_chain(replace(chain, pi=MOVE_BINDS_PI))

    def may_fail(first, theta=np.ones((2, 2)), radius=1e6):
        lock = sa.Lockstep(MOVE_BINDS_SCHEDULE,
                           TruncationLadder(center=np.zeros(2), r0=radius),
                           1, [0, 1], 1, False)
        gains, thresholds = map(np.array, lock.block_schedule(first - 1, 64))
        return lock.may_truncate(theta, gains, thresholds, model.row_norm)

    assert may_fail(1) and may_fail(8193)
    assert not any(may_fail(k) for k in range(16_385, 20_000, 64))
    # the ball test binds where a chain starts within reach of the boundary:
    # at sqrt(2) from the center, 64 steps reach about 0.08 further
    assert may_fail(16_385, radius=1.45) and not may_fail(16_385, radius=1.6)
    for bad in (np.nan, np.inf):
        theta = np.ones((2, 2))
        theta[1, 0] = bad
        assert may_fail(16_385, theta)


def move_binds_chain():
    return replace(chain10(), pi=MOVE_BINDS_PI)


# (chain, ladder r0, growth, start, schedule, k_max): chain10 at gain
# constants up to c1 = 10, where steps to labels 1 and 2 truncate up to
# k = 6,440; random chains from m = 1 (d = 0) to 12; the move-binds run
SOLO_SKIP_CASES = {
    **{f"chain10-r0={r0:g}-c1={c1:g}":
       (chain10, r0, 10.0, 0, GainSchedule(c1=c1), 12_000)
       for r0 in (10.0, 0.5) for c1 in (0.5, 1.0, 4.0, 10.0)},
    **{f"random-m{m}": (lambda m=m: random_chain(40 + m, 60, m), 2.0, 1.1, 5,
                        GainSchedule(), 6_000) for m in (1, 2, 8, 12)},
    "move-binds": (move_binds_chain, 1e6, 10.0, 9, MOVE_BINDS_SCHEDULE, 20_000),
}


@pytest.mark.parametrize("case", SOLO_SKIP_CASES)
def test_solo_skip_changes_no_bit(case):
    """A declared bound on ||H|| only skips truncation tests that pass."""
    make_chain, r0, growth, x0, schedule, k_max = SOLO_SKIP_CASES[case]
    chain = make_chain()
    problem = samc.samc_problem(SamcModel.from_chain(chain), k_max)
    ladder = TruncationLadder(center=np.zeros(chain.m - 1), r0=r0,
                              growth=growth, reinit_state=x0)
    for seed in (3, 4):
        skipping = run_sa(problem, schedule, ladder, k_max, seed, snapshot_stride=700)
        testing = run_sa(replace(problem, h_norm_max=None), schedule, ladder,
                         k_max, seed, snapshot_stride=700)
        assert_same_trace(testing, skipping,
                          f"seed {seed}, chain {case}, c1={schedule.c1:g}")


def count_dist_calls(monkeypatch, problem, block):
    """Patch sa._dist to count its calls per block of iterations."""
    calls, k = collections.Counter(), 0
    dist, step = sa._dist, problem.step

    def counting_dist(u, v):
        calls[(k - 1) // block] += 1
        return dist(u, v)

    def counting_step(theta, x, rng):
        nonlocal k
        k += 1
        return step(theta, x, rng)

    monkeypatch.setattr(sa, "_dist", counting_dist)
    return calls, replace(problem, step=counting_step)


def test_solo_run_skips_the_test_only_where_no_step_may_fail(monkeypatch):
    # b_k/a_k passes the longest update row's norm, 1.0957, near k = 9,870:
    # of the 1000-step blocks, those from k = 10,000 on skip the test
    model = SamcModel.from_chain(move_binds_chain())
    problem = samc.samc_problem(model, 20_000)
    calls, problem = count_dist_calls(monkeypatch, problem, 1000)
    ladder = TruncationLadder(center=np.zeros(2), r0=1e6, reinit_state=9)
    trace = run_sa(problem, MOVE_BINDS_SCHEDULE, ladder, 20_000, 31)
    assert trace.sigma_events
    assert sorted(calls) == list(range(10))
    assert all(calls[j] >= 1000 for j in range(10))


def test_solo_run_at_m1_skips_every_test(monkeypatch, m1_model):
    # no free component: the bound holds at once and no norm is taken;
    # the suite's filter turns any numpy warning into an error
    calls, problem = count_dist_calls(monkeypatch, samc.samc_problem(m1_model, 3000), 1)
    ladder = TruncationLadder(center=np.zeros(0), reinit_state=0)
    trace = run_sa(problem, GainSchedule(), ladder, 3000, 8)
    assert not calls and trace.final_theta.shape == (0,)
