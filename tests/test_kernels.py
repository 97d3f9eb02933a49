"""Proposals, reflection, and the MH acceptance step."""

import math

import numpy as np
import pytest

from samcmc import (
    Box,
    DiscreteNeighbor,
    RandomWalk,
    chain10,
    mh_step,
    propose,
    reflect_into_box,
    stationary_dist,
    transition_matrix,
)


def test_box_validation():
    with pytest.raises(ValueError):
        Box(np.zeros(2), np.zeros(3))
    with pytest.raises(ValueError):
        Box(np.array([0.0, 1.0]), np.array([1.0, 1.0]))
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


def test_random_walk_proposals_stay_in_bounds():
    box = Box(np.array([0.0]), np.array([1.0]))
    walk = RandomWalk(step=0.1, bounds=box)
    rng = np.random.default_rng(0)
    x = np.array([0.95])
    for _ in range(10 ** 4):
        y, lqf, lqb = propose(walk, x, rng)
        assert 0.0 <= y[0] <= 1.0
        assert lqf == lqb


def test_random_walk_local_positivity():
    # q(x, y) stays bounded below on nearby pairs
    walk = RandomWalk(step=0.5)
    rng = np.random.default_rng(1)
    for _ in range(100):
        x = rng.standard_normal(3)
        y = x + 0.1 * rng.standard_normal(3)
        if np.linalg.norm(y - x) <= 0.25:
            assert walk.log_density(x, y) > math.log(1e-3)


def test_discrete_neighbor_uniform_off_diagonal():
    n = 10
    matrix = np.full((n, n), 1 / 9)
    np.fill_diagonal(matrix, 0.0)
    prop = DiscreteNeighbor(matrix)
    rng = np.random.default_rng(2)
    seen = set()
    for _ in range(500):
        y, lqf, lqb = propose(prop, 3, rng)
        assert y != 3
        assert abs(lqf + math.log(9)) < 1e-15
        assert abs(lqb + math.log(9)) < 1e-15
        seen.add(y)
    assert seen == set(range(10)) - {3}


def test_discrete_neighbor_validation():
    with pytest.raises(ValueError, match="square"):
        DiscreteNeighbor(np.ones((2, 3)))
    with pytest.raises(ValueError, match="sum to 1"):
        DiscreteNeighbor(np.array([[0.5, 0.4], [0.5, 0.5]]))
    with pytest.raises(ValueError, match="nonnegative"):
        DiscreteNeighbor(np.array([[1.5, -0.5], [0.5, 0.5]]))
    with pytest.raises(ValueError, match="sum to 1"):
        DiscreteNeighbor(np.array([[np.nan, 0.5], [0.5, 0.5]]))


def test_discrete_neighbor_never_draws_zero_mass_state():
    matrix = np.array([[0.5, 0.0, 0.5]] * 3)
    prop = DiscreteNeighbor(matrix)
    rng = np.random.default_rng(3)
    draws = {propose(prop, 0, rng)[0] for _ in range(300)}
    assert draws == {0, 2}


def test_propose_rejects_nonreversible_pair():
    # a 3-cycle: every possible move has zero reverse mass
    matrix = np.array([[0.0, 1.0, 0.0],
                       [0.0, 0.0, 1.0],
                       [1.0, 0.0, 0.0]])
    prop = DiscreteNeighbor(matrix)
    rng = np.random.default_rng(4)
    with pytest.raises(ValueError, match="non-reversible proposal pair"):
        propose(prop, 0, rng)


def test_mh_step_flat_target_always_accepts():
    walk = RandomWalk(step=1.0)
    rng = np.random.default_rng(5)
    x = np.zeros(2)
    for _ in range(200):
        x, accepted = mh_step(x, lambda y: 0.0, walk, rng)
        assert accepted


def test_mh_step_uphill_always_accepts():
    # log r = +log 2 clamps to acceptance probability 1
    walk = RandomWalk(step=1.0)
    rng = np.random.default_rng(6)
    x = np.zeros(1)
    for _ in range(200):
        y, accepted = mh_step(x, lambda z: math.log(2) if z is not x else 0.0,
                              walk, rng)
        assert accepted


def test_mh_step_rejection_returns_same_object():
    walk = RandomWalk(step=1.0)
    rng = np.random.default_rng(7)
    x = np.zeros(1)
    x_next, accepted = mh_step(
        x, lambda z: 0.0 if z is x else -np.inf, walk, rng)
    assert not accepted
    assert x_next is x


def test_mh_step_log_space_survives_huge_ratios():
    # |log r| near 900 must neither overflow nor warn
    walk = RandomWalk(step=1.0)
    rng = np.random.default_rng(8)
    x = np.zeros(1)
    with np.errstate(over="raise", invalid="raise"):
        for scale in (900.0, -900.0):
            _, accepted = mh_step(
                x, lambda z: 0.0 if z is x else scale, walk, rng)
            assert accepted == (scale > 0)


def test_mh_step_rejects_bad_targets():
    walk = RandomWalk(step=1.0)
    rng = np.random.default_rng(9)
    with pytest.raises(ValueError, match="finite"):
        mh_step(np.zeros(1), lambda z: -np.inf, walk, rng)
    with pytest.raises(ValueError, match="NaN"):
        mh_step(np.zeros(1), lambda z: 0.0 if z is not None and np.all(z == 0)
                else np.nan, walk, rng)


def test_mh_step_consumes_uniform_on_sure_accepts():
    # the acceptance uniform is always drawn, so the stream position does
    # not depend on the proposed point's density
    walk = RandomWalk(step=1.0)
    x = np.zeros(1)
    rng_a = np.random.default_rng(10)
    mh_step(x, lambda z: 0.0, walk, rng_a)
    rng_b = np.random.default_rng(10)
    mh_step(x, lambda z: 0.0 if z is x else 100.0, walk, rng_b)
    assert rng_a.random() == rng_b.random()


def test_finite_chain_occupation_matches_stationary():
    # one million MH steps on the ten-state chain at theta = 0; empirical
    # occupation must match the exact stationary law within TV 0.01
    chain = chain10()
    log_psi = chain.log_psi
    prop = DiscreteNeighbor(chain.proposal)
    rng = np.random.default_rng(0)
    x = 0
    counts = np.zeros(chain.n_states)
    n = 10 ** 6
    for _ in range(n):
        x, _ = mh_step(x, lambda s: log_psi[s], prop, rng)
        counts[x] += 1
    f = stationary_dist(transition_matrix(chain, np.zeros(2)))
    tv = 0.5 * np.abs(counts / n - f).sum()
    assert tv < 0.01
