"""Draws from a chain's proposal, boxes and reflection into a box."""

import numpy as np
import pytest

from samcmc import (
    Box,
    FiniteChainSpec,
    GainSchedule,
    SamcModel,
    TruncationLadder,
    reflect_into_box,
    run_samc_batch,
)


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


def test_discrete_neighbor_uniform_off_diagonal():
    matrix = np.full((10, 10), 1 / 9)
    np.fill_diagonal(matrix, 0.0)
    assert set(first_proposals(matrix, 3, 500)) == set(range(10)) - {3}


def test_discrete_neighbor_never_draws_zero_mass_state():
    matrix = [[0.5, 0.0, 0.5], [0.0, 1.0, 0.0], [0.5, 0.0, 0.5]]
    assert set(first_proposals(matrix, 0, 300)) == {0, 2}

