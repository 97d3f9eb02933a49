"""Exact finite-chain analysis: closed forms, solvers, and file round trips.

Expected values for the packaged ten-state instance were derived by hand:
psi sums over the label groups give omega = (6, 15, 34), so with uniform
pi the root is theta* = (log(6/34), log(15/34)) and the zero-theta region
probabilities are (6, 15, 34)/55.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from samcmc import (
    FiniteChainSpec,
    asymptotic_cov,
    chain10,
    dump_chain_file,
    exact_omega,
    jacobian,
    load_chain_file,
    lyapunov,
    mean_field,
    noise_covariance,
    poisson_solve,
    region_masses,
    stationary_dist,
    theta_star,
    transition_matrix,
    visit_indicator_table,
)
from samcmc.oracle import _region_ratios

THETA_STAR = np.array([math.log(6 / 34), math.log(15 / 34)])


@pytest.fixture(scope="module")
def chain():
    return chain10()


def random_theta(rng, radius=5.0):
    v = rng.standard_normal(2)
    return THETA_STAR + rng.uniform(0, radius) * v / np.linalg.norm(v)


def test_exact_omega(chain):
    np.testing.assert_allclose(exact_omega(chain), [6.0, 15.0, 34.0],
                               rtol=0, atol=1e-12)


def test_theta_star(chain):
    ts = theta_star(exact_omega(chain), chain.pi)
    np.testing.assert_allclose(ts, THETA_STAR, rtol=0, atol=1e-14)


def test_theta_star_rejects_nonpositive_omega():
    with pytest.raises(ValueError):
        theta_star(np.array([1.0, 0.0, 2.0]), np.full(3, 1 / 3))


def test_mean_field_at_zero(chain):
    h0 = mean_field(np.zeros(2), exact_omega(chain), chain.pi)
    np.testing.assert_allclose(h0, [-37 / 165, -10 / 165], rtol=0, atol=1e-14)


def test_mean_field_vanishes_at_root(chain):
    h = mean_field(THETA_STAR, exact_omega(chain), chain.pi)
    assert np.abs(h).max() < 1e-14


def test_mean_field_is_stationary_average(chain):
    # h(theta) must equal sum_x f_theta(x) H(theta, x) with f_theta the
    # stationary law of the constructed kernel
    omega = exact_omega(chain)
    table = visit_indicator_table(chain)
    rng = np.random.default_rng(1)
    for _ in range(3):
        theta = random_theta(rng)
        f = stationary_dist(transition_matrix(chain, theta))
        np.testing.assert_allclose(f @ table, mean_field(theta, omega, chain.pi),
                                   rtol=0, atol=1e-12)


def fsum_ratios(theta, omega):
    """S_i/S in Python floats: math.exp of the shifted logs over their fsum."""
    log_s = np.log(omega) - np.append(theta, 0.0)
    top = max(log_s)
    terms = [math.exp(v - top) for v in log_s]
    total = math.fsum(terms)
    return np.array([t / total for t in terms])


def extreme_thetas(rng):
    huge = [np.array([s1, s2]) * 1e300 for s1 in (1, -1) for s2 in (1, -1)]
    # (-1e16, -1e16) ties two huge terms; a log-sum-exp made them sum to 2
    mixed = [np.array([1e300, 0.0]), np.array([-1e300, 3.0]),
             np.array([-700.0, 700.0]), np.array([1e4, -1e4]),
             np.array([-1e16, -1e16]), np.array([-1e14, -1e14])]
    drawn = [THETA_STAR + rng.normal(0.0, 5.0, 2) for _ in range(200)]
    return huge + mixed + drawn


def test_region_ratios_finite_normalised_and_match_fsum(chain):
    """The max shift keeps S_i/S finite for any theta and within ulps of fsum."""
    omega = exact_omega(chain)
    eps = np.finfo(float).eps
    for theta in extreme_thetas(np.random.default_rng(20)):
        p = _region_ratios(theta, omega)
        ref = fsum_ratios(theta, omega)
        assert np.all(np.isfinite(p)), theta
        assert abs(p.sum() - 1.0) <= 1e-15, (theta, p.sum() - 1.0)
        assert np.all(np.abs(p - ref) <= 4 * np.spacing(ref)), (theta, p - ref)
        h = mean_field(theta, omega, chain.pi)
        fmat = jacobian(theta, omega, chain.pi)
        assert np.all(np.isfinite(h)) and np.all(np.isfinite(fmat)), theta
        np.testing.assert_allclose(h, ref[:-1] - chain.pi[:-1], rtol=0,
                                   atol=4 * eps, err_msg=str(theta))
        np.testing.assert_allclose(
            fmat, np.outer(ref[:-1], ref[:-1]) - np.diag(ref[:-1]), rtol=0,
            atol=4 * eps, err_msg=str(theta))


def test_jacobian_at_zero(chain):
    fmat = jacobian(np.zeros(2), exact_omega(chain), chain.pi)
    expected = np.array([[-294 / 3025, 90 / 3025], [90 / 3025, -600 / 3025]])
    np.testing.assert_allclose(fmat, expected, rtol=0, atol=1e-14)


def test_jacobian_at_root_uniform(chain):
    fmat = jacobian(THETA_STAR, exact_omega(chain), chain.pi)
    expected = np.array([[-2 / 9, 1 / 9], [1 / 9, -2 / 9]])
    np.testing.assert_allclose(fmat, expected, rtol=0, atol=1e-12)


def test_jacobian_matches_finite_differences(chain):
    omega = exact_omega(chain)
    rng = np.random.default_rng(2)
    step = 1e-5
    for _ in range(3):
        theta = random_theta(rng)
        fd = np.empty((2, 2))
        for j in range(2):
            e = np.zeros(2)
            e[j] = step
            fd[:, j] = (mean_field(theta + e, omega, chain.pi)
                        - mean_field(theta - e, omega, chain.pi)) / (2 * step)
        exact = jacobian(theta, omega, chain.pi)
        assert np.linalg.norm(fd - exact) / np.linalg.norm(exact) < 1e-6


def test_lyapunov_at_root(chain):
    omega = exact_omega(chain)
    v, grad_v, descent = lyapunov(THETA_STAR, omega, chain.pi)
    assert abs(v) < 1e-14
    assert np.abs(grad_v).max() < 1e-12
    assert abs(descent) < 1e-14


def test_lyapunov_descent_identity(chain):
    # the reported descent is exactly <grad_v, h>
    omega = exact_omega(chain)
    rng = np.random.default_rng(3)
    for _ in range(10):
        theta = random_theta(rng)
        v, grad_v, descent = lyapunov(theta, omega, chain.pi)
        h = mean_field(theta, omega, chain.pi)
        assert v > 0
        assert descent < 0
        assert abs(descent - grad_v @ h) < 1e-12


def test_lyapunov_gradient_matches_finite_differences(chain):
    omega = exact_omega(chain)
    rng = np.random.default_rng(4)
    step = 1e-6
    for _ in range(5):
        theta = random_theta(rng)
        _, grad_v, _ = lyapunov(theta, omega, chain.pi)
        fd = np.empty(2)
        for j in range(2):
            e = np.zeros(2)
            e[j] = step
            vp = lyapunov(theta + e, omega, chain.pi)[0]
            vm = lyapunov(theta - e, omega, chain.pi)[0]
            fd[j] = (vp - vm) / (2 * step)
        assert np.linalg.norm(fd - grad_v) / np.linalg.norm(grad_v) < 1e-6


def test_transition_matrix_is_stochastic(chain):
    rng = np.random.default_rng(5)
    for _ in range(3):
        p = transition_matrix(chain, random_theta(rng))
        assert np.all(p >= 0)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, rtol=0, atol=1e-14)


def test_detailed_balance(chain):
    # MH construction must be reversible w.r.t. the reweighted target
    omega = exact_omega(chain)
    for theta in (np.zeros(2), THETA_STAR):
        p = transition_matrix(chain, theta)
        f = stationary_dist(p)
        flux = f[:, None] * p
        np.testing.assert_allclose(flux, flux.T, rtol=0, atol=1e-12)


def test_region_masses_at_root_match_pi(chain):
    p = transition_matrix(chain, THETA_STAR)
    f = stationary_dist(p)
    np.testing.assert_allclose(region_masses(chain, f), chain.pi,
                               rtol=0, atol=1e-12)


def test_stationary_dist_two_state():
    p = np.array([[0.5, 0.5], [1.0, 0.0]])
    np.testing.assert_allclose(stationary_dist(p), [2 / 3, 1 / 3],
                               rtol=0, atol=1e-15)


def test_stationary_dist_rejects_reducible_kernel():
    p = np.zeros((4, 4))
    p[0, 1] = p[1, 0] = 1.0
    p[2, 3] = p[3, 2] = 1.0
    with pytest.raises(ValueError, match="not irreducible"):
        stationary_dist(p)


@pytest.mark.parametrize("p", [
    # 0 -> 1 -> 2 and 2 is absorbing: all reachable from 0, 0 from none
    [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 1.0]],
    # state 0 is transient: it feeds the closed class {1, 2} and is never revisited
    [[0.5, 0.5, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]],
], ids=["one-way", "transient-start"])
def test_stationary_dist_rejects_kernel_that_never_returns_to_state_0(p):
    with pytest.raises(ValueError, match="not irreducible"):
        stationary_dist(np.array(p))


def closure_is_full(edges):
    """Transitive closure by boolean powers of I + E: every pair connected?"""
    n = len(edges)
    reach = (np.eye(n, dtype=int) + edges) > 0
    for _ in range(max(1, math.ceil(math.log2(n)))):
        reach = (reach.astype(int) @ reach.astype(int)) > 0
    return bool(reach.all())


def random_sparse_kernel(seed):
    """A row-stochastic kernel on 2..60 states; irreducible about half the time."""
    rng = np.random.default_rng([seed, 5])
    n = int(rng.integers(2, 61))
    edges = rng.random((n, n)) < rng.uniform(0.0, 2.0) / n
    if rng.random() < 0.5:                  # a ring through a random order
        order = rng.permutation(n)
        edges[order, np.roll(order, -1)] = True
    np.fill_diagonal(edges, True)           # rows need mass; loops don't connect
    weights = np.where(edges, rng.uniform(0.1, 1.0, (n, n)), 0.0)
    return n, edges, weights / weights.sum(axis=1, keepdims=True)


def test_stationary_dist_irreducibility_matches_transitive_closure():
    wrong, reducible = [], 0
    seeds = range(300)
    for seed in seeds:
        n, edges, p = random_sparse_kernel(seed)
        expected = closure_is_full(edges)
        reducible += not expected
        try:
            f = stationary_dist(p)
        except ValueError as exc:
            assert "not irreducible" in str(exc)
            if expected:
                wrong.append(f"seed {seed}, N={n}: irreducible kernel rejected")
            continue
        if not expected:
            wrong.append(f"seed {seed}, N={n}: reducible kernel accepted")
        elif np.abs(f @ p - f).max() > 1e-12:
            wrong.append(f"seed {seed}, N={n}: f P != f")
    assert not wrong, "\n".join(wrong)
    assert 0.3 <= reducible / len(seeds) <= 0.7, reducible


def test_import_loads_no_scipy():
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import sys, samcmc, samcmc.cli; "
            "print(' '.join(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy')))")
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    assert out.split() == [], f"scipy modules loaded: {out.split()}"


def test_visit_indicator_table(chain):
    table = visit_indicator_table(chain)
    assert table.shape == (10, 2)
    # state 0 is in region 1, state 9 in region 3
    np.testing.assert_allclose(table[0], [1 - 1 / 3, -1 / 3], atol=1e-15)
    np.testing.assert_allclose(table[9], [-1 / 3, -1 / 3], atol=1e-15)


def test_poisson_solve_residual(chain):
    omega = exact_omega(chain)
    p = transition_matrix(chain, THETA_STAR)
    f = stationary_dist(p)
    table = visit_indicator_table(chain)
    h = mean_field(THETA_STAR, omega, chain.pi)
    u = poisson_solve(p, table, h, f)
    residual = u - p @ u - (table - h[None, :])
    assert np.abs(residual).max() < 1e-10
    # the pin makes the solution f-mean-zero
    assert np.abs(f @ u).max() < 1e-12


def test_poisson_solve_iid_kernel():
    # when every row equals f the solution is the centered table itself
    f = np.array([0.2, 0.3, 0.5])
    p = np.tile(f, (3, 1))
    table = np.array([[1.0], [0.0], [-1.0]])
    h = (f @ table)
    u = poisson_solve(p, table, h, f)
    np.testing.assert_allclose(u, table - h[None, :], rtol=0, atol=1e-12)


def test_poisson_solve_rejects_inconsistent_h(chain):
    omega = exact_omega(chain)
    p = transition_matrix(chain, THETA_STAR)
    f = stationary_dist(p)
    table = visit_indicator_table(chain)
    h = mean_field(THETA_STAR, omega, chain.pi) + 0.01
    with pytest.raises(ValueError, match="inconsistent"):
        poisson_solve(p, table, h, f)


def test_noise_covariance_frozen_values(chain):
    nc = noise_covariance(chain, THETA_STAR)
    q_expected = np.array([[0.38100561, -0.20145718],
                           [-0.20145718, 0.33585779]])
    gamma_expected = np.array([[9.48646352, 3.83796817],
                               [3.83796817, 8.2674726]])
    np.testing.assert_allclose(nc.q_matrix, q_expected, rtol=0, atol=5e-9)
    np.testing.assert_allclose(nc.gamma, gamma_expected, rtol=0, atol=5e-8)


def test_noise_covariance_properties(chain):
    rng = np.random.default_rng(6)
    for theta in (THETA_STAR, random_theta(rng)):
        nc = noise_covariance(chain, theta)
        np.testing.assert_allclose(nc.q_matrix, nc.q_matrix.T, atol=1e-14)
        assert np.linalg.eigvalsh(nc.q_matrix).min() > -1e-10
        np.testing.assert_allclose(nc.gamma, nc.gamma.T, atol=1e-12)


def test_q_matches_autocovariance_series(chain):
    # independent route: the limiting covariance of averaged updates is the
    # stationary autocovariance series of the centered indicators
    omega = exact_omega(chain)
    p = transition_matrix(chain, THETA_STAR)
    f = stationary_dist(p)
    table = visit_indicator_table(chain)
    centered = table - mean_field(THETA_STAR, omega, chain.pi)[None, :]
    series = (f[:, None] * centered).T @ centered
    pk = centered.copy()
    for _ in range(1000):
        pk = p @ pk
        ck = (f[:, None] * centered).T @ pk
        series += ck + ck.T
    nc = noise_covariance(chain, THETA_STAR)
    np.testing.assert_allclose(nc.q_matrix, series, rtol=0, atol=1e-10)


def test_q_invariant_under_solution_shift(chain):
    # adding a constant to every component of u must not change Q
    omega = exact_omega(chain)
    p = transition_matrix(chain, THETA_STAR)
    f = stationary_dist(p)
    table = visit_indicator_table(chain)
    h = mean_field(THETA_STAR, omega, chain.pi)
    u = poisson_solve(p, table, h, f)

    def q_from(u):
        pu = p @ u
        q = np.zeros((2, 2))
        for x in range(10):
            q += f[x] * ((p[x, :, None] * u).T @ u - np.outer(pu[x], pu[x]))
        return q

    np.testing.assert_allclose(q_from(u), q_from(u + 5.7), rtol=0, atol=1e-9)
    np.testing.assert_allclose(q_from(u), noise_covariance(chain, THETA_STAR).q_matrix,
                               rtol=0, atol=1e-12)


def test_asymptotic_cov_solves_sandwich(chain):
    nc = noise_covariance(chain, THETA_STAR)
    fmat = jacobian(THETA_STAR, exact_omega(chain), chain.pi)
    np.testing.assert_allclose(fmat @ nc.gamma @ fmat.T, nc.q_matrix,
                               rtol=0, atol=1e-12)


def test_asymptotic_cov_rejects_singular_jacobian():
    with pytest.raises(ValueError, match="Jacobian not invertible"):
        asymptotic_cov(np.zeros((2, 2)), np.eye(2))


def test_chain_file_roundtrip(tmp_path, chain):
    path = tmp_path / "chain.txt"
    dump_chain_file(chain, path)
    loaded = load_chain_file(path)
    assert loaded.n_states == chain.n_states
    assert loaded.m == chain.m
    np.testing.assert_array_equal(loaded.log_psi, chain.log_psi)
    np.testing.assert_array_equal(loaded.labels, chain.labels)
    np.testing.assert_array_equal(loaded.pi, chain.pi)
    np.testing.assert_array_equal(loaded.proposal, chain.proposal)


def test_load_chain_file_rejects_short_file(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("3 2\n0.0 0.0 0.0\n1 1 2\n0.5 0.5\n")
    with pytest.raises(ValueError):
        load_chain_file(path)


def test_load_chain_file_rejects_ragged_proposal_row(tmp_path, chain):
    path = tmp_path / "ragged.txt"
    dump_chain_file(chain, path)
    lines = path.read_text().splitlines()
    lines[6] = lines[6].rsplit(" ", 1)[0]          # proposal row 2 loses a value
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="ragged.txt: proposal rows must hold 10"):
        load_chain_file(path)


@pytest.mark.parametrize("line, message", [
    (2, "log_psi must be finite"),
    (4, "pi must be positive"),
    (6, "proposal rows must sum to 1"),
])
def test_load_chain_file_rejects_nan(tmp_path, chain, line, message):
    # line 2 holds log psi, line 4 pi and lines 5.. the proposal rows
    path = tmp_path / "nan.txt"
    dump_chain_file(chain, path)
    lines = path.read_text().splitlines()
    lines[line - 1] = "nan " + lines[line - 1].split(" ", 1)[1]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=f"nan.txt: {message}"):
        load_chain_file(path)


def spec(labels=(1, 2), proposal=((0.5, 0.5), (0.5, 0.5)), pi=(0.5, 0.5)):
    n = len(labels)
    return FiniteChainSpec(n_states=n, log_psi=np.zeros(n), labels=np.array(labels),
                           proposal=np.array(proposal), pi=np.array(pi))


def test_spec_rejects_empty_subregion():
    with pytest.raises(ValueError, match="empty subregions"):
        spec(labels=(1, 1, 3), proposal=np.full((3, 3), 1 / 3), pi=np.full(3, 1 / 3))
    for labels in ((0, 1), (1, 3)):
        with pytest.raises(ValueError, match="labels must lie in 1..m"):
            spec(labels=labels)


def test_spec_rejects_bad_pi():
    with pytest.raises(ValueError, match="pi must be positive and sum to 1"):
        spec(pi=(0.9, 0.9))
    # pi's length sets m, so a wrong length leaves labels out of 1..m or
    # subregions empty
    with pytest.raises(ValueError, match="labels must lie in 1..m"):
        spec(pi=(1.0,))
    with pytest.raises(ValueError, match="empty subregions: \\[3\\]"):
        spec(pi=(0.4, 0.3, 0.3))


def test_spec_rejects_nonstochastic_proposal():
    cases = [
        (((0.5, 0.4), (0.5, 0.5)), "rows must sum to 1"),
        (np.ones((2, 3)) / 3, "n_states x n_states"),
        (((1.5, -0.5), (0.5, 0.5)), "nonnegative"),
        (((np.nan, 0.5), (0.5, 0.5)), "rows must sum to 1"),
    ]
    for proposal, message in cases:
        with pytest.raises(ValueError, match=message):
            spec(proposal=proposal)
