"""Reference answers the benchmark computes without samcmc.

Everything here reads the chain and data files itself and uses numpy
alone, so a fault in the package cannot also hide in the answer it is
checked against:

- theta* from psi and the subregion labels of a chain file;
- Gamma from the fundamental matrix of the Metropolis-Hastings kernel at
  theta* (the long-run covariance of the visit indicators, sandwiched by
  F = pi pi^T - diag(pi));
- y_bar from the observations of a data file;
- the seeded 300-state chain the cli-chain300 workload runs on.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Chain:
    log_psi: np.ndarray     # (N,)
    labels: np.ndarray      # (N,) subregion labels in 1..m
    pi: np.ndarray          # (m,)
    proposal: np.ndarray    # (N, N) row-stochastic

    @property
    def m(self) -> int:
        return self.pi.size


def read_chain(path) -> Chain:
    """Parse the chain-file format: 'N m', log psi, labels, pi, N rows."""
    rows = [line.split() for line in Path(path).read_text().splitlines()
            if line.strip() and not line.lstrip().startswith("#")]
    n, m = int(rows[0][0]), int(rows[0][1])
    chain = Chain(log_psi=np.array(rows[1], dtype=float),
                  labels=np.array(rows[2], dtype=np.int64),
                  pi=np.array(rows[3], dtype=float),
                  proposal=np.array(rows[4:4 + n], dtype=float))
    if chain.proposal.shape != (n, n) or chain.pi.size != m:
        raise ValueError(f"{path}: malformed chain file")
    return chain


def write_chain(chain: Chain, path) -> None:
    """Write a chain in the chain-file format, floats to 17 digits."""
    def fmt(values):
        return " ".join(repr(float(v)) for v in values)

    lines = [f"{chain.log_psi.size} {chain.m}", fmt(chain.log_psi),
             " ".join(str(int(v)) for v in chain.labels), fmt(chain.pi)]
    lines += [fmt(row) for row in chain.proposal]
    Path(path).write_text("\n".join(lines) + "\n")


def make_chain300(seed: int) -> Chain:
    """A 300-state, 8-subregion chain drawn from the benchmark seed.

    Subregions are contiguous arcs of a ring, 20 states or more each, with
    non-uniform desired probabilities pi (largest at most twice the
    smallest). Each state proposes its two ring neighbours and three random
    chords; the support is symmetric, so every move can be reversed, but
    the weights are not, so the proposal is not symmetric. The chords let
    the chain leave a subregion in a few steps.
    """
    rng = np.random.default_rng([seed, 300])
    n, m = 300, 8
    sizes = 20 + rng.multinomial(n - 20 * m, np.full(m, 1.0 / m))
    labels = np.repeat(np.arange(1, m + 1), sizes)
    raw = 1.0 + rng.random(m)
    pi = raw / raw.sum()
    # subregion masses spread over a factor of about e^4, so the weights
    # have to move well away from zero for every subregion to be visited
    log_psi = rng.normal(0.0, 0.5, n) + rng.uniform(-1.0, 1.0, m)[labels - 1]
    support = np.zeros((n, n), dtype=bool)
    ring = np.arange(n)
    support[ring, (ring + 1) % n] = True
    support[ring, (ring - 1) % n] = True
    for x in range(n):
        for y in rng.choice(n - 1, size=6, replace=False):
            y = int(y) + (y >= x)      # any state but x itself
            support[x, y] = support[y, x] = True
    weights = np.where(support, rng.uniform(0.5, 1.5, (n, n)), 0.0)
    proposal = weights / weights.sum(axis=1, keepdims=True)
    return Chain(log_psi=log_psi, labels=labels, pi=pi, proposal=proposal)


def theta_star(chain: Chain) -> np.ndarray:
    """log(omega_i / pi_i) - log(omega_m / pi_m) for i < m, omega = psi mass."""
    log_omega = np.array([
        np.logaddexp.reduce(chain.log_psi[chain.labels == i])
        for i in range(1, chain.m + 1)])
    ratio = log_omega - np.log(chain.pi)
    return ratio[:-1] - ratio[-1]


def _kernel_at(chain: Chain, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """MH transition matrix for psi(x) exp(-theta_j(x)), and its target law."""
    log_f = chain.log_psi - np.append(theta, 0.0)[chain.labels - 1]
    f = np.exp(log_f - log_f.max())
    f /= f.sum()
    q = chain.proposal
    n = f.size
    p = np.zeros((n, n))
    xs, ys = np.nonzero(q)
    off = xs != ys
    xs, ys = xs[off], ys[off]
    # detailed-balance acceptance min(1, f(y) q(y,x) / (f(x) q(x,y)))
    p[xs, ys] = q[xs, ys] * np.minimum(
        1.0, (f[ys] * q[ys, xs]) / (f[xs] * q[xs, ys]))
    p[np.arange(n), np.arange(n)] = 1.0 - p.sum(axis=1)
    return p, f


def gamma(chain: Chain) -> np.ndarray:
    """Limit covariance of the averaged iterates, from the fundamental matrix.

    With Z = (I - P + 1 f^T)^-1 and D = diag(f), the long-run covariance
    of the visit indicators G (centred by pi) is
    Q = G^T (D Z + Z^T D - D - f f^T) G, and Gamma = F^-1 Q F^-T with
    F = pi pi^T - diag(pi) over the first m-1 subregions.
    """
    tstar = theta_star(chain)
    p, f = _kernel_at(chain, tstar)
    n, m = f.size, chain.m
    z = np.linalg.inv(np.eye(n) - p + np.outer(np.ones(n), f))
    g = (chain.labels[:, None] == np.arange(1, m)[None, :]).astype(float)
    g -= chain.pi[None, :m - 1]
    dz = f[:, None] * z
    kernel = dz + dz.T - np.diag(f) - np.outer(f, f)
    q_matrix = g.T @ kernel @ g
    pi = chain.pi[:m - 1]
    fmat = np.outer(pi, pi) - np.diag(pi)
    return np.linalg.solve(fmat, np.linalg.solve(fmat, q_matrix).T).T


def stationary_masses(chain: Chain) -> np.ndarray:
    """Subregion masses of the MH target at theta*; equal to pi there."""
    _, f = _kernel_at(chain, theta_star(chain))
    return np.bincount(chain.labels - 1, weights=f, minlength=chain.m)


def read_observations(path) -> np.ndarray:
    return np.array([float(line) for line in Path(path).read_text().splitlines()
                     if line.strip() and not line.lstrip().startswith("#")])
