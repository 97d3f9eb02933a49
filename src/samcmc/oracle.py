"""Exact finite-state analysis for partition-weighted samplers.

For a finite sample space with an unnormalized density table and a labeled
partition, everything the asymptotic theory needs is computable in closed
form: the subregion weights, the fixed point of the weight recursion, the
mean-field direction and its Jacobian, a Lyapunov function with its descent
rate, the exact Metropolis-Hastings transition matrix, its stationary law,
the Poisson-equation solution, and the limiting noise covariance Q together
with the sandwich covariance Gamma = F^-1 Q F^-T of the averaged iterates.

States are 0-based indices into the tables; subregion labels are 1-based
(1..m) to match the file format and the sampler's labels.
"""

from __future__ import annotations

import importlib.resources
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = [
    "FiniteChainSpec",
    "NoiseCovariance",
    "asymptotic_cov",
    "chain10",
    "dump_chain_file",
    "exact_omega",
    "jacobian",
    "load_chain_file",
    "lyapunov",
    "mean_field",
    "noise_covariance",
    "omega_hat",
    "poisson_solve",
    "stationary_dist",
    "theta_star",
    "transition_matrix",
    "visit_indicator_table",
]

ROW_SUM_TOL = 1e-12


@dataclass(frozen=True)
class FiniteChainSpec:
    """A SAMC target: log-density table, partition labels, proposal, and pi.

    Every check is written so that NaN fails it.
    """

    n_states: int
    log_psi: np.ndarray        # (N,) log of the unnormalized density
    labels: np.ndarray         # (N,) subregion index per state, values in 1..m
    proposal: np.ndarray       # (N, N) row-stochastic proposal matrix
    pi: np.ndarray             # (m,) desired sampling probabilities
    m: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "log_psi", np.asarray(self.log_psi, dtype=float))
        labels = np.asarray(self.labels, dtype=float)
        object.__setattr__(self, "proposal", np.asarray(self.proposal, dtype=float))
        object.__setattr__(self, "pi", np.asarray(self.pi, dtype=float))
        m = len(self.pi)
        object.__setattr__(self, "m", m)
        if self.log_psi.shape != (self.n_states,):
            raise ValueError("log_psi length must equal n_states")
        if labels.shape != (self.n_states,):
            raise ValueError("labels length must equal n_states")
        if self.proposal.shape != (self.n_states, self.n_states):
            raise ValueError("proposal must be n_states x n_states")
        if not np.all((labels == np.floor(labels)) & (labels >= 1) & (labels <= m)):
            raise ValueError("labels must lie in 1..m and be integers")
        object.__setattr__(self, "labels", labels.astype(int))
        # every subregion must contain at least one state
        present = np.unique(self.labels)
        if len(present) != m:
            missing = sorted(set(range(1, m + 1)) - set(present.tolist()))
            raise ValueError(f"empty subregions: {missing}")
        if not np.all(np.isfinite(self.log_psi)):
            raise ValueError("log_psi must be finite")
        if not (np.all(self.pi > 0) and abs(self.pi.sum() - 1.0) <= ROW_SUM_TOL):
            raise ValueError("pi must be positive and sum to 1")
        if np.any(self.proposal < 0):
            raise ValueError("proposal entries must be nonnegative")
        row_err = np.abs(self.proposal.sum(axis=1) - 1.0).max()
        if not row_err <= ROW_SUM_TOL:
            raise ValueError(f"proposal rows must sum to 1 (max error {row_err:.3g})")

    @property
    def labels0(self) -> np.ndarray:
        """Labels shifted to 0-based for array indexing."""
        return self.labels - 1


@dataclass(frozen=True)
class NoiseCovariance:
    """Limiting noise covariance Q and Gamma."""

    q_matrix: np.ndarray       # (m-1, m-1)
    gamma: np.ndarray          # (m-1, m-1)


# ---------------------------------------------------------------------------
# chain file format: plain text, '#' comments allowed.
#   line 1: "N m"
#   line 2: N log-psi values
#   line 3: N labels in 1..m
#   line 4: m desired probabilities
#   next N lines: proposal matrix rows
# ---------------------------------------------------------------------------

def load_chain_file(path: str | Path) -> FiniteChainSpec:
    """Read a chain file; every ValueError it raises names the file."""
    lines = []
    with open(path) as fh:
        for raw in fh:
            stripped = raw.strip()
            if stripped and not stripped.startswith("#"):
                lines.append(stripped)
    try:
        return _parse_chain(lines)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _parse_chain(lines: list[str]) -> FiniteChainSpec:
    if not lines:
        raise ValueError("empty chain file")
    first = lines[0].split()
    if len(first) != 2:
        raise ValueError("line 1 must be 'N m'")
    n, m = int(first[0]), int(first[1])
    if len(lines) != 4 + n:
        raise ValueError(f"expected {4 + n} data lines, found {len(lines)}")
    log_psi = np.array([float(v) for v in lines[1].split()])
    labels = np.array([int(v) for v in lines[2].split()])
    pi = np.array([float(v) for v in lines[3].split()])
    if len(pi) != m:
        raise ValueError(f"expected {m} probabilities on line 4")
    try:
        proposal = np.loadtxt(lines[4:], ndmin=2, comments=None)
    except ValueError as exc:
        raise ValueError(f"proposal rows must hold {n} numbers each "
                         f"({exc})") from exc
    if proposal.shape != (n, n):
        raise ValueError(f"proposal rows must hold {n} numbers each, "
                         f"found {proposal.shape[1]}")
    return FiniteChainSpec(n_states=n, log_psi=log_psi, labels=labels,
                           proposal=proposal, pi=pi)


def dump_chain_file(chain: FiniteChainSpec, path: str | Path) -> None:
    def fmt(values):
        return " ".join(f"{v:.17g}" for v in values)

    with open(path, "w") as fh:
        fh.write(f"{chain.n_states} {chain.m}\n")
        fh.write(fmt(chain.log_psi) + "\n")
        fh.write(" ".join(str(v) for v in chain.labels) + "\n")
        fh.write(fmt(chain.pi) + "\n")
        for row in chain.proposal:
            fh.write(fmt(row) + "\n")


def chain10() -> FiniteChainSpec:
    """The canonical 10-state, 3-region test instance shipped with the package."""
    ref = importlib.resources.files("samcmc.data").joinpath("chain10.txt")
    with importlib.resources.as_file(ref) as path:
        return load_chain_file(path)


# ---------------------------------------------------------------------------
# closed-form quantities
# ---------------------------------------------------------------------------

def exact_omega(chain: FiniteChainSpec) -> np.ndarray:
    """Subregion weights: omega_i = sum of psi over states labeled i.

    They read inf or 0 where psi leaves float range; theta*, h and F see
    only their ratios, and the oracle takes those from _scaled_omega.
    """
    with np.errstate(over="ignore"):
        return _scaled_omega(chain, 0.0)


def _scaled_omega(chain: FiniteChainSpec, shift: float | None = None) -> np.ndarray:
    """The weights times exp(-shift), by default exp(-max log psi)."""
    shift = chain.log_psi.max() if shift is None else shift
    omega = np.zeros(chain.m)
    np.add.at(omega, chain.labels0, np.exp(chain.log_psi - shift))
    return omega


def theta_star(omega: np.ndarray, pi: np.ndarray) -> np.ndarray:
    """Fixed point of the weight recursion, relative to the last subregion."""
    omega = np.asarray(omega, dtype=float)
    pi = np.asarray(pi, dtype=float)
    if np.any(omega <= 0) or np.any(pi <= 0):
        raise ValueError("omega and pi must be strictly positive")
    ratios = np.log(omega) - np.log(pi)
    return ratios[:-1] - ratios[-1]


def _region_ratios(theta: np.ndarray, omega: np.ndarray) -> np.ndarray:
    """All m ratios S_i/S where S_i = omega_i * exp(-theta_i), theta_m = 0.

    Exponentiated after a shift by the largest log S_i, so huge thetas
    cannot overflow, then divided by their sum, so the ratios sum to 1
    within rounding at any theta. Subtracting a log-sum-exp instead puts
    its rounding, which grows with |theta|, into every exponent.
    """
    theta_ext = np.append(np.asarray(theta, dtype=float), 0.0)
    log_s = np.log(np.asarray(omega, dtype=float)) - theta_ext
    s = np.exp(log_s - log_s.max())
    return s / s.sum()


def omega_hat(theta_bar, pi: np.ndarray) -> np.ndarray:
    """Weight estimates from an averaged theta, summing to 1: theta_star's inverse."""
    pi = np.asarray(pi, dtype=float)
    theta_bar = np.asarray(theta_bar, dtype=float)
    if theta_bar.shape != (pi.size - 1,):
        raise ValueError(
            f"theta_bar must have {pi.size - 1} components for {pi.size} subregions")
    return _region_ratios(-theta_bar, pi)


def mean_field(theta: np.ndarray, omega: np.ndarray, pi: np.ndarray) -> np.ndarray:
    """Expected update direction h(theta) under the theta-indexed stationary law."""
    p = _region_ratios(theta, omega)
    return p[:-1] - np.asarray(pi, dtype=float)[:-1]


def jacobian(theta: np.ndarray, omega: np.ndarray, pi: np.ndarray) -> np.ndarray:
    """Jacobian F = dh/dtheta; negative definite everywhere."""
    p = _region_ratios(theta, omega)[:-1]
    return np.outer(p, p) - np.diag(p)


def lyapunov(theta: np.ndarray, omega: np.ndarray,
             pi: np.ndarray) -> tuple[float, np.ndarray, float]:
    """Lyapunov value v, its gradient, and the descent rate <grad v, h>.

    v(theta) = -log(1 - 0.5 * sum_j (S_j/S - pi_j)^2) over the tracked
    components j < m. The descent rate is returned from its closed form
    -(b*var + b*(1-b)*mean^2)/Lambda, where (mean, var) are the moments of
    the deviation S_j/S - pi_j under the probability weights S_j/(b*S);
    it equals dot(grad_v, mean_field) and is strictly negative off the root.
    """
    pi = np.asarray(pi, dtype=float)
    p = _region_ratios(theta, omega)[:-1]
    dev = p - pi[:-1]
    lam = 1.0 - 0.5 * np.dot(dev, dev)
    v = -np.log(lam)
    b = p.sum()
    mu = np.dot(dev, p) / b
    var = np.dot(dev * dev, p) / b - mu * mu
    grad_v = (p / lam) * (b * mu - dev)
    descent = -(b * var + b * (1.0 - b) * mu * mu) / lam
    return float(v), grad_v, float(descent)


# ---------------------------------------------------------------------------
# exact kernel analysis
# ---------------------------------------------------------------------------

def transition_matrix(chain: FiniteChainSpec, theta: np.ndarray) -> np.ndarray:
    """Exact MH transition matrix targeting the reweighted density at theta."""
    theta_ext = np.append(np.asarray(theta, dtype=float), 0.0)
    log_f = chain.log_psi - theta_ext[chain.labels0]
    q = chain.proposal
    with np.errstate(divide="ignore", invalid="ignore"):
        log_q = np.log(q)
        log_ratio = (log_f[None, :] - log_f[:, None]) + (log_q.T - log_q)
        accept = np.exp(np.minimum(0.0, log_ratio))
    accept[q == 0.0] = 0.0           # no proposal mass, entry unused
    accept[~np.isfinite(accept)] = 0.0   # reverse move impossible: reject
    p = q * accept
    np.fill_diagonal(p, 0.0)
    np.fill_diagonal(p, 1.0 - p.sum(axis=1))
    return p


def _reaches_all(edges: np.ndarray) -> bool:
    """Whether every state is reachable from state 0 along boolean edges."""
    seen = np.zeros(len(edges), dtype=bool)
    seen[0] = True
    frontier = seen
    while frontier.any():
        frontier = edges[frontier].any(axis=0) & ~seen
        seen = seen | frontier
    return bool(seen.all())


def stationary_dist(p: np.ndarray) -> np.ndarray:
    """Stationary probability vector of an irreducible row-stochastic matrix."""
    p = np.asarray(p, dtype=float)
    n = p.shape[0]
    # irreducible: state 0 reaches every state and every state reaches 0
    edges = p > 0
    if n == 0 or not (_reaches_all(edges) and _reaches_all(edges.T)):
        raise ValueError("kernel not irreducible")
    # f P = f with sum(f) = 1: replace one redundant balance row by the
    # normalization constraint.
    a = p.T - np.eye(n)
    a[-1, :] = 1.0
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    return np.linalg.solve(a, rhs)


def visit_indicator_table(chain: FiniteChainSpec) -> np.ndarray:
    """Update direction per state: H[x, i] = 1{label(x)=i+1} - pi_i, i < m-1."""
    return (np.eye(chain.m) - chain.pi)[chain.labels0, :-1]


def poisson_solve(p: np.ndarray, h_table: np.ndarray, h: np.ndarray,
                  f: np.ndarray) -> np.ndarray:
    """Solve u - P u = H - h columnwise, pinned so that f^T u = 0.

    The equation determines u only up to an additive constant per column;
    solving (I - P + 1 f^T) u = H - h picks the f-mean-zero solution, which
    is then re-projected exactly.
    """
    p = np.asarray(p, dtype=float)
    h_table = np.asarray(h_table, dtype=float)
    h = np.asarray(h, dtype=float)
    f = np.asarray(f, dtype=float)
    n = p.shape[0]
    consistency = np.abs(f @ h_table - h).max(initial=0.0)
    if consistency > 1e-10:
        raise ValueError(
            f"h inconsistent with (H_table, f): max deviation {consistency:.3g}")
    a = np.eye(n) - p + np.outer(np.ones(n), f)
    rhs = h_table - h[None, :]
    try:
        u = np.linalg.solve(a, rhs)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(
            f"Poisson system singular beyond pinning "
            f"(condition estimate {np.linalg.cond(a):.3g})") from exc
    u -= f @ u                       # exact pin, removes roundoff drift
    residual = np.abs(u - p @ u - rhs).max(initial=0.0)
    if residual > 1e-10:
        raise RuntimeError(
            f"Poisson residual {residual:.3g} exceeds 1e-10 "
            f"(condition estimate {np.linalg.cond(a):.3g})")
    return u


def noise_covariance(chain: FiniteChainSpec, theta: np.ndarray) -> NoiseCovariance:
    """Limiting noise covariance Q and Gamma = F^-1 Q F^-T at theta.

    Q is the f-weighted average of the per-state conditional covariance
    l(x) = sum_y P(x,y) u(y)u(y)^T - (Pu)(x)(Pu)(x)^T of the
    martingale-difference noise built from the Poisson solution u.
    Meaningful at the fixed point, where it is the covariance appearing in
    the CLT for the averaged iterates.
    """
    theta = np.asarray(theta, dtype=float)
    p = transition_matrix(chain, theta)
    f = stationary_dist(p)
    h_table = visit_indicator_table(chain)
    h = f @ h_table
    u = poisson_solve(p, h_table, h, f)
    pu = p @ u
    second = np.einsum("x,xy,yi,yj->ij", f, p, u, u, optimize=True)
    q_matrix = second - np.einsum("x,xi,xj->ij", f, pu, pu, optimize=True)
    fmat = jacobian(theta, _scaled_omega(chain), chain.pi)
    gamma = asymptotic_cov(fmat, q_matrix)
    return NoiseCovariance(q_matrix=q_matrix, gamma=gamma)


def asymptotic_cov(fmat: np.ndarray, q_matrix: np.ndarray) -> np.ndarray:
    """Sandwich covariance Gamma = F^-1 Q F^-T of the averaged iterates."""
    fmat = np.asarray(fmat, dtype=float)
    q_matrix = np.asarray(q_matrix, dtype=float)
    try:
        half = np.linalg.solve(fmat, q_matrix)
        return np.linalg.solve(fmat, half.T).T
    except np.linalg.LinAlgError as exc:
        raise ValueError("Jacobian not invertible") from exc
