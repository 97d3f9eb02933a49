"""Experiment harness: config files, runs, replication studies, artifacts.

Configs are YAML with nested schedule/ladder sections; the full schema is
documented in the README and the shipped files under configs/. Output
artifacts are a trace CSV (one row per snapshot), a JSON run summary, and
a JSON report for replication experiments. Everything a run writes is a
pure function of (config, seed) except the single "timing" field, which
comparisons must exclude.
"""

from __future__ import annotations

import json
import os
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np
import yaml

from .oracle import (
    FiniteChainSpec,
    chain10,
    exact_omega,
    load_chain_file,
    noise_covariance,
    theta_star,
)
from .sa import (
    GainSchedule,
    RunTrace,
    ScheduleValidationError,
    TruncationLadder,
    trajectory_average,
    validate_schedule,
)
from .samc import SamcModel, omega_hat, run_samc, run_samc_batch, visit_freq
from .samle import RandomWalk, gaussian_location_model, load_gaussian_toy, run_samle

OUTPUT_DIR_ENV = "SAMCMC_OUTPUT_DIR"

MODES = ("samc", "samle", "oracle", "validate")

_SCHEDULE_KEYS = ("c1", "eta", "c2", "xi", "tau", "alpha")
_LADDER_KEYS = ("r0", "growth", "theta0", "x0")
_TOP_KEYS = ("mode", "chain_file", "data_file", "schedule", "ladder", "k_max",
             "k0", "replications", "seed", "snapshot_stride", "proposal_step",
             "sweeps", "output_dir")


class ConfigError(ValueError):
    """Experiment config failed to parse or validate."""


@dataclass
class ExperimentConfig:
    mode: str
    schedule: GainSchedule
    k_max: int
    k0: int
    chain_file: Path | None = None
    data_file: Path | None = None
    r0: float = 10.0
    growth: float = 10.0
    theta0: np.ndarray | None = None
    x0: Any = None
    replications: int = 1
    seed: int = 0
    snapshot_stride: int = 1000
    proposal_step: float | None = None
    sweeps: int = 1
    output_dir: Path = field(default_factory=lambda: Path("out"))


def _require(cond: bool, msg: str):
    if not cond:
        raise ConfigError(msg)


def _integer(value, name: str) -> int:
    """An integer config value; a float counts only when it is integral."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    _require(isinstance(value, int) and not isinstance(value, bool),
             f"{name} must be an integer, got {value!r}")
    return value


def load_config(path) -> ExperimentConfig:
    """Parse and fully validate an experiment config file.

    Relative paths inside the config, output_dir included, resolve against
    the config's own directory. The output_dir can be overridden by the
    SAMCMC_OUTPUT_DIR environment variable; nothing else reads the
    environment.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"config file not found: {path}")
    try:
        raw = yaml.safe_load(path.read_text())
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}" if mark is not None else ""
        raise ConfigError(f"{path}: parse error{where}: {exc}") from exc
    _require(isinstance(raw, dict), f"{path}: config must be a key-value mapping")

    unknown = sorted(set(raw) - set(_TOP_KEYS))
    _require(not unknown, f"{path}: unknown config keys: {', '.join(unknown)}")
    _require("mode" in raw, f"{path}: missing required key 'mode'")
    mode = raw["mode"]
    _require(mode in MODES, f"{path}: mode must be one of {', '.join(MODES)}, got {mode!r}")

    sched_raw = raw.get("schedule") or {}
    _require(isinstance(sched_raw, dict), f"{path}: 'schedule' must be a mapping")
    unknown = sorted(set(sched_raw) - set(_SCHEDULE_KEYS))
    _require(not unknown, f"{path}: unknown schedule keys: {', '.join(unknown)}")
    try:
        schedule = GainSchedule(**{k: float(v) for k, v in sched_raw.items()})
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: bad schedule field: {exc}") from exc
    report = validate_schedule(schedule)
    if not report.passed:
        # the error message names the first failing clause
        raise ScheduleValidationError(report)

    ladder_raw = raw.get("ladder") or {}
    _require(isinstance(ladder_raw, dict), f"{path}: 'ladder' must be a mapping")
    unknown = sorted(set(ladder_raw) - set(_LADDER_KEYS))
    _require(not unknown, f"{path}: unknown ladder keys: {', '.join(unknown)}")
    r0 = float(ladder_raw.get("r0", 10.0))
    growth = float(ladder_raw.get("growth", 10.0))
    _require(r0 > 0, f"{path}: ladder r0 must be positive")
    _require(growth > 1, f"{path}: ladder growth must exceed 1")
    theta0 = ladder_raw.get("theta0")
    if theta0 is not None:
        theta0 = np.asarray(theta0, dtype=float)
        _require(theta0.ndim == 1 and np.all(np.isfinite(theta0)),
                 f"{path}: ladder theta0 must be a flat list of finite numbers")
    x0 = ladder_raw.get("x0")

    def integer(key: str, default=None) -> int:
        return _integer(raw.get(key, default), f"{path}: {key}")

    _require("k_max" in raw, f"{path}: missing required key 'k_max'")
    k_max = integer("k_max")
    _require(k_max >= 1, f"{path}: k_max must be >= 1")
    k0 = integer("k0", k_max // 10)
    _require(0 <= k0 < k_max, f"{path}: need 0 <= k0 < k_max, got k0={k0}")
    replications = integer("replications", 1)
    _require(replications >= 1, f"{path}: replications must be >= 1")
    seed = integer("seed", 0)
    _require(seed >= 0, f"{path}: seed must be >= 0")
    snapshot_stride = integer("snapshot_stride", 1000)
    _require(snapshot_stride >= 1, f"{path}: snapshot_stride must be >= 1")
    sweeps = integer("sweeps", 1)
    _require(sweeps >= 1, f"{path}: sweeps must be >= 1")
    proposal_step = raw.get("proposal_step")
    if proposal_step is not None:
        proposal_step = float(proposal_step)
        _require(proposal_step > 0, f"{path}: proposal_step must be positive")

    def resolve(key: str) -> Path | None:
        value = raw.get(key)
        if value is None:
            return None
        p = Path(value)
        if not p.is_absolute():
            p = path.parent / p
        if not p.exists():
            raise FileNotFoundError(f"{key} not found: {p}")
        return p

    chain_file = resolve("chain_file")
    data_file = resolve("data_file")

    # unlike the input files, the output directory need not exist yet
    output_dir = Path(os.environ.get(OUTPUT_DIR_ENV)
                      or path.parent / raw.get("output_dir", "out"))

    return ExperimentConfig(
        mode=mode, schedule=schedule, k_max=k_max, k0=k0,
        chain_file=chain_file, data_file=data_file, r0=r0, growth=growth,
        theta0=theta0, x0=x0, replications=replications, seed=seed,
        snapshot_stride=snapshot_stride, proposal_step=proposal_step,
        sweeps=sweeps, output_dir=output_dir)


def load_chain(config: ExperimentConfig) -> FiniteChainSpec:
    """Chain named by the config, or the packaged ten-state instance."""
    if config.chain_file is None:
        return chain10()
    try:
        return load_chain_file(config.chain_file)
    except ValueError as exc:        # the message names the file
        raise ConfigError(str(exc)) from exc


def load_data(config: ExperimentConfig) -> np.ndarray:
    """Observations named by the config, or the packaged Gaussian fixture."""
    if config.data_file is None:
        return load_gaussian_toy()
    path = config.data_file
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")     # an empty file is rejected below
            y = np.loadtxt(path, comments="#", ndmin=1)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if y.size == 0:
        raise ConfigError(f"{path}: no observations")
    if y.ndim != 1:
        raise ConfigError(f"{path}: expected one column of observations, "
                          f"found {y.shape[1]}")
    if not np.all(np.isfinite(y)):
        raise ConfigError(f"{path}: observations must be finite")
    return y


def _build_ladder(config: ExperimentConfig, dim: int, state) -> TruncationLadder:
    theta0 = config.theta0 if config.theta0 is not None else np.zeros(dim)
    if theta0.shape != (dim,):
        raise ConfigError(
            f"ladder theta0 has {theta0.size} components, expected {dim}")
    return TruncationLadder(center=theta0, r0=config.r0, growth=config.growth,
                            reinit_state=state)


def _samc_ladder(config: ExperimentConfig, chain: FiniteChainSpec) -> TruncationLadder:
    x0 = _integer(0 if config.x0 is None else config.x0, "ladder x0")
    _require(0 <= x0 < chain.n_states,
             f"ladder x0 must be a state in 0..{chain.n_states - 1}, got {x0}")
    return _build_ladder(config, chain.m - 1, x0)


def _samle_ladder(config: ExperimentConfig, y: np.ndarray) -> TruncationLadder:
    try:
        x0 = np.array(y if config.x0 is None else config.x0, dtype=float)
    except (TypeError, ValueError):
        x0 = None
    _require(x0 is not None and x0.shape == y.shape and np.all(np.isfinite(x0)),
             f"ladder x0 must list {y.size} finite latent values, one per observation")
    return _build_ladder(config, 1, x0)


def run_single(config: ExperimentConfig):
    """Execute one seeded run per the config; returns (trace, summary)."""
    start = time.perf_counter()
    if config.mode == "samc":
        chain = load_chain(config)
        model = SamcModel.from_chain(chain)
        ladder = _samc_ladder(config, chain)
        trace = run_samc(model, config.schedule, ladder, config.k_max,
                         config.seed, snapshot_stride=config.snapshot_stride)
        summary = _summarize(trace, config, pi=chain.pi)
    elif config.mode == "samle":
        y = load_data(config)
        model = gaussian_location_model(y)
        ladder = _samle_ladder(config, y)
        proposal = RandomWalk(step=config.proposal_step or 1.0,
                              bounds=model.x_space)
        trace = run_samle(model, config.schedule, ladder, config.k_max,
                          config.seed, proposal=proposal, sweeps=config.sweeps,
                          snapshot_stride=config.snapshot_stride)
        summary = _summarize(trace, config, y_bar=float(y.mean()))
    else:
        raise ConfigError(f"mode {config.mode!r} is not runnable; "
                          "use samc or samle")
    summary["timing"] = {"timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
                         "wall_time_s": time.perf_counter() - start}
    return trace, summary


def _summarize(trace: RunTrace, config: ExperimentConfig, *,
               pi: np.ndarray | None = None,
               y_bar: float | None = None) -> dict:
    theta_bar = trajectory_average(trace, 0)
    theta_bar_burnin = trajectory_average(trace, config.k0)
    summary: dict[str, Any] = {
        "mode": config.mode,
        "seed": trace.seed,
        "k_max": trace.k,
        "k0": config.k0,
        "theta_bar": theta_bar.tolist(),
        "theta_bar_burnin": theta_bar_burnin.tolist(),
        "theta_final": trace.final_theta.tolist(),
        "truncation_count": len(trace.sigma_events),
        "sigma_final": trace.final_sigma,
    }
    if pi is not None:
        summary["omega_hat"] = omega_hat(theta_bar_burnin, pi).tolist()
        summary["pi_hat"] = visit_freq(trace).tolist()
        unvisited = np.nonzero(trace.visit_counts == 0)[0] + 1
        summary["unvisited_subregions"] = unvisited.tolist()
    if y_bar is not None:
        summary["y_bar"] = y_bar
    return summary


@dataclass
class EfficiencyReport:
    """Replication study of the averaged estimator against the exact limit."""

    empirical_cov: np.ndarray
    oracle_gamma: np.ndarray
    frobenius_rel_err: float
    last_iterate_cov: np.ndarray
    per_component_ci: list[dict]
    theta_star: np.ndarray
    k_max: int
    replications: int
    seed: int
    timing: dict | None = None


def run_replications(config: ExperimentConfig) -> EfficiencyReport:
    """Run R seeded chains (seed_r = seed + r) and compare scaled covariances.

    The empirical matrices are k*Cov across replications of the full-run
    trajectory average and of the last iterate; the oracle limit is the
    exact asymptotic covariance of the averaged estimator.
    """
    if config.mode != "samc":
        raise ConfigError("replication experiments need mode: samc")
    R = config.replications
    if R < 2:
        raise ValueError(f"need R >= 2 for covariance estimates, got R={R}")
    start = time.perf_counter()
    chain = load_chain(config)
    model = SamcModel.from_chain(chain)
    ladder = _samc_ladder(config, chain)
    seeds = [config.seed + r for r in range(R)]
    traces = run_samc_batch(model, config.schedule, ladder, config.k_max,
                            seeds, snapshot_stride=config.snapshot_stride,
                            store_thetas=False)

    tbars = np.empty((R, chain.m - 1))
    lasts = np.empty((R, chain.m - 1))
    for r, trace in enumerate(traces):
        try:
            tbars[r] = trajectory_average(trace, 0)
            lasts[r] = trace.final_theta
        except Exception as exc:
            raise RuntimeError(
                f"replication {r} (seed {seeds[r]}) failed: {exc}") from exc

    k = config.k_max
    empirical = k * np.atleast_2d(np.cov(tbars.T, ddof=1))
    last_cov = k * np.atleast_2d(np.cov(lasts.T, ddof=1))
    omega = exact_omega(chain)
    tstar = theta_star(omega, chain.pi)
    gamma = noise_covariance(chain, tstar).gamma
    frob = float(np.linalg.norm(empirical - gamma)
                 / np.linalg.norm(gamma))

    half = 1.96 / np.sqrt(R)
    rows = []
    for i in range(chain.m - 1):
        mean = float(tbars[:, i].mean())
        sd = float(tbars[:, i].std(ddof=1))
        rows.append({
            "component": i + 1,
            "theta_star": float(tstar[i]),
            "mean": mean,
            "sd": sd,
            "ci_lo": mean - half * sd,
            "ci_hi": mean + half * sd,
        })

    return EfficiencyReport(
        empirical_cov=empirical, oracle_gamma=gamma, frobenius_rel_err=frob,
        last_iterate_cov=last_cov, per_component_ci=rows, theta_star=tstar,
        k_max=k, replications=R, seed=config.seed,
        timing={"timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
                "wall_time_s": time.perf_counter() - start})


def write_outputs(obj, output_dir, *, summary: dict | None = None) -> list[Path]:
    """Persist a run trace (plus summary) or an efficiency report.

    Trace rows carry {k, theta, pi_hat, sigma} per snapshot; floats print
    with 17 significant digits so re-reading reproduces the exact values.
    A trace written with its summary is named by the summary's mode and
    the seed (trace_samc_0.csv, summary_samc_0.json), so samc and samle
    runs can share an output directory and a seed. Returns the written
    paths.
    """
    output_dir = Path(output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)
    if isinstance(obj, RunTrace):
        tag = f"{obj.seed}" if summary is None else f"{summary['mode']}_{obj.seed}"
        paths = [write_trace(obj, output_dir / f"trace_{tag}.csv")]
        if summary is not None:
            spath = output_dir / f"summary_{tag}.json"
            spath.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
            paths.append(spath)
        return paths
    if isinstance(obj, EfficiencyReport):
        rpath = output_dir / "efficiency_report.json"
        rpath.write_text(json.dumps(_report_payload(obj), indent=2,
                                    sort_keys=True) + "\n")
        return [rpath]
    raise TypeError(f"cannot write outputs for {type(obj).__name__}")


def write_trace(trace: RunTrace, path) -> Path:
    path = Path(path)
    if not trace.snapshots:
        raise ValueError("trace has no snapshots to write")
    d = trace.snapshots[0].theta.size
    with_pi = trace.snapshots[0].pi_hat is not None
    m = trace.snapshots[0].pi_hat.size if with_pi else 0
    cols = ["k"]
    cols += [f"theta_{i + 1}" for i in range(d)]
    cols += [f"pi_hat_{i + 1}" for i in range(m)]
    cols.append("sigma")
    lines = [",".join(cols)]
    for snap in trace.snapshots:
        row = [str(snap.k)]
        row += [format(v, ".17g") for v in snap.theta]
        if with_pi:
            row += [format(v, ".17g") for v in snap.pi_hat]
        row.append(str(snap.sigma))
        lines.append(",".join(row))
    path.write_text("\n".join(lines) + "\n")
    return path


def read_trace(path) -> dict:
    """Re-read a trace CSV into arrays keyed by column group."""
    path = Path(path)
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    theta_cols = [i for i, c in enumerate(header) if c.startswith("theta_")]
    pi_cols = [i for i, c in enumerate(header) if c.startswith("pi_hat_")]
    return {
        "k": data[:, header.index("k")].astype(np.int64),
        "theta": data[:, theta_cols],
        "pi_hat": data[:, pi_cols] if pi_cols else None,
        "sigma": data[:, header.index("sigma")].astype(np.int64),
    }


def _report_payload(report: EfficiencyReport) -> dict:
    return {
        "empirical_cov": report.empirical_cov.tolist(),
        "oracle_gamma": report.oracle_gamma.tolist(),
        "frobenius_rel_err": report.frobenius_rel_err,
        "last_iterate_cov": report.last_iterate_cov.tolist(),
        "per_component_ci": report.per_component_ci,
        "theta_star": report.theta_star.tolist(),
        "k_max": report.k_max,
        "replications": report.replications,
        "seed": report.seed,
        "timing": report.timing,
    }


def read_report(path) -> EfficiencyReport:
    payload = json.loads(Path(path).read_text())
    return EfficiencyReport(
        empirical_cov=np.asarray(payload["empirical_cov"]),
        oracle_gamma=np.asarray(payload["oracle_gamma"]),
        frobenius_rel_err=payload["frobenius_rel_err"],
        last_iterate_cov=np.asarray(payload["last_iterate_cov"]),
        per_component_ci=payload["per_component_ci"],
        theta_star=np.asarray(payload["theta_star"]),
        k_max=payload["k_max"],
        replications=payload["replications"],
        seed=payload["seed"],
        timing=payload.get("timing"),
    )
