"""The four workloads: their inputs, their rounds and the checks on outputs.

A workload is set up once per run (`prepare`, the benchmark's own work,
untimed) and then through the program (`setup`, timed). Each round is a
list of operations; the runner times each one, with a reference loop after
it, and checks its output against answers from `exact`, which never uses
samcmc. Every round of a workload does the same work; only the seeds
change, and they come from the benchmark seed and the round number.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import samcmc
import samcmc.cli

import exact

# rounds of about 60-120 ms each: long rounds let the machine's speed drift
# within a round, where the reference loops around it cannot see it
LOCK_B, LOCK_K = 20, 1000
REPLICATE_K = 400
# one call after the rounds, at twice samc.CHUNK (8192): the engine then
# fills its (B, CHUNK) draw buffers, as the shipped k=1e5 config does, and
# a larger CHUNK still shows in the peak memory
MEMORY_K = 16384
SAMLE_B, SAMLE_K = 20, 1000
CLI_SAMC_K, CLI_SAMLE_K = 3000, 2000


@dataclass
class Operation:
    """One timed call into the program and the check of what it returned.

    check returns (problems, failure): problems are wrong outputs; failure
    names a fault that made the operation fail as a whole.
    """

    name: str
    run: Callable[[], Any]
    check: Callable[[Any], tuple[list[str], str | None]]


def round_seeds(seed: int, round_no: int, salt: int, count: int) -> list[int]:
    state = np.random.SeedSequence([seed, round_no, salt]).generate_state(count)
    return [int(v) for v in state]


def _limits(name: str, stats: dict[str, float],
            limits: dict[str, float]) -> list[str]:
    return [f"{name}: {key} = {stats[key]:.6g} exceeds {limit:g}"
            for key, limit in limits.items() if not stats[key] <= limit]


def _same_trace(a, b) -> bool:
    """Every recorded field of two run traces equal, bit for bit."""
    arrays = [(a.running_sum, b.running_sum), (a.final_theta, b.final_theta),
              (a.visit_counts, b.visit_counts)]
    arrays += [(sa.theta_sum, sb.theta_sum) for sa, sb in zip(a.snapshots, b.snapshots)]
    return (all(x is None and y is None
                or (x is not None and y is not None and x.tobytes() == y.tobytes())
                for x, y in arrays)
            and a.sigma_events == b.sigma_events
            and len(a.snapshots) == len(b.snapshots)
            and np.array_equal(a.final_state, b.final_state))


class Workload:
    name = ""

    def __init__(self, root: Path, work: Path, seed: int):
        self.root, self.work, self.seed = root, work, seed
        self.data = root / "src" / "samcmc" / "data"

    def prepare(self) -> None:
        """Inputs and reference answers the benchmark makes itself."""

    def setup(self) -> None:
        """Set-up through the program: config load, model and chain build."""

    def operations(self, round_no: int) -> list[Operation]:
        raise NotImplementedError

    def final_check(self) -> list[str]:
        """Checks run once after the timed rounds; returns problems."""
        return []


class SamcLockstep(Workload):
    """chain10, B=20, the default ladder and the r0=0.5 ladder in turn."""

    name = "samc-lockstep"
    LIMITS = {"freq_dev": 0.12, "theta_dev": 0.35}

    def prepare(self):
        chain = exact.read_chain(self.data / "chain10.txt")
        self.pi, self.tstar = chain.pi, exact.theta_star(chain)

    def setup(self):
        self.model = samcmc.SamcModel.from_chain(samcmc.chain10())
        self.schedule = samcmc.GainSchedule()
        zero = np.zeros(self.model.m - 1)
        self.ladders = {
            "default": samcmc.TruncationLadder(center=zero, reinit_state=0),
            "tight": samcmc.TruncationLadder(center=zero, reinit_state=0, r0=0.5)}

    def _batch(self, ladder: str, seeds: list[int]):
        traces = samcmc.run_samc_batch(self.model, self.schedule,
                                       self.ladders[ladder], LOCK_K, seeds,
                                       snapshot_stride=LOCK_K // 2)
        self.last = (ladder, seeds, traces)
        return traces

    def stats(self, traces) -> dict[str, float]:
        counts = np.sum([t.visit_counts for t in traces], axis=0)
        # theta averaged over the second half of each run, then over chains
        half = [(t.running_sum - t.snapshots[0].theta_sum) / (LOCK_K - LOCK_K // 2)
                for t in traces]
        return {"freq_dev": float(np.abs(counts / counts.sum() - self.pi).max()),
                "theta_dev": float(np.abs(np.mean(half, axis=0) - self.tstar).max())}

    def _check(self, ladder: str):
        def check(traces):
            problems = _limits(f"{self.name}/{ladder}", self.stats(traces), self.LIMITS)
            events = [t.sigma_events for t in traces]
            if ladder == "default" and any(events):
                problems.append("default ladder: a chain truncated")
            if ladder == "tight":
                # theta* lies outside the r0=0.5 ball, so every chain must
                # truncate, and all of it early
                if any(not e for e in events):
                    problems.append("tight ladder: a chain never truncated")
                late = [k for e in events for k in e if k > LOCK_K // 10]
                if late:
                    problems.append(f"tight ladder: truncations after "
                                    f"k={LOCK_K // 10}: {late[:5]}")
            return problems, None
        return check

    def operations(self, round_no):
        return [Operation(f"{ladder}-ladder",
                          lambda ladder=ladder, salt=salt: self._batch(
                              ladder, round_seeds(self.seed, round_no, salt, LOCK_B)),
                          self._check(ladder))
                for salt, ladder in enumerate(("default", "tight"))]

    def final_check(self):
        ladder, seeds, traces = self.last
        j = self.seed % LOCK_B
        solo = samcmc.run_samc(self.model, self.schedule, self.ladders[ladder],
                               LOCK_K, seeds[j], snapshot_stride=LOCK_K // 2)
        if not _same_trace(traces[j], solo):
            return [f"{self.name}: batch member {j} (seed {seeds[j]}) differs "
                    f"from its solo rerun"]
        return []


class SamcReplicate(Workload):
    """run_replications on efficiency_chain10.yaml: 400 chains, short k."""

    name = "samc-replicate"
    LIMITS = {"mean_dev": 0.3, "tstar_err": 1e-12, "gamma_rel_err": 1e-9}

    def prepare(self):
        chain = exact.read_chain(self.data / "chain10.txt")
        self.tstar, self.gamma = exact.theta_star(chain), exact.gamma(chain)

    def setup(self):
        config = samcmc.load_config(self.root / "configs" / "efficiency_chain10.yaml")
        self.config = dataclasses.replace(config, k_max=REPLICATE_K,
                                          snapshot_stride=REPLICATE_K)

    def _replicate(self, seed: int):
        self.last = dataclasses.replace(self.config, seed=seed)
        self.report = samcmc.run_replications(self.last)
        return self.report

    def stats(self, report) -> dict[str, float]:
        means = np.array([row["mean"] for row in report.per_component_ci])
        return {
            "mean_dev": float(np.abs(means - self.tstar).max()),
            "tstar_err": float(np.abs(report.theta_star - self.tstar).max()),
            "gamma_rel_err": float(np.abs(report.oracle_gamma - self.gamma).max()
                                   / np.abs(self.gamma).max())}

    def check(self, report):
        problems = _limits(self.name, self.stats(report), self.LIMITS)
        cov = report.empirical_cov
        if not (np.all(np.isfinite(cov)) and np.allclose(cov, cov.T)
                and np.linalg.eigvalsh(cov).min() > 0):
            problems.append(f"{self.name}: empirical k*Cov is not positive definite")
        if report.replications != self.config.replications:
            problems.append(f"{self.name}: {report.replications} replications run")
        return problems, None

    def operations(self, round_no):
        seed = round_seeds(self.seed, round_no, 0, 1)[0]
        return [Operation("replications", lambda: self._replicate(seed), self.check)]

    def final_check(self):
        config, report = self.last, self.report
        model = samcmc.SamcModel.from_chain(samcmc.chain10())
        ladder = samcmc.TruncationLadder(center=np.zeros(model.m - 1),
                                         r0=config.r0, growth=config.growth,
                                         reinit_state=0)
        seeds = [config.seed + r for r in range(config.replications)]
        traces = samcmc.run_samc_batch(model, config.schedule, ladder, config.k_max,
                                       seeds, snapshot_stride=config.snapshot_stride)
        tbars = np.array([t.running_sum / config.k_max for t in traces])
        problems = []
        cov = config.k_max * np.atleast_2d(np.cov(tbars.T, ddof=1))
        if cov.tobytes() != report.empirical_cov.tobytes():
            problems.append(f"{self.name}: report k*Cov differs from the batch rerun")
        j = self.seed % config.replications
        solo = samcmc.run_samc(model, config.schedule, ladder, config.k_max, seeds[j],
                               snapshot_stride=config.snapshot_stride)
        if not _same_trace(traces[j], solo):
            problems.append(f"{self.name}: replication {j} (seed {seeds[j]}) "
                            f"differs from its solo rerun")
        memory = dataclasses.replace(self.config, k_max=MEMORY_K, snapshot_stride=MEMORY_K,
                                     seed=round_seeds(self.seed, 0, 1, 1)[0])
        return problems + self.check(samcmc.run_replications(memory))[0]


class SamleMle(Workload):
    """run_samle_batch on the toy fixture, samle_toy.yaml's schedule, B=20."""

    name = "samle-mle"
    LIMITS = {"mean_dev": 0.1, "max_dev": 0.5}

    def prepare(self):
        self.y_bar = float(exact.read_observations(self.data / "gaussian_toy.txt").mean())

    def setup(self):
        config = samcmc.load_config(self.root / "configs" / "samle_toy.yaml")
        y = samcmc.load_gaussian_toy()
        self.model = samcmc.gaussian_location_model(y)
        self.schedule, self.sweeps = config.schedule, config.sweeps
        self.ladder = samcmc.TruncationLadder(center=np.zeros(1), reinit_state=y.copy())
        self.proposal = samcmc.RandomWalk(step=config.proposal_step,
                                          bounds=self.model.x_space)

    def _batch(self, seeds):
        traces = samcmc.run_samle_batch(
            self.model, self.schedule, self.ladder, SAMLE_K, seeds,
            proposal=self.proposal, sweeps=self.sweeps, snapshot_stride=SAMLE_K)
        self.last = (seeds, traces)
        return traces

    def stats(self, traces) -> dict[str, float]:
        devs = np.array([t.running_sum[0] / SAMLE_K - self.y_bar for t in traces])
        return {"mean_dev": float(abs(devs.mean())), "max_dev": float(np.abs(devs).max())}

    def check(self, traces):
        return _limits(self.name, self.stats(traces), self.LIMITS), None

    def operations(self, round_no):
        seeds = round_seeds(self.seed, round_no, 0, SAMLE_B)
        return [Operation("batch", lambda: self._batch(seeds), self.check)]

    def final_check(self):
        seeds, traces = self.last
        j = self.seed % SAMLE_B
        solo = samcmc.run_samle(self.model, self.schedule, self.ladder, SAMLE_K,
                                seeds[j], proposal=self.proposal,
                                sweeps=self.sweeps, snapshot_stride=SAMLE_K)
        if not _same_trace(traces[j], solo):
            return [f"{self.name}: batch member {j} (seed {seeds[j]}) differs "
                    f"from its solo rerun"]
        return []


def _parse_vector(text: str) -> np.ndarray:
    return np.array([float(v) for v in text.strip().strip("[]").split(",")])


def _wrote(text: str) -> list[Path]:
    return [Path(line[len("wrote "):]) for line in text.splitlines()
            if line.startswith("wrote ")]


def _summary(paths: list[Path]) -> dict | None:
    json_paths = [p for p in paths if p.suffix == ".json"]
    return json.loads(json_paths[0].read_text()) if json_paths else None


class CliChain300(Workload):
    """The CLI on a seeded 300-state chain: validate, oracle, run-samc, run-samle.

    All four share one output directory and one seed, as the shipped
    configs do. run-samle writes summary_<seed>.json and trace_<seed>.csv,
    the names run-samc just used, so it fails its check that run-samc's
    outputs survive, in every round.
    """

    name = "cli-chain300"
    # transient at k=3000: over 240 runs (120 chains) pi_dev reached 0.163
    # and theta_dev 1.96
    LIMITS = {"pi_dev": 0.3, "theta_dev": 4.0, "y_dev": 0.3}

    def prepare(self):
        self.chain_path = self.work / "chain300.txt"
        exact.write_chain(exact.make_chain300(self.seed), self.chain_path)
        chain = exact.read_chain(self.chain_path)
        self.chain = chain
        self.tstar, self.gamma = exact.theta_star(chain), exact.gamma(chain)
        self.y_bar = float(exact.read_observations(self.data / "gaussian_toy.txt").mean())
        self.samc_summary = None
        self.out = self.work / "out"
        shutil.rmtree(self.out, ignore_errors=True)
        self.configs = {name: self.work / f"{name}.yaml"
                        for name in ("samc", "oracle", "samle")}
        self._write_configs(self.seed)

    def _write_configs(self, seed: int) -> None:
        self.run_seed = seed
        common = f"seed: {seed}\noutput_dir: {json.dumps(str(self.out))}\n"
        self.configs["samc"].write_text(
            f"mode: samc\nchain_file: chain300.txt\nk_max: {CLI_SAMC_K}\n"
            f"k0: {CLI_SAMC_K // 10}\nsnapshot_stride: {CLI_SAMC_K // 10}\n" + common)
        self.configs["oracle"].write_text(
            "mode: oracle\nchain_file: chain300.txt\nk_max: 1\nk0: 0\n" + common)
        self.configs["samle"].write_text(
            "mode: samle\nschedule:\n  c1: 0.1\n  eta: 0.7\nproposal_step: 0.4\n"
            f"sweeps: 2\nk_max: {CLI_SAMLE_K}\nk0: {CLI_SAMLE_K // 10}\n"
            f"snapshot_stride: {CLI_SAMLE_K // 10}\n" + common)

    def setup(self):
        for path in self.configs.values():
            samcmc.load_config(path)
        samcmc.SamcModel.from_chain(samcmc.load_chain_file(self.chain_path))

    def _cli(self, *argv: str):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = samcmc.cli.main(list(argv))
        return rc, out.getvalue(), err.getvalue()

    def _check_validate(self, result):
        rc, text, err = result
        lines = text.splitlines()
        if rc != 0 or sum(line.startswith("[pass]") for line in lines) != 8 \
                or any(line.startswith("[FAIL]") for line in lines):
            return [f"validate: exit {rc}, output {text!r} {err!r}"], None
        return [], None

    def _check_oracle(self, result):
        rc, text, err = result
        if rc != 0:
            return [f"oracle: exit {rc}: {err!r}"], None
        lines = text.splitlines()
        tstar = _parse_vector(next(line for line in lines
                                   if line.startswith("theta_star:")).split(":", 1)[1])
        at = lines.index("Gamma:")
        gamma = np.array([_parse_vector(line) for line in lines[at + 1:at + self.chain.m]])
        problems = []
        if np.abs(tstar - self.tstar).max() > 1e-10 * max(1.0, np.abs(self.tstar).max()):
            problems.append(f"oracle: theta_star {tstar} != {self.tstar}")
        if np.abs(gamma - self.gamma).max() > 1e-9 * np.abs(self.gamma).max():
            problems.append("oracle: Gamma differs from the fundamental-matrix Gamma")
        return problems, None

    def _check_samc(self, result):
        rc, text, err = result
        if rc != 0:
            return [f"run-samc: exit {rc}: {err!r}"], None
        paths = _wrote(text)
        self.samc_outputs = {p: p.read_bytes() for p in paths}
        summary = _summary(paths)
        if summary is None:
            return [f"run-samc: no summary written: {text!r}"], None
        self.samc_summary = summary
        stats = {"pi_dev": float(np.abs(np.array(summary["pi_hat"]) - self.chain.pi).max()),
                 "theta_dev": float(np.abs(np.array(summary["theta_bar_burnin"])
                                           - self.tstar).max())}
        problems = _limits("run-samc", stats, {k: self.LIMITS[k] for k in stats})
        if summary["mode"] != "samc" or summary["seed"] != self.run_seed \
                or summary["k_max"] != CLI_SAMC_K or summary["unvisited_subregions"]:
            problems.append(f"run-samc: summary {summary}")
        return problems, None

    def _check_samle(self, result):
        rc, text, err = result
        if rc != 0:
            return [f"run-samle: exit {rc}: {err!r}"], None
        summary = _summary(_wrote(text))
        if summary is None:
            return [f"run-samle: no summary written: {text!r}"], None
        problems = []
        if summary["mode"] != "samle" or abs(summary["y_bar"] - self.y_bar) > 1e-12:
            problems.append(f"run-samle: summary {summary}")
        dev = abs(summary["theta_bar_burnin"][0] - self.y_bar)
        problems += _limits("run-samle", {"y_dev": dev}, {"y_dev": self.LIMITS["y_dev"]})
        if self.samc_outputs is None:
            return problems, "run-samc wrote nothing this round to compare"
        lost = [p.name for p, data in self.samc_outputs.items()
                if not p.exists() or p.read_bytes() != data]
        failure = (f"run-samle overwrote run-samc's {', '.join(lost)}: output "
                   f"files are named by seed alone") if lost else None
        return problems, failure

    def operations(self, round_no):
        self.samc_outputs = None
        self._write_configs(round_seeds(self.seed, round_no, 0, 1)[0] % 2**31)
        cfg = {name: str(path) for name, path in self.configs.items()}
        return [
            Operation("validate", lambda: self._cli("validate", cfg["samc"]),
                      self._check_validate),
            Operation("oracle", lambda: self._cli("oracle", cfg["oracle"]),
                      self._check_oracle),
            Operation("run-samc", lambda: self._cli("run-samc", cfg["samc"]),
                      self._check_samc),
            Operation("run-samle", lambda: self._cli("run-samle", cfg["samle"]),
                      self._check_samle),
        ]

    def final_check(self):
        summary = self.samc_summary
        if summary is None:
            return [f"{self.name}: run-samc wrote no summary in any round"]
        model = samcmc.SamcModel.from_chain(samcmc.load_chain_file(self.chain_path))
        ladder = samcmc.TruncationLadder(center=np.zeros(model.m - 1), reinit_state=0)
        seed = summary["seed"]
        member = samcmc.run_samc_batch(model, samcmc.GainSchedule(), ladder, CLI_SAMC_K,
                                       [seed, seed + 1], snapshot_stride=CLI_SAMC_K // 10,
                                       store_thetas=True)[0]
        expected = {
            "theta_bar": samcmc.trajectory_average(member, 0).tolist(),
            "theta_bar_burnin": samcmc.trajectory_average(member, CLI_SAMC_K // 10).tolist(),
            "theta_final": member.final_theta.tolist(),
            "pi_hat": samcmc.visit_freq(member).tolist(),
            "sigma_final": member.final_sigma}
        wrong = [key for key, value in expected.items() if summary[key] != value]
        if wrong:
            return [f"{self.name}: run-samc (B=1) differs from batch member 0 "
                    f"in {wrong}"]
        return []


WORKLOADS = {cls.name: cls for cls in (SamcLockstep, SamcReplicate, SamleMle, CliChain300)}
