"""Timed part of one benchmark run, in a process of its own.

Usage: python3 bench/measure.py <root> <workload> <seed> <seconds> <trace>

run.py starts this after its import probes, so the peak memory read here
(this process plus any it starts) counts the workload and not the probes.
Prints one JSON object as its last line.
"""

from __future__ import annotations

import contextlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from refloop import NOMINAL_S, reference_loop

BENCH = Path(__file__).resolve().parent

SETUP_REPEATS = 5
MIN_ROUNDS = 4


def _import_samcmc(root: Path):
    sys.path.insert(0, str(root / "src"))
    import samcmc
    where = Path(samcmc.__file__).resolve()
    if (root / "src") not in where.parents:
        raise SystemExit(f"samcmc imported from {where}, not from {root / 'src'}")


def _median(values):
    return statistics.median(values) if values else 0.0


class Runner:
    """Rounds of operations, each followed by a reference loop."""

    def __init__(self, workload, tracer):
        self.workload, self.tracer = workload, tracer
        self.refs = [reference_loop()]
        self.rounds = {False: [], True: []}   # traced? -> [(norm_s, raw_s, cpu_s)]
        self.layers: dict[str, dict[str, float]] = {}
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self._noted: set[str] = set()

    def scale(self) -> float:
        """Factor for work timed between the last two reference loops."""
        return NOMINAL_S / ((self.refs[-2] + self.refs[-1]) / 2)

    def run_round(self, round_no: int, traced: bool) -> None:
        from tracing import traced as tracing_on
        norm = raw = cpu = 0.0
        for op in self.workload.operations(round_no):
            self.attempted += 1
            error = None
            with tracing_on(self.tracer) if traced else contextlib.nullcontext():
                c0, t0 = time.process_time(), time.perf_counter()
                try:
                    if traced:
                        with self.tracer.span(f"op.{op.name}"):
                            output = op.run()
                    else:
                        output = op.run()
                except Exception:
                    error = traceback.format_exc(limit=3)
                t1, c1 = time.perf_counter(), time.process_time()
            self.refs.append(reference_loop())
            scale = self.scale()
            norm += (t1 - t0) * scale
            raw += t1 - t0
            cpu += c1 - c0
            if traced:
                self._merge(self.tracer.take_stats(), scale)
            if error is not None:
                self.failed += 1
                self._note(op.name, f"round {round_no} {op.name} raised: {error}")
                continue
            try:
                problems, failure = op.check(output)
            except Exception:
                self.failed += 1
                self._note(op.name, f"round {round_no} {op.name}: its check raised: "
                                    f"{traceback.format_exc(limit=3)}")
                continue
            self.problems += problems
            if failure:
                self.failed += 1
                self._note(op.name, f"round {round_no} {op.name} failed: {failure}")
        self.rounds[traced].append((norm, raw, cpu))

    def _merge(self, stats, scale):
        for name, stat in stats.items():
            total = self.layers.setdefault(name, {})
            for key, value in stat.items():
                if key == "self_ns":
                    value *= scale
                total[key] = total.get(key, 0) + value

    def _note(self, key, message):
        """Print the first failure of each operation to stderr."""
        if key not in self._noted:
            self._noted.add(key)
            print(message, file=sys.stderr)


def layer_metrics(runner: Runner) -> dict[str, float]:
    """Per-layer figures, per round or per call, from the traced rounds."""
    layers = runner.layers
    n_traced = len(runner.rounds[True])

    def stat(name, key="self_ns"):
        return layers.get(name, {}).get(key, 0)

    def per(name, key, unit_ns, count_key="calls"):
        count = stat(name, count_key)
        return stat(name, key) / unit_ns / count if count else 0.0

    def per_round(name, key):
        return stat(name, key) / n_traced

    untraced = _median([r[0] for r in runner.rounds[False]])
    traced = _median([r[0] for r in runner.rounds[True]])
    return {
        "samc.run_samc_batch.step_ns": per("samc.run_samc_batch", "self_ns", 1, "chain_steps"),
        "samc.chain_steps": per_round("samc.run_samc_batch", "chain_steps"),
        "samc.truncation_events": per_round("samc.run_samc_batch", "truncation_events"),
        "samle.run_samle_batch.iter_us": per("samle.run_samle_batch", "self_ns", 1e3,
                                             "iterations"),
        "samle.chain_iters": per_round("samle.run_samle_batch", "chain_iters"),
        "sa.KahanSum.add.calls": per_round("sa.KahanSum.add", "calls"),
        "sa.KahanSum.add.self_ns": per("sa.KahanSum.add", "self_ns", 1),
        "sa.KahanSum.add_rows.self_ns_per_row": per("sa.KahanSum.add_rows", "self_ns", 1,
                                                    "rows"),
        "sa.gain_at.calls": per_round("sa.gain_at", "calls"),
        "sa.threshold_at.calls": per_round("sa.threshold_at", "calls"),
        "sa.validate_schedule.us": per("sa.validate_schedule", "self_ns", 1e3),
        "oracle.noise_covariance.ms": per("oracle.noise_covariance", "self_ns", 1e6),
        "oracle.stationary_dist.ms": per("oracle.stationary_dist", "self_ns", 1e6),
        "oracle.poisson_solve.ms": per("oracle.poisson_solve", "self_ns", 1e6),
        "oracle.load_chain_file.ms": per("oracle.load_chain_file", "self_ns", 1e6),
        "harness.load_config.ms": per("harness.load_config", "self_ns", 1e6),
        "harness.run_single.self_ms": per("harness.run_single", "self_ns", 1e6),
        "harness.write_outputs.ms": per("harness.write_outputs", "self_ns", 1e6),
        "harness.bytes_written": per_round("harness.write_outputs", "bytes"),
        "harness.run_replications.self_ms": per("harness.run_replications", "self_ns", 1e6),
        "cli.main.validate.self_ms": per("cli.main.validate", "self_ns", 1e6),
        "cli.main.oracle.self_ms": per("cli.main.oracle", "self_ns", 1e6),
        "cli.main.run-samc.self_ms": per("cli.main.run-samc", "self_ns", 1e6),
        "cli.main.run-samle.self_ms": per("cli.main.run-samle", "self_ns", 1e6),
        "trace.overhead_s": traced - untraced,
    }


def main(argv) -> int:
    root, name, seed = Path(argv[0]), argv[1], int(argv[2])
    seconds, trace = float(argv[3]), argv[4] == "1"
    _import_samcmc(root)
    from tracing import Tracer, write_spans
    from workloads import WORKLOADS

    work = BENCH / "work"
    work.mkdir(exist_ok=True)
    workload = WORKLOADS[name](root, work, seed)
    workload.prepare()
    tracer = Tracer() if trace else None
    runner = Runner(workload, tracer)
    setups = []     # (normalised, raw) seconds
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload.setup()
        elapsed = time.perf_counter() - start
        runner.refs.append(reference_loop())
        setups.append((elapsed * runner.scale(), elapsed))
    start = time.perf_counter()
    round_no = 0
    # whole rounds only; traced runs alternate untraced and traced rounds
    while time.perf_counter() - start < seconds or round_no < MIN_ROUNDS:
        runner.run_round(round_no, traced=trace and round_no % 2 == 1)
        round_no += 1
    loop_s = time.perf_counter() - start
    problems = runner.problems + workload.final_check()
    for problem in problems[:20]:
        print(problem, file=sys.stderr)

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    untraced = runner.rounds[False]
    result = {
        "correct": not problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "rounds": round_no,
        "loop_s": loop_s,
        "setup_s": _median([s[0] for s in setups]),
        "raw_setup_s": _median([s[1] for s in setups]),
        "run_s": _median([r[0] for r in untraced]),
        "raw_run_s": _median([r[1] for r in untraced]),
        "raw_cpu_s": _median([r[2] for r in untraced]),
        "ref_loop_s": _median(runner.refs),
        "peak_rss_mb": (own + children) / 1024.0,
    }
    if trace:
        result["layers"] = layer_metrics(runner)
        write_spans(tracer, work / f"spans-{name}-{seed}.jsonl")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
