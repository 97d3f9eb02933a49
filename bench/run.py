"""samcmc benchmark: one workload, its checks, and every metric by name.

Usage, from the root of a checkout:

    python3 bench/run.py --workload samc-lockstep --seed 1 --seconds 20 --trace 0

It times fresh interpreters importing samcmc from the checkout's src/,
then runs the workload in a child process (measure.py) for --seconds of
rounds, each operation followed by the reference loop. The last line of
standard output is one JSON object: correct, attempted, failed and the
metrics, end to end with --trace 0 and per layer with --trace 1. The
line before it gives the raw figures behind the normalised ones. See
README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
WORKLOADS = ("samc-lockstep", "samc-replicate", "samle-mle", "cli-chain300")
IMPORT_PROBES = 5
MEASURE_TIMEOUT_S = 150


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    # string hashing, and so dict and set layout, the same in every run
    env["PYTHONHASHSEED"] = "0"
    return env


def _probe(extra: list[str] | None = None,
           code: str = "import samcmc") -> tuple[float, str]:
    """Wall time of a fresh interpreter that runs code; its stderr."""
    start = time.perf_counter()
    done = subprocess.run([sys.executable, *(extra or []), "-c", code],
                          cwd=ROOT, env=_env(), capture_output=True, text=True,
                          timeout=60)
    elapsed = time.perf_counter() - start
    if done.returncode != 0:
        raise RuntimeError(f"{code} failed:\n{done.stderr}")
    return elapsed, done.stderr


def import_probes() -> tuple[float, list[float], list[float]]:
    """Normalised median import time, and the raw probes and references.

    Each `import samcmc` probe runs between two reference imports and is
    scaled by IMPORT_NOMINAL_S over their mean.
    """
    from refloop import IMPORT_NOMINAL_S, IMPORT_REFERENCE
    _probe()    # the first import compiles and caches the bytecode
    refs = [_probe(code=IMPORT_REFERENCE)[0]]
    probes = []
    for _ in range(IMPORT_PROBES):
        probes.append(_probe()[0])
        refs.append(_probe(code=IMPORT_REFERENCE)[0])
    scaled = [t * IMPORT_NOMINAL_S / ((a + b) / 2)
              for t, a, b in zip(probes, refs, refs[1:])]
    return statistics.median(scaled), probes, refs


def import_times(stderr: str) -> dict[str, float]:
    """Cumulative seconds of samcmc and of all of scipy, from -X importtime.

    Lines come children first; a scipy module counts unless the line that
    encloses it, the next one with less indent, is itself a scipy module.
    """
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit():
            continue
        depth = len(name) - len(name.lstrip())
        rows.append((int(cumulative), depth, name.strip()))
    samcmc_us = scipy_us = 0
    for i, (cumulative, depth, name) in enumerate(rows):
        if name == "samcmc":
            samcmc_us = cumulative
        if name.split(".")[0] == "scipy":
            parent = next((n for _, d, n in rows[i + 1:] if d < depth), "")
            if parent.split(".")[0] != "scipy":
                scipy_us += cumulative
    return {"import.samcmc_s": samcmc_us / 1e6, "import.scipy_s": scipy_us / 1e6}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "samcmc" / "__init__.py").is_file():
        print(f"error: no samcmc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    import_s, probes, refs = import_probes()
    measure = subprocess.run(
        [sys.executable, str(BENCH / "measure.py"), str(ROOT), args.workload,
         str(args.seed), str(args.seconds), str(args.trace)],
        cwd=ROOT, env=_env(), capture_output=True, text=True,
        timeout=MEASURE_TIMEOUT_S)
    sys.stderr.write(measure.stderr)
    if measure.returncode != 0:
        print(f"error: measure.py exited with {measure.returncode}", file=sys.stderr)
        return 1
    run = json.loads(measure.stdout.strip().splitlines()[-1])

    raw = {"raw_wall_s": run["raw_run_s"], "raw_cpu_s": run["raw_cpu_s"],
           "ref_loop_ms": run["ref_loop_s"] * 1e3,
           "import_s": statistics.median(probes), "import_ref_s": statistics.median(refs),
           "workload_setup_s": run["raw_setup_s"], "rounds": run["rounds"],
           "loop_s": run["loop_s"]}
    print(json.dumps({"raw": raw}))
    if args.trace:
        metrics = {**run["layers"], **import_times(_probe(["-X", "importtime"])[1]),
                   "ref.loop_ms": run["ref_loop_s"] * 1e3,
                   "raw.run_s": run["raw_run_s"], "raw.cpu_s": run["raw_cpu_s"]}
        units = {name: unit for name, unit in _per_layer_units()}
        metrics = {name: {"value": metrics[name], "unit": units[name]}
                   for name in units}
    else:
        metrics = {
            "setup_s": {"value": import_s + run["setup_s"], "unit": "s"},
            "run_s": {"value": run["run_s"], "unit": "s"},
            "peak_rss_mb": {"value": run["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps({"correct": run["correct"], "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0


def _per_layer_units():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec["per_layer"]]


if __name__ == "__main__":
    sys.exit(main())
