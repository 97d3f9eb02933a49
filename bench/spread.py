"""Run the benchmark on several seeds and report each metric's spread.

    python3 bench/spread.py --workloads samc-lockstep cli-chain300 --seeds 1-10

For every workload and end-to-end metric it prints the median, the
quartiles (statistics.quantiles, n=4) and the spread: the distance
between the quartiles as a share of the median. It also prints the share
of failed operations of every run. Runs go one at a time; all results
are appended to bench/work/spread.jsonl.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    args = parser.parse_args()
    (BENCH / "work").mkdir(exist_ok=True)
    log = BENCH / "work" / "spread.jsonl"
    ok = True
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            done = subprocess.run(
                [*spec["command"], "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=300)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or len(lines) < 2:
                print(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
                ok = False
                continue
            result, raw = json.loads(lines[-1]), json.loads(lines[-2])["raw"]
            runs.append(result)
            with open(log, "a") as fh:
                fh.write(json.dumps({"workload": workload, "seed": seed,
                                     "result": result, "raw": raw}) + "\n")
            ok &= result["correct"]
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        print(f"{workload}: {len(runs)} runs, correct {all(r['correct'] for r in runs)}, "
              f"failed shares {shares}")
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            if len(values) < 2:
                continue
            q1, med, q3 = statistics.quantiles(values, n=4)
            print(f"  {metric['name']:12s} median {med:.5g}  q1 {q1:.5g}  q3 {q3:.5g}  "
                  f"spread {(q3 - q1) / med:.2%}  (bound {metric['bound']:.0%})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
