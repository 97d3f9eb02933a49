"""The mutation catalogue: ways to break the code that the tests must catch.

    python3 tools/mutants.py [entry name ...]

Each entry names a file, an exact snippet of it, the snippet's
replacement and the tests that must fail once it is applied. For each
entry (or each one named) the script copies the repository into a
temporary directory, checks that the snippet occurs there exactly once,
applies the replacement and runs only the named tests in the copy. It
reports the entry as

- killed: every named test fails (for a parametrized test, some case);
- survived: some named test passes in full; the test no longer catches
  the break;
- stale: the snippet does not occur exactly once, or a named test did
  not run, so the entry must be brought up to date.

The named tests are first run on an unchanged copy, where they must all
pass (exit status 2 if not). The script prints its wall time and exits
1 unless every entry is killed. It lives outside pytest's testpaths, so
the test suite does not collect it.
"""

from __future__ import annotations

import re
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str           # relative to the repository root
    snippet: str        # must occur exactly once in the file
    replacement: str
    tests: tuple[str, ...]  # pytest ids, each of which must fail


CATALOGUE = [
    Mutant(
        "rngs-cross-mix-constant",
        "src/samcmc/sa.py",
        "mixed = (pool[:, dst] * 0xCA01F9DD",
        "mixed = (pool[:, dst] * 0xCA01F9DE",
        ("tests/test_sa_core.py::test_batch_generators_are_default_rngs",
         "tests/test_samc.py::test_batch_engine_golden_digests_tight_ladder")),
    Mutant(
        "reset-keeps-radius",
        "src/samcmc/sa.py",
        "        self.sig += mask\n"
        "        self.radius = self.ladder.radius_at(self.sig)\n",
        "        self.sig += mask\n",
        ("tests/test_sa_core.py::test_reset_widens_the_ball_of_its_chains_alone",
         "tests/test_samc.py::test_batch_engine_golden_digests_tight_ladder",
         "tests/test_samle.py::test_batch_engine_golden_digests_with_truncations")),
    Mutant(
        "outside-ignores-radius",
        "src/samcmc/sa.py",
        "limits[..., 1, :] = self.radius",
        "limits[..., 1, :] = np.inf",
        ("tests/test_sa_core.py::test_norm_matches_the_engines_rule",
         "tests/test_samle.py::test_batch_engine_golden_digests_with_truncations")),
    Mutant(
        "samle-never-replays",
        "src/samcmc/samle.py",
        "            if not stands:\n",
        "            if False:\n",
        ("tests/test_samle.py::test_batch_engine_golden_digests_with_truncations",
         "tests/test_samle.py::test_engine_replays_run_sa")),
    Mutant(
        "may-truncate-never",
        "src/samcmc/sa.py",
        "        return not (np.all(bounds < thresholds)\n",
        "        return False and not (np.all(bounds < thresholds)\n",
        ("tests/test_samc.py::test_batch_engine_golden_digests_tight_ladder",
         "tests/test_samc.py::test_solo_run_golden_digest")),
    Mutant(
        "samc-start-reuses-first-draws",
        "src/samcmc/samc.py",
        "        draws = (pair for u_prop in blocks\n"
        "                 for pair in zip(u_prop.tolist(), rng.random(u_prop.size).tolist()))\n",
        '        draws = start.__dict__.setdefault("draws", (\n'
        "            pair for u_prop in blocks\n"
        "            for pair in zip(u_prop.tolist(), rng.random(u_prop.size).tolist())))\n",
        ("tests/test_samc.py::test_one_problem_serves_runs_of_any_length",
         "tests/test_samc.py::test_runs_of_one_problem_stepped_in_turn_match_runs_made_alone")),
    Mutant(
        "samle-start-reuses-first-rng",
        "src/samcmc/samle.py",
        "    def start(rng, x0, k_max):\n",
        "    def start(rng, x0, k_max):\n"
        '        rng = start.__dict__.setdefault("rng", rng)\n',
        ("tests/test_samle.py::test_one_problem_serves_runs_of_any_length",
         "tests/test_samle.py::test_runs_of_one_problem_stepped_in_turn_match_runs_made_alone")),
]

# a result line of pytest's -rA summary: outcome, then the test id
RESULT = re.compile(r"^(PASSED|FAILED|ERROR|XFAIL|XPASS|SKIPPED) (\S+)", re.M)


def outcomes(tests: tuple[str, ...], mutant: Mutant | None = None) -> dict | str:
    """Run tests on a copy of the repository, changed by mutant if given.

    Returns each test's set of outcomes (one per parametrized case), or
    why the mutant cannot be applied.
    """
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        root = Path(tmp) / "repo"
        shutil.copytree(REPO, root, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", "work"))
        if mutant is not None:
            target = root / mutant.path
            text = target.read_text()
            found = text.count(mutant.snippet)
            if found != 1:
                return f"snippet occurs {found} times in {mutant.path}"
            target.write_text(text.replace(mutant.snippet, mutant.replacement))
        out = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rA", "-p", "no:cacheprovider",
             *tests],
            cwd=root, capture_output=True, text=True).stdout
    seen: dict[str, set[str]] = {test: set() for test in tests}
    for outcome, node in RESULT.findall(out):
        for test in tests:
            if node == test or node.startswith(test + "["):
                seen[test].add(outcome)
    return seen


def verdict(mutant: Mutant) -> tuple[str, str]:
    """Killed, survived or stale, and why."""
    seen = outcomes(mutant.tests, mutant)
    if isinstance(seen, str):
        return "stale", seen
    missing = [test for test, got in seen.items() if not got]
    if missing:
        return "stale", "did not run: " + ", ".join(missing)
    passing = [test for test, got in seen.items() if got <= {"PASSED"}]
    if passing:
        return "survived", "passes: " + ", ".join(passing)
    return "killed", f"{len(mutant.tests)} named tests fail"


def main(names: list[str]) -> int:
    known = {mutant.name for mutant in CATALOGUE}
    unknown = [name for name in names if name not in known]
    if unknown:
        print(f"unknown entries: {', '.join(unknown)}", file=sys.stderr)
        return 2
    start = time.perf_counter()
    chosen = [mutant for mutant in CATALOGUE if not names or mutant.name in names]
    # the named tests must pass on the unchanged tree, or a kill shows nothing
    tests = tuple(dict.fromkeys(test for mutant in chosen for test in mutant.tests))
    failing = [test for test, got in outcomes(tests).items() if got != {"PASSED"}]
    if failing:
        print("named tests that do not pass unchanged: " + ", ".join(failing),
              file=sys.stderr)
        return 2
    print(f"control: {len(tests)} named tests pass on the unchanged tree "
          f"({time.perf_counter() - start:.1f} s)", flush=True)
    verdicts = []
    for mutant in chosen:
        began = time.perf_counter()
        result, detail = verdict(mutant)
        verdicts.append(result)
        print(f"{result:8} {mutant.name} ({time.perf_counter() - began:.1f} s): {detail}",
              flush=True)
    counts = {v: verdicts.count(v) for v in ("killed", "survived", "stale")}
    print(", ".join(f"{n} {v}" for v, n in counts.items())
          + f"; wall time {time.perf_counter() - start:.1f} s")
    return 0 if counts["killed"] == len(verdicts) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
