"""Self-test of the benchmark itself; run from the root of a checkout:

    python3 bench/selftest.py

It checks that the benchmark's own answers (theta*, Gamma, y_bar) agree
with samcmc.oracle on chain10 and on the 300-state chain, that the
reference loop imports nothing from samcmc, that the tracer's self times
add up and that a check that raises counts as a failed operation. It runs
one short round of each workload, untraced and traced, and checks that
the traced round calls the layers the workload leans on and none it must
avoid. Exits 0 when every check passes. The file name keeps it out of
the test suite's collection; it takes about a minute.
"""

from __future__ import annotations

import ast
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import numpy as np  # noqa: E402

import samcmc  # noqa: E402

import exact  # noqa: E402
import measure  # noqa: E402
import refloop  # noqa: E402
import run  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, Operation  # noqa: E402

FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def check_reference_answers(tmp: Path) -> None:
    paths = {"chain10": ROOT / "src" / "samcmc" / "data" / "chain10.txt"}
    for seed in (0, 1, 2):
        path = tmp / f"chain300-{seed}.txt"
        exact.write_chain(exact.make_chain300(seed), path)
        paths[f"chain300 seed {seed}"] = path
    for label, path in paths.items():
        ours = exact.read_chain(path)
        spec = samcmc.load_chain_file(path)
        tstar = samcmc.theta_star(samcmc.exact_omega(spec), spec.pi)
        gamma = samcmc.noise_covariance(spec, tstar).gamma
        t_err = np.abs(exact.theta_star(ours) - tstar).max()
        g_err = np.abs(exact.gamma(ours) - gamma).max() / np.abs(gamma).max()
        m_err = np.abs(exact.stationary_masses(ours) - ours.pi).max()
        expect(t_err < 1e-12 and g_err < 1e-10 and m_err < 1e-12,
               f"{label}: theta* err {t_err:.2g}, Gamma rel err {g_err:.2g}, "
               f"masses at theta* vs pi {m_err:.2g}")
    y = exact.read_observations(ROOT / "src" / "samcmc" / "data" / "gaussian_toy.txt")
    expect(y.mean() == samcmc.load_gaussian_toy().mean(),
           f"y_bar {y.mean():.17g} read from the data file matches load_gaussian_toy")
    a, b = exact.make_chain300(5), exact.make_chain300(5)
    expect(all(np.array_equal(getattr(a, f), getattr(b, f))
               for f in ("log_psi", "labels", "pi", "proposal")),
           "chain300 is a function of the seed")
    support = a.proposal > 0
    expect(bool(np.array_equal(support, support.T)) and not np.allclose(a.proposal, a.proposal.T)
           and len(set(a.labels.tolist())) == 8 and a.pi.max() / a.pi.min() > 1.05,
           "chain300: reversible support, non-symmetric weights, 8 subregions, non-uniform pi")


def check_reference_loop() -> None:
    tree = ast.parse((BENCH / "refloop.py").read_text())
    imported = {alias.name.split(".")[0] for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in (node.names if isinstance(node, ast.Import)
                              else [ast.alias(node.module or "")])}
    expect(imported <= {"__future__", "time", "numpy"},
           f"refloop.py imports only {sorted(imported)}")
    loaded = "print(sorted(m for m in sys.modules if m.startswith('samcmc')))"
    for what, code in [
            ("reference loop", "import refloop; refloop.reference_loop()"),
            ("reference import", refloop.IMPORT_REFERENCE)]:
        done = subprocess.run(
            [sys.executable, "-c", f"import sys; {code}; {loaded}"],
            cwd=BENCH, env=run._env(), capture_output=True, text=True, timeout=60)
        expect(done.returncode == 0 and done.stdout.strip() == "[]",
               f"the {what} runs without loading samcmc ({done.stdout.strip()})")


def check_tracer() -> None:
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            sum(range(10000))
        sum(range(10000))
    spans = {s["name"]: s for s in tracer.spans}
    outer, inner = spans["outer"], spans["inner"]
    total = outer["end_ns"] - outer["start_ns"]
    expect(inner["parent"] == outer["id"]
           and outer["self_ns"] + inner["self_ns"] == total,
           "tracer: self times add up to the top-level span")
    times = run.import_times(run._probe(["-X", "importtime"])[1])
    expect(times["import.samcmc_s"] > times["import.scipy_s"] > 0,
           f"-X importtime parsed: {times}")


ENGINE = ("sa.gain_at", "sa.threshold_at")
SAMC = ("samc.run_samc_batch", "sa.KahanSum.add")
SAMLE = ("samle.run_samle_batch", "sa.KahanSum.add_rows")
ORACLE = ("oracle.noise_covariance", "oracle.stationary_dist", "oracle.poisson_solve",
          "oracle.load_chain_file")
# the layers README.md's table says each workload leans on, and those it
# must not call; a traced round has to see the first and none of the second
LAYERS = {
    "samc-lockstep": (SAMC + ENGINE, SAMLE),
    "samc-replicate": (SAMC + ENGINE + ORACLE + ("harness.run_replications",), SAMLE),
    "samle-mle": (SAMLE + ENGINE, SAMC),
    "cli-chain300": (SAMC + SAMLE + ENGINE + ORACLE + (
        "sa.validate_schedule", "harness.load_config", "harness.run_single",
        "harness.write_outputs", "cli.main.validate", "cli.main.oracle",
        "cli.main.run-samc", "cli.main.run-samle"), ("harness.run_replications",)),
}


def check_workloads(tmp: Path) -> None:
    for name, cls in WORKLOADS.items():
        workload = cls(ROOT, tmp, 3)
        workload.prepare()
        workload.setup()
        runner = measure.Runner(workload, Tracer())
        runner.run_round(0, traced=False)
        runner.run_round(1, traced=True)
        problems = runner.problems + workload.final_check()
        ops = runner.attempted // 2
        expected_failed = 2 if name == "cli-chain300" else 0
        expect(not problems and runner.failed == expected_failed,
               f"{name}: 2 rounds of {ops} operations, {runner.failed} failed "
               f"(expected {expected_failed}), problems {problems}")
        called = {layer for layer, stat in runner.layers.items() if stat["calls"]}
        leans_on, avoids = LAYERS[name]
        expect(set(leans_on) <= called and not called & set(avoids),
               f"{name}: traced layers it leans on were called "
               f"(missing {sorted(set(leans_on) - called)}), and none it avoids "
               f"(called {sorted(called & set(avoids))})")
        # holds by construction, as Tracer.exit charges each span's time to
        # its parent; it shows that the reference loops lie outside the
        # spans and that self times and round times are scaled alike
        self_s = sum(stat["self_ns"] for stat in runner.layers.values()) / 1e9
        cover = self_s / runner.rounds[True][0][0]
        expect(0.99 < cover <= 1.0 + 1e-9,
               f"{name}: span self times add up to {cover:.5f} of the traced round")


class _RaisingCheck:
    """A workload of one operation whose check raises."""

    def operations(self, round_no):
        def check(output):
            raise ValueError("malformed output")
        return [Operation("raising", lambda: None, check)]


def check_raising_check() -> None:
    runner = measure.Runner(_RaisingCheck(), None)
    runner.run_round(0, traced=False)
    expect(runner.attempted == 1 and runner.failed == 1 and not runner.problems,
           "a check that raises counts its operation as failed")


def main() -> int:
    (BENCH / "work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=BENCH / "work") as tmp:
        check_reference_answers(Path(tmp))
        check_reference_loop()
        check_tracer()
        check_raising_check()
        check_workloads(Path(tmp))
    print(f"{len(FAILURES)} failed" if FAILURES else "all checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
