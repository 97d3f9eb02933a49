"""Config loading, run orchestration, artifacts, and the CLI front end."""

import ast
import dataclasses
import hashlib
import importlib.util
import inspect
import json
import math
import re
import textwrap
import types
from pathlib import Path

import numpy as np
import pytest

import samcmc
from samcmc import (
    ConfigError,
    EfficiencyReport,
    FiniteChainSpec,
    GainSchedule,
    OUTPUT_DIR_ENV,
    ScheduleValidationError,
    chain10,
    load_config,
    run_replications,
    run_single,
    trajectory_average,
    dump_chain_file,
    write_outputs,
)
from samcmc.cli import main

THETA_STAR = np.array([math.log(6 / 34), math.log(15 / 34)])

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# sha256 of the trace CSV bytes and of the summary JSON without its timing,
# as the CLI writes them for the shipped run configs; computed before the
# lockstep engines' bookkeeping moved into sa.py, and kept since
GOLDEN_CLI = {
    "samc": ("81aad7927d325938714bb2b3a743fd2880d188fccf4f205ce47badf00c872059",
             "aa1259a6335d526c66fe5aae398383c988fea149e6a92101a7a15033ef42eac1"),
    "samle": ("a1730e3cfe76a3cd914957d6148347f36634eea49785638b2ca5fdefb11706e0",
              "5f7eeeed1d22e2bd8f00bca2c06e316943f4f057489e927e3d4996c47a91d317"),
}
# sha256 of the stdout of `samcmc oracle configs/oracle_chain10.yaml`, and of
# the efficiency report of REPORT_CONFIG with its timing set to null
GOLDEN_ORACLE = "90ad4df0ca03788472daf23f3a86215a8094525b3b176324001c1d49e0655a81"
GOLDEN_REPORT = "12b3f3e096f3290e4d0137042876d699222bdcde1025b555e54abd039dc362bb"
REPORT_CONFIG = """\
    mode: samc
    schedule: {c1: 2.0}
    k_max: 3000
    replications: 30
    seed: 5
"""


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv(OUTPUT_DIR_ENV, raising=False)


def write_config(tmp_path, text, name="cfg.yaml"):
    p = tmp_path / name
    p.write_text(textwrap.dedent(text))
    return p


SMALL_SAMC = """\
    mode: samc
    k_max: 3000
    seed: 7
    output_dir: {out}
"""


PUBLIC_NAMES = """
    OUTPUT_DIR_ENV Box ConfigError EfficiencyReport ExperimentConfig
    FiniteChainSpec GainSchedule KahanSum MissingDataModel NoiseCovariance
    NonFiniteGradientError NonFiniteIterateError RandomWalk RunTrace SaProblem
    SamcModel ScheduleClause ScheduleValidationError Snapshot TruncationLadder
    ValidationReport asymptotic_cov chain10 dump_chain_file exact_omega gain_at
    gaussian_location_model jacobian load_chain_file load_config
    load_gaussian_toy lyapunov mean_field noise_covariance omega_hat
    poisson_solve reflect_into_box run_replications run_sa run_samc
    run_samc_batch run_samle run_samle_batch run_single stationary_dist
    theta_star threshold_at trajectory_average transition_matrix
    validate_schedule visit_freq visit_indicator_table write_outputs write_trace
""".split()


def test_all_lists_every_public_name_once():
    public = {name for name, value in vars(samcmc).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert len(samcmc.__all__) == len(set(samcmc.__all__))
    assert set(samcmc.__all__) == public == set(PUBLIC_NAMES)
    assert len(PUBLIC_NAMES) == 54
    # each module lists names it binds, and the package adds up the lists,
    # so no name may sit in two of them
    listed = []
    for module in (samcmc.oracle, samcmc.sa, samcmc.samc, samcmc.samle,
                   samcmc.harness):
        for name in module.__all__:
            assert name in vars(module), (module.__name__, name)
            assert getattr(samcmc, name) is vars(module)[name], name
        listed += module.__all__
    assert sorted(listed) == sorted(samcmc.__all__)


def test_benchmark_hooks_resolve():
    # the benchmark under bench/ wraps and calls samcmc names from outside
    # the package; a deletion that breaks it should fail here first
    bench = Path(__file__).resolve().parent.parent / "bench"
    spec = importlib.util.spec_from_file_location("bench_tracing", bench / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module, attr, _ in tracing.FUNCTIONS + tracing.HOT_FUNCTIONS:
        assert callable(getattr(getattr(samcmc, module), attr, None)), (module, attr)
    for module, cls_name, attr, _, _ in tracing.METHODS:
        assert attr in vars(getattr(getattr(samcmc, module), cls_name)), (cls_name, attr)
    for script in sorted(bench.glob("*.py")):
        source = script.read_text()
        for name in set(re.findall(r"\bsamcmc\.([A-Za-z_]\w*)", source)):
            assert hasattr(samcmc, name), (script.name, name)
        # each samcmc.<name>(...) call still binds: its keywords are still
        # parameters and its positional arguments still fit
        for call in ast.walk(ast.parse(source)):
            if not isinstance(call, ast.Call):
                continue
            names, func = [], call.func
            while isinstance(func, ast.Attribute):
                names.insert(0, func.attr)
                func = func.value
            if not (isinstance(func, ast.Name) and func.id == "samcmc"):
                continue
            target = samcmc
            for name in names:
                target = getattr(target, name)
            try:
                inspect.signature(target).bind(
                    *call.args, **{kw.arg: None for kw in call.keywords})
            except TypeError as exc:
                pytest.fail(f"{script.name}:{call.lineno}: samcmc."
                            f"{'.'.join(names)}(...) no longer binds: {exc}")


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def test_minimal_config_fills_defaults(tmp_path):
    config = load_config(write_config(tmp_path, "mode: samc\nk_max: 1000\n"))
    s = config.schedule
    assert (s.c1, s.eta, s.c2, s.xi, s.tau, s.alpha) == (1.0, 0.7, 2.0, 0.55,
                                                         0.5, 10.0)
    assert config.k0 == 100  # defaults to k_max // 10
    assert (config.r0, config.growth) == (10.0, 10.0)
    assert config.theta0 is None and config.x0 is None
    assert config.seed == 0 and config.replications == 1
    assert config.snapshot_stride == 1000 and config.sweeps == 1
    assert config.output_dir == tmp_path / "out"


def test_null_schedule_and_ladder_mean_defaults(tmp_path):
    # only an absent key or null means defaults; 0, false and [] are errors
    config = load_config(write_config(
        tmp_path, "mode: samc\nk_max: 1000\nschedule: null\nladder: null\n"))
    assert config.schedule == GainSchedule()
    assert (config.r0, config.growth, config.theta0) == (10.0, 10.0, None)


def test_integral_float_counts_as_an_integer(tmp_path):
    config = load_config(write_config(tmp_path, "mode: samc\nk_max: 2000.0\n"))
    assert config.k_max == 2000 and type(config.k_max) is int
    assert config.k0 == 200


def test_invalid_schedule_names_first_failing_clause(tmp_path):
    p = write_config(tmp_path, """\
        mode: samc
        k_max: 1000
        schedule: {eta: 1.0}
    """)
    with pytest.raises(ScheduleValidationError, match="lim k\\*a_k = infinity"):
        load_config(p)


def test_config_error_catalog(tmp_path):
    cases = [
        ("mode: samc\nk_max: 10\nfrobnicate: 1\n", "unknown config keys: frobnicate"),
        ("mode: warp\nk_max: 10\n", "mode must be one of"),
        ("k_max: 10\n", "missing required key 'mode'"),
        ("mode: samc\n", "missing required key 'k_max'"),
        ("mode: samc\nk_max: 0\n", "k_max must be >= 1"),
        ("mode: samc\nk_max: 10\nk0: 10\n", "need 0 <= k0 < k_max"),
        ("mode: samc\nk_max: 10\nk0: -1\n", "need 0 <= k0 < k_max, got k0=-1"),
        ("mode: samc\nk_max: 10\nreplications: 0\n", "replications must be >= 1"),
        ("mode: samc\nk_max: 10\nsnapshot_stride: 0\n", "snapshot_stride"),
        ("mode: samc\nk_max: 10\nsweeps: 0\n", "sweeps must be >= 1"),
        ("mode: samc\nk_max: 10\nproposal_step: -0.5\n", "proposal_step"),
        ("mode: samc\nk_max: 10\nschedule: {c3: 1}\n", "unknown schedule keys: c3"),
        ("mode: samc\nk_max: 10\nschedule: {c1: -1}\n", "bad schedule field"),
        ("mode: samc\nk_max: 10\nschedule: {tau: [1]}\n",
         "schedule tau must be a number, got \\[1\\]"),
        ("mode: samc\nk_max: 10\nladder: {rung: 3}\n", "unknown ladder keys: rung"),
        ("mode: samc\nk_max: 10\nladder: {r0: 0}\n", "r0 must be positive"),
        ("mode: samc\nk_max: 10\nladder: {growth: 1.0}\n", "growth must exceed 1"),
        ("mode: samc\nk_max: 10\nladder: {r0: .nan}\n", "r0 must be positive"),
        ("mode: samc\nk_max: 10\nladder: {growth: .nan}\n", "growth must exceed 1"),
        ("mode: samc\nk_max: 10\nk0: 2.5\n", "k0 must be an integer, got 2.5"),
        ("mode: samc\nk_max: 10\nreplications: two\n", "replications must be an integer"),
        ("mode: samc\nk_max: 10\nseed: true\n", "seed must be an integer, got True"),
        ("mode: samc\nk_max: 10\nsnapshot_stride: 1e3\n",
         "snapshot_stride must be an integer, got '1e3'"),
        ("mode: samc\nk_max: 10\nsweeps: [1]\n", "sweeps must be an integer"),
        ("mode: samc\nk_max: 10\nschedule: {c1: yes}\n",
         "schedule c1 must be a number, got True"),
        ("mode: samc\nk_max: 10\nladder: {r0: true}\n", "ladder r0 must be a number, got True"),
        ("mode: samc\nk_max: 10\nladder: {theta0: [true, 0]}\n",
         "ladder theta0 entry must be a number, got True"),
        ("- just\n- a list\n", "must be a key-value mapping"),
    ]
    for i, (text, fragment) in enumerate(cases):
        p = write_config(tmp_path, text, name=f"bad_{i}.yaml")
        with pytest.raises(ConfigError, match=fragment):
            load_config(p)


def test_yaml_parse_error_reports_line(tmp_path):
    p = write_config(tmp_path, "mode: samc\nk_max: [1, 2\n")
    with pytest.raises(ConfigError, match="parse error at line"):
        load_config(p)


def test_missing_files_are_named(tmp_path):
    with pytest.raises(FileNotFoundError, match="config file not found"):
        load_config(tmp_path / "absent.yaml")
    p = write_config(tmp_path, "mode: samc\nk_max: 10\nchain_file: nosuch.txt\n")
    with pytest.raises(FileNotFoundError,
                       match=r"chain_file not found: .*nosuch\.txt"):
        load_config(p)


def test_paths_resolve_against_config_directory(tmp_path):
    dump_chain_file(chain10(), tmp_path / "local_chain.txt")
    p = write_config(tmp_path, """\
        mode: samc
        k_max: 10
        chain_file: local_chain.txt
    """)
    config = load_config(p)
    assert config.chain_file == tmp_path / "local_chain.txt"


def test_env_var_overrides_output_dir_only(tmp_path, monkeypatch):
    p = write_config(tmp_path, """\
        mode: samc
        k_max: 10
        seed: 3
        output_dir: from_config
    """)
    assert load_config(p).output_dir == tmp_path / "from_config"
    monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path / "from_env"))
    config = load_config(p)
    assert config.output_dir == tmp_path / "from_env"
    assert config.seed == 3


def test_output_dir_resolves_against_config_directory(tmp_path, capsys,
                                                     monkeypatch):
    (tmp_path / "elsewhere").mkdir()
    (tmp_path / "cwd").mkdir()
    write_config(tmp_path / "elsewhere",
                 "mode: samc\nk_max: 100\noutput_dir: out\n", "c.yaml")
    monkeypatch.chdir(tmp_path / "cwd")
    assert main(["run-samc", "../elsewhere/c.yaml"]) == 0
    capsys.readouterr()
    assert (tmp_path / "elsewhere" / "out" / "trace_samc_0.csv").exists()
    assert not (tmp_path / "cwd" / "out").exists()


# ---------------------------------------------------------------------------
# single runs and artifacts
# ---------------------------------------------------------------------------

def test_run_single_rejects_non_run_modes(tmp_path):
    config = load_config(write_config(
        tmp_path, "mode: validate\nk_max: 10\n"))
    with pytest.raises(ConfigError, match="not runnable"):
        run_single(config)


def test_theta0_dimension_checked_against_chain(tmp_path):
    config = load_config(write_config(tmp_path, """\
        mode: samc
        k_max: 10
        ladder: {theta0: [0.0, 0.0, 0.0]}
    """))
    with pytest.raises(ConfigError, match="3 components, expected 2"):
        run_single(config)


def test_samc_summary_contents(tmp_path):
    config = load_config(write_config(
        tmp_path, SMALL_SAMC.format(out=tmp_path / "out")))
    trace, summary = run_single(config)
    assert summary["mode"] == "samc" and summary["seed"] == 7
    assert summary["k0"] == 300
    np.testing.assert_allclose(
        summary["theta_bar_burnin"], trajectory_average(trace, 300), rtol=0)
    assert summary["truncation_count"] == len(trace.sigma_events)
    assert summary["unvisited_subregions"] == []
    assert abs(sum(summary["pi_hat"]) - 1.0) < 1e-12
    assert abs(sum(summary["omega_hat"]) - 1.0) < 1e-12
    assert set(summary["timing"]) == {"timestamp", "wall_time_s"}


def test_samle_summary_reports_exact_mle(tmp_path):
    config = load_config(write_config(tmp_path, """\
        mode: samle
        k_max: 2000
        proposal_step: 0.4
        schedule: {c1: 0.1}
    """))
    trace, summary = run_single(config)
    assert abs(summary["y_bar"] - 0.7409467391596104) < 1e-15
    assert "pi_hat" not in summary
    assert len(summary["theta_bar"]) == 1


def test_trace_round_trip_is_exact(tmp_path):
    config = load_config(write_config(
        tmp_path, SMALL_SAMC.format(out=tmp_path / "out")))
    trace, summary = run_single(config)
    paths = write_outputs(trace, config.output_dir, summary=summary)
    assert [p.name for p in paths] == ["trace_samc_7.csv", "summary_samc_7.json"]

    header, *rows = paths[0].read_text().splitlines()
    assert header == "k,theta_1,theta_2,pi_hat_1,pi_hat_2,pi_hat_3,sigma"
    assert len(rows) == len(trace.snapshots) == 3
    for row, snap, k in zip(rows, trace.snapshots, [1000, 2000, 3000]):
        values = row.split(",")
        assert int(values[0]) == snap.k == k
        # 17 significant digits reproduce every float64 bit for bit
        np.testing.assert_array_equal([float(v) for v in values[1:3]], snap.theta)
        np.testing.assert_array_equal([float(v) for v in values[3:6]], snap.pi_hat)
        assert int(values[6]) == snap.sigma

    stored = json.loads(paths[1].read_text())
    assert stored == summary


def test_samle_trace_has_no_pi_columns(tmp_path):
    config = load_config(write_config(tmp_path, """\
        mode: samle
        k_max: 1500
        snapshot_stride: 1000
        schedule: {c1: 0.1}
    """))
    trace, summary = run_single(config)
    path = write_outputs(trace, tmp_path / "o", summary=summary)[0]
    header, *rows = path.read_text().splitlines()
    assert header == "k,theta_1,sigma"
    assert [row.split(",")[0] for row in rows] == ["1000", "1500"]


def test_repeat_runs_are_identical_outside_timing(tmp_path):
    config = load_config(write_config(
        tmp_path, SMALL_SAMC.format(out=tmp_path / "out")))
    trace_a, summary_a = run_single(config)
    trace_b, summary_b = run_single(config)
    summary_a.pop("timing")
    summary_b.pop("timing")
    assert summary_a == summary_b
    path_a = write_outputs(trace_a, tmp_path / "a", summary=summary_a)[0]
    path_b = write_outputs(trace_b, tmp_path / "b", summary=summary_b)[0]
    assert path_a.read_bytes() == path_b.read_bytes()


# ---------------------------------------------------------------------------
# replication studies
# ---------------------------------------------------------------------------

def test_replications_require_at_least_two(tmp_path):
    config = load_config(write_config(tmp_path, "mode: samc\nk_max: 100\n"))
    with pytest.raises(ConfigError, match="need R >= 2"):
        run_replications(config)
    config = load_config(write_config(
        tmp_path, "mode: samle\nk_max: 100\nreplications: 4\n",
        name="cfg2.yaml"))
    with pytest.raises(ConfigError, match="mode: samc"):
        run_replications(config)


@pytest.fixture(scope="module")
def small_report(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("rep")
    config = load_config(write_config(tmp, """\
        mode: samc
        k_max: 4000
        replications: 8
        seed: 1
        snapshot_stride: 4000
    """))
    return config, run_replications(config)


def test_replication_report_recomputes(small_report):
    config, report = small_report
    assert report.replications == 8 and report.k_max == 4000
    np.testing.assert_allclose(report.empirical_cov,
                               report.empirical_cov.T, rtol=1e-12)
    np.testing.assert_allclose(report.theta_star, THETA_STAR, atol=1e-12)
    frob = (np.linalg.norm(report.empirical_cov - report.oracle_gamma)
            / np.linalg.norm(report.oracle_gamma))
    assert abs(frob - report.frobenius_rel_err) < 1e-15
    assert [row["component"] for row in report.per_component_ci] == [1, 2]
    for row in report.per_component_ci:
        assert row["ci_lo"] <= row["mean"] <= row["ci_hi"]
        half = 1.96 / np.sqrt(8) * row["sd"]
        assert abs((row["ci_hi"] - row["ci_lo"]) - 2 * half) < 1e-12


def test_replications_are_deterministic(small_report):
    config, report = small_report
    again = run_replications(config)
    np.testing.assert_array_equal(report.empirical_cov, again.empirical_cov)
    np.testing.assert_array_equal(report.last_iterate_cov,
                                  again.last_iterate_cov)
    assert report.frobenius_rel_err == again.frobenius_rel_err


def test_report_round_trip(small_report, tmp_path):
    _, report = small_report
    path = write_outputs(report, tmp_path)[0]
    assert path.name == "efficiency_report.json"
    back = json.loads(path.read_text())
    names = [f.name for f in dataclasses.fields(EfficiencyReport)]
    assert sorted(back) == sorted(names)
    for name in names:
        value = getattr(report, name)
        if isinstance(value, np.ndarray):
            # 17 significant digits: every float64 comes back bit for bit
            np.testing.assert_array_equal(np.array(back[name]), value)
        else:
            assert back[name] == value, name
    # both scaled covariance estimates must be symmetric PSD
    for name in ("empirical_cov", "last_iterate_cov"):
        assert np.linalg.eigvalsh(np.array(back[name])).min() >= -1e-10


def test_write_outputs_rejects_unknown_payload(tmp_path):
    with pytest.raises(TypeError, match="cannot write outputs"):
        write_outputs({"not": "a trace"}, tmp_path)
    trace, _ = run_single(load_config(write_config(
        tmp_path, "mode: samc\nk_max: 10\n")))
    with pytest.raises(ValueError, match="with its run summary"):
        write_outputs(trace, tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_write_trace_rejects_a_trace_without_snapshots(tmp_path):
    trace, _ = run_single(load_config(write_config(
        tmp_path, "mode: samc\nk_max: 10\n")))
    with pytest.raises(ValueError, match="trace has no snapshots to write"):
        samcmc.write_trace(dataclasses.replace(trace, snapshots=[]), tmp_path / "t.csv")
    assert not (tmp_path / "t.csv").exists()


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def test_cli_validate_pass_and_fail(tmp_path, capsys):
    good = write_config(tmp_path, "mode: validate\nk_max: 10\n")
    assert main(["validate", str(good)]) == 0
    out = capsys.readouterr().out
    assert "[pass]" in out and "FAIL" not in out
    assert "valid tau exists" in out

    bad = write_config(tmp_path, """\
        mode: validate
        k_max: 10
        schedule: {eta: 1.0}
    """, name="bad.yaml")
    assert main(["validate", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "lim k*a_k = infinity" in out

    assert main(["validate", str(tmp_path / "gone.yaml")]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_oracle_prints_exact_constants(tmp_path, capsys):
    p = write_config(tmp_path, "mode: oracle\nk_max: 1\n")
    assert main(["oracle", str(p)]) == 0
    out = capsys.readouterr().out
    assert "omega:      [6, 15, 34]" in out
    assert "-1.7346010" in out and "-0.8183103" in out
    assert "Gamma:" in out


@pytest.mark.parametrize("shift", [800.0, -900.0])
def test_oracle_ignores_a_constant_added_to_log_psi(tmp_path, capsys, shift):
    # theta*, F, Q and Gamma see only the ratios of psi; shifted this far,
    # psi itself overflows or underflows, while the engine runs as before
    def oracle(chain):
        nc = samcmc.noise_covariance(chain, THETA_STAR)
        dump_chain_file(chain, tmp_path / "chain.txt")
        p = write_config(tmp_path, "mode: samc\nk_max: 2000\nreplications: 3\n"
                                   "chain_file: chain.txt\n")
        assert main(["oracle", str(p)]) == 0
        report = run_replications(load_config(p))
        return nc, capsys.readouterr().out.splitlines(), report

    base = chain10()
    nc, out, report = oracle(dataclasses.replace(base, log_psi=base.log_psi + shift))
    ref_nc, ref_out, ref_report = oracle(base)
    for got, ref in [(nc.q_matrix, ref_nc.q_matrix), (nc.gamma, ref_nc.gamma),
                     (report.theta_star, ref_report.theta_star),
                     (report.oracle_gamma, ref_report.oracle_gamma)]:
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0)
    # the CLI prints 12 significant digits; past omega, every line agrees
    assert out[0] == "omega:      " + ("[inf, inf, inf]" if shift > 0 else "[0, 0, 0]")
    assert out[1:] == ref_out[1:]


def test_cli_run_samc_writes_artifacts(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path / "runout"))
    p = write_config(tmp_path, "mode: samc\nk_max: 2000\nseed: 2\n")
    assert main(["run-samc", str(p)]) == 0
    out = capsys.readouterr().out
    assert "seed 2: 2000 iterations" in out
    assert (tmp_path / "runout" / "trace_samc_2.csv").exists()
    assert (tmp_path / "runout" / "summary_samc_2.json").exists()


def test_cli_run_samle(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path / "o"))
    p = write_config(tmp_path, "mode: samle\nk_max: 1500\nproposal_step: 0.4\n"
                               "schedule: {c1: 0.1}\n")
    assert main(["run-samle", str(p)]) == 0
    out = capsys.readouterr().out
    assert "y_bar (exact MLE): 0.74094673916" in out


def test_cli_samc_and_samle_outputs_coexist(tmp_path, capsys, monkeypatch):
    # one output directory and one seed, as the shipped configs share
    monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path / "shared"))
    samc = write_config(tmp_path, "mode: samc\nk_max: 2000\nseed: 4\n", "s.yaml")
    samle = write_config(tmp_path, "mode: samle\nk_max: 1500\nseed: 4\n"
                                   "schedule: {c1: 0.1}\n", "l.yaml")
    assert main(["run-samc", str(samc)]) == 0
    written = {p: p.read_bytes() for p in (tmp_path / "shared").iterdir()}
    assert main(["run-samle", str(samle)]) == 0
    capsys.readouterr()
    for path, data in written.items():
        assert path.read_bytes() == data
    assert sorted(p.name for p in (tmp_path / "shared").iterdir()) == [
        "summary_samc_4.json", "summary_samle_4.json",
        "trace_samc_4.csv", "trace_samle_4.csv"]


@pytest.mark.parametrize("mode, config", [("samc", "samc_chain10.yaml"),
                                          ("samle", "samle_toy.yaml")])
def test_cli_outputs_of_shipped_configs_are_pinned(mode, config, tmp_path,
                                                   capsys, monkeypatch):
    monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path))
    assert main([f"run-{mode}", str(CONFIGS / config)]) == 0
    capsys.readouterr()
    trace = (tmp_path / f"trace_{mode}_0.csv").read_bytes()
    summary = json.loads((tmp_path / f"summary_{mode}_0.json").read_text())
    del summary["timing"]
    canon = json.dumps(summary, sort_keys=True).encode()
    assert (hashlib.sha256(trace).hexdigest(),
            hashlib.sha256(canon).hexdigest()) == GOLDEN_CLI[mode]


def test_cli_oracle_output_is_pinned(capsys):
    assert main(["oracle", str(CONFIGS / "oracle_chain10.yaml")]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_ORACLE


def test_cli_efficiency_report_is_pinned(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path / "eff"))
    assert main(["efficiency", str(write_config(tmp_path, REPORT_CONFIG))]) == 0
    capsys.readouterr()
    text = (tmp_path / "eff" / "efficiency_report.json").read_text()
    report = json.loads(text)
    # the layout is json's own at indent 2 with sorted keys
    assert text == json.dumps(report, indent=2, sort_keys=True) + "\n"
    assert set(report["timing"]) == {"timestamp", "wall_time_s"}
    report["timing"] = None
    canon = json.dumps(report, indent=2, sort_keys=True).encode()
    assert hashlib.sha256(canon).hexdigest() == GOLDEN_REPORT


def test_cli_efficiency(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path / "eff"))
    p = write_config(tmp_path, """\
        mode: samc
        k_max: 2000
        replications: 6
        snapshot_stride: 2000
    """)
    assert main(["efficiency", str(p)]) == 0
    out = capsys.readouterr().out
    assert "frobenius_rel_err:" in out
    assert (tmp_path / "eff" / "efficiency_report.json").exists()

    single = write_config(tmp_path, "mode: samc\nk_max: 100\n", name="r1.yaml")
    assert main(["efficiency", str(single)]) == 2
    assert "need R >= 2" in capsys.readouterr().err


def test_cli_efficiency_says_when_the_trace_ratio_is_undefined(tmp_path, capsys,
                                                              monkeypatch):
    # a ball too small for any step resets every chain at every iteration,
    # so all replications end at the center and the last iterates' trace
    # is 0; warnings are errors here, so a 0/0 would fail the run
    monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path / "eff"))
    p = write_config(tmp_path, """\
        mode: samc
        k_max: 50
        replications: 3
        snapshot_stride: 50
        ladder: {r0: 1.0e-300, growth: 1.0000001}
    """)
    assert main(["efficiency", str(p)]) == 0
    out = capsys.readouterr().out
    assert ("trace ratio (averaged/last): undefined, as every replication "
            "ends at the same point\n") in out
    assert "nan" not in out


def test_cli_rejects_invalid_schedule_config(tmp_path, capsys):
    p = write_config(tmp_path, """\
        mode: samc
        k_max: 100
        schedule: {eta: 0.7, xi: 0.65}
    """)
    assert main(["run-samc", str(p)]) == 1
    err = capsys.readouterr().err
    assert "sum (a_i/b_i)^alpha < infinity" in err
    assert "error: invalid gain schedule" in err


@pytest.mark.parametrize("mode, text, message", [
    ("samc", "schedule: {c1: .nan}", "gain and threshold scales must be positive"),
    ("samc", "ladder: {theta0: [.nan, 0.0]}", "theta0 must be a flat list of finite"),
    ("samc", "k_max: 1e5", "k_max must be an integer, got '1e5'"),
    ("samc", "k_max: abc", "k_max must be an integer, got 'abc'"),
    ("samc", "k_max: 1500.7", "k_max must be an integer, got 1500.7"),
    ("samc", "seed: -1", "seed must be >= 0"),
    ("samc", "ladder: {x0: 99}", "ladder x0 must be a state in 0..9, got 99"),
    ("samc", "ladder: {x0: 1.5}", "ladder x0 must be an integer, got 1.5"),
    ("samle", "ladder: {x0: [1.0, 2.0]}", "ladder x0 must list 20 finite latent"),
    ("samle", "ladder: {x0: [%s]}" % ", ".join(["true"] * 20),
     "ladder x0 entry must be a number, got True"),
    ("samc", "ladder: {r0: abc}", "ladder r0 must be a number, got 'abc'"),
    ("samc", "ladder: {theta0: [a, 1]}", "ladder theta0 entry must be a number, got 'a'"),
    ("samle", "proposal_step: fast", "proposal_step must be a number, got 'fast'"),
    ("samle", "proposal_step: .inf", "proposal_step must be positive and finite"),
    ("samc", "chain_file: [a]", "chain_file must be a path string, got ['a']"),
    ("samc", "chain_file: 7", "chain_file must be a path string, got 7"),
    ("samle", "data_file: 7", "data_file must be a path string, got 7"),
    ("samc", "output_dir: 5", "output_dir must be a path string, got 5"),
    ("samc", "output_dir: null", "output_dir must be a path string, got None"),
    ("samc", "schedule: 0", "'schedule' must be a mapping"),
    ("samc", "ladder: []", "'ladder' must be a mapping"),
], ids=["nan-c1", "nan-theta0", "k_max-1e5", "k_max-abc", "k_max-float",
        "negative-seed", "samc-x0-range", "samc-x0-float", "samle-x0-length",
        "samle-x0-bool", "r0-abc", "theta0-entry-abc", "proposal_step-abc",
        "proposal_step-inf", "chain_file-list", "chain_file-int", "data_file-int",
        "output_dir-int", "output_dir-null", "schedule-zero", "ladder-empty-list"])
def test_cli_reports_bad_config_values(tmp_path, capsys, mode, text, message):
    out = tmp_path / "out"
    body = text if text.startswith("k_max") else f"k_max: 1000\n{text}"
    if not text.startswith("output_dir"):
        body += f"\noutput_dir: {out}"
    p = write_config(tmp_path, f"mode: {mode}\n{body}\n")
    assert main([f"run-{mode}", str(p)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err, err
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command, mode", [("run-samc", "samc"),
                                           ("oracle", "oracle")])
def test_cli_reports_malformed_chain_file(tmp_path, capsys, command, mode):
    path = tmp_path / "chain.txt"
    dump_chain_file(chain10(), path)
    lines = path.read_text().splitlines()
    lines[3] = "nan " + lines[3].split(" ", 1)[1]      # the pi line
    path.write_text("\n".join(lines) + "\n")
    p = write_config(tmp_path, f"mode: {mode}\nk_max: 10\nchain_file: chain.txt\n"
                               f"output_dir: {tmp_path / 'out'}\n")
    assert main([command, str(p)]) == 2
    assert capsys.readouterr().err == (
        f"error: {path}: pi must be positive and sum to 1\n")


@pytest.mark.parametrize("command", ["oracle", "efficiency"])
def test_cli_reports_reducible_chain(tmp_path, capsys, monkeypatch, command):
    # two blocks of two states that no proposal connects: the MH kernel is
    # reducible, so the oracle has no stationary law to offer, and
    # efficiency says so before it runs any chain
    def run_samc_batch(*args, **kwargs):
        pytest.fail("efficiency ran the chains before the oracle checked them")

    monkeypatch.setattr(samcmc.harness, "run_samc_batch", run_samc_batch)
    block = np.full((2, 2), 0.5)
    proposal = np.block([[block, np.zeros((2, 2))], [np.zeros((2, 2)), block]])
    chain = FiniteChainSpec(n_states=4, log_psi=np.zeros(4),
                            labels=np.array([1, 1, 2, 2]), proposal=proposal,
                            pi=np.array([0.5, 0.5]))
    dump_chain_file(chain, tmp_path / "chain.txt")
    p = write_config(tmp_path, "mode: samc\nk_max: 200\nreplications: 2\n"
                               f"chain_file: chain.txt\noutput_dir: {tmp_path / 'out'}\n")
    assert main([command, str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: kernel not irreducible\n"
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


@pytest.mark.xfail(strict=True, reason=(
    "the oracle scales omega by exp(-max log psi), so a subregion more than "
    "about 745 nats below the largest underflows to 0; ROADMAP item 12 "
    "(a matrix-free oracle with log weights) mends it"))
def test_oracle_analyses_a_subregion_far_below_the_largest(tmp_path, capsys):
    # subregion 1's log psi lowered by 800, which run-samc runs as usual
    base = chain10()
    log_psi = np.where(base.labels == 1, base.log_psi - 800.0, base.log_psi)
    dump_chain_file(dataclasses.replace(base, log_psi=log_psi), tmp_path / "chain.txt")
    p = write_config(tmp_path, "mode: samc\nk_max: 200\nreplications: 2\n"
                               f"chain_file: chain.txt\noutput_dir: {tmp_path / 'out'}\n")
    assert main(["oracle", str(p)]) == 0, capsys.readouterr().err
    assert main(["efficiency", str(p)]) == 0, capsys.readouterr().err


def test_cli_on_one_subregion(tmp_path, capsys, monkeypatch):
    # chain10 as one subregion: run-samc runs it as plain MH, the oracle
    # reports an empty theta*, and efficiency has no covariance to compare
    def run_samc_batch(*args, **kwargs):
        pytest.fail("efficiency ran the chains of a one-subregion chain")

    monkeypatch.setattr(samcmc.harness, "run_samc_batch", run_samc_batch)
    base = chain10()
    dump_chain_file(dataclasses.replace(base, labels=np.ones(base.n_states, dtype=int),
                                        pi=np.array([1.0])), tmp_path / "chain.txt")
    p = write_config(tmp_path, "mode: samc\nk_max: 200\nreplications: 2\n"
                               f"chain_file: chain.txt\noutput_dir: {tmp_path / 'out'}\n")
    assert main(["oracle", str(p)]) == 0
    captured = capsys.readouterr()
    assert captured.out == ("omega:      [55]\ntheta_star: []\nh(0):       []\n"
                            "F(theta_star):\n\nQ(theta_star):\n\nGamma:\n\n")
    assert captured.err == ""
    assert main(["efficiency", str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: replication experiments need at least two subregions\n"
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


def test_cli_runs_samc_on_pi_at_the_sum_tolerance(tmp_path, capsys):
    # sum(pi) - 1 is -1e-12, which the chain checks accept; the update rows
    # 1[j] - pi then sum to just over 1e-12 in rounding, which is no error
    pi = np.array([0.7121610698827809, 0.09458715952291719, 0.19325177059330187])
    chain = dataclasses.replace(chain10(), pi=pi)
    assert abs(pi.sum() - 1.0) <= 1e-12 < np.abs((np.eye(3) - pi).sum(axis=1)).max()
    assert samcmc.SamcModel.from_chain(chain).m == 3
    dump_chain_file(chain, tmp_path / "chain.txt")
    p = write_config(tmp_path, "mode: samc\nk_max: 2000\nseed: 2\n"
                               f"chain_file: chain.txt\noutput_dir: {tmp_path / 'out'}\n")
    assert main(["run-samc", str(p)]) == 0
    assert "seed 2: 2000 iterations" in capsys.readouterr().out
    assert (tmp_path / "out" / "summary_samc_2.json").exists()


@pytest.mark.parametrize("command, mode, message", [
    ("run-samc", "samle", "config mode is 'samle', expected 'samc'"),
    ("run-samle", "samc", "config mode is 'samc', expected 'samle'"),
    ("efficiency", "samle", "replication experiments need mode: samc"),
    ("oracle", "samle", "config mode is 'samle', expected 'samc' or 'oracle'"),
    ("oracle", "validate", "config mode is 'validate', expected 'samc' or 'oracle'"),
], ids=["run-samc-on-samle", "run-samle-on-samc", "efficiency-on-samle",
        "oracle-on-samle", "oracle-on-validate"])
def test_cli_rejects_config_of_another_mode(tmp_path, capsys, command, mode, message):
    # only samc and oracle configs name a chain for the oracle to analyse
    p = write_config(tmp_path, f"mode: {mode}\nk_max: 200\nreplications: 2\n"
                               f"output_dir: {tmp_path / 'out'}\n")
    assert main([command, str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


def test_cli_run_samle_reads_a_commented_data_file(tmp_path, capsys):
    (tmp_path / "data.txt").write_text(
        "# observations, one per line\n0.5\n\n1.5  # a trailing comment\n"
        "# between the numbers\n2.25\n")
    p = write_config(tmp_path, "mode: samle\nk_max: 200\ndata_file: data.txt\n"
                               f"output_dir: {tmp_path / 'out'}\n")
    assert main(["run-samle", str(p)]) == 0
    summary = json.loads((tmp_path / "out" / "summary_samle_0.json").read_text())
    assert summary["y_bar"] == np.mean([0.5, 1.5, 2.25])
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("text, message", [
    ("1.0\nnan\n2.0\n", "observations must be finite"),
    ("1.0\nabc\n", "could not convert string 'abc'"),
    ("# no data\n", "no observations"),
    ("1 2\n3 4\n", "expected one column of observations, found 2"),
    ("1 2\n", "expected one column of observations, found 2"),
], ids=["nan", "non-numeric", "empty", "two-columns", "one-row-two-columns"])
def test_cli_reports_bad_data_file(tmp_path, capsys, text, message):
    path = tmp_path / "data.txt"
    path.write_text(text)
    p = write_config(tmp_path, f"mode: samle\nk_max: 2000\ndata_file: data.txt\n"
                               f"output_dir: {tmp_path / 'out'}\n")
    assert main(["run-samle", str(p)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and message in err, err
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value, schedule, message", [
    ("1e308", "{}", "error: nonfinite gradient at iteration 1: grad=[inf], theta=[0.], "
                    "x=[" + " ".join(["1.e+308"] * 20) + "]\n"),
    ("5e306", "{c1: 2}", "error: nonfinite parameter update at iteration 1: "
                         "component 0 = inf\n"),
], ids=["gradient", "parameter-update"])
def test_cli_reports_a_diverging_run(tmp_path, capsys, value, schedule, message):
    # finite values, so the data file loads; the gradient's sum of 20 such
    # values overflows, or its first step at a_1 = 2 does. The suite turns
    # warnings into errors, so the model's overflow must stay silent
    (tmp_path / "data.txt").write_text(f"{value}\n" * 20)
    p = write_config(tmp_path, f"mode: samle\nk_max: 200\ndata_file: data.txt\n"
                               f"schedule: {schedule}\noutput_dir: {tmp_path / 'out'}\n")
    assert main(["run-samle", str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.err == message
    assert captured.out == ""
    assert not (tmp_path / "out").exists()
