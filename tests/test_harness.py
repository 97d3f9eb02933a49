"""Config loading, run orchestration, artifacts, and the CLI front end."""

import hashlib
import json
import math
import textwrap
from pathlib import Path

import numpy as np
import pytest

from samcmc import (
    ConfigError,
    EfficiencyReport,
    OUTPUT_DIR_ENV,
    ScheduleValidationError,
    chain10,
    load_config,
    read_report,
    read_trace,
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
        ("mode: samc\nk_max: 10\nreplications: 0\n", "replications must be >= 1"),
        ("mode: samc\nk_max: 10\nsnapshot_stride: 0\n", "snapshot_stride"),
        ("mode: samc\nk_max: 10\nsweeps: 0\n", "sweeps must be >= 1"),
        ("mode: samc\nk_max: 10\nproposal_step: -0.5\n", "proposal_step"),
        ("mode: samc\nk_max: 10\nschedule: {c3: 1}\n", "unknown schedule keys: c3"),
        ("mode: samc\nk_max: 10\nschedule: {c1: -1}\n", "bad schedule field"),
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

    data = read_trace(paths[0])
    np.testing.assert_array_equal(data["k"], [1000, 2000, 3000])
    for i, snap in enumerate(trace.snapshots):
        # 17 significant digits reproduce every float64 bit for bit
        np.testing.assert_array_equal(data["theta"][i], snap.theta)
        np.testing.assert_array_equal(data["pi_hat"][i], snap.pi_hat)
        assert data["sigma"][i] == snap.sigma

    stored = json.loads(paths[1].read_text())
    assert stored == summary


def test_samle_trace_has_no_pi_columns(tmp_path):
    config = load_config(write_config(tmp_path, """\
        mode: samle
        k_max: 1500
        snapshot_stride: 1000
        schedule: {c1: 0.1}
    """))
    trace, _ = run_single(config)
    path = write_outputs(trace, tmp_path / "o")[0]
    data = read_trace(path)
    assert data["pi_hat"] is None
    np.testing.assert_array_equal(data["k"], [1000, 1500])


def test_repeat_runs_are_identical_outside_timing(tmp_path):
    config = load_config(write_config(
        tmp_path, SMALL_SAMC.format(out=tmp_path / "out")))
    trace_a, summary_a = run_single(config)
    trace_b, summary_b = run_single(config)
    summary_a.pop("timing")
    summary_b.pop("timing")
    assert summary_a == summary_b
    path_a = write_outputs(trace_a, tmp_path / "a")[0]
    path_b = write_outputs(trace_b, tmp_path / "b")[0]
    assert path_a.read_bytes() == path_b.read_bytes()


# ---------------------------------------------------------------------------
# replication studies
# ---------------------------------------------------------------------------

def test_replications_require_at_least_two(tmp_path):
    config = load_config(write_config(tmp_path, "mode: samc\nk_max: 100\n"))
    with pytest.raises(ValueError, match="need R >= 2"):
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
    back = read_report(path)
    assert isinstance(back, EfficiencyReport)
    np.testing.assert_array_equal(back.empirical_cov, report.empirical_cov)
    np.testing.assert_array_equal(back.oracle_gamma, report.oracle_gamma)
    assert back.frobenius_rel_err == report.frobenius_rel_err
    assert back.per_component_ci == report.per_component_ci
    # both scaled covariance estimates must be symmetric PSD
    for mat in (back.empirical_cov, back.last_iterate_cov):
        assert np.linalg.eigvalsh(mat).min() >= -1e-10


def test_write_outputs_rejects_unknown_payload(tmp_path):
    with pytest.raises(TypeError, match="cannot write outputs"):
        write_outputs({"not": "a trace"}, tmp_path)


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


def test_cli_run_samc_writes_artifacts(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path / "runout"))
    p = write_config(tmp_path, "mode: samc\nk_max: 2000\nseed: 2\n")
    assert main(["run-samc", str(p)]) == 0
    out = capsys.readouterr().out
    assert "seed 2: 2000 iterations" in out
    assert (tmp_path / "runout" / "trace_samc_2.csv").exists()
    assert (tmp_path / "runout" / "summary_samc_2.json").exists()

    # config mode must match the subcommand
    assert main(["run-samle", str(p)]) == 2
    assert "expected 'samle'" in capsys.readouterr().err


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
], ids=["nan-c1", "nan-theta0", "k_max-1e5", "k_max-abc", "k_max-float",
        "negative-seed", "samc-x0-range", "samc-x0-float", "samle-x0-length"])
def test_cli_reports_bad_config_values(tmp_path, capsys, mode, text, message):
    out = tmp_path / "out"
    body = text if text.startswith("k_max") else f"k_max: 1000\n{text}"
    p = write_config(tmp_path, f"mode: {mode}\n{body}\noutput_dir: {out}\n")
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


@pytest.mark.parametrize("text, message", [
    ("1.0\nnan\n2.0\n", "observations must be finite"),
    ("1.0\nabc\n", "could not convert string 'abc'"),
    ("# no data\n", "no observations"),
    ("1 2\n3 4\n", "expected one column of observations, found 2"),
], ids=["nan", "non-numeric", "empty", "two-columns"])
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
