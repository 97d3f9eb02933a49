"""Command-line front end.

Subcommands: validate (schedule check, exit 0 iff every clause passes),
run-samc, run-samle, oracle (exact quantities for a finite chain), and
efficiency (replication study of the averaged estimator).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .harness import (
    ConfigError,
    load_chain,
    load_config,
    run_replications,
    run_single,
    write_outputs,
)
from .oracle import (_scaled_omega, exact_omega, jacobian, mean_field,
                     noise_covariance, theta_star)
from .sa import NonFiniteIterateError, ScheduleValidationError, validate_schedule
from .samle import NonFiniteGradientError


def _fmt_vec(v) -> str:
    return "[" + ", ".join(format(float(x), ".12g") for x in np.atleast_1d(v)) + "]"


def _fmt_mat(m) -> str:
    m = np.atleast_2d(m)
    return "\n".join("    " + _fmt_vec(row) for row in m)


def _cmd_validate(args) -> int:
    print(validate_schedule(load_config(args.config).schedule))
    return 0


def _cmd_run(args) -> int:
    config = load_config(args.config)
    mode = args.command.removeprefix("run-")
    if config.mode != mode:
        raise ConfigError(f"config mode is {config.mode!r}, expected {mode!r}")
    trace, summary = run_single(config)
    paths = write_outputs(trace, config.output_dir, summary=summary)
    print(f"seed {trace.seed}: {trace.k} iterations, "
          f"{len(trace.sigma_events)} truncation events")
    print(f"theta_bar (k0={summary['k0']}): "
          f"{_fmt_vec(summary['theta_bar_burnin'])}")
    if "omega_hat" in summary:
        print(f"omega_hat: {_fmt_vec(summary['omega_hat'])}")
        print(f"pi_hat:    {_fmt_vec(summary['pi_hat'])}")
    if "y_bar" in summary:
        print(f"y_bar (exact MLE): {summary['y_bar']:.12g}")
    for p in paths:
        print(f"wrote {p}")
    return 0


def _cmd_oracle(args) -> int:
    chain = load_chain(load_config(args.config))
    omega = _scaled_omega(chain)
    tstar = theta_star(omega, chain.pi)
    zero = np.zeros(chain.m - 1)
    nc = noise_covariance(chain, tstar)
    print(f"omega:      {_fmt_vec(exact_omega(chain))}")
    print(f"theta_star: {_fmt_vec(tstar)}")
    print(f"h(0):       {_fmt_vec(mean_field(zero, omega, chain.pi))}")
    print("F(theta_star):")
    print(_fmt_mat(jacobian(tstar, omega, chain.pi)))
    print("Q(theta_star):")
    print(_fmt_mat(nc.q_matrix))
    print("Gamma:")
    print(_fmt_mat(nc.gamma))
    return 0


def _cmd_efficiency(args) -> int:
    config = load_config(args.config)
    report = run_replications(config)
    paths = write_outputs(report, config.output_dir)
    print(f"replications: {report.replications}, k_max: {report.k_max}")
    print("empirical k*Cov(theta_bar):")
    print(_fmt_mat(report.empirical_cov))
    print("oracle Gamma:")
    print(_fmt_mat(report.oracle_gamma))
    print(f"frobenius_rel_err: {report.frobenius_rel_err:.6g}")
    last = np.trace(report.last_iterate_cov)
    print("trace ratio (averaged/last): " + (
        f"{np.trace(report.empirical_cov) / last:.6g}" if last > 0
        else "undefined, as every replication ends at the same point"))
    for p in paths:
        print(f"wrote {p}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="samcmc",
        description="Adaptive MCMC with trajectory averaging: run, validate, "
                    "and check experiments against exact finite-chain answers.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler, help_text in [
        ("validate", _cmd_validate, "check the gain schedule conditions and exit"),
        ("run-samc", _cmd_run, "run one adaptive flat-histogram chain"),
        ("run-samle", _cmd_run, "run one missing-data maximum likelihood chain"),
        ("oracle", _cmd_oracle, "print exact quantities for the configured finite chain"),
        ("efficiency", _cmd_efficiency,
         "replication study against the exact limit covariance"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("config", help="path to a YAML experiment config")
        p.set_defaults(handler=handler)

    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ScheduleValidationError as exc:
        # validate answers with the report; a run fails with it
        if args.command == "validate":
            print(exc.report)
        else:
            print(f"{exc.report}\nerror: {exc}", file=sys.stderr)
        return 1
    except (NonFiniteIterateError, NonFiniteGradientError) as exc:
        # inputs that drive a run out of float range are at fault as a bad
        # config is; the message's arrays may span lines, its error not
        print("error: " + " ".join(str(exc).split()), file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        # a bad config, a missing or malformed input file, or a chain the
        # oracle cannot analyse: user errors, exit 2
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
