"""Command-line interface.

Subcommands:
  signal    print the signal quantities for every pass count at a group size
  simulate  run one experiment arm from a configuration file
  verify    run the independent oracle suites and fail on any mismatch
  compare   run several arms on matched seeds and emit a summary table

Exit codes: 0 on success, 1 on verification/property failure or I/O
trouble, 2 on configuration errors.
"""

from __future__ import annotations

import argparse
import sys

from .config import Arm, load_config
from .errors import ConfigError, PassbandError
from .harness import compare_arms, emit_traces, run_experiment
from .signals import group_survival_probability, reward_entropy, signal_report
from .verification import run_default_checks

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="passband",
        description="Grouped binary-reward rollout simulator with prefix "
        "replay and per-bucket pass-rate control.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_signal = sub.add_parser(
        "signal", help="print signal quantities for every pass count"
    )
    p_signal.add_argument("--n", type=int, default=8, help="group size (default 8)")

    p_sim = sub.add_parser("simulate", help="run one experiment arm")
    p_sim.add_argument("--config", required=True, help="configuration file")
    p_sim.add_argument("--out", required=True, help="output directory for traces")

    p_verify = sub.add_parser("verify", help="run the oracle suites")
    p_verify.add_argument("--seed", type=int, default=0)

    p_cmp = sub.add_parser("compare", help="run arms on matched seeds")
    p_cmp.add_argument("--config", required=True, help="configuration file")
    p_cmp.add_argument("--out", required=True, help="output directory")
    p_cmp.add_argument(
        "--arms",
        default="all",
        help="'all' or a comma-separated subset of "
        + ",".join(a.value for a in Arm),
    )
    p_cmp.add_argument(
        "--seeds",
        type=int,
        default=5,
        help="number of matched seeds, starting at the configured seed",
    )
    return parser


def _cmd_signal(args) -> int:
    n = args.n
    if n < 2:
        raise ConfigError("--n must be >= 2")
    print(f"signal quantities at group size N={n}")
    header = f"{'k':>3} {'entropy_bits':>13} {'survival':>10} " \
             f"{'rloo_energy':>12} {'pairs':>6} {'relative':>9}"
    print(header)
    for k in range(n + 1):
        rep = signal_report(k, n)
        print(
            f"{k:>3} {rep.entropy_bits:>13.6f} {rep.survival_prob:>10.6f} "
            f"{rep.rloo_energy:>12.6f} {rep.pair_count:>6d} "
            f"{rep.pair_count_relative:>9.4f}"
        )
    print("reference values:")
    for p in (0.5, 0.25, 0.125):
        print(
            f"  p={p:<6} entropy {reward_entropy(p):.4f} bits, "
            f"survival {group_survival_probability(p, n):.4f}"
        )
    return 0


def _cmd_simulate(args) -> int:
    config = load_config(args.config)
    result = run_experiment(config)
    paths = emit_traces(result, args.out)
    for path in paths:
        print(f"wrote {path}")
    return 0


def _cmd_verify(args) -> int:
    if args.seed < 0:
        raise ConfigError("--seed must be >= 0")
    results = run_default_checks(seed=args.seed)
    failed = False
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        failed = failed or not res.passed
        print(f"{status} {res.name}: {res.detail}")
    return 1 if failed else 0


def _parse_arms(raw: str) -> tuple[Arm, ...]:
    if raw == "all":
        return tuple(Arm)
    arms = []
    for part in raw.split(","):
        part = part.strip()
        try:
            arm = Arm(part)
        except ValueError:
            raise ConfigError(f"unknown arm {part!r}") from None
        if arm in arms:
            raise ConfigError(f"arm {part!r} is listed twice")
        arms.append(arm)
    return tuple(arms)


def _cmd_compare(args) -> int:
    config = load_config(args.config)
    arms = _parse_arms(args.arms)
    if args.seeds < 1:
        raise ConfigError("--seeds must be >= 1")
    seeds = [config.seed + i for i in range(args.seeds)]
    rows = compare_arms(config, seeds, destination=args.out, arms=arms)
    print(f"{'arm':<18} {'seed':>5} {'valid/step':>11} "
          f"{'fresh_degen':>12} {'re_degen':>9}")
    for row in rows:
        re_degen = row["rerollout_degenerate_share"]
        re_txt = "-" if re_degen != re_degen else f"{re_degen:.4f}"
        print(
            f"{row['arm']:<18} {row['seed']:>5} "
            f"{row['mean_valid_groups']:>11.3f} "
            f"{row['fresh_degenerate_share']:>12.4f} {re_txt:>9}"
        )
    print(f"summary written under {args.out}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "signal": _cmd_signal,
        "simulate": _cmd_simulate,
        "verify": _cmd_verify,
        "compare": _cmd_compare,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except PassbandError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
