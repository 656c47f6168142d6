"""Command-line interface.

Subcommands:
  run        integrate one trajectory, write trace.csv + final.lcsf
  twin       integrate two trajectories in lockstep, write twin.csv + checks
  verify     run the inequality/identity verifier ensembles, write CSV verdicts
  decompose  dyadic block spectrum of a snapshot or the configured initial state

run, twin and decompose take --seed to override [initial] seed; verify has
no --seed and draws its ensembles from [verify] seed.

Exit codes: 0 success, 2 configuration error (non-finite numbers and
negative seeds included), snapshot error or an output directory that cannot
be created, 3 numeric divergence during time stepping, 4 a verification
verdict failed.
"""

from __future__ import annotations

import argparse
import sys

from . import experiments
from .configio import ConfigError, parse_config
from .dynamics import DivergenceError
from .snapshots import SnapshotFormatError, SnapshotSizeError


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="nematicflow",
        description="Pseudo-spectral simulator and verification harness "
                    "for a periodic liquid-crystal flow model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, seed=True):
        p.add_argument("--config", required=True, help="path to a config file")
        p.add_argument("--out", default=None,
                       help="output directory (default: [output] dir)")
        if seed:
            p.add_argument("--seed", type=int, default=None,
                           help="override the configured initial-data seed")
        p.add_argument("--quiet", action="store_true",
                       help="suppress progress output")

    add_common(sub.add_parser("run", help="integrate one trajectory"))
    add_common(sub.add_parser("twin", help="integrate and compare two "
                                           "trajectories"))
    p_verify = sub.add_parser("verify", help="run verification ensembles")
    add_common(p_verify, seed=False)
    p_verify.add_argument("--checks", default="all",
                          help="comma-separated subset: bernstein, sn_linf, "
                               "sobolev, product, commutator, tails, cancel, "
                               "skew, osgood, all")
    p_decompose = sub.add_parser("decompose", help="dyadic block spectrum")
    add_common(p_decompose)
    p_decompose.add_argument("--snapshot", default=None,
                             help="snapshot file to decompose (default: the "
                                  "configured initial state)")
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = parse_config(args.config)
        out = config.output_dir if args.out is None else args.out
        if args.command == "run":
            experiments.run_experiment(config, out,
                                       seed_override=args.seed,
                                       quiet=args.quiet)
        elif args.command == "twin":
            experiments.twin_experiment(config, out,
                                        seed_override=args.seed,
                                        quiet=args.quiet)
        elif args.command == "verify":
            checks = tuple(c.strip() for c in args.checks.split(",")
                           if c.strip())
            ok = experiments.verify_experiment(config, out,
                                               checks=checks,
                                               quiet=args.quiet)
            if not ok:
                print("verification failed", file=sys.stderr)
                return 4
        elif args.command == "decompose":
            experiments.decompose_experiment(config, out,
                                             snapshot_path=args.snapshot,
                                             seed_override=args.seed,
                                             quiet=args.quiet)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (SnapshotFormatError, SnapshotSizeError) as exc:
        print(f"snapshot error: {exc}", file=sys.stderr)
        return 2
    except DivergenceError as exc:
        print(f"numeric divergence: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
