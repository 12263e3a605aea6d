"""Command line interface: ``nystromngd run|spectrum <config> [options]``."""

from __future__ import annotations

import argparse
import json
from dataclasses import replace

from .harness import dump_spectrum, load_config, run_experiment


def int_at_least(low):
    def integer(text):  # argparse names it in "invalid integer value"
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {text}")
        return int(text)
    return integer


def build_parser():
    parser = argparse.ArgumentParser(
        prog="nystromngd",
        description="Train small neural PDE solvers with Nystrom-preconditioned "
        "natural gradient descent and baselines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("config", help="path to a flat key = value config file")
    common.add_argument("--out", metavar="DIR", help="override the output directory")
    common.add_argument("--seed", type=int_at_least(0), help="override the base seed (>= 0)")

    sub.add_parser("run", parents=[common], help="run an experiment from a config file")
    spect = sub.add_parser(
        "spectrum",
        parents=[common],
        help="dump the normalized Gramian spectrum at initialization",
    )
    spect.add_argument("--top", type=int_at_least(1), help="keep only the top K >= 1 values")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    config = load_config(args.config)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    if args.command == "run":
        summary = run_experiment(config, out_dir=args.out)
        print(json.dumps(summary, indent=2))
    else:
        ratios = dump_spectrum(config, out_dir=args.out, top=args.top)
        print(f"wrote {ratios.shape[0]} spectrum values")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
