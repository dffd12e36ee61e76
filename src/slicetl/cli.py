"""Command line entry point: baseline / train / similarity / transfer / evaluate."""

from __future__ import annotations

import argparse
import sys

from .errors import SliceTlError


def _seed(text: str) -> int:
    """An integer >= 0, as ``numpy.random.default_rng`` takes it."""

    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slicetl",
        description="Multi-cell slicing experiments: MADRL training, "
                    "inter-agent similarity, and transfer learning.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("baseline", "run the traffic-aware proportional baseline"),
        ("train", "train all per-cell TD3 agents from scratch"),
        ("similarity", "VAE similarity analysis and source selection"),
        ("transfer", "transfer.strategy to the target plus a paired-seed "
                     "scratch reference"),
        ("evaluate", "frozen-policy evaluation of a train or transfer run's agents"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True,
                       help="experiment YAML file or builtin name "
                            "(smoke3, full12)")
        p.add_argument("--seed", type=_seed, default=0,
                       help="run seed, an integer >= 0 (default 0)")
        p.add_argument("--out", required=True, help="output directory")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        from . import harness
        from .scenario import load_config

        cfg = load_config(args.config)
        if args.command == "baseline":
            harness.run_baseline(cfg, args.seed, args.out)
        elif args.command == "train":
            harness.run_madrl(cfg, args.seed, args.out)
        elif args.command == "similarity":
            _, source = harness.run_similarity(cfg, args.seed, args.out)
            print(f"selected source agent: {source}")
        elif args.command == "transfer":
            harness.run_transfer(cfg, args.seed, args.out)
        else:
            result = harness.run_evaluate(cfg, args.seed, args.out)
            print(f"mean satisfaction: {result.evaluation.rewards.mean():.4f}")
    except SliceTlError as exc:
        print(f"error [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return exc.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
