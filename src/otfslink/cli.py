"""Command line front end: BER sweeps and channel-structure inspection.

Exit codes: 0 on success, 1 for configuration or usage errors, 2 when a
numerical step fails (for example a singular equalization system).
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import harness


class _Parser(argparse.ArgumentParser):
    # route argparse failures through our exit-code policy, as usage errors
    def error(self, message: str):
        raise ValueError(message)


def _add_source_options(parser: argparse.ArgumentParser) -> None:
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--config", metavar="FILE", help="experiment config JSON")
    source.add_argument(
        "--preset", choices=sorted(harness.PRESETS), help="built-in configuration"
    )
    parser.add_argument("--seed", type=int, help="override the base seed")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="otfs-link", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a BER sweep and write a CSV")
    _add_source_options(run)
    run.add_argument("--out", default="results.csv", metavar="FILE")
    run.add_argument("--trials", type=int, help="override trials per sweep point")
    run.add_argument(
        "--equalizers",
        metavar="A,B,...",
        help=f"comma-separated subset of {', '.join(harness.EQUALIZER_NAMES)}",
    )
    run.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="processes that run trials; N-1 are forked",
    )

    inspect = sub.add_parser(
        "inspect-channel",
        help="write |H| of one equivalent delay-Doppler channel's taps as CSV",
    )
    _add_source_options(inspect)
    inspect.add_argument("--doppler", type=float, required=True, metavar="HZ")
    inspect.add_argument("--out", default="channel.csv", metavar="FILE")
    return parser


def _load_config(args: argparse.Namespace) -> harness.ExperimentConfig:
    if args.config is not None:
        config = harness.load_experiment_config(args.config)
    else:
        config = harness.PRESETS[args.preset]()
    equalizers = None
    if getattr(args, "equalizers", None) is not None:
        equalizers = tuple(s.strip() for s in args.equalizers.split(",") if s.strip())
    return harness.with_overrides(
        config,
        seed=args.seed,
        trials=getattr(args, "trials", None),
        equalizers=equalizers,
    )


def _note_fast_fading(doppler_hz_list: tuple[float, ...], duration: float) -> None:
    """Name on one stderr line each Doppler ``f`` at which the channel
    varies substantially within one frame of ``duration`` seconds, ``f *
    duration >= 0.5``.  That is the regime the two-stage receiver is built
    for, so this is a note, not a warning."""
    fast = [f"{f:g} Hz ({f * duration:.3g})" for f in doppler_hz_list if f * duration >= 0.5]
    if fast:
        print(f"note: fast fading (fd*T >= 0.5) at {', '.join(fast)}", file=sys.stderr)


def _cmd_run(args: argparse.Namespace) -> None:
    config = _load_config(args)
    # the CSV is written after the sweep; a path it cannot take fails first
    if os.path.isdir(args.out) or not os.path.isdir(os.path.dirname(args.out) or "."):
        raise ValueError(f"--out {args.out} must name a file in an existing directory")
    _note_fast_fading(config.doppler_hz_list, config.frame.frame_duration)
    records = harness.run_sweep(config, workers=args.workers)
    harness.emit_csv(records, args.out)
    points = len(config.snr_db_list) * len(config.doppler_hz_list)
    print(
        f"wrote {len(records)} records ({points} sweep points x "
        f"{len(config.equalizers)} equalizers) to {args.out}"
    )


def _cmd_inspect(args: argparse.Namespace) -> None:
    config = _load_config(args)
    rows = harness.inspect_channel(config, args.doppler, args.out)
    _note_fast_fading((args.doppler,), config.frame.frame_duration)
    print(f"wrote {rows} coupling taps (doppler {args.doppler:g} Hz) to {args.out}")


def main(argv: "list[str] | None" = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "run":
            _cmd_run(args)
        else:
            _cmd_inspect(args)
    except np.linalg.LinAlgError as err:
        print(f"numerical error: {err}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
