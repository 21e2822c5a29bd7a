"""Command-line entry points.

Subcommands:
  experiment <id>    run one of the five preset experiments, write CSVs
  estimate           run a single synthesized trial and print the metrics
  generate-channels  write the channels of sweep point 0, trial 0 to CSV

A JSON file mirroring the ExperimentSpec fields can be passed with
--config; individual flags override it.  The two subcommands that write
files take --out, the output directory.  Exit code is 0 on success and 2
on configuration or I/O errors.
"""

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .channels import channels_to_csv
from .errors import ConfigurationError
from .experiments import (
    ExperimentSpec,
    emit_results,
    experiment_presets,
    nmse_db_from_ratios,
    run_experiment,
    run_point_trial,
    scene_channels,
)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="gridce",
        description="Distributed sparse channel estimation experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    exp = sub.add_parser("experiment", help="run a preset experiment sweep")
    exp.add_argument("id", type=int, choices=range(1, 6))
    _common_flags(exp)
    exp.add_argument("--trials", type=int, default=None)
    exp.add_argument("--workers", type=int, default=None)
    exp.add_argument("--grid", type=int, default=None, metavar="SIDE",
                     help="override the grid to SIDE x SIDE")

    est = sub.add_parser("estimate", help="run one trial and print metrics")
    _common_flags(est)

    gen = sub.add_parser("generate-channels", help="write a channel realization CSV")
    _common_flags(gen)

    for writer in (exp, gen):
        writer.add_argument("--out", type=Path, default=Path("."), help="output directory")
    return parser


def _common_flags(sub):
    sub.add_argument("--config", type=Path, default=None,
                     help="JSON file mirroring ExperimentSpec fields")
    sub.add_argument("--seed", type=int, default=None)


def _load_spec(args, defaults: ExperimentSpec | None = None) -> ExperimentSpec:
    if args.config is not None:
        spec = ExperimentSpec.from_file(args.config)
    elif defaults is not None:
        spec = defaults
    else:
        spec = ExperimentSpec(
            grid_rows=5, grid_cols=5, trials=1,
            algorithms=("MB-P", "IB-P", "MB-R", "IB-R", "oracle-LS"),
        )
    grid = getattr(args, "grid", None)
    overrides = dict(seed=args.seed, trials=getattr(args, "trials", None),
                     workers=getattr(args, "workers", None), grid_rows=grid, grid_cols=grid)
    overrides = {name: value for name, value in overrides.items() if value is not None}
    return dataclasses.replace(spec, **overrides) if overrides else spec


def _cmd_experiment(args) -> int:
    presets = [None] if args.config is not None else experiment_presets(args.id)
    # every spec is built, and so checked, before the output directory exists
    specs = [_load_spec(args, defaults=preset) for preset in presets]
    args.out.mkdir(parents=True, exist_ok=True)
    for index, spec in enumerate(specs):
        rows = run_experiment(spec)
        suffix = f"_{index}" if len(specs) > 1 else ""
        written = emit_results(rows, args.out / f"experiment{args.id}{suffix}.csv", spec=spec)
        print(f"wrote {written[0]} ({len(rows)} rows)")
    return 0


def _cmd_estimate(args) -> int:
    spec = _load_spec(args)
    point = (spec.n_pilots[0], spec.snr_db[0], spec.depth[0])
    results = run_point_trial(spec, 0, point, trial=0)
    print(f"K={point[0]} snr={point[1]} dB D={point[2]} mode={spec.mode}")
    for name, (ratio, errors, total, seconds) in results.items():
        nmse = nmse_db_from_ratios([ratio])
        ber = errors / total if total else 0.0
        print(f"  {name:10s} nmse={nmse:8.2f} dB  ber={ber:.4f}  ({seconds:.2f}s)")
    return 0


def _cmd_generate_channels(args) -> int:
    spec = _load_spec(args)
    taps = scene_channels(spec, 0, 0)
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / "channels.csv"
    channels_to_csv(taps, path)
    print(f"wrote {path}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "experiment":
            return _cmd_experiment(args)
        if args.command == "estimate":
            return _cmd_estimate(args)
        if args.command == "generate-channels":
            return _cmd_generate_channels(args)
    except (ConfigurationError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
