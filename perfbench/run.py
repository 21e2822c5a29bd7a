"""gridce Monte-Carlo trial benchmark.

    python3 perfbench/run.py --workload desk10 --seed 1 --seconds 20 --trace 0

Run from the repository root; the package is imported from ``src/``.  With
``--trace 0`` the run sets up (imports, spec construction, one warm-up unit
on the reference scene; repeated and the median kept), scores the reference
scenes against ``reference.json``, then drives the workload as a closed loop
for ``--seconds`` and prints the end-to-end metrics.  With ``--trace 1`` it
replays the first units of the seed once untraced and twice with spans
installed (see spans.py) and prints the per-layer metrics.

The last stdout line is the JSON result; the line before it records the
machine and library versions.  Details and mismatches go to stderr.
"""

import time

T0 = time.perf_counter()

import os  # noqa: E402

# before numpy loads; pool workers inherit the environment, so this pins
# their BLAS too
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_package():
    """Import gridce from this checkout's src/; returns False when absent."""
    if not (SRC / "gridce" / "__init__.py").is_file():
        print(f"no gridce package under {SRC}; run from a full checkout", file=sys.stderr)
        return False
    sys.path.insert(0, str(SRC))
    import gridce

    if Path(gridce.__file__).resolve().parent != SRC / "gridce":
        print(f"gridce imported from {gridce.__file__}, not {SRC}", file=sys.stderr)
        return False
    return True


def main(argv=None) -> int:
    args = parse_args(argv)
    if not import_package():
        return 2
    import measure
    import workloads

    import_s = time.perf_counter() - T0
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        measure.log(f"unknown workload {args.workload!r}; "
                    f"choose from {sorted(workloads.WORKLOADS)}")
        return 2
    reference = json.loads((BENCH_DIR / "reference.json").read_text())
    reference = {"tolerance": reference["tolerance"],
                 "cells": reference["workloads"][workload.name]}

    checks = measure.Checks()
    setup_s = measure.set_up(workload, import_s, checks, reference)
    quality_metrics = measure.quality(workload, checks, reference)
    if args.trace:
        metrics = measure.per_layer(workload, args.seed, checks)
        section = "per_layer"
    else:
        metrics = {
            "trials_per_s": (
                measure.closed_loop(workload, args.seed, args.seconds, checks), "trials/s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (measure.peak_rss_mib(), "MiB"),
            **quality_metrics,
        }
        section = "end_to_end"
    measure.check_units(metrics, section, checks)
    for problem in checks.problems:
        measure.log(f"CHECK FAILED: {problem}")

    print(json.dumps({"environment": measure.environment(), "workload": workload.name,
                      "seed": args.seed}))
    print(json.dumps({
        "correct": not checks.problems and checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
