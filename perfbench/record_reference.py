"""Re-record reference.json: per (workload, cell, algorithm, trial) outcomes
of the reference scenes at the current commit.

    python3 perfbench/record_reference.py

Run from the repository root.  Only re-record when a change is meant to
alter estimates; the file is the yardstick every benchmark run checks.
"""

import json
import sys

import run  # pins BLAS threads before numpy loads

TOLERANCE = {
    # relative change of a trial's NMSE error ratio that summation-order
    # changes may cause (a batched-solver prototype differed by ~1e-15)
    "ratio_rel": 1e-6,
    # absolute change of a trial's bit error rate (a few flipped decisions)
    "ber_abs": 1e-4,
}


def main() -> int:
    if not run.import_package():
        return 2
    import workloads as wl

    out = {"ref_seed": wl.REF_SEED, "tolerance": TOLERANCE, "workloads": {}}
    for name, workload in wl.WORKLOADS.items():
        result = wl.quality_pass(workload)
        if result.failed:
            print(f"{name}: {result.failed} failed estimates", file=sys.stderr)
            return 1
        out["workloads"][name] = result.entries
        print(f"{name}: {result.trials} reference trials", file=sys.stderr)
    path = run.BENCH_DIR / "reference.json"
    path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
