"""The four benchmark workloads and the units of work they repeat.

A *unit* is what the closed loop issues next once the previous one has
returned: one ``run_point_trial`` call for the in-process workloads, one
pair of ``run_experiment`` sweeps for ``sweep-ib``.  Every unit's inputs
derive from the workload seed and the unit index, so the same seed replays
the same scenes.

Results are compared per (cell, algorithm, trial) as ``(ratio, ber)``
pairs: the trial's pooled NMSE error ratio and its bit error rate.  A cell
is one sweep point of one spec, labelled ``MODE/K../snr../D..``.
"""

import dataclasses
import math
import time
from dataclasses import dataclass

import numpy as np

from gridce import experiments
from gridce.experiments import ExperimentSpec

GRID_ALGORITHMS = ("MB-P", "IB-P", "MB-R", "IB-R")

#: reference scenes are synthesized from this seed, whatever --seed is
REF_SEED = 0

#: trials per sweep point in one sweep-ib unit
SWEEP_TRIALS = 4

#: sweep-ib unit i runs its specs at seed * SWEEP_SEED_STRIDE + i
SWEEP_SEED_STRIDE = 1 << 20

SCENE_10X10 = dict(grid_rows=10, grid_cols=10, n_carriers=512, sparsity=3, qam_order=4)


@dataclass(frozen=True)
class Workload:
    name: str
    sweep: bool                 # run_experiment sweeps instead of single trials
    spec_args: tuple            # one ExperimentSpec keyword dict per spec
    ref_trials: int             # reference trials per cell in the quality pass
    trace_units: int            # units per traced pass

    def specs(self, seed: int) -> tuple:
        return tuple(ExperimentSpec(seed=seed, **args) for args in self.spec_args)

    def cells(self, specs) -> list:
        """(label, spec, point_index, point) for every sweep point."""
        out = []
        for spec in specs:
            points = [(k, s, d) for k in spec.n_pilots for s in spec.snr_db
                      for d in spec.depth]
            for point_index, (k, snr, d) in enumerate(points):
                label = f"{spec.mode}/K{k}/snr{snr}/D{d}"
                out.append((label, spec, point_index, (k, snr, d)))
        return out

    def quality_algorithms(self) -> tuple:
        """The four grid algorithms plus any baselines the workload runs."""
        own = (a for spec in self.spec_args for a in spec["algorithms"])
        return tuple(dict.fromkeys(GRID_ALGORITHMS + tuple(own)))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="desk10", sweep=False, ref_trials=2, trace_units=3,
            spec_args=(dict(
                SCENE_10X10, channel_len=64, n_pilots=(16,), snr_db=(10.0,),
                depth=(3,), mode="SIA", algorithms=experiments.ALGORITHMS,
                trials=1,
            ),),
        ),
        Workload(
            name="paper20", sweep=False, ref_trials=1, trace_units=2,
            spec_args=(dict(
                SCENE_10X10, grid_rows=20, grid_cols=20, channel_len=64,
                n_pilots=(16,), snr_db=(20.0,), depth=(3,), mode="SIA",
                algorithms=("MB-R", "IB-R", "IB-P"), trials=1,
            ),),
        ),
        Workload(
            name="starved10", sweep=False, ref_trials=2, trace_units=3,
            spec_args=(dict(
                SCENE_10X10, channel_len=64, n_pilots=(6,), snr_db=(10.0,),
                depth=(3,), mode="SIA", power_profile="geometric",
                algorithms=("MB-R", "IB-R"), trials=1,
            ),),
        ),
        Workload(
            name="sweep-ib", sweep=True, ref_trials=1, trace_units=1,
            spec_args=tuple(
                dict(SCENE_10X10, channel_len=32, n_pilots=(8,), snr_db=(15.0,),
                     algorithms=("IB-P",), trials=SWEEP_TRIALS, workers=2, **axes)
                for axes in (dict(mode="SIA", depth=(1, 2, 3)),
                             dict(mode="SVA", drift=0.5, depth=(1, 5)))
            ),
        ),
    )
}


@dataclass
class UnitResult:
    trials: int
    entries: dict               # cell -> algorithm -> [(ratio, ber), ...]
    attempted: int              # (trial, algorithm) estimates
    failed: int                 # of those: worst-case fallbacks or invalid values
    busy_s: float = 0.0         # per-trial wall time summed (run_point_trial calls or rows)


def _trial_entries(label, outcome) -> tuple:
    """Entries of one run_point_trial result plus its count of failed estimates."""
    entries, failed = {label: {}}, 0
    for algorithm, (ratio, errors, total, _) in outcome.items():
        valid = math.isfinite(ratio) and 0 <= errors <= total and total > 0
        fallback = ratio == 1.0 and errors == total  # worst-case scoring
        failed += not valid or fallback
        entries[label][algorithm] = [(ratio, errors / total if total else 1.0)]
    return entries, failed


def run_trial(workload: Workload, specs, trial: int) -> UnitResult:
    """One in-process run_point_trial on the workload's single cell."""
    ((label, spec, point_index, point),) = workload.cells(specs)
    start = time.perf_counter()
    outcome = experiments.run_point_trial(spec, point_index, point, trial)
    busy_s = time.perf_counter() - start
    entries, failed = _trial_entries(label, outcome)
    return UnitResult(trials=1, entries=entries, attempted=len(outcome),
                      failed=failed, busy_s=busy_s)


def run_sweep(workload: Workload, specs) -> UnitResult:
    """One run_experiment per spec; rows are checked for range only, because
    per-trial outcomes stay inside run_experiment."""
    result = UnitResult(trials=0, entries={}, attempted=0, failed=0)
    for spec in specs:
        rows = experiments.run_experiment(spec)
        cells = workload.cells([spec])
        if len(rows) != len(cells) * len(spec.algorithms):
            raise RuntimeError(f"run_experiment returned {len(rows)} rows")
        for row in rows:
            label = next(c[0] for c in cells if c[3] == (row.n_pilots, row.snr_db, row.depth))
            ratio = 10.0 ** (row.nmse_db / 10.0)
            result.entries.setdefault(label, {})[row.algorithm] = [(ratio, row.ber)]
            result.attempted += row.trials
            if not (math.isfinite(row.nmse_db) and 0.0 <= row.ber < 1.0
                    and row.trials == spec.trials):
                result.failed += row.trials
            result.busy_s += row.wall_time_s
        result.trials += len(cells) * spec.trials
    return result


def run_unit(workload: Workload, seed: int, index: int, workers: int | None = None) -> UnitResult:
    """Unit ``index`` of the closed loop for workload seed ``seed``."""
    if not workload.sweep:
        return run_trial(workload, workload.specs(seed), index)
    specs = workload.specs(seed * SWEEP_SEED_STRIDE + index)
    if workers is not None:
        specs = tuple(dataclasses.replace(s, workers=workers) for s in specs)
    return run_sweep(workload, specs)


def warm_up(workload: Workload) -> UnitResult:
    """The workload's unit on reference trial 0 (one trial per sweep point)."""
    specs = workload.specs(REF_SEED)
    if not workload.sweep:
        return run_trial(workload, specs, 0)
    return run_sweep(workload, tuple(dataclasses.replace(s, trials=1) for s in specs))


def quality_pass(workload: Workload) -> UnitResult:
    """Reference trials 0..ref_trials-1 of every cell.  The first cell is
    scored for the four grid algorithms and the workload's baselines, the
    other cells for the workload's own algorithms."""
    result = UnitResult(trials=0, entries={}, attempted=0, failed=0)
    cells = workload.cells(workload.specs(REF_SEED))
    for label, spec, point_index, point in cells:
        if label == cells[0][0]:
            spec = dataclasses.replace(spec, algorithms=workload.quality_algorithms())
        for trial in range(workload.ref_trials):
            outcome = experiments.run_point_trial(spec, point_index, point, trial)
            entries, failed = _trial_entries(label, outcome)
            for algorithm, values in entries[label].items():
                result.entries.setdefault(label, {}).setdefault(algorithm, []).extend(values)
            result.trials += 1
            result.attempted += len(outcome)
            result.failed += failed
    return result


def pooled_quality(entries: dict) -> dict:
    """Per algorithm: trial-averaged error ratio and mean BER over all cells."""
    per_algorithm = {}
    for by_algorithm in entries.values():
        for algorithm, values in by_algorithm.items():
            per_algorithm.setdefault(algorithm, []).extend(values)
    return {
        algorithm: (float(np.mean([v[0] for v in values])),
                    float(np.mean([v[1] for v in values])))
        for algorithm, values in per_algorithm.items()
    }


def reference_mismatches(entries: dict, reference: dict, tolerance: dict) -> list:
    """(cell, algorithm, trial, got, want) for every entry outside tolerance.

    Entries are matched to the reference by position, so a warm-up holding
    only trial 0 compares against the first reference trial.
    """
    out = []
    for label, by_algorithm in entries.items():
        for algorithm, values in by_algorithm.items():
            want_values = reference.get(label, {}).get(algorithm, [])
            for trial, got in enumerate(values):
                want = want_values[trial] if trial < len(want_values) else None
                if want is None or not (
                    abs(got[0] - want[0]) <= tolerance["ratio_rel"] * abs(want[0])
                    and abs(got[1] - want[1]) <= tolerance["ber_abs"]
                ):
                    out.append((label, algorithm, trial, got, want))
    return out
