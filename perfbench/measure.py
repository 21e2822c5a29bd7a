"""Measurement phases of the benchmark: set-up, quality pass, closed loop,
traced replay, and the self-checks.  ``run.py`` is the entry point."""

import json
import os
import platform
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np

import calibrate
import spans
import workloads as wl

ROOT = Path(__file__).resolve().parent.parent

#: warm-up set-ups per run; setup_s is their median
SETUP_REPEATS = 3

QUALITY_NMSE = ("MB-P", "MB-R", "IB-P", "IB-R")
QUALITY_BER = ("MB-R", "IB-R", "IB-P")


def log(message):
    print(message, file=sys.stderr, flush=True)


def clear_caches():
    """Empty every lru_cache in the package, so each set-up starts cold."""
    for module in [m for name, m in sys.modules.items() if name.startswith("gridce")]:
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_version = "unknown"
    return {
        "cpu_count": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "blas_threads": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
    }


def peak_rss_mib() -> float:
    """Peak RSS of this process plus the largest reaped child (Linux: KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


class Checks:
    """Attempted and failed (trial, algorithm) estimates, plus a message for
    every failure and every self-check that did not hold."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, result, what):
        self.attempted += result.attempted
        self.failed += result.failed
        if result.failed:
            self.problems.append(f"{what}: {result.failed} failed estimates")

    def against_reference(self, entries, reference, what):
        for label, algorithm, trial, got, want in wl.reference_mismatches(
            entries, reference["cells"], reference["tolerance"]
        ):
            self.failed += 1
            self.problems.append(
                f"{what}: {label} {algorithm} trial {trial} (ratio, ber) = {got}, "
                f"reference {want}"
            )


def probe_for(workload) -> calibrate.Probe:
    """The speed probe shaped like the workload's unit (see calibrate.py)."""
    return calibrate.Probe(max(spec.workers for spec in workload.specs(wl.REF_SEED)))


def set_up(workload, import_s, checks, reference):
    """SETUP_REPEATS cold set-ups; returns the median set-up seconds, at
    reference speed (see closed_loop)."""
    probe = probe_for(workload)
    probe.seconds()  # the first call pays numpy's own lazy set-up
    probe_s = [probe.seconds()]
    seconds, scaled, results = [], [], []
    for _ in range(SETUP_REPEATS):
        clear_caches()
        start = time.perf_counter()
        result = wl.warm_up(workload)
        seconds.append(import_s + time.perf_counter() - start)
        probe_s.append(probe.seconds())
        scaled.append(probe.at_reference_speed(seconds[-1], (probe_s[-2] + probe_s[-1]) / 2))
        results.append(result)
        checks.add(result, "warm-up")
    checks.against_reference(results[0].entries, reference, "warm-up")
    if any(r.entries != results[0].entries for r in results):
        checks.problems.append("warm-up outputs differ between repeats")
    log(f"setup_s each: {[round(s, 4) for s in seconds]} measured, "
        f"{[round(s, 4) for s in scaled]} reported (imports {import_s:.4f})")
    return statistics.median(scaled)


def quality(workload, checks, reference) -> dict:
    result = wl.quality_pass(workload)
    checks.add(result, "quality pass")
    checks.against_reference(result.entries, reference, "quality pass")
    pooled = wl.pooled_quality(result.entries)
    for algorithm, (ratio, ber) in pooled.items():
        log(f"reference scenes {algorithm}: nmse {ratio:.6g} ber {ber:.6g} "
            f"over {result.trials} trials")
    metrics = {f"nmse.{a}": (pooled[a][0], "ratio") for a in QUALITY_NMSE}
    metrics.update({f"ber.{a}": (pooled[a][1], "ratio") for a in QUALITY_BER})
    return metrics


def closed_loop(workload, seed, seconds, checks) -> float:
    """Units back to back until ``seconds`` pass; returns the median over
    units of trials per second.

    Each unit is scaled to reference speed by the speed probe run between
    units (the mean of the probes on either side).  An in-process unit is
    probed by the kernel in this process, a sweep unit by a worker pool of
    its own size running the kernel (see calibrate.py).
    """
    probe = probe_for(workload)
    trials, rates, scaled = 0, [], []
    probe_s = [probe.seconds()]
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        unit_start = time.perf_counter()
        result = wl.run_unit(workload, seed, len(rates))
        unit_s = time.perf_counter() - unit_start
        probe_s.append(probe.seconds())
        rates.append(result.trials / unit_s)
        scaled.append(result.trials / probe.at_reference_speed(
            unit_s, (probe_s[-2] + probe_s[-1]) / 2))
        checks.add(result, f"unit {len(rates) - 1}")
        trials += result.trials
    elapsed = time.perf_counter() - start
    log(f"closed loop: {len(rates)} units, {trials} trials in {elapsed:.3f} s; "
        f"median trials/s {statistics.median(rates):.4f} measured, "
        f"{statistics.median(scaled):.4f} reported; median probe "
        f"{statistics.median(probe_s):.5f} s (reference {probe.reference_s} s, "
        f"{probe.workers} worker(s))")
    log(f"trials/s per unit measured {[round(r, 4) for r in rates]}, "
        f"reported {[round(r, 4) for r in scaled]}")
    return statistics.median(scaled)


def timed_pass(workload, seed, checks, tracer=None, workers=None):
    """The first trace_units units of the seed; returns (wall s, trials, busy s)."""
    trials, busy = 0, 0.0
    start = time.perf_counter()
    with tracer if tracer is not None else nullcontext():
        for index in range(workload.trace_units):
            result = wl.run_unit(workload, seed, index, workers=workers)
            checks.add(result, f"trace unit {index}")
            trials += result.trials
            busy += result.busy_s
    return time.perf_counter() - start, trials, busy


def _share(part, whole):
    return part / whole if whole else 0.0


def per_layer(workload, seed, checks) -> dict:
    """Replay the seed's first units untraced, then twice traced; the
    per-layer metrics, per trial unless the unit says otherwise."""
    # spans only see this process, so sweeps are traced with one worker
    serial = 1 if workload.sweep else None
    workers = workload.specs(seed)[0].workers
    plain_wall, trials, busy_s = timed_pass(workload, seed, checks, workers=serial)
    busy_wall = plain_wall
    if workers > 1:
        busy_wall, _, busy_s = timed_pass(workload, seed, checks)
        log(f"sweep: {trials / busy_wall:.3f} trials/s with {workers} workers, "
            f"{trials / plain_wall:.3f} trials/s serial")
    tracers = [spans.Tracer(), spans.Tracer()]
    traced_wall = [timed_pass(workload, seed, checks, t, serial)[0] for t in tracers]
    for site in spans.missing_sites():
        log(f"span site {site} is gone; its metrics read 0")

    counts = [t.deterministic_counts() for t in tracers]
    if counts[0] != counts[1]:
        checks.problems.append(f"deterministic counts differ: {counts[0]} vs {counts[1]}")
    log(f"deterministic counts per traced pass: {json.dumps(counts[0])}")

    n = trials * len(tracers)

    def seconds(label, field="total_s"):
        return sum(getattr(t.spans[label], field) for t in tracers if label in t.spans) / n

    def calls(label):
        return sum(t.spans[label].calls for t in tracers if label in t.spans)

    def count(key):
        return sum(t.counts.get(key, 0) for t in tracers)

    greedy = [f"solver.greedy_search.{p}" for p in ("first_pass", "final_pass", "reestimate")]
    greedy_calls = sum(calls(g) for g in greedy)
    greedy_s = sum(seconds(g) for g in greedy) * n
    traced_mean = statistics.mean(traced_wall)
    return {
        "experiments.synthesize_scene.s": (seconds("experiments.synthesize_scene"), "s/trial"),
        "experiments.run_point_trial.self_s": (
            seconds("experiments.run_point_trial", "self_s"), "s/trial"),
        "experiments.oracle_ls_estimate.s": (seconds("experiments.oracle_ls_estimate"), "s/trial"),
        "experiments.somp_baseline.s": (seconds("experiments.somp_baseline"), "s/trial"),
        "experiments.worker_busy_share": (busy_s / (workers * busy_wall), "ratio"),
        "solver.greedy_search.calls": (greedy_calls / n, "count/trial"),
        "solver.greedy_search.us_per_call": (1e6 * _share(greedy_s, greedy_calls), "us"),
        "solver.greedy_search.rows_mean": (
            _share(count("greedy_search.rows"), greedy_calls), "rows"),
        "solver.greedy_search.first_pass.s": (seconds(greedy[0]), "s/trial"),
        "solver.greedy_search.final_pass.s": (seconds(greedy[1]), "s/trial"),
        "solver.greedy_search.reestimate.s": (seconds(greedy[2]), "s/trial"),
        "solver.skipped_candidates": (count("greedy_search.skipped") / n, "count/trial"),
        "solver.posterior_underflow": (count("greedy_search.underflow") / n, "count/trial"),
        "posterior.compute_marginals.s": (seconds("posterior.compute_marginals"), "s/trial"),
        "posterior.compute_marginals.calls": (
            calls("posterior.compute_marginals") / n, "count/trial"),
        "posterior.lattice_subsets": (count("lattice_subsets") / n, "count/trial"),
        "posterior.error_covariance.s": (seconds("posterior.error_covariance"), "s/trial"),
        "sharing.run_marginal_based.self_s": (
            seconds("sharing.run_marginal_based", "self_s"), "s/trial"),
        "sharing.run_integer_based.self_s": (
            seconds("sharing.run_integer_based", "self_s"), "s/trial"),
        "sharing.average_round.s": (seconds("sharing.average_round"), "s/trial"),
        "sharing.rounds": (calls("sharing.average_round") / n, "count/trial"),
        "sharing.failed_antennas": (count("failed_antennas") / n, "count/trial"),
        "data_aided.run_data_aided.self_s": (
            seconds("data_aided.run_data_aided", "self_s"), "s/trial"),
        "data_aided.distortion_covariance.s": (
            seconds("data_aided.distortion_covariance"), "s/trial"),
        "data_aided.carrier_reliability.s": (
            seconds("data_aided.carrier_reliability"), "s/trial"),
        "data_aided.select_and_agree.s": (seconds("data_aided.select_and_agree"), "s/trial"),
        "ofdm.equalize_and_slice.s": (seconds("ofdm.equalize_and_slice"), "s/trial"),
        "data_aided.consensus_carriers.mean": (
            _share(count("consensus_carriers"), count("consensus_antennas")), "carriers"),
        "data_aided.agreement_yield": (
            _share(count("consensus_carriers"), count("own_top_carriers")), "ratio"),
        "data_aided.fallback_share": (
            _share(count("fallback_antennas"), count("aided_antennas")), "ratio"),
        "trace.overhead_share": (1.0 - plain_wall / traced_mean, "ratio"),
    }


def check_units(metrics, section, checks):
    """Every metric BENCHMARK.json names must print, with the same unit."""
    try:
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())[section]
    except (OSError, ValueError, KeyError) as exc:
        checks.problems.append(f"cannot read BENCHMARK.json {section}: {exc}")
        return
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: unit for name, (_, unit) in metrics.items()}
    if want != got:
        checks.problems.append(f"metrics differ from BENCHMARK.json {section}: "
                               f"printed {got}, declared {want}")
