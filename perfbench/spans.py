"""Span tracing around the calls into each gridce module, installed from outside.

Each gridce module binds the functions it calls at import time (``from
.solver import greedy_search``), so a span must be installed by rebinding
the name in the *calling* module's namespace: patching ``gridce.solver``
alone would miss every caller.  ``Tracer.install`` rebinds the names listed
in ``SITES``; ``Tracer.uninstall`` puts the originals back.

A span's self time is its duration minus the durations of its direct child
spans.  Spans are aggregated in memory per label as they close: call count,
total seconds and self seconds.  Counters taken from the returned objects
(solver diagnostics, lattice sizes, consensus sizes, failed antennas) are
kept next to them; every counter is deterministic for fixed code and inputs.
"""

import time
from collections import defaultdict

import gridce.data_aided
import gridce.experiments
import gridce.sharing

#: (module, attribute, span label) for every rebound name.  A label of None
#: means the label is chosen per call (greedy_search in the sharing runners
#: is split into first and final pass by the averaging round).
SITES = (
    (gridce.experiments, "run_point_trial", "experiments.run_point_trial"),
    (gridce.experiments, "synthesize_scene", "experiments.synthesize_scene"),
    (gridce.experiments, "oracle_ls_estimate", "experiments.oracle_ls_estimate"),
    (gridce.experiments, "somp_baseline", "experiments.somp_baseline"),
    (gridce.experiments, "run_marginal_based", "sharing.run_marginal_based"),
    (gridce.experiments, "run_integer_based", "sharing.run_integer_based"),
    (gridce.experiments, "run_data_aided", "data_aided.run_data_aided"),
    (gridce.sharing, "greedy_search", None),
    (gridce.sharing, "compute_marginals", "posterior.compute_marginals"),
    (gridce.sharing, "error_covariance", "posterior.error_covariance"),
    (gridce.sharing, "average_marginals_round", "sharing.average_round"),
    (gridce.sharing, "average_scores_round", "sharing.average_round"),
    (gridce.data_aided, "greedy_search", "solver.greedy_search.reestimate"),
    (gridce.data_aided, "error_covariance", "posterior.error_covariance"),
    (gridce.data_aided, "distortion_covariance", "data_aided.distortion_covariance"),
    (gridce.data_aided, "carrier_reliability", "data_aided.carrier_reliability"),
    (gridce.data_aided, "select_and_agree", "data_aided.select_and_agree"),
    (gridce.data_aided, "equalize_and_slice", "ofdm.equalize_and_slice"),
)

RUNNERS = ("sharing.run_marginal_based", "sharing.run_integer_based")


def missing_sites() -> list:
    """Sites the package no longer defines; their metrics read 0."""
    return [f"{m.__name__}.{attr}" for m, attr, _ in SITES if not hasattr(m, attr)]


class SpanStats:
    __slots__ = ("calls", "total_s", "self_s")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0


class Tracer:
    """Aggregates spans and counters while installed; not thread-safe (the
    traced runs are single-process)."""

    def __init__(self):
        self.spans = defaultdict(SpanStats)
        self.counts = defaultdict(int)
        self._child_s = []       # per open span: seconds covered by its children
        self._phase = None       # "first" / "final" inside a sharing runner
        self._saved = []

    def install(self):
        for module, attr, label in SITES:
            original = getattr(module, attr, None)
            if original is not None:  # see missing_sites()
                self._saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, label))

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _wrap(self, fn, label):
        def span(*args, **kwargs):
            name = label or f"solver.greedy_search.{self._phase}_pass"
            if name in RUNNERS:
                self._phase = "first"
            elif name == "sharing.average_round":
                self._phase = "final"
            self._child_s.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = time.perf_counter() - start
                child = self._child_s.pop()
                if self._child_s:
                    self._child_s[-1] += seconds
                stats = self.spans[name]
                stats.calls += 1
                stats.total_s += seconds
                stats.self_s += seconds - child
                if name in RUNNERS:
                    self._phase = None
            self._count(name, args, result)
            return result

        return span

    def _count(self, name, args, result):
        counts = self.counts
        if name.startswith("solver.greedy_search."):
            counts["greedy_search.rows"] += args[0].shape[0]
            counts["greedy_search.skipped"] += bool(result.diagnostics["skipped_candidates"])
            counts["greedy_search.underflow"] += bool(result.diagnostics["posterior_underflow"])
        elif name == "posterior.compute_marginals":
            counts["lattice_subsets"] += len(result.lattice_subsets)
        elif name in RUNNERS:
            counts["failed_antennas"] += int(result.failed.sum())
        elif name == "data_aided.select_and_agree":
            for reliable in (rs for row in result for rs in row):
                counts["consensus_carriers"] += reliable.consensus.size
                counts["own_top_carriers"] += reliable.own_top.size
                counts["consensus_antennas"] += 1
        elif name == "data_aided.run_data_aided":
            fallback = result.diagnostics["fallback_no_consensus"]
            counts["fallback_antennas"] += int(fallback.sum())
            counts["aided_antennas"] += fallback.size

    def deterministic_counts(self) -> dict:
        """Every call count and counter; equal across runs of fixed inputs."""
        out = {f"calls.{name}": stats.calls for name, stats in self.spans.items()}
        out.update(self.counts)
        return dict(sorted(out.items()))
