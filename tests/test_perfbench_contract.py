"""The benchmark's span sites still resolve to traced entry points.

``perfbench/spans.py`` installs its spans by rebinding names in gridce's
modules; a renamed or no longer called entry point silently reads 0 in the
per-layer metrics.  These tests import the span module by path (it is not
part of the package) and fail instead.
"""

import importlib.util
from pathlib import Path

from gridce import experiments
from gridce.experiments import ExperimentSpec

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

#: sites whose entry point the package no longer calls, so their spans read 0
#: until a benchmark change re-points them (ROADMAP item 1), by reason:
KNOWN_MISSING = [
    # chains that fill every pilot row run in ``greedy_search_stack``, so
    # the grid runners no longer call ``greedy_search``
    "gridce.sharing.greedy_search",
    # every pass takes its lattice from ``lattice_marginals`` on the stack
    "gridce.sharing.compute_marginals",
    # every pass takes its covariances from ``error_covariances`` on the stack
    "gridce.sharing.error_covariance",
    # re-estimation keeps short chains as padded ``greedy_search_batch`` rows
    "gridce.data_aided.greedy_search",
    "gridce.data_aided.error_covariance",
    # the data-aided path slices through ``equalize`` since it was batched
    "gridce.data_aided.equalize_and_slice",
]


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_site_resolves():
    assert load_spans().missing_sites() == KNOWN_MISSING


def test_traced_trial_records_runner_round_and_consensus_spans():
    """K = 10 ranks carriers by reliability, and at SNR 15 the bound leaves
    some of them in doubt, so both ranking spans record calls; K = 6 with
    two expected taps is the pilot-starved regime, where every offered
    carrier is kept and no reliability is computed."""
    spans = load_spans()
    for n_pilots, starved in ((10, False), (6, True)):
        spec = ExperimentSpec(grid_rows=3, grid_cols=3, n_carriers=64, channel_len=16,
                              sparsity=2, n_pilots=(n_pilots,), snr_db=(15.0,), depth=(2,),
                              algorithms=experiments.ALGORITHMS, trials=1, seed=1)
        original = experiments.run_point_trial
        with spans.Tracer() as tracer:
            result = experiments.run_point_trial(spec, 0, (n_pilots, 15.0, 2), 0)
        assert experiments.run_point_trial is original  # uninstalled on exit
        assert set(result) == set(experiments.ALGORITHMS)
        for label in ("experiments.run_point_trial", "sharing.run_marginal_based",
                      "sharing.run_integer_based", "sharing.average_round",
                      "data_aided.run_data_aided", "data_aided.select_and_agree"):
            assert tracer.spans[label].calls >= 1, label
        for label in ("data_aided.distortion_covariance", "data_aided.carrier_reliability"):
            assert (label not in tracer.spans) == starved, (n_pilots, label)
        assert tracer.counts["consensus_antennas"] == 2 * 9  # MB-R and IB-R grids
        assert 0 < tracer.counts["consensus_carriers"] <= tracer.counts["own_top_carriers"]
        assert tracer.counts["aided_antennas"] == 2 * 9
        # the baselines run as one grid-wide call each, entered through the
        # names the tracer rebinds
        assert tracer.spans["experiments.somp_baseline"].calls == 1
        assert tracer.spans["experiments.oracle_ls_estimate"].calls == 1
