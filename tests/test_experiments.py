"""Experiment driver, baselines, metrics, emission, CLI.

``score_oracle`` is the per-antenna BER scoring loop that the chunked
``_score_algorithm`` replaced, kept as its reference.
"""

import json
import subprocess
import sys

import numpy as np
import pytest

from gridce.channels import AntennaGrid, ArrayKind, channels_from_csv, generate_channels
from gridce.data_aided import ANTENNA_CHUNK
from gridce.errors import ConfigurationError
from gridce.experiments import (
    CSV_HEADER,
    ExperimentSpec,
    ResultRow,
    _score_algorithm,
    compute_metrics,
    emit_results,
    error_ratio,
    experiment_presets,
    nmse_db_from_ratios,
    oracle_ls_estimate,
    run_experiment,
    somp_baseline,
    synthesize_scene,
)
from gridce.ofdm import equalize_and_slice, freq_response, make_rng
from gridce.solver import IllConditionedSupportError


def small_spec(**kw):
    defaults = dict(
        grid_rows=3, grid_cols=3, n_carriers=64, channel_len=16, sparsity=2,
        n_pilots=(10,), snr_db=(15.0,), depth=(2,),
        algorithms=("MB-P", "IB-P", "oracle-LS"), trials=3, seed=1,
    )
    defaults.update(kw)
    return ExperimentSpec(**defaults)


class TestSpec:
    def test_empty_sweep_rejected(self):
        with pytest.raises(ConfigurationError):
            small_spec(n_pilots=())

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ConfigurationError):
            small_spec(algorithms=("MB-P", "MAGIC"))

    def test_round_trip_via_dict(self):
        spec = small_spec()
        import dataclasses

        clone = ExperimentSpec.from_dict(
            json.loads(json.dumps(dataclasses.asdict(spec)))
        )
        assert clone == spec

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigurationError):
            ExperimentSpec.from_dict({"bogus": 1})

    @pytest.mark.parametrize("field, value", [
        ("n_pilots", (513,)),
        ("channel_len", 513),
        ("sparsity", 65),
        ("depth", (2, -1)),
        ("qam_order", 8),
        ("workers", 0),
        ("lambda_small", 1.0),
        ("drift", 1.5),
        ("power_profile", "steep"),
    ])
    def test_bad_field_rejected_at_construction(self, field, value):
        """One out-of-range value per field fails before any trial runs."""
        with pytest.raises(ConfigurationError):
            ExperimentSpec(**{field: value})

    @pytest.mark.parametrize("seed", [-1, 1.5, "7", True])
    def test_seed_not_a_nonnegative_integer_rejected(self, seed):
        """Random streams are seeded from (seed, point, trial, stream), which
        numpy accepts only as non-negative integers."""
        with pytest.raises(ConfigurationError, match="seed"):
            small_spec(seed=seed)

    def test_oracle_ls_with_fewer_pilots_than_taps_rejected(self):
        """oracle-LS solves on the true support, so every K must reach the
        sparsity; the same sweep without oracle-LS stays valid."""
        with pytest.raises(ConfigurationError, match="oracle-LS"):
            small_spec(n_pilots=(2, 10), sparsity=3)
        small_spec(n_pilots=(2, 10), sparsity=3, algorithms=("MB-P", "IB-P"))

    @pytest.mark.parametrize("n_reliable", [0, -1, 55, 60])
    def test_n_reliable_outside_data_carriers_rejected(self, n_reliable):
        """A fixed carrier budget must fit the data carriers left by the
        largest K (64 - 10 = 54 here) when a data-aided algorithm runs;
        without one the budget is never read."""
        with pytest.raises(ConfigurationError, match="n_reliable"):
            small_spec(n_pilots=(6, 10), algorithms=("MB-R",), n_reliable=n_reliable)
        small_spec(n_pilots=(6, 10), n_reliable=n_reliable)

    def test_n_reliable_at_the_bounds_accepted(self):
        for n_reliable in (1, 54):
            small_spec(n_pilots=(6, 10), algorithms=("IB-R",), n_reliable=n_reliable)

    @pytest.mark.parametrize("experiment", range(1, 6))
    def test_presets_pass_validation(self, experiment):
        import dataclasses

        for spec in experiment_presets(experiment):
            assert ExperimentSpec.from_dict(dataclasses.asdict(spec)) == spec

    def test_presets_cover_all_experiments(self):
        for experiment in range(1, 6):
            specs = experiment_presets(experiment)
            assert specs and all(s.experiment == experiment for s in specs)
        # key paper settings
        exp1 = experiment_presets(1)[0]
        assert exp1.n_pilots[0] == 2 and exp1.n_pilots[-1] == 42
        assert exp1.channel_len == 64 and exp1.snr_db == (10.0,)
        exp5 = experiment_presets(5)[0]
        assert exp5.depth == (1, 2, 3, 4, 5)
        assert exp5.channel_len == 32 and exp5.n_pilots == (8,)


class TestOracle:
    def test_noiseless_exact(self):
        spec = small_spec(snr_db=(120.0,))
        scene = synthesize_scene(spec, 10, 120.0, 0, 0)
        y = scene.observations[0, 0, scene.frame.pilot_indices]
        h = oracle_ls_estimate(
            scene.sensing_pilot.rows, y, scene.channels.support_set((0, 0))
        )
        np.testing.assert_allclose(h, scene.channels.taps[0, 0], atol=1e-5)

    def test_equals_blue_on_true_support(self):
        from gridce.solver import blue_estimate

        spec = small_spec()
        scene = synthesize_scene(spec, 10, 15.0, 0, 0)
        y = scene.observations[1, 1, scene.frame.pilot_indices]
        support = scene.channels.support_set((1, 1))
        h = oracle_ls_estimate(scene.sensing_pilot.rows, y, support)
        np.testing.assert_array_equal(
            h[support], blue_estimate(scene.sensing_pilot.rows[:, support], y)
        )

    def test_oversized_support_rejected(self):
        rng = make_rng(0)
        a = rng.normal(size=(2, 8)) + 0j
        with pytest.raises(IllConditionedSupportError):
            oracle_ls_estimate(a, np.ones(2, complex), np.arange(3))


class TestMetrics:
    def test_perfect_estimate_hits_floor(self):
        h = np.ones((2, 2, 4), complex)
        out = compute_metrics([h], [h.copy()])
        assert out["nmse_db"] == -300.0
        assert out["success_rate"] == 1.0

    def test_zero_estimate_is_zero_db(self):
        h = np.ones((2, 2, 4), complex)
        out = compute_metrics([h], [np.zeros_like(h)])
        assert abs(out["nmse_db"]) < 1e-9

    def test_identical_bits_zero_ber(self):
        h = np.ones((1, 1, 4), complex)
        bits = np.array([0, 1, 1, 0])
        out = compute_metrics([h], [h], [bits], [bits.copy()])
        assert out["ber"] == 0.0

    def test_pooled_ratio(self):
        true = np.zeros((1, 2, 2), complex)
        true[0, 0] = [2.0, 0.0]
        true[0, 1] = [1.0, 0.0]
        est = true.copy()
        est[0, 1, 0] = 0.0  # miss the weaker antenna entirely
        # pooled: 1 / (4 + 1)
        assert abs(error_ratio(true, est) - 0.2) < 1e-12


def score_oracle(scene, taps):
    """Per antenna: FFT, equalize and slice, then compare the bit words of
    the re-sliced decisions with the true ones."""
    alphabet = scene.alphabet
    k = alphabet.bits_per_symbol
    data_idx = scene.frame.data_indices
    true_bits = alphabet.bits_from_indices(
        alphabet.nearest_indices(scene.frame.freq_symbols[data_idx]))
    errors = total = 0
    for r, c in scene.grid.antennas():
        resp = freq_response(taps[r, c], scene.frame.n_carriers)
        _, hard, bad = equalize_and_slice(scene.observations[r, c], resp, alphabet)
        hard_bits = alphabet.bits_from_indices(alphabet.nearest_indices(hard[data_idx]))
        bad = bad[data_idx]
        errors += int((true_bits != hard_bits)[~bad].sum()) + int(bad.sum()) * k
        total += data_idx.size * k
    return error_ratio(scene.channels.taps, taps), errors, total


class TestBatchedScoring:
    """Chunked ``_score_algorithm`` against the per-antenna ``score_oracle``."""

    def estimates(self, scene, seed):
        rng = make_rng(seed)
        true = scene.channels.taps
        noise = rng.normal(size=true.shape) + 1j * rng.normal(size=true.shape)
        partial = true + 0.3 * noise
        partial[0, 0] = 0.0  # one antenna undecodable on every carrier
        return {"true": true, "noisy": true + 0.05 * noise, "partial": partial,
                "zero": np.zeros_like(true)}

    @pytest.mark.parametrize("rows,cols,qam", [
        (1, 1, 4), (3, 3, 16), (1, 7, 4), (5, 7, 4), (6, 6, 16),
    ])
    def test_matches_per_antenna_loop(self, rows, cols, qam):
        spec = small_spec(grid_rows=rows, grid_cols=cols, qam_order=qam, snr_db=(5.0,))
        scene = synthesize_scene(spec, 10, 5.0, 0, 0)
        if rows * cols > ANTENNA_CHUNK:
            assert (rows * cols) % ANTENNA_CHUNK  # a ragged last chunk is covered
        for name, taps in self.estimates(scene, rows * cols).items():
            assert _score_algorithm(scene, taps) == score_oracle(scene, taps), name

    def test_zero_estimate_gets_every_bit_wrong(self):
        scene = synthesize_scene(small_spec(qam_order=16), 10, 15.0, 0, 0)
        ratio, errors, total = _score_algorithm(scene, np.zeros_like(scene.channels.taps))
        assert ratio == 1.0
        assert errors == total == 9 * (64 - 10) * 4


class TestSomp:
    def test_single_antenna_single_tap_noiseless(self):
        grid = AntennaGrid(rows=1, cols=1)
        channels = generate_channels(grid, 16, 1, ArrayKind.SIA, 0.0, make_rng(3))
        rng = make_rng(4)
        a = (rng.normal(size=(8, 16)) + 1j * rng.normal(size=(8, 16))) / np.sqrt(8)
        y = channels.taps @ a.T
        taps = somp_baseline(grid, y, a, 1)
        assert np.flatnonzero(taps[0, 0]).tolist() == \
            np.flatnonzero(channels.taps[0, 0]).tolist()

    def test_neighborhood_recovery_rate(self):
        """SIA 5-member neighborhood, noiseless, K >= 2n: exact support in at
        least 95% of 200 trials."""
        hits = 0
        trials = 200
        for seed in range(trials):
            grid = AntennaGrid(rows=3, cols=3)
            channels = generate_channels(grid, 32, 3, ArrayKind.SIA, 0.0,
                                         make_rng(900 + seed))
            rng = make_rng(901, seed)
            a = (rng.normal(size=(10, 32)) + 1j * rng.normal(size=(10, 32)))
            a /= np.sqrt(10)
            y = channels.taps @ a.T
            taps = somp_baseline(grid, y, a, 3)
            found = set(np.flatnonzero(taps[1, 1]).tolist())
            hits += found == set(channels.support_set((1, 1)).tolist())
        assert hits / trials >= 0.95

    def test_sva_warns(self):
        grid = AntennaGrid(rows=2, cols=2)
        rng = make_rng(5)
        a = rng.normal(size=(6, 16)) + 0j
        y = np.zeros((2, 2, 6), complex)
        with pytest.warns(UserWarning):
            somp_baseline(grid, y, a, 2, mode=ArrayKind.SVA)


class TestRunExperiment:
    def test_rows_cover_sweep_and_algorithms(self):
        spec = small_spec(n_pilots=(8, 10), depth=(1, 2))
        rows = run_experiment(spec)
        assert len(rows) == 2 * 2 * len(spec.algorithms)
        assert {r.algorithm for r in rows} == set(spec.algorithms)

    def test_deterministic_rerun(self):
        spec = small_spec()
        rows1 = run_experiment(spec)
        rows2 = run_experiment(spec)
        assert rows1 == rows2  # wall time excluded from equality

    def test_worker_count_invariance(self):
        spec = small_spec(trials=4)
        serial = run_experiment(spec)
        import dataclasses

        parallel = run_experiment(dataclasses.replace(spec, workers=2))
        assert serial == parallel

    @pytest.mark.parametrize("rows, cols", [(1, 5), (2, 4)])
    def test_worker_count_invariance_line_and_non_square(self, rows, cols):
        """Rows are identical across worker counts on a 1xN line and a
        non-square grid too, data-aided algorithms included."""
        import dataclasses

        spec = small_spec(grid_rows=rows, grid_cols=cols, trials=3,
                          algorithms=("MB-P", "IB-R", "oracle-LS"))
        assert run_experiment(spec) == run_experiment(dataclasses.replace(spec, workers=2))

    def test_metrics_in_range(self):
        rows = run_experiment(small_spec())
        for row in rows:
            assert 0.0 <= row.ber <= 1.0
            assert 0.0 <= row.success_rate <= 1.0
            assert row.trials == 3

    def test_solver_failure_counts_worst_case(self, monkeypatch):
        """A per-trial solver blowup must not abort the run; the trial is
        scored with the worst-case metrics."""
        import gridce.experiments as ex

        def boom(*args, **kwargs):
            raise IllConditionedSupportError("forced failure")

        monkeypatch.setattr(ex, "run_marginal_based", boom)
        rows = run_experiment(small_spec(algorithms=("MB-P",), trials=2))
        assert rows[0].ber == 1.0
        assert rows[0].success_rate == 0.0
        assert abs(rows[0].nmse_db) < 1e-9  # ratio 1.0

    def test_tiny_pilot_budget_runs(self):
        """K=2 with n=3 (the sweep's low end) completes without error."""
        rows = run_experiment(small_spec(
            n_pilots=(2,), algorithms=("MB-P", "MB-R"), trials=2,
        ))
        assert len(rows) == 2
        for row in rows:
            assert np.isfinite(row.nmse_db)


class TestSuccessMonotonicity:
    def test_success_rate_nondecreasing_in_pilots(self):
        """Pilot-count sweep: success rate is nondecreasing in K up to
        Monte-Carlo noise (residual from the isotonic fit <= 0.05)."""
        spec = ExperimentSpec(
            grid_rows=5, grid_cols=5, n_carriers=256, channel_len=32,
            sparsity=3, n_pilots=(4, 6, 8, 12), snr_db=(10.0,), depth=(3,),
            mode="SIA", power_profile="geometric", algorithms=("MB-R",),
            trials=25, seed=0,
        )
        rows = run_experiment(spec)
        success = np.array([r.success_rate for r in rows])

        # pool-adjacent-violators: closest nondecreasing sequence
        fit = success.astype(float).copy()
        weights = np.ones_like(fit)
        i = 0
        while i < len(fit) - 1:
            if fit[i] > fit[i + 1] + 1e-12:
                pooled = (fit[i] * weights[i] + fit[i + 1] * weights[i + 1]) / (
                    weights[i] + weights[i + 1]
                )
                fit[i] = fit[i + 1] = pooled
                weights[i] = weights[i + 1] = weights[i] + weights[i + 1]
                i = max(i - 1, 0)
            else:
                i += 1
        fit = np.maximum.accumulate(fit)
        assert np.abs(success - fit).max() <= 0.05
        assert success[-1] >= success[0]  # the sweep really improves


class TestEmitResults:
    def rows(self):
        return [
            ResultRow("MB-P", 16, 10.0, 3, "SIA", -12.5, 0.01, 0.9, 1.23, 100),
            ResultRow("IB-P", 16, 10.0, 3, "SIA", -11.0, 0.02, 0.8, 0.98, 100),
            ResultRow("MB-R", 16, 10.0, 3, "SIA", -15.0, 0.005, 1.0, 2.05, 100),
        ]

    def test_csv_line_count_and_header(self, tmp_path):
        path = tmp_path / "out.csv"
        emit_results(self.rows(), path)
        lines = path.read_text().splitlines()
        assert len(lines) == 4
        assert lines[0] == CSV_HEADER

    def test_metadata_sidecar(self, tmp_path):
        spec = small_spec()
        path = tmp_path / "out.csv"
        written = emit_results(self.rows(), path, spec=spec)
        meta = json.loads(open(written[1]).read())
        assert meta["spec"]["n_carriers"] == 64
        assert meta["seed"] == spec.seed
        assert "snr_definition" in meta

    def test_byte_stable_emission(self, tmp_path):
        rows = self.rows()
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_results(rows, p1)
        emit_results(rows, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_end_to_end_byte_stability(self, tmp_path):
        """Same seed, two full runs: byte-identical CSVs apart from timing."""
        spec = small_spec(trials=2)
        rows1 = run_experiment(spec)
        rows2 = run_experiment(spec)
        import dataclasses

        # normalize the informational wall time before byte comparison
        norm1 = [dataclasses.replace(r, wall_time_s=0.0) for r in rows1]
        norm2 = [dataclasses.replace(r, wall_time_s=0.0) for r in rows2]
        p1, p2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        emit_results(norm1, p1, spec=spec)
        emit_results(norm2, p2, spec=spec)
        assert p1.read_bytes() == p2.read_bytes()

    def test_unwritable_path_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            emit_results(self.rows(), tmp_path / "missing" / "out.csv")


class TestWallTimeSemantics:
    def test_wall_time_excluded_from_equality(self):
        a = ResultRow("MB-P", 16, 10.0, 3, "SIA", -12.5, 0.01, 0.9, 1.0, 100)
        b = ResultRow("MB-P", 16, 10.0, 3, "SIA", -12.5, 0.01, 0.9, 99.0, 100)
        assert a == b

    def test_other_fields_compared(self):
        a = ResultRow("MB-P", 16, 10.0, 3, "SIA", -12.5, 0.01, 0.9, 1.0, 100)
        b = ResultRow("MB-P", 16, 10.0, 3, "SIA", -12.4, 0.01, 0.9, 1.0, 100)
        assert a != b


class TestCli:
    def run_cli(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "gridce", *args],
            capture_output=True, text=True,
        )

    def test_estimate_smoke(self, tmp_path):
        config = dict(
            grid_rows=3, grid_cols=3, n_carriers=64, channel_len=16, sparsity=2,
            n_pilots=[10], snr_db=[15.0], depth=[2],
            algorithms=["MB-P", "oracle-LS"], trials=1, seed=0,
        )
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        out = self.run_cli("estimate", "--config", str(cfg_path))
        assert out.returncode == 0, out.stderr
        assert "MB-P" in out.stdout and "oracle-LS" in out.stdout

    def test_generate_channels(self, tmp_path):
        config = dict(grid_rows=2, grid_cols=2, n_carriers=64, channel_len=16,
                      sparsity=2, trials=1)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        out = self.run_cli("generate-channels", "--config", str(cfg_path),
                           "--out", str(tmp_path), "--seed", "3")
        assert out.returncode == 0, out.stderr
        lines = (tmp_path / "channels.csv").read_text().splitlines()
        assert lines[0] == "antenna_row,antenna_col,tap_index,re,im"
        assert len(lines) == 1 + 2 * 2 * 2  # n nonzero taps per antenna

    def test_generate_channels_writes_the_first_trials_channels(self, tmp_path):
        """The CSV holds exactly the channels that point 0, trial 0 draws,
        geometric tap powers included; repr round-trips every tap."""
        config = dict(grid_rows=2, grid_cols=3, n_carriers=64, channel_len=16,
                      sparsity=3, n_pilots=[10], power_profile="geometric",
                      mode="SVA", trials=1, seed=5)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        out = self.run_cli("generate-channels", "--config", str(cfg_path),
                           "--out", str(tmp_path))
        assert out.returncode == 0, out.stderr
        written = channels_from_csv(tmp_path / "channels.csv", 2, 3, 16)
        spec = ExperimentSpec.from_file(cfg_path)
        scene = synthesize_scene(spec, 10, spec.snr_db[0], 0, 0)
        np.testing.assert_array_equal(written.taps, scene.channels.taps)
        np.testing.assert_array_equal(written.support, scene.channels.support)

    def test_experiment_with_config(self, tmp_path):
        config = dict(
            experiment=5, grid_rows=3, grid_cols=3, n_carriers=64,
            channel_len=16, sparsity=2, n_pilots=[10], snr_db=[15.0],
            depth=[1, 2], algorithms=["IB-P"], trials=2, seed=0,
        )
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        out = self.run_cli("experiment", "5", "--config", str(cfg_path),
                           "--out", str(tmp_path))
        assert out.returncode == 0, out.stderr
        csv = (tmp_path / "experiment5.csv").read_text().splitlines()
        assert csv[0] == CSV_HEADER
        assert len(csv) == 3  # 2 depths x 1 algorithm

    def test_oracle_ls_short_pilots_exit_code(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(dict(n_pilots=[2], sparsity=3,
                                            algorithms=["oracle-LS"])))
        out = self.run_cli("estimate", "--config", str(cfg_path))
        assert out.returncode == 2
        assert "oracle-LS" in out.stderr

    def test_n_reliable_beyond_data_carriers_exit_code(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(dict(n_carriers=64, n_pilots=[10],
                                            algorithms=["MB-R"], n_reliable=60)))
        out = self.run_cli("estimate", "--config", str(cfg_path))
        assert out.returncode == 2
        assert "n_reliable" in out.stderr

    def test_negative_seed_exit_code(self):
        out = self.run_cli("estimate", "--seed", "-1")
        assert out.returncode == 2
        assert "seed" in out.stderr and "Traceback" not in out.stderr

    def test_bad_config_exit_code(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"bogus_field": 1}))
        out = self.run_cli("estimate", "--config", str(cfg_path))
        assert out.returncode == 2
        assert "error" in out.stderr
