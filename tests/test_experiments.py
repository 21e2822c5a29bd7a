"""Experiment driver, baselines, metrics, emission, CLI.

``score_oracle`` is the per-antenna BER scoring loop that the chunked
``_score_algorithm`` replaced, kept as its reference.
"""

import ctypes
import dataclasses
import json
import os
import subprocess
import sys
import types
from contextlib import nullcontext
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gridce
from gridce import data_aided, experiments
from gridce.channels import generate_channels
from gridce.data_aided import ANTENNA_CHUNK, run_data_aided
from gridce.errors import ConfigurationError
from gridce.experiments import (
    ALGORITHMS,
    CSV_HEADER,
    SUCCESS_RATIO,
    ExperimentSpec,
    ResultRow,
    _score_algorithm,
    bit_errors,
    emit_results,
    error_ratio,
    experiment_presets,
    nmse_db_from_ratios,
    oracle_ls_estimate,
    run_experiment,
    run_point_trial,
    somp_baseline,
    somp_stack,
    synthesize_scene,
)
from gridce.ofdm import freq_response, make_rng
from gridce.qam import build_qam_alphabet
from gridce.sharing import (
    BeliefKind,
    GridSolverConfig,
    first_pass,
    run_integer_based,
    run_marginal_based,
)
from gridce.solver import IllConditionedSupportError
from oracles import (
    bit_words_oracle,
    blue_estimate,
    equalize_and_slice,
    nearest_indices_oracle,
    neighbors,
    oracle_ls_loop_oracle,
    per_currency_grid,
    read_channels_csv,
    somp_loop_oracle,
    truncated_dft,
)


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
        clone = ExperimentSpec.from_dict(
            json.loads(json.dumps(dataclasses.asdict(spec)))
        )
        assert clone == spec

    def test_from_dict_leaves_the_input_unchanged(self):
        data = {"grid_rows": 2, "n_pilots": [10, 12], "snr_db": [15.0], "depth": [1],
                "algorithms": ["IB-P"]}
        before = json.loads(json.dumps(data))
        spec = ExperimentSpec.from_dict(data)
        assert spec.n_pilots == (10, 12)
        assert data == before and isinstance(data["n_pilots"], list)

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigurationError):
            ExperimentSpec.from_dict({"bogus": 1})

    @pytest.mark.parametrize("data", [5, None, [1, 2], "MB-P"])
    def test_non_object_config_rejected(self, data):
        """A config file must hold one JSON object of fields."""
        with pytest.raises(ConfigurationError, match="JSON object"):
            ExperimentSpec.from_dict(data)

    def test_non_utf8_config_file_rejected(self, tmp_path):
        """A config file that is not UTF-8 text is a configuration error
        naming the file."""
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_bytes(b"\xff\xfe\x00")
        with pytest.raises(ConfigurationError, match="UTF-8") as info:
            ExperimentSpec.from_file(cfg_path)
        assert str(cfg_path) in str(info.value)

    @pytest.mark.parametrize("algorithms", [[["MB-P"]], ["MB-P", 3], [None]])
    def test_non_string_algorithm_rejected(self, algorithms):
        """Algorithms are names; a nested list is not one (and is unhashable)."""
        with pytest.raises(ConfigurationError, match="algorithms"):
            ExperimentSpec.from_dict({"algorithms": algorithms})

    @pytest.mark.parametrize("field, value", [
        ("n_pilots", (513,)),
        ("channel_len", 513),
        ("sparsity", 65),
        ("depth", (2, -1)),
        ("qam_order", 8),
        ("workers", 0),
        ("drift", 1.5),
        ("power_profile", "steep"),
        ("n_carriers", 0),
        ("experiment", None),
        ("experiment", -3),
        ("experiment", "x"),
        ("experiment", 2.5),
        ("n_pilots", (16, 16)),
        ("snr_db", (10.0, 10)),
        ("depth", (1, 1)),
        ("algorithms", ("IB-P", "IB-P")),
        ("algorithms", ()),
        ("snr_db", (3100.0,)),
        ("snr_db", (10.0, -3100.0)),
    ])
    def test_bad_field_rejected_at_construction(self, field, value):
        """One out-of-range value per field fails before any trial runs; a
        repeated sweep entry or algorithm would write duplicate rows, no
        algorithm a header-only CSV, and an SNR whose noise variance leaves
        the float range NaN or an overflow."""
        with pytest.raises(ConfigurationError):
            ExperimentSpec(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("grid_rows", 0),
        ("grid_cols", -2),
        ("grid_rows", 2.5),
        ("grid_cols", True),
        ("n_carriers", 64.0),
        ("channel_len", 16.5),
        ("sparsity", 2.0),
        ("qam_order", 4.0),
        ("trials", 1.5),
        ("workers", 1.0),
        ("n_pilots", (16.5,)),
        ("n_pilots", (10, True)),
        ("depth", (1.5,)),
        ("snr_db", (float("nan"),)),
        ("snr_db", (10.0, float("inf"))),
        ("snr_db", ("10",)),
        ("n_pilots", 16),
        ("snr_db", 10.0),
        ("depth", 3),
        ("algorithms", None),
        ("drift", None),
        ("drift", "0.1"),
    ])
    def test_malformed_value_rejected_at_construction(self, field, value):
        """Sizes, counts and sweep entries must be integers (numpy integers
        allowed, bools not), the grid at least 1x1, every SNR finite, the
        sweep axes lists and ``drift`` a number;
        otherwise the spec fails before a trial or a ``range(trials)``
        would."""
        with pytest.raises(ConfigurationError, match=field):
            small_spec(**{field: value})

    def test_numpy_integers_accepted(self, tmp_path):
        """numpy scalars are stored as the Python values they hold: the noise
        level is computed in double precision, and the CSV row and the JSON
        sidecar read as for the plain values."""
        spec = small_spec(grid_rows=np.int64(2), trials=np.int32(2),
                          n_pilots=[np.int64(10)], depth=(np.int16(1),),
                          snr_db=(np.float32(15.0), 20), drift=np.float64(0.1))
        assert (spec.grid_rows, spec.grid_cols) == (2, 3)
        assert spec.n_pilots == (10,) and type(spec.n_pilots[0]) is int
        assert spec.snr_db == (15.0, 20) and type(spec.snr_db[0]) is float
        assert type(spec.grid_rows) is int and type(spec.drift) is float
        scene = synthesize_scene(spec, spec.n_pilots[0], spec.snr_db[0], 0, 0)
        assert scene.noise_var == experiments.noise_var_for_snr(2, 64, 15.0)
        rows = run_experiment(dataclasses.replace(spec, snr_db=spec.snr_db[:1]))
        emit_results(rows, tmp_path / "out.csv", spec=spec)
        assert (tmp_path / "out.csv").read_text().splitlines()[1].startswith(
            "MB-P,10,15.0,1,SIA,")
        assert json.loads((tmp_path / "out.meta.json").read_text())["spec"]["snr_db"] == [15.0, 20]

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

    @pytest.mark.parametrize("sparsity, algorithms, rejected", [
        (14, ("MB-P",), True),     # t_max 21
        (14, ("IB-P", "MB-R"), True),
        (13, ("MB-P",), False),    # t_max 20
        (16, ("IB-P",), False),    # IB builds no lattice
    ])
    def test_marginal_lattice_past_guard_rejected(self, sparsity, algorithms, rejected):
        """MB searches t_max = search_depth(L, n/L, K) taps and
        enumerates their 2^t_max - 1 subsets; a spec whose largest K gives
        more than MAX_LATTICE_TAPS fails at construction, not in a trial."""
        with pytest.raises(ConfigurationError, match="lattice") if rejected else nullcontext():
            ExperimentSpec(grid_rows=2, grid_cols=2, channel_len=64, sparsity=sparsity,
                           n_pilots=(16, 32), algorithms=algorithms)

    @pytest.mark.parametrize("field, value", [("n_reliable", 8), ("lambda_small", 1e-3)])
    def test_fixed_rule_settings_rejected(self, field, value):
        """The carrier budget (``data_aided.reliable_budget``) and the
        undetected-tap belief (``sharing.LAMBDA_SMALL``) are fixed rules, so
        a config that sets either names an unknown field."""
        with pytest.raises(ConfigurationError, match=field):
            ExperimentSpec.from_dict({"algorithms": ["MB-R"], field: value})

    @pytest.mark.parametrize("experiment", range(1, 6))
    def test_presets_pass_validation(self, experiment):
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
            scene.pilot_rows, y, np.flatnonzero(scene.taps[0, 0])
        )
        np.testing.assert_allclose(h, scene.taps[0, 0], atol=1e-5)

    def test_equals_blue_on_true_support(self):
        """The Gram-domain solve equals the SVD-based ``blue_estimate`` to
        rounding (normal equations, so not bit for bit)."""
        spec = small_spec()
        scene = synthesize_scene(spec, 10, 15.0, 0, 0)
        y = scene.observations[1, 1, scene.frame.pilot_indices]
        support = np.flatnonzero(scene.taps[1, 1])
        h = oracle_ls_estimate(scene.pilot_rows, y, support)
        np.testing.assert_allclose(
            h[support], blue_estimate(scene.pilot_rows[:, support], y),
            rtol=1e-12, atol=0,
        )

    def test_grid_stack_equals_loop_oracle(self):
        """(M, G, K) observations with (M, G, S) supports: one batch equals
        the per-antenna loop."""
        spec = small_spec(mode="SVA", drift=0.8)
        scene = synthesize_scene(spec, 10, 15.0, 0, 0)
        y = scene.observations[..., scene.frame.pilot_indices]
        slots = np.stack([[np.flatnonzero(scene.taps[r, c]) for c in range(3)]
                          for r in range(3)])
        assert len({tuple(s) for s in slots.reshape(-1, 2)}) > 1  # supports drift
        got = oracle_ls_estimate(scene.pilot_rows, y, slots)
        ref = oracle_ls_loop_oracle(scene.pilot_rows, y, slots)
        assert got.shape == (3, 3, 16)
        assert_taps_close(got, ref, scene.pilot_rows, slots)

    def test_oversized_support_rejected(self):
        rng = make_rng(0)
        a = rng.normal(size=(2, 8)) + 0j
        with pytest.raises(IllConditionedSupportError):
            oracle_ls_estimate(a, np.ones(2, complex), np.arange(3))


class TestMetrics:
    def test_perfect_estimate_hits_floor(self):
        h = np.ones((2, 2, 4), complex)
        ratio = error_ratio(h, h.copy())
        assert nmse_db_from_ratios([ratio]) == -300.0
        assert ratio < SUCCESS_RATIO

    def test_zero_estimate_is_zero_db(self):
        h = np.ones((2, 2, 4), complex)
        assert abs(nmse_db_from_ratios([error_ratio(h, np.zeros_like(h))])) < 1e-9

    def test_identical_bits_zero_ber(self):
        alphabet = build_qam_alphabet(4)
        indices = np.array([0, 1, 3, 2])
        errors = bit_errors(alphabet, indices, indices.copy(), np.zeros(4, bool))
        assert errors.tolist() == [0, 0, 0, 0]

    def test_pooled_ratio(self):
        true = np.zeros((1, 2, 2), complex)
        true[0, 0] = [2.0, 0.0]
        true[0, 1] = [1.0, 0.0]
        est = true.copy()
        est[0, 1, 0] = 0.0  # miss the weaker antenna entirely
        # pooled: 1 / (4 + 1)
        assert abs(error_ratio(true, est) - 0.2) < 1e-12

    def test_antenna_without_channel_energy_adds_its_error(self):
        true = np.zeros((1, 2, 2), complex)
        true[0, 0] = [2.0, 0.0]
        est = true.copy()
        est[0, 1] = [1.0, 0.0]
        # pooled: (0 + 1) / (4 + 0)
        assert error_ratio(true, est) == 0.25

    def test_all_zero_channels_rejected(self):
        true = np.zeros((1, 2, 2), complex)
        with pytest.raises(ConfigurationError, match="all-zero"):
            error_ratio(true, np.ones_like(true))


def score_oracle(scene, taps):
    """Per antenna: FFT, equalize and slice, then compare the bit words of
    the re-sliced decisions with the true ones."""
    alphabet = scene.alphabet
    k = alphabet.bits_per_symbol
    data_idx = np.flatnonzero(scene.frame.data_mask)
    true_bits = bit_words_oracle(
        alphabet, nearest_indices_oracle(alphabet, scene.frame.freq_symbols[data_idx]))
    errors = total = 0
    for r, c in np.ndindex(taps.shape[:2]):
        resp = freq_response(taps[r, c], scene.frame.n_carriers)
        _, hard, bad = equalize_and_slice(scene.observations[r, c], resp, alphabet)
        hard_bits = bit_words_oracle(alphabet, nearest_indices_oracle(alphabet, hard[data_idx]))
        bad = bad[data_idx]
        errors += int((true_bits != hard_bits)[~bad].sum()) + int(bad.sum()) * k
        total += data_idx.size * k
    return error_ratio(scene.taps, taps), errors, total


class TestBatchedScoring:
    """Chunked ``_score_algorithm`` against the per-antenna ``score_oracle``."""

    def estimates(self, scene, seed):
        rng = make_rng(seed)
        true = scene.taps
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
        ratio, errors, total = _score_algorithm(scene, np.zeros_like(scene.taps))
        assert ratio == 1.0
        assert errors == total == 9 * (64 - 10) * 4


class TestPilotScoringFromAidedStage:
    """When both run, the -P variant is scored from the detection that
    ``run_data_aided`` made on its base estimate, and must read exactly as
    ``_score_algorithm`` detecting the base taps itself."""

    SPEC = dict(grid_rows=4, grid_cols=4, n_carriers=512, channel_len=64, sparsity=3,
                n_pilots=(16,), snr_db=(10.0,), depth=(3,), trials=1, seed=3)

    def test_decisions_equal_a_fresh_scoring_pass(self):
        spec = ExperimentSpec(**self.SPEC)
        scene = synthesize_scene(spec, 16, 10.0, 0, 0)
        config = GridSolverConfig(lambda_init=3 / 64, noise_var=scene.noise_var)
        y_pilot = scene.observations[..., scene.frame.pilot_indices]
        for runner, kind in ((run_marginal_based, BeliefKind.MARGINAL),
                             (run_integer_based, BeliefKind.SCORE)):
            base = runner(first_pass(y_pilot, scene.pilot_rows, config, [kind]), config, 3)
            # one antenna forced to fail: zero taps leave every carrier undecodable
            base.taps[1, 2] = 0.0
            base.failed[1, 2] = True
            refined = run_data_aided(scene.frame, scene.observations, base, config,
                                     scene.alphabet)
            detected = (refined.diagnostics["base_decisions"],
                        refined.diagnostics["base_undecodable"])
            assert detected[1][1, 2].all()
            assert not detected[1][0, 0].any()
            assert (_score_algorithm(scene, base.taps, detected)
                    == _score_algorithm(scene, base.taps))

    def test_trial_entries_equal_pilot_only_runs(self):
        spec = ExperimentSpec(**self.SPEC, algorithms=ALGORITHMS[:4])
        point = (16, 10.0, 3)
        both = run_point_trial(spec, 0, point, 0)
        assert list(both) == ["MB-P", "MB-R", "IB-P", "IB-R"]
        alone = run_point_trial(dataclasses.replace(spec, algorithms=("MB-P", "IB-P")),
                                0, point, 0)
        for name in ("MB-P", "IB-P"):
            assert both[name][:3] == alone[name][:3]


class TestSharedFirstPass:
    """MB and IB run from one first pass per trial (``sharing.first_pass``)."""

    @pytest.mark.parametrize("algorithms, searches, lattices", [
        (ALGORITHMS, 3, 1),                   # one first pass, one final pass each
        (("MB-P", "MB-R"), 2, 1),
        (("IB-P", "IB-R", "SOMP"), 2, 0),     # IB alone computes no lattice
    ])
    def test_one_first_pass_per_trial(self, monkeypatch, algorithms, searches, lattices):
        """Calls of the grid pipelines' search and lattice in one trial."""
        import gridce.sharing as sharing

        calls = dict.fromkeys(("search_rows", "lattice_marginals"), 0)
        for name in calls:
            def counted(*args, _name=name, _original=getattr(sharing, name)):
                calls[_name] += 1
                return _original(*args)
            monkeypatch.setattr(sharing, name, counted)
        run_point_trial(small_spec(algorithms=algorithms), 0, (10, 15.0, 2), 0)
        assert (calls["search_rows"], calls["lattice_marginals"]) == (searches, lattices)

    @pytest.mark.parametrize("n_pilots", [10, 5])  # t_max = 5 < K, and t_max = K
    def test_matches_per_currency_composition(self, monkeypatch, n_pilots):
        """Every entry reads bit for bit as in a trial whose MB and IB
        pipelines each run their own first pass (``per_currency_grid``)."""
        spec = small_spec(algorithms=ALGORITHMS, n_pilots=(n_pilots,))
        point = (n_pilots, 15.0, 2)
        shared = [run_point_trial(spec, 0, point, t) for t in range(2)]

        def pilots_only(observations, sensing_rows, config, kinds):
            return types.SimpleNamespace(ys=observations, pilot_rows=sensing_rows)

        monkeypatch.setattr(experiments, "first_pass", pilots_only)
        for name, kind in (("run_marginal_based", BeliefKind.MARGINAL),
                           ("run_integer_based", BeliefKind.SCORE)):
            monkeypatch.setattr(experiments, name, lambda first, config, depth, kind=kind:
                                per_currency_grid(kind, first.ys, first.pilot_rows, config,
                                                  depth))
        per_currency = [run_point_trial(spec, 0, point, t) for t in range(2)]
        for got, want in zip(shared, per_currency):
            assert list(got) == list(ALGORITHMS)
            assert {name: entry[:3] for name, entry in got.items()} == {
                name: entry[:3] for name, entry in want.items()}


class TestSomp:
    def test_single_antenna_single_tap_noiseless(self):
        channels = generate_channels((1, 1), 16, 1, "SIA", 0.0, make_rng(3))
        rng = make_rng(4)
        a = (rng.normal(size=(8, 16)) + 1j * rng.normal(size=(8, 16))) / np.sqrt(8)
        y = channels @ a.T
        taps = somp_baseline(y, a, 1, "SIA")
        assert np.flatnonzero(taps[0, 0]).tolist() == np.flatnonzero(channels[0, 0]).tolist()

    def test_neighborhood_recovery_rate(self):
        """SIA 5-member neighborhood, noiseless, K >= 2n: exact support in at
        least 95% of 200 trials."""
        hits = 0
        trials = 200
        for seed in range(trials):
            channels = generate_channels((3, 3), 32, 3, "SIA", 0.0,
                                         make_rng(900 + seed))
            rng = make_rng(901, seed)
            a = (rng.normal(size=(10, 32)) + 1j * rng.normal(size=(10, 32)))
            a /= np.sqrt(10)
            y = channels @ a.T
            taps = somp_baseline(y, a, 3, "SIA")
            found = set(np.flatnonzero(taps[1, 1]).tolist())
            hits += found == set(np.flatnonzero(channels[1, 1]).tolist())
        assert hits / trials >= 0.95

    def test_sva_warns(self):
        rng = make_rng(5)
        a = rng.normal(size=(6, 16)) + 0j
        y = np.zeros((2, 2, 6), complex)
        with pytest.warns(UserWarning):
            somp_baseline(y, a, 2, "SVA")


def assert_taps_close(got, ref, sensing_rows, supports):
    """Per antenna ||got - ref|| <= tol ||ref||: tol = 1e-12 while A_S is
    well conditioned.  The Gram-domain solve loses accuracy as cond(A_S)^2,
    so past cond(A_S) = 10 the bound grows as 1e-14 cond(A_S)^2."""
    a = np.asarray(sensing_rows)
    got = got.reshape(-1, got.shape[-1])
    ref = ref.reshape(got.shape)
    supports = np.asarray(supports).reshape(got.shape[0], -1)
    for g, r, support in zip(got, ref, supports):
        tol = 1e-12 * max(1.0, (np.linalg.cond(a[:, support]) / 10.0) ** 2)
        assert np.linalg.norm(g - r) <= tol * np.linalg.norm(r)


def member_observations(shape, observations, antenna):
    """(K, members) observations of an antenna and its in-grid neighbors."""
    members = [antenna] + neighbors(shape, antenna)
    return np.stack([observations[m] for m in members], axis=1)


def somp_scores(sensing_rows, ys, selected):
    """The loop's stage score of every tap after the picks ``selected``."""
    a = sensing_rows
    residual = ys
    if selected:
        coef, *_ = np.linalg.lstsq(a[:, selected], ys, rcond=None)
        residual = ys - a[:, selected] @ coef
    corr = a.conj().T @ residual
    return np.sqrt((np.abs(corr) ** 2).sum(axis=1)) / np.linalg.norm(a, axis=0)


BASELINES = settings(max_examples=150, deadline=None, derandomize=True)

#: 1x1, 1xN, Nx1 and non-square grids (and one square)
GRID_SHAPES = [(1, 1), (1, 6), (6, 1), (3, 5), (4, 4)]


@st.composite
def baseline_cases(draw):
    """((rows, cols), sensing rows A, (M, G, K) observations, n_taps, pilot_rows).
    A is random Gaussian or pilot rows diag(s) F_L; observations are
    Gaussian or all zero; n_taps runs up to K + 2."""
    rows, cols = draw(st.sampled_from(GRID_SHAPES))
    n_obs = draw(st.integers(1, 10))
    length = draw(st.integers(n_obs, 24))
    rng = make_rng(draw(st.integers(0, 2**31)))
    pilot_rows = draw(st.booleans())
    if pilot_rows:
        n_carriers = 4 * length
        pilots = np.sort(rng.choice(n_carriers, size=n_obs, replace=False))
        symbols = np.exp(0.5j * np.pi * rng.integers(4, size=n_obs))
        a = symbols[:, None] * truncated_dft(n_carriers, length)[pilots]
    else:
        a = (rng.normal(size=(n_obs, length))
             + 1j * rng.normal(size=(n_obs, length))) / np.sqrt(2)
    y = rng.normal(size=(rows, cols, n_obs)) + 1j * rng.normal(size=(rows, cols, n_obs))
    if draw(st.booleans()):
        y[:] = 0
    n_taps = draw(st.integers(1, n_obs + 2))
    return (rows, cols), a, y, n_taps, pilot_rows


DESK10 = dict(grid_rows=10, grid_cols=10, n_carriers=512, channel_len=64, sparsity=3,
              qam_order=4, n_pilots=(16,), snr_db=(10.0,), depth=(3,), trials=1,
              algorithms=("oracle-LS", "SOMP"))


class TestBatchedBaselines:
    """The grid-batched SOMP and oracle-LS against their per-antenna loops
    (``somp_loop_oracle``, ``oracle_ls_loop_oracle``).  SOMP pick lists are
    compared in pick order, since zero observations give zero taps."""

    @BASELINES
    @given(case=baseline_cases())
    def test_somp_equals_loop_oracle(self, case):
        """Equal pick lists and taps.  The one allowed difference is an exact
        tie, which rounding decides: partial-DFT rows can hold collinear
        (aliased) columns, and once the picks fill all K pilot rows,
        mirror-image taps correlate equally with the 1-D residual space.
        There the first differing picks must score equal in the loop, and
        both estimates must give the same fit A h."""
        shape, a, y, n_taps, pilot_rows = case
        ref, picks = somp_loop_oracle(shape, y, a, n_taps)
        support, coef = somp_stack(y, a, n_taps)
        got = somp_baseline(y, a, n_taps, "SIA")
        assert support.shape == coef.shape == (*shape, min(n_taps, a.shape[0]))
        for r, c in np.ndindex(shape):
            batch, loop = support[r, c].tolist(), picks[r][c]
            if batch == loop:
                assert_taps_close(got[r, c], ref[r, c], a, loop)
                continue
            assert pilot_rows
            stage = next(i for i, (p, q) in enumerate(zip(batch, loop)) if p != q)
            scores = somp_scores(a, member_observations(shape, y, (r, c)), loop[:stage])
            assert scores[batch[stage]] == pytest.approx(scores[loop[stage]], rel=1e-12)
            np.testing.assert_allclose(a @ got[r, c], a @ ref[r, c],
                                       atol=1e-9 * np.linalg.norm(y[r, c]))

    @BASELINES
    @given(case=baseline_cases(), size=st.integers(1, 10), seed=st.integers(0, 2**31))
    def test_oracle_ls_equals_loop_oracle(self, case, size, seed):
        """Random per-antenna supports of one size S <= K: the one batch
        raises where the loop raises, and agrees with it elsewhere."""
        shape, a, y, _, _ = case
        n_obs, length = a.shape
        size = min(size, n_obs)
        order = make_rng(seed).permuted(
            np.broadcast_to(np.arange(length), (*shape, length)), axis=-1)
        slots = np.sort(order[..., :size], axis=-1)
        try:
            ref = oracle_ls_loop_oracle(a, y, slots)
        except IllConditionedSupportError:
            with pytest.raises(IllConditionedSupportError):
                oracle_ls_estimate(a, y, slots)
            return
        assert_taps_close(oracle_ls_estimate(a, y, slots), ref, a, slots)

    def test_somp_tie_goes_to_the_smallest_tap(self):
        """Duplicated columns score bit for bit the same, and argmax keeps
        the first maximum, so every center picks the smaller index."""
        rng = make_rng(6)
        a = rng.normal(size=(6, 10)) + 1j * rng.normal(size=(6, 10))
        a[:, 7] = a[:, 2]
        y = np.broadcast_to(a[:, 2], (2, 3, 6)) * (1.0 + np.arange(6).reshape(2, 3, 1))
        support, _ = somp_stack(y, a, 1)
        assert support.ravel().tolist() == [2] * 6

    def test_oracle_ls_collinear_support_rejected(self):
        """One collinear support in the stack fails the whole batch."""
        rng = make_rng(7)
        a = rng.normal(size=(6, 10)) + 1j * rng.normal(size=(6, 10))
        a[:, 4] = 2.0 * a[:, 1]
        slots = np.array([[[0, 1], [2, 3]], [[5, 6], [1, 4]]])
        with pytest.raises(IllConditionedSupportError, match="rank deficient"):
            oracle_ls_estimate(a, np.ones((2, 2, 6), complex), slots)
        slots[1, 1] = [1, 5]
        oracle_ls_estimate(a, np.ones((2, 2, 6), complex), slots)

    @pytest.mark.parametrize("seed", range(4))
    def test_desk10_scenes_equal_loop_oracles(self, seed):
        """Ten desk-scale trials per seed, with the inputs ``run_point_trial``
        passes: SOMP picks equal, taps within 1e-12 relative."""
        spec = ExperimentSpec(seed=seed, **DESK10)
        for trial in range(10):
            scene = synthesize_scene(spec, 16, 10.0, 0, trial)
            a = scene.pilot_rows
            y = scene.observations[..., scene.frame.pilot_indices]
            ref, picks = somp_loop_oracle((10, 10), y, a, spec.sparsity)
            support, _ = somp_stack(y, a, spec.sparsity)
            assert support.tolist() == picks
            got = somp_baseline(y, a, spec.sparsity, spec.mode)
            assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)

            slots = np.stack([[np.flatnonzero(scene.taps[r, c]) for c in range(10)]
                              for r in range(10)])
            got = oracle_ls_estimate(a, y, slots)
            ref = oracle_ls_loop_oracle(a, y, slots)
            assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.fixture
def pool_sizes(monkeypatch):
    """Puts a recording fake in place of ``ProcessPoolExecutor``: it notes
    each pool's ``max_workers`` and maps in the calling process, so no
    process starts."""
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        map = staticmethod(map)

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", RecordingPool)
    return sizes


class TestChunkInvariance:
    """Rows do not depend on ``ANTENNA_CHUNK``: detection, ranking,
    re-estimation and scoring give every algorithm the same ratio and bit
    counts at any chunk size, ragged last chunks and a one-antenna chunk
    included."""

    SPECS = [dict(n_pilots=(10,), snr_db=(15.0,)),
             dict(n_pilots=(10,), snr_db=(0.0,), qam_order=16),
             dict(n_pilots=(6,), snr_db=(15.0,))]

    @staticmethod
    def outcomes(spec):
        point = (spec.n_pilots[0], spec.snr_db[0], spec.depth[0])
        return [{name: entry[:3] for name, entry in run_point_trial(spec, 0, point, t).items()}
                for t in range(spec.trials)]

    def test_rows_equal_at_every_chunk_size(self, monkeypatch):
        specs = [ExperimentSpec(grid_rows=5, grid_cols=5, n_carriers=128, channel_len=16,
                                sparsity=2, depth=(2,), algorithms=ALGORITHMS, trials=2,
                                seed=1, **axes) for axes in self.SPECS]
        want = [self.outcomes(spec) for spec in specs]
        full_rows, top_reliable = [], data_aided.top_reliable
        monkeypatch.setattr(data_aided, "top_reliable",
                            lambda *args: full_rows.append(args) or top_reliable(*args))
        for chunk in (1, 7, 16, 400):
            monkeypatch.setattr(data_aided, "ANTENNA_CHUNK", chunk)
            monkeypatch.setattr(experiments, "ANTENNA_CHUNK", chunk)
            assert [self.outcomes(spec) for spec in specs] == want, chunk
        assert full_rows  # some ranked rows went through the full-row path


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
        parallel = run_experiment(dataclasses.replace(spec, workers=2))
        assert serial == parallel

    def test_worker_count_invariance_over_three_points(self):
        """Every (point, trial) job of a 3-point sweep goes to the pool in
        one map; the rows still come out point by point in the spec's
        algorithm order, identical on 1 and 2 workers."""
        spec = small_spec(depth=(1, 2, 3), trials=2)
        serial = run_experiment(spec)
        assert serial == run_experiment(dataclasses.replace(spec, workers=2))
        assert [(r.depth, r.algorithm) for r in serial] == [
            (d, a) for d in (1, 2, 3) for a in spec.algorithms]

    @pytest.mark.parametrize("rows, cols", [(1, 5), (2, 4)])
    def test_worker_count_invariance_line_and_non_square(self, rows, cols):
        """Rows are identical across worker counts on a 1xN line and a
        non-square grid too, data-aided algorithms included."""
        spec = small_spec(grid_rows=rows, grid_cols=cols, trials=3,
                          algorithms=("MB-P", "IB-R", "oracle-LS"))
        assert run_experiment(spec) == run_experiment(dataclasses.replace(spec, workers=2))

    def test_pool_holds_no_more_workers_than_jobs(self, pool_sizes):
        """A 2-job sweep at 8 workers opens a pool of 2, and a 1-job sweep at
        4 workers runs in the calling process; the rows are the serial ones."""
        two_jobs = small_spec(trials=2)
        serial = run_experiment(two_jobs)
        assert run_experiment(dataclasses.replace(two_jobs, workers=8)) == serial
        assert pool_sizes == [2]
        one_job = small_spec(trials=1)
        serial = run_experiment(one_job)
        assert run_experiment(dataclasses.replace(one_job, workers=4)) == serial
        assert pool_sizes == [2]

    def test_worker_count_invariance_past_the_job_count(self):
        """Three workers asked for two jobs: the two-process pool gives the
        serial rows."""
        spec = small_spec(trials=2)
        assert run_experiment(dataclasses.replace(spec, workers=3)) == run_experiment(spec)

    def test_metrics_in_range(self):
        rows = run_experiment(small_spec())
        for row in rows:
            assert 0.0 <= row.ber <= 1.0
            assert 0.0 <= row.success_rate <= 1.0
            assert row.trials == 3

    def test_solver_failure_counts_worst_case(self, monkeypatch):
        """A baseline's per-trial solver blowup must not abort the run; the
        trial is scored with the worst-case metrics."""
        def boom(*args, **kwargs):
            raise IllConditionedSupportError("forced failure")

        monkeypatch.setattr(experiments, "oracle_ls_estimate", boom)
        rows = run_experiment(small_spec(algorithms=("oracle-LS",), trials=2))
        assert rows[0].ber == 1.0
        assert rows[0].success_rate == 0.0
        assert abs(rows[0].nmse_db) < 1e-9  # ratio 1.0

    @pytest.mark.parametrize("error", [IllConditionedSupportError, np.linalg.LinAlgError])
    @pytest.mark.parametrize("stage, failed", [
        ("oracle_ls_estimate", "oracle-LS"),
        ("somp_baseline", "SOMP"),
    ])
    def test_failed_stage_scores_its_algorithms_worst_case(self, monkeypatch, caplog,
                                                           stage, failed, error):
        """A baseline whose solver raises scores as ratio 1 with every data
        bit wrong, in 0 s; every other entry reads as in the unpatched
        trial, and the keys keep stage order.  The warning names the seed,
        sweep point, trial and failed algorithm."""
        spec = small_spec(algorithms=ALGORITHMS)
        point = (10, 15.0, 2)
        clean = run_point_trial(spec, 4, point, 0)

        def fail(*args, **kwargs):
            raise error("forced failure")

        monkeypatch.setattr(experiments, stage, fail)
        with caplog.at_level("WARNING", logger=experiments.__name__):
            got = run_point_trial(spec, 4, point, 0)
        assert [record.getMessage() for record in caplog.records] == [
            f"seed 1 point 4 trial 0 {failed} failed: forced failure"]
        assert list(got) == ["MB-P", "MB-R", "IB-P", "IB-R", "oracle-LS", "SOMP"]
        bits = 3 * 3 * (64 - 10) * 2  # antennas x data carriers x bits per symbol
        for name, entry in got.items():
            if name == failed:
                assert entry == (1.0, bits, bits, 0.0)
            else:
                assert entry[:3] == clean[name][:3]

    @pytest.mark.parametrize("error", [IllConditionedSupportError, np.linalg.LinAlgError])
    @pytest.mark.parametrize("stage", ["first_pass", "run_marginal_based", "run_integer_based",
                                       "run_data_aided"])
    def test_grid_stage_errors_reach_the_caller(self, monkeypatch, caplog, stage, error):
        """Only the baselines' solves are guarded: an error inside a grid
        stage is a fault of the program, so it leaves the trial unchanged
        instead of being logged and scored as a worst case."""
        def fail(*args, **kwargs):
            raise error("forced failure")

        monkeypatch.setattr(experiments, stage, fail)
        with caplog.at_level("WARNING", logger=experiments.__name__):
            with pytest.raises(error, match="forced failure"):
                run_point_trial(small_spec(algorithms=ALGORITHMS), 4, (10, 15.0, 2), 0)
        assert caplog.records == []

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n_pilots", [4, 10])  # t_max = K (K domain), and Gram domain
    def test_unusable_pilot_rows_score_worst_case_without_raising(self, monkeypatch, caplog,
                                                                  n_pilots):
        """With every pilot column zero no antenna has a usable column: the
        greedy search skips every candidate, so each grid entry keeps zero
        taps and scores ratio 1 with every data bit wrong, and no grid stage
        raises or warns.  oracle-LS solves the system directly, so it logs
        its failure and scores the worst case in 0 s."""
        # SOMP is left out: it divides its picks' scores by the column norms
        spec = small_spec(algorithms=ALGORITHMS[:5], n_pilots=(n_pilots,))
        monkeypatch.setattr(experiments, "pilot_rows",
                            lambda frame, length: np.zeros((n_pilots, length), complex))
        with caplog.at_level("WARNING", logger=experiments.__name__):
            got = run_point_trial(spec, 0, (n_pilots, 15.0, 2), 0)
        assert [record.getMessage() for record in caplog.records] == [
            "seed 1 point 0 trial 0 oracle-LS failed: "
            "sensing columns numerically rank deficient"]
        assert list(got) == list(ALGORITHMS[:5])
        bits = 3 * 3 * (64 - n_pilots) * 2  # antennas x data carriers x bits per symbol
        for name in ALGORITHMS[:4]:
            ratio, errors, total, seconds = got[name]
            assert (ratio, errors, total) == (1.0, bits, bits) and seconds > 0, name
        assert got["oracle-LS"] == (1.0, bits, bits, 0.0)

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
        emit_results(self.rows(), path, small_spec())
        lines = path.read_text().splitlines()
        assert len(lines) == 4
        assert lines[0] == CSV_HEADER

    def test_metadata_sidecar(self, tmp_path):
        spec = small_spec()
        path = tmp_path / "out.csv"
        written = emit_results(self.rows(), path, spec=spec)
        meta = json.loads(Path(written[1]).read_text())
        assert meta["spec"]["n_carriers"] == 64
        assert meta["seed"] == spec.seed
        assert "snr_definition" in meta

    @pytest.mark.parametrize("experiment", range(1, 6))
    def test_sidecar_spec_rebuilds_the_spec(self, tmp_path, experiment):
        """Every preset spec comes back from its sidecar's JSON ``spec``
        object unchanged, so a written run can be rerun from its sidecar."""
        for i, spec in enumerate(experiment_presets(experiment)):
            written = emit_results(self.rows(), tmp_path / f"out{i}.csv", spec)
            meta = json.loads(Path(written[1]).read_text())
            assert ExperimentSpec.from_dict(meta["spec"]) == spec

    def test_byte_stable_emission(self, tmp_path):
        rows = self.rows()
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_results(rows, p1, small_spec())
        emit_results(rows, p2, small_spec())
        assert p1.read_bytes() == p2.read_bytes()

    def test_end_to_end_byte_stability(self, tmp_path):
        """Same seed, two full runs: byte-identical CSVs apart from timing."""
        spec = small_spec(trials=2)
        rows1 = run_experiment(spec)
        rows2 = run_experiment(spec)
        # normalize the informational wall time before byte comparison
        norm1 = [dataclasses.replace(r, wall_time_s=0.0) for r in rows1]
        norm2 = [dataclasses.replace(r, wall_time_s=0.0) for r in rows2]
        p1, p2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        emit_results(norm1, p1, spec=spec)
        emit_results(norm2, p2, spec=spec)
        assert p1.read_bytes() == p2.read_bytes()
        # every number is written as a Python repr, which reads back as a
        # number; a numpy scalar in a row would write "np.float64(...)"
        for fields in (line.split(",") for line in p1.read_text().splitlines()[1:]):
            [float(value) for value in fields[1:4] + fields[5:]]

    def test_sidecar_stays_in_a_dotted_directory(self, tmp_path):
        """Only the file name's suffix is replaced: an extensionless path
        inside a dotted directory keeps its sidecar next to it."""
        (tmp_path / "run.v2").mkdir()
        written = emit_results(self.rows(), tmp_path / "run.v2" / "results", small_spec())
        assert written[1] == str(tmp_path / "run.v2" / "results.meta.json")
        assert written[0] == str(tmp_path / "run.v2" / "results")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.v2"]
        csv = emit_results(self.rows(), tmp_path / "experiment3_1.csv", small_spec())
        assert csv[1] == str(tmp_path / "experiment3_1.meta.json")

    def test_unwritable_path_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            emit_results(self.rows(), tmp_path / "missing" / "out.csv", small_spec())


class TestWallTimeSemantics:
    def test_wall_time_excluded_from_equality(self):
        a = ResultRow("MB-P", 16, 10.0, 3, "SIA", -12.5, 0.01, 0.9, 1.0, 100)
        b = ResultRow("MB-P", 16, 10.0, 3, "SIA", -12.5, 0.01, 0.9, 99.0, 100)
        assert a == b

    def test_other_fields_compared(self):
        a = ResultRow("MB-P", 16, 10.0, 3, "SIA", -12.5, 0.01, 0.9, 1.0, 100)
        b = ResultRow("MB-P", 16, 10.0, 3, "SIA", -12.4, 0.01, 0.9, 1.0, 100)
        assert a != b

    def test_entry_seconds_count_the_stages_they_rest_on(self):
        """An R entry's seconds hold its P entry's (the shared first pass,
        the rounds and the final pass) plus its data-aided stage; every
        entry that ran a solver reads more than 0 s."""
        got = run_point_trial(small_spec(algorithms=ALGORITHMS), 0, (10, 15.0, 2), 0)
        seconds = {name: entry[3] for name, entry in got.items()}
        for currency in ("MB", "IB"):
            assert seconds[f"{currency}-R"] >= seconds[f"{currency}-P"] > 0, currency
        assert seconds["oracle-LS"] > 0 and seconds["SOMP"] > 0


BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: prints the BLAS thread variables as they stood when ``import gridce.cli``
#: first imported numpy, which reads them as it loads
NUMPY_IMPORT_SPY = f"""
import json, os, sys
seen = {{}}
class Spy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.update((key, os.environ.get(key)) for key in {BLAS_THREADS!r})
sys.meta_path.insert(0, Spy())
import gridce.cli
print(json.dumps(seen))
"""


class FakeLibc:
    """Records the mallopt calls it receives; its ``mallopt`` takes the
    ctypes declarations as a foreign function does."""

    def __init__(self):
        self.calls = []

        def mallopt(param, value):
            self.calls.append((param, value))
            return 1

        self.mallopt = mallopt


class TestMallocDefault:
    """``import gridce`` fixes glibc's malloc thresholds by the rule of
    ``gridce._fix_malloc_thresholds``, checked on a fake libc."""

    @pytest.fixture
    def glibc(self, monkeypatch):
        monkeypatch.setattr(os, "confstr", lambda name: "glibc 2.36")

    @pytest.mark.parametrize("environ", [
        {},
        {"PATH": "/usr/bin", "OMP_NUM_THREADS": "1"},
        {"GLIBC_TUNABLES": "glibc.rtld.optional_static_tls=512"},
    ])
    def test_untuned_glibc_gets_fixed_thresholds(self, glibc, environ):
        """mmap threshold 32 MiB (M_MMAP_THRESHOLD, -3) and trim threshold
        64 MiB (M_TRIM_THRESHOLD, -1)."""
        libc = FakeLibc()
        gridce._fix_malloc_thresholds(environ, libc)
        assert libc.calls == [(-3, 32 * 2**20), (-1, 64 * 2**20)]
        assert libc.mallopt.argtypes == (ctypes.c_int, ctypes.c_int)
        assert libc.mallopt.restype is ctypes.c_int

    @pytest.mark.parametrize("environ", [
        {"MALLOC_TRIM_THRESHOLD_": "131072"},
        {"MALLOC_ARENA_MAX": "2"},
        {"MALLOC_": ""},
        {"GLIBC_TUNABLES": "glibc.malloc.trim_threshold=131072"},
        {"GLIBC_TUNABLES": "glibc.rtld.optional_static_tls=512:glibc.malloc.mmap_threshold=1"},
    ])
    def test_tuned_malloc_is_left_alone(self, glibc, environ):
        libc = FakeLibc()
        gridce._fix_malloc_thresholds(environ, libc)
        assert libc.calls == []

    @pytest.mark.parametrize("error", [ValueError, OSError])
    def test_other_libcs_are_left_alone(self, monkeypatch, error):
        """musl, macOS and others do not know CS_GNU_LIBC_VERSION."""
        def confstr(name):
            raise error(name)

        monkeypatch.setattr(os, "confstr", confstr)
        libc = FakeLibc()
        gridce._fix_malloc_thresholds({}, libc)
        assert libc.calls == []

    def test_platforms_without_confstr_are_left_alone(self, monkeypatch):
        monkeypatch.delattr(os, "confstr", raising=False)
        libc = FakeLibc()
        gridce._fix_malloc_thresholds({}, libc)
        assert libc.calls == []


class TestCli:
    def run_cli(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "gridce", *args],
            capture_output=True, text=True,
        )

    @pytest.mark.parametrize("user, want", [
        ({}, dict.fromkeys(BLAS_THREADS, "1")),
        ({"OMP_NUM_THREADS": "2"}, {**dict.fromkeys(BLAS_THREADS), "OMP_NUM_THREADS": "2"}),
    ])
    def test_numpy_loads_with_one_blas_thread_unless_the_user_set_a_count(self, user, want):
        """A process that imports gridce first (the CLI, and the sweep
        workers it forks) loads numpy with one BLAS thread, so parallel
        sweeps do not oversubscribe the cores; a count the user set in any
        of the three variables leaves all three as the user left them."""
        env = {key: value for key, value in os.environ.items() if key not in BLAS_THREADS}
        out = subprocess.run([sys.executable, "-c", NUMPY_IMPORT_SPY], env={**env, **user},
                             capture_output=True, text=True, timeout=60)
        assert out.returncode == 0, out.stderr
        assert json.loads(out.stdout) == want

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
        taps, support = read_channels_csv(tmp_path / "channels.csv", 2, 3, 16)
        spec = ExperimentSpec.from_file(cfg_path)
        scene = synthesize_scene(spec, 10, spec.snr_db[0], 0, 0)
        np.testing.assert_array_equal(taps, scene.taps)
        np.testing.assert_array_equal(support, scene.taps != 0)

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

    @pytest.mark.parametrize("field, value", [("n_reliable", 8), ("lambda_small", 1e-3)])
    def test_fixed_rule_setting_exit_code(self, tmp_path, field, value):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"algorithms": ["MB-R"], field: value}))
        out = self.run_cli("estimate", "--config", str(cfg_path))
        assert out.returncode == 2
        assert field in out.stderr and "Traceback" not in out.stderr

    def test_negative_seed_exit_code(self):
        out = self.run_cli("estimate", "--seed", "-1")
        assert out.returncode == 2
        assert "seed" in out.stderr and "Traceback" not in out.stderr

    def test_float_grid_side_in_config_exit_code(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(dict(grid_rows=2.5, trials=1)))
        out = self.run_cli("estimate", "--config", str(cfg_path))
        assert out.returncode == 2
        assert "grid_rows" in out.stderr and "Traceback" not in out.stderr

    def test_empty_grid_flag_exit_code(self, tmp_path):
        out = self.run_cli("experiment", "3", "--grid", "0", "--out", str(tmp_path))
        assert out.returncode == 2
        assert "grid_rows" in out.stderr and "Traceback" not in out.stderr
        assert not list(tmp_path.iterdir())

    def test_marginal_lattice_past_guard_exit_code(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(dict(grid_rows=2, grid_cols=2, channel_len=64,
                                            sparsity=16, n_pilots=[32],
                                            algorithms=["MB-P"])))
        out = self.run_cli("estimate", "--config", str(cfg_path))
        assert out.returncode == 2
        assert "MB-P" in out.stderr and "lattice" in out.stderr  # the spec's message

    def test_out_of_range_snr_exit_code(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(dict(snr_db=[3100.0])))
        out = self.run_cli("estimate", "--config", str(cfg_path))
        assert out.returncode == 2
        assert "snr_db" in out.stderr and "Traceback" not in out.stderr

    def test_flags_that_would_do_nothing_rejected(self, tmp_path):
        """``estimate`` writes nothing, so it takes no --out; CSV is the only
        output format, so there is no --format."""
        for args in (("estimate", "--out", str(tmp_path)),
                     ("experiment", "1", "--format", "csv")):
            out = self.run_cli(*args)
            assert out.returncode == 2
            assert "unrecognized arguments" in out.stderr
        assert not list(tmp_path.iterdir())

    def test_scalar_sweep_axis_in_config_exit_code(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(dict(n_pilots=16, trials=1)))
        out = self.run_cli("estimate", "--config", str(cfg_path))
        assert out.returncode == 2
        assert "n_pilots" in out.stderr and "Traceback" not in out.stderr

    def test_non_utf8_config_exit_code(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_bytes(b"\xff\xfe\x00")
        out = self.run_cli("estimate", "--config", str(cfg_path))
        assert out.returncode == 2
        assert "UTF-8" in out.stderr and "Traceback" not in out.stderr

    def test_bad_config_exit_code(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"bogus_field": 1}))
        out = self.run_cli("estimate", "--config", str(cfg_path))
        assert out.returncode == 2
        assert "error" in out.stderr

    @pytest.mark.parametrize("config", [5, None, [1, 2], {"algorithms": [["MB-P"]]}])
    def test_malformed_config_exit_code(self, tmp_path, config):
        """A config that is no object of fields, or names an algorithm by a
        list, is a configuration error (exit 2), not a traceback."""
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        out = self.run_cli("estimate", "--config", str(cfg_path))
        assert out.returncode == 2
        assert "error" in out.stderr and "Traceback" not in out.stderr
