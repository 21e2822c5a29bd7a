"""Belief sharing: scores, averaging rounds, grid algorithms."""

import dataclasses

import numpy as np
import pytest

from gridce.channels import ArrayKind, generate_channels
from gridce.errors import ConfigurationError, IllConditionedSupportError
from gridce.ofdm import make_rng, modulate_frame, place_pilots
from gridce.qam import build_qam_alphabet
from gridce.sharing import (
    BeliefKind,
    LAMBDA_SMALL,
    GridSolverConfig,
    _rank_scores,
    _run_grid,
    average_marginals_round,
    average_scores_round,
    first_pass,
    run_integer_based,
    run_marginal_based,
    scores_to_beliefs,
    stencil_gather,
    stencil_reduce,
)
from gridce.solver import ChainStack, search_depth, search_rows
from oracles import (
    assign_scores,
    dense_rows,
    error_covariance,
    greedy_search,
    lattice_oracle,
    neighbors,
    synthesize_received_oracle,
)


def make_scene(rows=5, cols=5, n=64, k=12, length=16, sparsity=2, snr_db=15.0,
               seed=0, kind=ArrayKind.SIA, drift=0.0):
    noise_var = sparsity / (n * 10 ** (snr_db / 10))
    channels = generate_channels((rows, cols), length, sparsity, kind, drift,
                                 make_rng(seed, 0))
    pilots = place_pilots(n, k, (seed, 1))
    frame = modulate_frame(build_qam_alphabet(4), n, pilots, make_rng(seed, 2))
    full = dense_rows(frame, length)
    y = synthesize_received_oracle(full, channels, noise_var, make_rng(seed, 3))
    return (rows, cols), channels, full[pilots], y[..., pilots], noise_var


def uniform_chains(observations, sensing_rows, config):
    """Production's uniform-prior chains of every antenna, one stack, and
    each antenna's detected taps (M, G, L)."""
    k, length = sensing_rows.shape
    ys = observations.reshape(-1, k)
    stack = search_rows(sensing_rows, ys, np.full((ys.shape[0], length), config.lambda_init),
                        np.full(ys.shape[0], config.noise_var),
                        search_depth(length, config.lambda_init, k))
    detected = stack.scatter(np.ones(stack.chosen.shape, dtype=bool))
    return stack, detected.reshape(*observations.shape[:2], length)


def gate_of(detected):
    """The taps each antenna tracks: the union of detections over its N+."""
    return stencil_reduce(detected, np.logical_or)


def fake_stack(length, taps, amplitudes):
    """A one-row ChainStack detecting ``taps`` with combined ``amplitudes``;
    the fields ``_rank_scores`` does not read are zeros."""
    t = len(taps)
    h = np.zeros((1, length), complex)
    h[0, taps] = amplitudes
    zeros = np.zeros((1, t))
    return ChainStack(
        chosen=np.array([taps]), nus=zeros, residuals=zeros, posteriors=zeros,
        r_factors=np.eye(t)[None], r_inverses=np.eye(t)[None], qty=zeros.astype(complex),
        taps=h, noise_vars=np.array([0.01]), lengths=np.array([t]),
        skipped=np.zeros(1, bool), underflow=np.zeros(1, bool),
    )


class TestStencils:
    """The array stencils against the set-based ``neighbors`` oracle."""

    @pytest.mark.parametrize("rows,cols", [(1, 1), (1, 5), (5, 1), (3, 4)])
    def test_gather_stacks_members_with_zero_rows_outside(self, rows, cols):
        x = make_rng(rows, cols).normal(size=(rows, cols, 2)) + 1.0
        members = stencil_gather(x)
        assert members.shape == (rows, cols, 5, 2)
        for r, c in np.ndindex(rows, cols):
            inside = [(r, c)] + neighbors((rows, cols), (r, c))
            for m, (dr, dc) in enumerate([(0, 0), (-1, 0), (1, 0), (0, -1), (0, 1)]):
                if (r + dr, c + dc) in inside:
                    np.testing.assert_array_equal(members[r, c, m], x[r + dr, c + dc])
                else:
                    assert not members[r, c, m].any()

    @pytest.mark.parametrize("rows,cols", [(1, 1), (1, 5), (5, 1), (3, 4)])
    def test_reduce_folds_the_gathered_members(self, rows, cols):
        x = make_rng(rows * cols).normal(size=(rows, cols, 3))
        np.testing.assert_allclose(stencil_reduce(x, np.add),
                                   stencil_gather(x).sum(axis=2), rtol=1e-15)


class TestAssignScores:
    """The grid runners' integer scores, ``_rank_scores``, on one chain."""

    def test_rank_by_amplitude(self):
        scores = _rank_scores(fake_stack(16, [2, 7, 11], [0.9, 0.1, 0.5]))[0]
        assert scores[2] == 3 and scores[11] == 2 and scores[7] == 1

    def test_undetected_zero(self):
        scores = _rank_scores(fake_stack(16, [2, 7, 11], [0.9, 0.1, 0.5]))[0]
        others = np.setdiff1d(np.arange(16), [2, 7, 11])
        assert np.all(scores[others] == 0)

    def test_ties_rank_lower_tap_higher(self):
        scores = _rank_scores(fake_stack(16, [9, 4], [0.5, 0.5]))[0]
        assert scores[4] == 2 and scores[9] == 1


def marginal_state(rows, cols, length):
    values = np.zeros((rows, cols, length))
    detected = np.zeros((rows, cols, length), dtype=bool)
    return values, detected


class TestMarginalRound:
    def test_average_of_equals(self):
        values, detected = marginal_state(3, 3, 8)
        values[..., 2] = 0.8
        detected[..., 2] = True
        out = average_marginals_round(values, gate_of(detected))
        assert np.allclose(out[..., 2], 0.8)

    def test_single_detector_center(self):
        """Center holds 1.0, 4 neighbors undetected, |N+|=5 -> 0.2."""
        values, detected = marginal_state(3, 3, 8)
        values[1, 1, 5] = 1.0
        detected[1, 1, 5] = True
        out = average_marginals_round(values, gate_of(detected))
        assert abs(out[1, 1, 5] - 0.2) < 1e-12

    def test_nobody_detected_gets_lambda_small(self):
        values, detected = marginal_state(3, 3, 8)
        values[1, 1, 5] = 1.0
        detected[1, 1, 5] = True
        out = average_marginals_round(values, gate_of(detected))
        assert out[0, 0, 3] == 1e-3  # tap 3 in nobody's gate

    def test_range_preserved(self):
        rng = make_rng(5)
        values = rng.random((4, 4, 8))
        detected = rng.random((4, 4, 8)) < 0.4
        values = values * detected
        for _ in range(4):
            values = average_marginals_round(values, gate_of(detected))
            assert values.min() >= 0 and values.max() <= 1

    def test_sia_fixed_point(self):
        """Identical marginal vectors and gates are unchanged by a round."""
        values, detected = marginal_state(4, 4, 8)
        values[..., [1, 6]] = [0.7, 0.3]
        detected[..., [1, 6]] = True
        out = average_marginals_round(values, gate_of(detected))
        inside = detected
        np.testing.assert_allclose(out[inside], values[inside], atol=1e-12)


class TestScoreRound:
    def test_ceiling_arithmetic(self):
        """Scores {3,0,2,1,3} over a 5-member neighborhood -> ceil(1.8) = 2."""
        values, detected = marginal_state(3, 3, 4)
        # center and 4 neighbors of (1,1)
        members = [(1, 1), (0, 1), (2, 1), (1, 0), (1, 2)]
        for (r, c), s in zip(members, [3, 0, 2, 1, 3]):
            values[r, c, 0] = s
            detected[r, c, 0] = s > 0
        out = average_scores_round(values, gate_of(detected), final=False)
        assert out[1, 1, 0] == 2

    def test_final_round_keeps_raw_average(self):
        values, detected = marginal_state(3, 3, 4)
        members = [(1, 1), (0, 1), (2, 1), (1, 0), (1, 2)]
        for (r, c), s in zip(members, [3, 0, 2, 1, 3]):
            values[r, c, 0] = s
            detected[r, c, 0] = s > 0
        out = average_scores_round(values, gate_of(detected), final=True)
        assert abs(out[1, 1, 0] - 1.8) < 1e-12

    def test_absent_tap_zero(self):
        values, detected = marginal_state(3, 3, 4)
        values[1, 1, 0] = 2.0
        detected[1, 1, 0] = True
        out = average_scores_round(values, gate_of(detected), final=False)
        assert out[0, 0, 2] == 0.0

    def test_integrality_until_final(self):
        rng = make_rng(7)
        values = np.floor(rng.random((4, 4, 6)) * 4)
        detected = values > 0
        gate = gate_of(detected)
        for _ in range(3):
            values = average_scores_round(values, gate, final=False)
            assert np.all(values == np.round(values))
        final = average_scores_round(values, gate, final=True)
        assert not np.all(final == np.round(final))


class TestScoresToBeliefs:
    def test_max_score_clamped(self):
        b = scores_to_beliefs(np.array([3.0]), t_max=3)
        assert abs(b[0] - (1 - 1e-6)) < 1e-9

    def test_arithmetic(self):
        b = scores_to_beliefs(np.array([1.8]), t_max=3)
        assert abs(b[0] - 0.6) < 1e-12

    def test_zero_clamped_to_lambda_small(self):
        b = scores_to_beliefs(np.array([0.0]), t_max=3)
        assert b[0] == 1e-3


class TestGridAlgorithms:
    def test_depth_zero_marginal_is_self_reestimation(self):
        shape, channels, sensing, y, nv = make_scene()
        cfg = GridSolverConfig(lambda_init=2 / 16, noise_var=nv)
        out = run_marginal_based(first_pass(y, sensing, cfg, [BeliefKind.MARGINAL]), cfg,
                                 depth=0)
        assert not out.failed.any()
        # priors at undetected taps sit at LAMBDA_SMALL
        for r, c in np.ndindex(shape):
            low = np.setdiff1d(np.arange(16), out.support[r, c])
            assert np.all(out.priors[r, c][low] <= 0.5)

    def test_depth_zero_integer(self):
        shape, channels, sensing, y, nv = make_scene(seed=1)
        cfg = GridSolverConfig(lambda_init=2 / 16, noise_var=nv)
        out = run_integer_based(first_pass(y, sensing, cfg, [BeliefKind.SCORE]), cfg, depth=0)
        assert not out.failed.any()

    @pytest.mark.parametrize("kind", list(BeliefKind))
    @pytest.mark.parametrize("depth", [0, 2])
    def test_untracked_taps_get_the_lambda_small_prior(self, kind, depth):
        """The final pass gives a tap no neighbor detected (at depth 0, a tap
        the antenna did not detect) the prior LAMBDA_SMALL exactly, and no
        tap a lower one."""
        _, _, sensing, y, nv = make_scene(rows=3, cols=4, seed=2)
        cfg = GridSolverConfig(lambda_init=2 / 16, noise_var=nv)
        first = first_pass(y, sensing, cfg, [kind])
        out = _run_grid(kind, first, cfg, depth)
        tracked = gate_of(first.detected) if depth else first.detected
        assert (~tracked).any()
        np.testing.assert_array_equal(out.priors[~tracked], LAMBDA_SMALL)
        assert out.priors.min() == LAMBDA_SMALL == 1e-3

    def test_negative_depth_rejected(self):
        shape, channels, sensing, y, nv = make_scene(seed=2)
        cfg = GridSolverConfig(lambda_init=2 / 16, noise_var=nv)
        first = first_pass(y, sensing, cfg, [BeliefKind.MARGINAL])
        with pytest.raises(ConfigurationError):
            run_marginal_based(first, cfg, depth=-1)

    def test_sharing_does_not_hurt_detection_sia(self):
        """Noiseless-ish SIA with K >= 2n+2: support detection rate of the
        final estimates is at least the first-pass rate, over paired seeds."""
        before_hits = after_hits = total = 0
        for seed in range(25):
            shape, channels, sensing, y, nv = make_scene(
                rows=5, cols=5, k=6, length=16, sparsity=2, snr_db=40.0,
                seed=100 + seed,
            )
            cfg = GridSolverConfig(lambda_init=2 / 16, noise_var=nv)
            out = run_marginal_based(first_pass(y, sensing, cfg, [BeliefKind.MARGINAL]), cfg,
                                     depth=2)
            _, first_detected = uniform_chains(y, sensing, cfg)
            for r, c in np.ndindex(shape):
                true = set(np.flatnonzero(channels[r, c]))
                before_hits += len(true & set(np.flatnonzero(first_detected[r, c])))
                after_hits += len(true & set(int(t) for t in out.support[r, c]))
                total += len(true)
        assert after_hits >= before_hits
        assert after_hits / total > 0.9

    def test_locality(self):
        """Perturbing one corner antenna's observation leaves estimates at
        Manhattan distance > depth bit-identical."""
        shape, channels, sensing, y, nv = make_scene(rows=6, cols=6, seed=3)
        cfg = GridSolverConfig(lambda_init=2 / 16, noise_var=nv)
        depth = 2
        out1 = run_marginal_based(first_pass(y, sensing, cfg, [BeliefKind.MARGINAL]), cfg, depth)
        y2 = y.copy()
        y2[0, 0] += 0.5 * np.exp(1j)  # perturb corner antenna only
        out2 = run_marginal_based(first_pass(y2, sensing, cfg, [BeliefKind.MARGINAL]), cfg, depth)
        for r, c in np.ndindex(shape):
            if abs(r - 0) + abs(c - 0) > depth:
                np.testing.assert_array_equal(out1.taps[r, c], out2.taps[r, c])
        # sanity: the perturbed antenna itself changed
        assert not np.array_equal(out1.taps[0, 0], out2.taps[0, 0])

    def test_integer_locality(self):
        shape, channels, sensing, y, nv = make_scene(rows=6, cols=6, seed=4)
        cfg = GridSolverConfig(lambda_init=2 / 16, noise_var=nv)
        depth = 1
        out1 = run_integer_based(first_pass(y, sensing, cfg, [BeliefKind.SCORE]), cfg, depth)
        y2 = y.copy()
        y2[5, 5] *= 1.3
        out2 = run_integer_based(first_pass(y2, sensing, cfg, [BeliefKind.SCORE]), cfg, depth)
        for r, c in np.ndindex(shape):
            if abs(r - 5) + abs(c - 5) > depth:
                np.testing.assert_array_equal(out1.taps[r, c], out2.taps[r, c])

    def test_deterministic_rerun(self):
        shape, channels, sensing, y, nv = make_scene(seed=5)
        cfg = GridSolverConfig(lambda_init=2 / 16, noise_var=nv)
        a = run_marginal_based(first_pass(y, sensing, cfg, [BeliefKind.MARGINAL]), cfg, 2)
        b = run_marginal_based(first_pass(y, sensing, cfg, [BeliefKind.MARGINAL]), cfg, 2)
        np.testing.assert_array_equal(a.taps, b.taps)
        np.testing.assert_array_equal(a.priors, b.priors)

    def test_integer_rounds_exchange_integers(self):
        """Belief buffers hold integers after every non-final round."""
        shape, channels, sensing, y, nv = make_scene(seed=6)
        cfg = GridSolverConfig(lambda_init=2 / 16, noise_var=nv)
        t_max = search_depth(16, cfg.lambda_init, 12)
        stack, detected = uniform_chains(y, sensing, cfg)
        values = _rank_scores(stack).reshape(detected.shape)
        assert np.all(values == np.round(values)) and values.max() == t_max
        for i in range(3):
            values = average_scores_round(values, gate_of(detected), final=(i == 2))
            if i < 2:
                assert np.all(values == np.round(values))

    def test_trace_dump(self, tmp_path):
        """The trace holds each round's beliefs (round 0: the first pass)
        at every antenna's detected taps, equal to the per-antenna
        composition's beliefs after that round."""
        shape, channels, sensing, y, nv = make_scene(rows=3, cols=3, seed=7)
        path = tmp_path / "trace.csv"
        cfg = GridSolverConfig(lambda_init=2 / 16, noise_var=nv,
                               trace_path=str(path))
        for kind, runner in ((BeliefKind.MARGINAL, run_marginal_based),
                             (BeliefKind.SCORE, run_integer_based)):
            runner(first_pass(y, sensing, cfg, [kind]), cfg, 2)
            lines = path.read_text().splitlines()
            assert lines[0] == "round,antenna_row,antenna_col,tap,value"
            assert len(lines) > 1
            traced = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
            assert set(traced[:, 0]) == {0, 1, 2}
            *_, rounds, detected = per_antenna_grid(kind, y, sensing, cfg, 2)
            at = np.nonzero(detected)
            want_index = np.vstack([np.column_stack((np.full(at[0].size, i),) + at)
                                    for i in range(len(rounds))])
            np.testing.assert_array_equal(traced[:, :4], want_index)
            np.testing.assert_allclose(traced[:, 4], np.concatenate([v[at] for v in rounds]),
                                       rtol=0, atol=1e-12)

    def test_paper_scale_runs(self):
        """D=3 on a 20x20 grid completes end to end."""
        shape, channels, sensing, y, nv = make_scene(rows=20, cols=20, seed=8)
        cfg = GridSolverConfig(lambda_init=2 / 16, noise_var=nv)
        out = run_marginal_based(first_pass(y, sensing, cfg, [BeliefKind.MARGINAL]), cfg, 3)
        assert out.taps.shape == (20, 20, 16)
        assert not out.failed.any()


def per_antenna_grid(kind, observations, sensing_rows, config, depth):
    """The per-antenna composition the one-stack passes replaced, kept as
    the oracle: greedy_search at every antenna, then the from-scratch
    lattice or assign_scores for the first-pass beliefs, and
    error_covariance after the final pass, zero-padded to T.  Returns the
    GridEstimate fields, the final chain lengths, the beliefs (M, G, L)
    after every round (the first pass's first) and the detected taps."""
    rows, cols, _ = observations.shape
    k, length = sensing_rows.shape
    t_max = search_depth(length, config.lambda_init, k)

    def solve(r, c, lambdas):
        try:
            return greedy_search(sensing_rows, observations[r, c], lambdas,
                                 config.noise_var, t_max)
        except IllConditionedSupportError:
            return None

    values = np.zeros((rows, cols, length))
    detected = np.zeros((rows, cols, length), dtype=bool)
    failed = np.zeros((rows, cols), dtype=bool)
    for r, c in np.ndindex(rows, cols):
        prior = np.full(length, config.lambda_init)
        est = solve(r, c, prior)
        if est is None:
            failed[r, c] = True
            continue
        if kind is BeliefKind.MARGINAL:
            values[r, c, est.detected_taps] = lattice_oracle(
                est.detected_taps, sensing_rows, observations[r, c], prior,
                config.noise_var)[2]
        else:
            values[r, c] = assign_scores(est)
        detected[r, c, est.detected_taps] = True
    gate = gate_of(detected)
    rounds = [values]
    for i in range(depth):
        rounds.append(average_marginals_round(rounds[-1], gate)
                      if kind is BeliefKind.MARGINAL
                      else average_scores_round(rounds[-1], gate, final=(i == depth - 1)))
    scale = t_max if kind is BeliefKind.SCORE else 1
    priors = scores_to_beliefs(rounds[-1], scale)

    taps = np.zeros((rows, cols, length), dtype=complex)
    support = np.zeros((rows, cols, t_max), dtype=int)
    error_cov = np.zeros((rows, cols, t_max, t_max), dtype=complex)
    lengths = np.zeros((rows, cols), dtype=int)
    for r, c in np.ndindex(rows, cols):
        est = solve(r, c, priors[r, c])
        if est is None:
            failed[r, c] = True
            continue
        t = lengths[r, c] = est.detected_taps.size
        taps[r, c], support[r, c, :t] = est.h_ammse, est.detected_taps
        error_cov[r, c, :t, :t] = error_covariance(est)
    return taps, support, error_cov, priors, failed, lengths, rounds, detected


def rank_four_scene(seed=0, rows=4, cols=4, k=12, length=16):
    """Pilot rows with only four nonzero columns: every chain stops after
    four of its T = 5 stages.  Each stage still has a unique best pick, so
    the batched and per-antenna searches cannot part on a rounding tie."""
    rng = make_rng(seed)
    a = np.zeros((k, length), complex)
    # tap 0 is a true tap: padding, which reads tap 0, must not overwrite it
    a[:, [0, 5, 6, 12]] = rng.normal(size=(k, 4)) + 1j * rng.normal(size=(k, 4))
    h = np.zeros((rows, cols, length), complex)
    h[..., [0, 12]] = rng.normal(size=(rows, cols, 2)) + 1j * rng.normal(size=(rows, cols, 2))
    y = h @ a.T + 0.1 * (rng.normal(size=(rows, cols, k)) + 1j * rng.normal(size=(rows, cols, k)))
    return (rows, cols), a, y, 0.02


class TestOneStackPasses:
    """``first_pass`` and ``_run_grid`` against the per-antenna composition
    they replaced."""

    @pytest.mark.parametrize("kind", list(BeliefKind))
    @pytest.mark.parametrize("case", ["t_max_fills_pilots", "rank_deficient"])
    def test_matches_per_antenna_composition(self, kind, case):
        if case == "t_max_fills_pilots":
            _, _, sensing, y, nv = make_scene(rows=4, cols=4, k=5, seed=9)
            a, n_stages = sensing, 5
        else:
            _, a, y, nv = rank_four_scene()
            n_stages = 4
        cfg = GridSolverConfig(lambda_init=2 / 16, noise_var=nv)
        assert search_depth(16, cfg.lambda_init, a.shape[0]) == 5
        got = _run_grid(kind, first_pass(y, a, cfg, [kind]), cfg, 2)
        taps, support, error_cov, priors, failed, lengths, *_ = per_antenna_grid(
            kind, y, a, cfg, 2)
        assert np.all(lengths == n_stages) and not failed.any()
        np.testing.assert_array_equal(got.failed, failed)
        np.testing.assert_array_equal(got.support, support)
        np.testing.assert_allclose(got.priors, priors, rtol=1e-12, atol=0)
        for name, want in (("taps", taps), ("error_cov", error_cov)):
            scale = np.abs(want).max()
            np.testing.assert_allclose(getattr(got, name), want, rtol=0, atol=1e-12 * scale)


class TestFirstPassRecord:
    def test_holds_grid_arrays_and_no_chain(self):
        """The record keeps (M, G, .) arrays, the (K, L) pilot rows and
        t_max: the chains are gone, and only the requested currencies'
        beliefs are there."""
        _, _, sensing, y, nv = make_scene(rows=3, cols=4, seed=10)
        cfg = GridSolverConfig(lambda_init=2 / 16, noise_var=nv)
        for kinds in ([BeliefKind.SCORE], [BeliefKind.MARGINAL], list(BeliefKind)):
            first = first_pass(y, sensing, cfg, kinds)
            assert first.t_max == search_depth(16, cfg.lambda_init, 12)
            np.testing.assert_array_equal(first.pilot_rows, sensing)
            assert set(first.values) == set(kinds)
            fields = {f.name: getattr(first, f.name) for f in dataclasses.fields(first)}
            grid_arrays = [fields.pop("ys"), fields.pop("detected"),
                           *fields.pop("values").values()]
            assert set(fields) == {"pilot_rows", "t_max"}
            for array in grid_arrays:
                assert isinstance(array, np.ndarray) and array.shape[:2] == (3, 4)
            np.testing.assert_array_equal(first.detected, uniform_chains(y, sensing, cfg)[1])
            with pytest.raises(dataclasses.FrozenInstanceError):
                first.t_max = 1


class TestRuntimeOrdering:
    def test_integer_based_not_slower_than_marginal_based(self, monkeypatch):
        """The integer variant skips the marginal lattice, so it cannot be
        slower on the same seeds: asserted as an ordering over a workload
        (best of five alternating repeats of each runner's loop) and on the
        lattice calls themselves, of which the integer runner makes none.
        The scenes search T = 7 taps (L = 64, K = 16, as at desk scale), so
        the lattice the integer runner skips has 127 subsets per antenna."""
        import time

        import gridce.sharing as sharing

        scenes = [make_scene(n=128, k=16, length=64, sparsity=3, seed=200 + s)
                  for s in range(4)]

        kinds = {run_integer_based: BeliefKind.SCORE, run_marginal_based: BeliefKind.MARGINAL}

        def run_all(runner):
            for _, _, sensing, y, nv in scenes:
                cfg = GridSolverConfig(lambda_init=3 / 64, noise_var=nv)
                assert search_depth(64, cfg.lambda_init, 16) == 7
                runner(first_pass(y, sensing, cfg, [kinds[runner]]), cfg, 3)

        # the runners alternate, so both see the same machine load
        best = {run_integer_based: float("inf"), run_marginal_based: float("inf")}
        for _ in range(5):
            for runner in best:
                t0 = time.perf_counter()
                run_all(runner)
                best[runner] = min(best[runner], time.perf_counter() - t0)
        assert best[run_integer_based] <= best[run_marginal_based]

        calls = 0
        original = sharing.lattice_marginals

        def counted(*args, **kwargs):
            nonlocal calls
            calls += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(sharing, "lattice_marginals", counted)
        run_all(run_integer_based)
        assert calls == 0
        run_all(run_marginal_based)
        assert calls > 0  # the counter does see the MB lattice
