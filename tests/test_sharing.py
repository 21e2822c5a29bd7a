"""Belief sharing: scores, averaging rounds, grid algorithms."""

import numpy as np
import pytest

from gridce.channels import AntennaGrid, ArrayKind, generate_channels
from gridce.errors import ConfigurationError, IllConditionedSupportError
from gridce.ofdm import (
    OfdmConfig,
    build_sensing_matrix,
    make_rng,
    modulate_frame,
    place_pilots,
    synthesize_received,
)
from gridce.posterior import compute_marginals, error_covariance
from gridce.sharing import (
    BeliefKind,
    BeliefState,
    GridSolverConfig,
    _run_grid,
    assign_scores,
    average_marginals_round,
    average_scores_round,
    run_integer_based,
    run_marginal_based,
    scores_to_beliefs,
    stencil_gather,
    stencil_reduce,
)
from gridce.solver import BernoulliPrior, SparseEstimate, greedy_search
from oracles import neighbors


def make_scene(rows=5, cols=5, n=64, k=12, length=16, sparsity=2, snr_db=15.0,
               seed=0, kind=ArrayKind.SIA, drift=0.0):
    grid = AntennaGrid(rows=rows, cols=cols)
    noise_var = sparsity / (n * 10 ** (snr_db / 10))
    config = OfdmConfig(n, k, 4, length, noise_var)
    channels = generate_channels(grid, length, sparsity, kind, drift,
                                 make_rng(seed, 0))
    pilots = place_pilots(n, k, (seed, 1))
    frame = modulate_frame(config, pilots, make_rng(seed, 2))
    sensing = build_sensing_matrix(frame, length, restrict_to=pilots)
    y = synthesize_received(
        build_sensing_matrix(frame, length), channels.taps, noise_var,
        make_rng(seed, 3),
    )[..., pilots]
    return grid, channels, sensing, y, noise_var


def fake_estimate(length, taps, amplitudes):
    h = np.zeros(length, complex)
    h[taps] = amplitudes
    return SparseEstimate(
        supports=[np.array(taps[: i + 1]) for i in range(len(taps))],
        posteriors=np.full(len(taps), 1 / len(taps)),
        cond_means=[h[np.array(taps[: i + 1])] for i in range(len(taps))],
        residuals=np.zeros(len(taps)),
        nus=np.zeros(len(taps)),
        gram_inverses=[None] * len(taps),
        channel_len=length,
        noise_var=0.01,
        t_max=len(taps),
        h_ammse=h,
    )


class TestStencils:
    """The array stencils against the set-based ``neighbors`` oracle."""

    @pytest.mark.parametrize("rows,cols", [(1, 1), (1, 5), (5, 1), (3, 4)])
    def test_gather_stacks_members_with_zero_rows_outside(self, rows, cols):
        grid = AntennaGrid(rows=rows, cols=cols)
        x = make_rng(rows, cols).normal(size=(rows, cols, 2)) + 1.0
        members = stencil_gather(x)
        assert members.shape == (rows, cols, 5, 2)
        for r, c in grid.antennas():
            inside = [(r, c)] + neighbors(grid, (r, c))
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
    def test_rank_by_amplitude(self):
        est = fake_estimate(16, [2, 7, 11], [0.9, 0.1, 0.5])
        scores = assign_scores(est)
        assert scores[2] == 3 and scores[11] == 2 and scores[7] == 1

    def test_undetected_zero(self):
        est = fake_estimate(16, [2, 7, 11], [0.9, 0.1, 0.5])
        scores = assign_scores(est)
        others = np.setdiff1d(np.arange(16), [2, 7, 11])
        assert np.all(scores[others] == 0)

    def test_ties_rank_lower_tap_higher(self):
        est = fake_estimate(16, [9, 4], [0.5, 0.5])
        scores = assign_scores(est)
        assert scores[4] == 2 and scores[9] == 1


def marginal_state(rows, cols, length):
    values = np.zeros((rows, cols, length))
    detected = np.zeros((rows, cols, length), dtype=bool)
    return values, detected


class TestMarginalRound:
    def test_average_of_equals(self):
        grid = AntennaGrid(rows=3, cols=3)
        values, detected = marginal_state(3, 3, 8)
        values[..., 2] = 0.8
        detected[..., 2] = True
        state = BeliefState(BeliefKind.MARGINAL, values, detected)
        out = average_marginals_round(grid, state, 1e-3)
        assert np.allclose(out.values[..., 2], 0.8)

    def test_single_detector_center(self):
        """Center holds 1.0, 4 neighbors undetected, |N+|=5 -> 0.2."""
        grid = AntennaGrid(rows=3, cols=3)
        values, detected = marginal_state(3, 3, 8)
        values[1, 1, 5] = 1.0
        detected[1, 1, 5] = True
        state = BeliefState(BeliefKind.MARGINAL, values, detected)
        out = average_marginals_round(grid, state, 1e-3)
        assert abs(out.values[1, 1, 5] - 0.2) < 1e-12

    def test_nobody_detected_gets_lambda_small(self):
        grid = AntennaGrid(rows=3, cols=3)
        values, detected = marginal_state(3, 3, 8)
        values[1, 1, 5] = 1.0
        detected[1, 1, 5] = True
        state = BeliefState(BeliefKind.MARGINAL, values, detected)
        out = average_marginals_round(grid, state, 1e-3)
        assert out.values[0, 0, 3] == 1e-3  # tap 3 in nobody's gate

    def test_range_preserved(self):
        grid = AntennaGrid(rows=4, cols=4)
        rng = make_rng(5)
        values = rng.random((4, 4, 8))
        detected = rng.random((4, 4, 8)) < 0.4
        state = BeliefState(BeliefKind.MARGINAL, values * detected, detected)
        for _ in range(4):
            state = average_marginals_round(grid, state, 1e-3)
            assert state.values.min() >= 0 and state.values.max() <= 1

    def test_sia_fixed_point(self):
        """Identical marginal vectors and gates are unchanged by a round."""
        grid = AntennaGrid(rows=4, cols=4)
        values, detected = marginal_state(4, 4, 8)
        values[..., [1, 6]] = [0.7, 0.3]
        detected[..., [1, 6]] = True
        state = BeliefState(BeliefKind.MARGINAL, values, detected)
        out = average_marginals_round(grid, state, 1e-3)
        inside = detected
        np.testing.assert_allclose(out.values[inside], values[inside], atol=1e-12)


class TestScoreRound:
    def test_ceiling_arithmetic(self):
        """Scores {3,0,2,1,3} over a 5-member neighborhood -> ceil(1.8) = 2."""
        grid = AntennaGrid(rows=3, cols=3)
        values, detected = marginal_state(3, 3, 4)
        # center and 4 neighbors of (1,1)
        members = [(1, 1), (0, 1), (2, 1), (1, 0), (1, 2)]
        for (r, c), s in zip(members, [3, 0, 2, 1, 3]):
            values[r, c, 0] = s
            detected[r, c, 0] = s > 0
        state = BeliefState(BeliefKind.SCORE, values, detected)
        out = average_scores_round(grid, state, final=False)
        assert out.values[1, 1, 0] == 2

    def test_final_round_keeps_raw_average(self):
        grid = AntennaGrid(rows=3, cols=3)
        values, detected = marginal_state(3, 3, 4)
        members = [(1, 1), (0, 1), (2, 1), (1, 0), (1, 2)]
        for (r, c), s in zip(members, [3, 0, 2, 1, 3]):
            values[r, c, 0] = s
            detected[r, c, 0] = s > 0
        state = BeliefState(BeliefKind.SCORE, values, detected)
        out = average_scores_round(grid, state, final=True)
        assert abs(out.values[1, 1, 0] - 1.8) < 1e-12

    def test_absent_tap_zero(self):
        grid = AntennaGrid(rows=3, cols=3)
        values, detected = marginal_state(3, 3, 4)
        values[1, 1, 0] = 2.0
        detected[1, 1, 0] = True
        state = BeliefState(BeliefKind.SCORE, values, detected)
        out = average_scores_round(grid, state, final=False)
        assert out.values[0, 0, 2] == 0.0

    def test_integrality_until_final(self):
        grid = AntennaGrid(rows=4, cols=4)
        rng = make_rng(7)
        values = np.floor(rng.random((4, 4, 6)) * 4)
        detected = values > 0
        state = BeliefState(BeliefKind.SCORE, values, detected)
        for _ in range(3):
            state = average_scores_round(grid, state, final=False)
            assert np.all(state.values == np.round(state.values))
        final = average_scores_round(grid, state, final=True)
        assert not np.all(final.values == np.round(final.values))


class TestScoresToBeliefs:
    def test_max_score_clamped(self):
        b = scores_to_beliefs(np.array([3.0]), t_max=3, lambda_small=1e-3)
        assert abs(b[0] - (1 - 1e-6)) < 1e-9

    def test_arithmetic(self):
        b = scores_to_beliefs(np.array([1.8]), t_max=3, lambda_small=1e-3)
        assert abs(b[0] - 0.6) < 1e-12

    def test_zero_clamped_to_lambda_small(self):
        b = scores_to_beliefs(np.array([0.0]), t_max=3, lambda_small=1e-3)
        assert b[0] == 1e-3


class TestGridAlgorithms:
    def test_depth_zero_marginal_is_self_reestimation(self):
        grid, channels, sensing, y, nv = make_scene()
        cfg = GridSolverConfig(lambda_init=2 / 16, noise_var=nv)
        out = run_marginal_based(grid, y, sensing.rows, cfg, depth=0)
        assert not out.failed.any()
        # priors at undetected taps sit at lambda_small
        for r, c in grid.antennas():
            low = np.setdiff1d(np.arange(16), out.support[r, c])
            assert np.all(out.priors[r, c][low] <= 0.5)

    def test_depth_zero_integer(self):
        grid, channels, sensing, y, nv = make_scene(seed=1)
        cfg = GridSolverConfig(lambda_init=2 / 16, noise_var=nv)
        out = run_integer_based(grid, y, sensing.rows, cfg, depth=0)
        assert not out.failed.any()

    def test_negative_depth_rejected(self):
        grid, channels, sensing, y, nv = make_scene(seed=2)
        cfg = GridSolverConfig(lambda_init=2 / 16, noise_var=nv)
        with pytest.raises(ConfigurationError):
            run_marginal_based(grid, y, sensing.rows, cfg, depth=-1)

    def test_sharing_does_not_hurt_detection_sia(self):
        """Noiseless-ish SIA with K >= 2n+2: support detection rate of the
        final estimates is at least the first-pass rate, over paired seeds."""
        before_hits = after_hits = total = 0
        from gridce.solver import BernoulliPrior, greedy_search

        for seed in range(25):
            grid, channels, sensing, y, nv = make_scene(
                rows=5, cols=5, k=6, length=16, sparsity=2, snr_db=40.0,
                seed=100 + seed,
            )
            cfg = GridSolverConfig(lambda_init=2 / 16, noise_var=nv)
            out = run_marginal_based(grid, y, sensing.rows, cfg, depth=2)
            prior0 = BernoulliPrior.uniform(16, 2 / 16)
            t_max = cfg.resolve_t_max(16, 6)
            for r, c in grid.antennas():
                true = set(channels.support_set((r, c)))
                first = greedy_search(sensing.rows, y[r, c], prior0, nv, t_max)
                before_hits += len(true & set(int(t) for t in first.detected_taps))
                after_hits += len(true & set(int(t) for t in out.support[r, c]))
                total += len(true)
        assert after_hits >= before_hits
        assert after_hits / total > 0.9

    def test_locality(self):
        """Perturbing one corner antenna's observation leaves estimates at
        Manhattan distance > depth bit-identical."""
        grid, channels, sensing, y, nv = make_scene(rows=6, cols=6, seed=3)
        cfg = GridSolverConfig(lambda_init=2 / 16, noise_var=nv)
        depth = 2
        out1 = run_marginal_based(grid, y, sensing.rows, cfg, depth)
        y2 = y.copy()
        y2[0, 0] += 0.5 * np.exp(1j)  # perturb corner antenna only
        out2 = run_marginal_based(grid, y2, sensing.rows, cfg, depth)
        for r, c in grid.antennas():
            if abs(r - 0) + abs(c - 0) > depth:
                np.testing.assert_array_equal(out1.taps[r, c], out2.taps[r, c])
        # sanity: the perturbed antenna itself changed
        assert not np.array_equal(out1.taps[0, 0], out2.taps[0, 0])

    def test_integer_locality(self):
        grid, channels, sensing, y, nv = make_scene(rows=6, cols=6, seed=4)
        cfg = GridSolverConfig(lambda_init=2 / 16, noise_var=nv)
        depth = 1
        out1 = run_integer_based(grid, y, sensing.rows, cfg, depth)
        y2 = y.copy()
        y2[5, 5] *= 1.3
        out2 = run_integer_based(grid, y2, sensing.rows, cfg, depth)
        for r, c in grid.antennas():
            if abs(r - 5) + abs(c - 5) > depth:
                np.testing.assert_array_equal(out1.taps[r, c], out2.taps[r, c])

    def test_deterministic_rerun(self):
        grid, channels, sensing, y, nv = make_scene(seed=5)
        cfg = GridSolverConfig(lambda_init=2 / 16, noise_var=nv)
        a = run_marginal_based(grid, y, sensing.rows, cfg, 2)
        b = run_marginal_based(grid, y, sensing.rows, cfg, 2)
        np.testing.assert_array_equal(a.taps, b.taps)
        np.testing.assert_array_equal(a.priors, b.priors)

    def test_integer_rounds_exchange_integers(self):
        """Belief buffers hold integers after every non-final round."""
        grid, channels, sensing, y, nv = make_scene(seed=6)
        from gridce.sharing import BeliefState, BeliefKind, assign_scores
        from gridce.solver import BernoulliPrior, greedy_search

        cfg = GridSolverConfig(lambda_init=2 / 16, noise_var=nv)
        t_max = cfg.resolve_t_max(16, 12)
        values = np.zeros((5, 5, 16))
        detected = np.zeros((5, 5, 16), dtype=bool)
        prior0 = BernoulliPrior.uniform(16, 2 / 16)
        for r, c in grid.antennas():
            est = greedy_search(sensing.rows, y[r, c], prior0, nv, t_max)
            values[r, c] = assign_scores(est)
            detected[r, c, est.detected_taps] = True
        state = BeliefState(BeliefKind.SCORE, values, detected)
        for i in range(3):
            state = average_scores_round(grid, state, final=(i == 2))
            if i < 2:
                assert np.all(state.values == np.round(state.values))

    def test_trace_dump(self, tmp_path):
        grid, channels, sensing, y, nv = make_scene(rows=3, cols=3, seed=7)
        path = tmp_path / "trace.csv"
        cfg = GridSolverConfig(lambda_init=2 / 16, noise_var=nv,
                               trace_path=str(path))
        run_marginal_based(grid, y, sensing.rows, cfg, 2)
        lines = path.read_text().splitlines()
        assert lines[0] == "round,antenna_row,antenna_col,tap,value"
        assert len(lines) > 1
        rounds = {int(line.split(",")[0]) for line in lines[1:]}
        assert rounds == {0, 1, 2}

    def test_paper_scale_runs(self):
        """D=3 on a 20x20 grid completes end to end."""
        grid, channels, sensing, y, nv = make_scene(rows=20, cols=20, seed=8)
        cfg = GridSolverConfig(lambda_init=2 / 16, noise_var=nv)
        out = run_marginal_based(grid, y, sensing.rows, cfg, 3)
        assert out.taps.shape == (20, 20, 16)
        assert not out.failed.any()


def per_antenna_grid(kind, grid, observations, sensing_rows, config, depth):
    """The per-antenna composition the one-stack passes replaced, kept as
    the oracle: greedy_search at every antenna, then compute_marginals or
    assign_scores for the first-pass beliefs, and error_covariance after
    the final pass, zero-padded to T.  Returns the GridEstimate fields and
    the final chain lengths."""
    rows, cols, _ = observations.shape
    k, length = sensing_rows.shape
    t_max = config.resolve_t_max(length, k)

    def solve(r, c, lambdas):
        try:
            return greedy_search(sensing_rows, observations[r, c], BernoulliPrior(lambdas),
                                 config.noise_var, t_max)
        except IllConditionedSupportError:
            return None

    values = np.zeros((rows, cols, length))
    detected = np.zeros((rows, cols, length), dtype=bool)
    failed = np.zeros((rows, cols), dtype=bool)
    for r, c in grid.antennas():
        prior = np.full(length, config.lambda_init)
        est = solve(r, c, prior)
        if est is None:
            failed[r, c] = True
            continue
        values[r, c] = (
            compute_marginals(est, sensing_rows, observations[r, c], BernoulliPrior(prior))
            .marginal_vector(length) if kind is BeliefKind.MARGINAL else assign_scores(est)
        )
        detected[r, c, est.detected_taps] = True
    state = BeliefState(kind, values, detected)
    for i in range(depth):
        state = (average_marginals_round(grid, state, config.lambda_small)
                 if kind is BeliefKind.MARGINAL
                 else average_scores_round(grid, state, final=(i == depth - 1)))
    scale = t_max if kind is BeliefKind.SCORE else 1
    priors = scores_to_beliefs(state.values, scale, config.lambda_small)

    taps = np.zeros((rows, cols, length), dtype=complex)
    support = np.zeros((rows, cols, t_max), dtype=int)
    error_cov = np.zeros((rows, cols, t_max, t_max), dtype=complex)
    lengths = np.zeros((rows, cols), dtype=int)
    for r, c in grid.antennas():
        est = solve(r, c, priors[r, c])
        if est is None:
            failed[r, c] = True
            continue
        cov = error_covariance(est)
        t = lengths[r, c] = cov.taps.size
        taps[r, c], support[r, c, :t], error_cov[r, c, :t, :t] = est.h_ammse, cov.taps, cov.matrix
    return taps, support, error_cov, priors, failed, lengths


def rank_four_scene(seed=0, rows=4, cols=4, k=12, length=16):
    """Pilot rows with only four nonzero columns: every chain stops after
    four of its T = 5 stages.  Each stage still has a unique best pick, so
    the batched and per-antenna searches cannot part on a rounding tie."""
    rng = make_rng(seed)
    grid = AntennaGrid(rows=rows, cols=cols)
    a = np.zeros((k, length), complex)
    # tap 0 is a true tap: padding, which reads tap 0, must not overwrite it
    a[:, [0, 5, 6, 12]] = rng.normal(size=(k, 4)) + 1j * rng.normal(size=(k, 4))
    h = np.zeros((rows, cols, length), complex)
    h[..., [0, 12]] = rng.normal(size=(rows, cols, 2)) + 1j * rng.normal(size=(rows, cols, 2))
    y = h @ a.T + 0.1 * (rng.normal(size=(rows, cols, k)) + 1j * rng.normal(size=(rows, cols, k)))
    return grid, a, y, 0.02


class TestOneStackPasses:
    """``_run_grid`` against the per-antenna composition it replaced."""

    @pytest.mark.parametrize("kind", list(BeliefKind))
    @pytest.mark.parametrize("case", ["t_max_fills_pilots", "rank_deficient"])
    def test_matches_per_antenna_composition(self, kind, case):
        if case == "t_max_fills_pilots":
            grid, _, sensing, y, nv = make_scene(rows=4, cols=4, k=5, seed=9)
            a, n_stages = sensing.rows, 5
        else:
            grid, a, y, nv = rank_four_scene()
            n_stages = 4
        cfg = GridSolverConfig(lambda_init=2 / 16, noise_var=nv)
        assert cfg.resolve_t_max(16, a.shape[0]) == 5
        got = _run_grid(kind, grid, y, a, cfg, 2)
        taps, support, error_cov, priors, failed, lengths = per_antenna_grid(
            kind, grid, y, a, cfg, 2)
        assert np.all(lengths == n_stages) and not failed.any()
        np.testing.assert_array_equal(got.failed, failed)
        np.testing.assert_array_equal(got.support, support)
        np.testing.assert_allclose(got.priors, priors, rtol=1e-12, atol=0)
        for name, want in (("taps", taps), ("error_cov", error_cov)):
            scale = np.abs(want).max()
            np.testing.assert_allclose(getattr(got, name), want, rtol=0, atol=1e-12 * scale)


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

        def run_all(runner):
            for grid, channels, sensing, y, nv in scenes:
                cfg = GridSolverConfig(lambda_init=3 / 64, noise_var=nv)
                assert cfg.resolve_t_max(64, 16) == 7
                runner(grid, y, sensing.rows, cfg, 3)

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
