"""Reliable carriers: distortion model, reliability metric, consensus, refinement.

The per-antenna, set-based consensus and the per-antenna top-U pick that
the stencil and rank-mask versions replaced are kept here as oracles
(``select_and_agree_oracle``, ``top_reliable_oracle``).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridce.channels import AntennaGrid, ArrayKind, generate_channels, neighbors
from gridce.data_aided import (
    carrier_reliability,
    distortion_covariance,
    run_data_aided,
    select_and_agree,
    top_reliable,
)
from gridce.errors import InvalidContextError
from gridce.experiments import error_ratio
from gridce.ofdm import (
    OfdmConfig,
    build_sensing_matrix,
    make_rng,
    modulate_frame,
    place_pilots,
    synthesize_received,
)
from gridce.posterior import ErrorCovariance
from gridce.qam import build_qam_alphabet
from gridce.sharing import GridSolverConfig, run_marginal_based


def full_scene(rows=4, cols=4, n=128, k=16, length=32, sparsity=3, snr_db=15.0,
               seed=0):
    grid = AntennaGrid(rows=rows, cols=cols)
    noise_var = sparsity / (n * 10 ** (snr_db / 10))
    config = OfdmConfig(n, k, 4, length, noise_var)
    channels = generate_channels(grid, length, sparsity, ArrayKind.SIA, 0.0,
                                 make_rng(seed, 0))
    pilots = place_pilots(n, k, (seed, 1))
    frame = modulate_frame(config, pilots, make_rng(seed, 2))
    sensing_full = build_sensing_matrix(frame, length)
    sensing_pilot = build_sensing_matrix(frame, length, restrict_to=pilots)
    observations = synthesize_received(sensing_full, channels.taps, noise_var,
                                       make_rng(seed, 3))
    solver_cfg = GridSolverConfig(lambda_init=sparsity / length,
                                  noise_var=noise_var)
    base = run_marginal_based(grid, observations[..., pilots],
                              sensing_pilot.rows, solver_cfg, 2)
    return grid, channels, config, frame, sensing_full, observations, base, solver_cfg


class TestDistortionCovariance:
    def test_zero_error_covariance(self):
        rng = make_rng(1)
        a = rng.normal(size=(8, 4)) + 1j * rng.normal(size=(8, 4))
        ctx = distortion_covariance(a, np.zeros((4, 4)), noise_var=0.3)
        np.testing.assert_allclose(ctx.per_carrier_var, 0.3, atol=1e-14)

    def test_diagonal_at_least_noise_floor(self):
        rng = make_rng(2)
        a = rng.normal(size=(8, 4)) + 1j * rng.normal(size=(8, 4))
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        cov = ErrorCovariance(taps=np.arange(4), matrix=m @ m.conj().T)
        ctx = distortion_covariance(a, cov, noise_var=0.1)
        assert np.all(ctx.per_carrier_var >= 0.1 - 1e-12)

    def test_detected_taps_match_full_matrix(self):
        """A T x T covariance on its taps gives the same carrier variances as
        the L x L matrix it embeds into."""
        rng = make_rng(4)
        a = rng.normal(size=(6, 5)) + 1j * rng.normal(size=(6, 5))
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        taps = np.array([3, 1])
        full = np.zeros((5, 5), complex)
        full[np.ix_(taps, taps)] = m @ m.conj().T
        on_taps = distortion_covariance(a, ErrorCovariance(taps, m @ m.conj().T), 0.1)
        np.testing.assert_allclose(on_taps.per_carrier_var,
                                   distortion_covariance(a, full, 0.1).per_carrier_var,
                                   rtol=1e-12)

    def test_rank_one_expansion(self):
        """R = s^2 e_k e_k^H gives diag entries s^2 |A_ik|^2 + noise."""
        rng = make_rng(3)
        a = rng.normal(size=(6, 5)) + 1j * rng.normal(size=(6, 5))
        r = np.zeros((5, 5), complex)
        r[2, 2] = 0.7
        ctx = distortion_covariance(a, r, noise_var=0.05)
        expected = 0.7 * np.abs(a[:, 2]) ** 2 + 0.05
        np.testing.assert_allclose(ctx.per_carrier_var, expected, atol=1e-12)


class TestCarrierReliability:
    def test_origin_equidistant(self):
        """4-QAM at the origin: one numerator over three equal terms -> 1/3."""
        alph = build_qam_alphabet(4)
        m = carrier_reliability(np.array([0.0 + 0.0j]), np.array([0.5]), alph)
        assert abs(m[0] - 1 / 3) < 1e-12

    def test_on_point_small_variance_capped(self):
        alph = build_qam_alphabet(4)
        m = carrier_reliability(alph.points[:1], np.array([1e-12]), alph)
        assert np.isfinite(m[0])
        assert m[0] >= 1e290

    def test_monotone_toward_point(self):
        """Reliability strictly increases moving from the decision boundary
        toward the constellation point along the real axis."""
        alph = build_qam_alphabet(4)
        target = (1 + 1j) / np.sqrt(2)
        xs = np.linspace(0.02, target.real, 25) + 1j * target.imag
        m = carrier_reliability(xs, np.full(25, 0.3), alph)
        assert np.all(np.diff(m) > 0)

    def test_scale_invariance_of_density_ratio(self):
        """Common positive scaling of all densities cancels in the ratio:
        doubling the variance changes the value smoothly but the ratio form
        itself stays positive and finite."""
        alph = build_qam_alphabet(16)
        rng = make_rng(5)
        x = rng.normal(size=20) + 1j * rng.normal(size=20)
        m = carrier_reliability(x, np.full(20, 0.2), alph)
        assert np.all(m > 0) and np.all(np.isfinite(m))

    def test_nonpositive_variance_rejected(self):
        alph = build_qam_alphabet(4)
        with pytest.raises(InvalidContextError):
            carrier_reliability(np.array([0.1 + 0.1j]), np.array([0.0]), alph)


def top_reliable_oracle(reliability, eligible, count):
    """Indices of the ``count`` most reliable eligible carriers (ties to the
    lower carrier index), sorted ascending: the per-antenna reference."""
    idx = np.flatnonzero(eligible)
    if idx.size <= count:
        return np.sort(idx)
    order = np.lexsort((idx, -reliability[idx]))
    return np.sort(idx[order[:count]])


def select_and_agree_oracle(grid, top_sets, hard_decisions, pilot_indices):
    """Per-antenna consensus over Python sets: the intersection of the
    neighborhood's top sets minus the pilots, pruned to carriers where every
    member made the same hard decision.  Returns [row][col] (consensus,
    agreed symbols)."""
    pilot_set = set(int(i) for i in pilot_indices)
    out = [[None] * grid.cols for _ in range(grid.rows)]
    for r, c in grid.antennas():
        members = [(r, c)] + neighbors(grid, (r, c))
        common = set(int(i) for i in top_sets[r][c])
        for mr, mc in members[1:]:
            common &= set(int(i) for i in top_sets[mr][mc])
        common -= pilot_set
        agreed = []
        for i in sorted(common):
            decisions = np.array([hard_decisions[mr, mc, i] for mr, mc in members])
            if np.all(decisions == decisions[0]):
                agreed.append(i)
        consensus = np.array(agreed, dtype=int)
        out[r][c] = (consensus, hard_decisions[r, c, consensus])
    return out


def top_masks(shape, index_sets):
    """(M, G, N) mask from [row][col] carrier index lists."""
    mask = np.zeros(shape, dtype=bool)
    for r, row in enumerate(index_sets):
        for c, idx in enumerate(row):
            mask[r, c, idx] = True
    return mask


QAM4 = build_qam_alphabet(4)
PROPERTY = settings(max_examples=200, deadline=None, derandomize=True)


class TestSelectAndAgree:
    def test_unanimous_neighborhood_keeps_all(self):
        top = top_masks((3, 3, 16), [[[4, 9, 13]] * 3] * 3)
        decisions = np.full((3, 3, 16), 3)  # (1+1j)/sqrt(2) everywhere
        sets = select_and_agree(top, decisions, np.array([0, 1]), QAM4)
        assert list(sets[1][1].consensus) == [4, 9, 13]
        np.testing.assert_array_equal(sets[1][1].agreed_symbols, QAM4.points[[3, 3, 3]])

    def test_disjoint_sets_empty(self):
        top = top_masks((1, 2, 16), [[[3], [7]]])
        decisions = np.zeros((1, 2, 16), dtype=int)
        sets = select_and_agree(top, decisions, np.array([]), QAM4)
        assert sets[0][0].consensus.size == 0

    def test_disagreeing_decisions_pruned(self):
        top = top_masks((1, 2, 16), [[[3, 5], [3, 5]]])
        decisions = np.zeros((1, 2, 16), dtype=int)
        decisions[0, 0, 3] = 3
        decisions[0, 1, 3] = 2  # disagree on 3
        decisions[0, :, 5] = 0
        sets = select_and_agree(top, decisions, np.array([]), QAM4)
        assert list(sets[0][0].consensus) == [5]

    def test_pilots_excluded(self):
        top = top_masks((1, 1, 8), [[[2, 3]]])
        decisions = np.ones((1, 1, 8), dtype=int)
        sets = select_and_agree(top, decisions, np.array([2]), QAM4)
        assert list(sets[0][0].consensus) == [3]

    def test_top_u_size_contract(self):
        rng = make_rng(6)
        reliability = rng.random(32)
        eligible = np.ones(32, bool)
        eligible[:4] = False
        assert top_reliable(reliability, eligible, 10).sum() == 10
        assert top_reliable(reliability, eligible, 40).sum() == 28


@st.composite
def consensus_inputs(draw):
    """A grid of any shape (1x1, 1xN, Nx1, non-square), random top sets,
    decisions that mostly agree across antennas, pilots that may sit inside
    the top sets."""
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    n = draw(st.integers(1, 24))
    order = draw(st.sampled_from([4, 16]))
    rng = make_rng(draw(st.integers(0, 2**32 - 1)))
    top = rng.random((rows, cols, n)) < draw(st.sampled_from([0.3, 0.7, 0.95, 1.0]))
    decisions = np.broadcast_to(rng.integers(0, order, size=n), (rows, cols, n)).copy()
    flips = rng.random((rows, cols, n)) < draw(st.sampled_from([0.0, 0.05, 0.3]))
    decisions[flips] = rng.integers(0, order, size=int(flips.sum()))
    pilots = np.flatnonzero(rng.random(n) < draw(st.sampled_from([0.0, 0.2, 0.5])))
    return AntennaGrid(rows=rows, cols=cols), top, decisions, pilots, order


class TestStencilConsensus:
    """Stencil consensus and rank-mask top-U against the per-antenna oracles."""

    @PROPERTY
    @given(consensus_inputs())
    def test_matches_set_based_consensus(self, case):
        grid, top, decisions, pilots, order = case
        alphabet = build_qam_alphabet(order)
        sets = select_and_agree(top, decisions, pilots, alphabet)
        top_sets = [[np.flatnonzero(top[r, c]) for c in range(grid.cols)]
                    for r in range(grid.rows)]
        want = select_and_agree_oracle(grid, top_sets, alphabet.points[decisions], pilots)
        for r, c in grid.antennas():
            consensus, symbols = want[r][c]
            np.testing.assert_array_equal(sets[r][c].consensus, consensus)
            np.testing.assert_array_equal(sets[r][c].agreed_symbols, symbols)
            np.testing.assert_array_equal(sets[r][c].own_top, top_sets[r][c])

    @PROPERTY
    @given(st.integers(1, 6), st.integers(1, 40), st.integers(0, 2**32 - 1),
           st.sampled_from([2, 5, 1000]))
    def test_top_u_matches_per_antenna_pick(self, n_rows, n, seed, levels):
        """Few reliability levels force ties; budgets run past the eligible
        count; the cap and zero are among the values."""
        rng = make_rng(seed)
        values = np.array([0.0, 1e300, *rng.random(levels)])
        reliability = values[rng.integers(0, values.size, size=(n_rows, n))]
        eligible = rng.random((n_rows, n)) < 0.7
        count = rng.integers(0, n + 4, size=n_rows)
        mask = top_reliable(reliability, eligible, count)
        for i in range(n_rows):
            np.testing.assert_array_equal(
                np.flatnonzero(mask[i]),
                top_reliable_oracle(reliability[i], eligible[i], count[i]),
            )


class TestRunDataAided:
    def test_refinement_improves_or_matches_base(self):
        grid, channels, config, frame, sensing_full, obs, base, cfg = full_scene()
        refined = run_data_aided(grid, frame, sensing_full, obs, base, cfg,
                                 config.alphabet)
        base_ratio = error_ratio(channels.taps, base.taps)
        refined_ratio = error_ratio(channels.taps, refined.taps)
        assert refined_ratio <= base_ratio * 1.05

    def test_consensus_symbols_are_true_symbols_at_high_snr(self):
        grid, channels, config, frame, sensing_full, obs, base, cfg = full_scene(
            snr_db=25.0, seed=2
        )
        refined = run_data_aided(grid, frame, sensing_full, obs, base, cfg,
                                 config.alphabet, n_reliable=8)
        fallback = refined.diagnostics["fallback_no_consensus"]
        assert not fallback.all()  # some antennas did refine

    def test_noiseless_consistent_augmentation(self):
        """Noiseless with an exact base estimate: all decisions are correct,
        the augmented rows equal the true ones and the refined NMSE does not
        exceed the base NMSE."""
        grid, channels, config, frame, sensing_full, obs, base, cfg = full_scene(
            snr_db=90.0, seed=3
        )
        base_ratio = error_ratio(channels.taps, base.taps)
        refined = run_data_aided(grid, frame, sensing_full, obs, base, cfg,
                                 config.alphabet)
        refined_ratio = error_ratio(channels.taps, refined.taps)
        assert refined_ratio <= base_ratio + 1e-12

    def test_empty_consensus_returns_base(self):
        """With n_reliable=2 and decorrelated rankings some antennas fall
        back; their outputs must equal the base estimates exactly."""
        grid, channels, config, frame, sensing_full, obs, base, cfg = full_scene(
            seed=4, snr_db=10.0
        )
        refined = run_data_aided(grid, frame, sensing_full, obs, base, cfg,
                                 config.alphabet, n_reliable=2)
        fallback = refined.diagnostics["fallback_no_consensus"]
        for r, c in grid.antennas():
            if fallback[r, c]:
                np.testing.assert_array_equal(refined.taps[r, c], base.taps[r, c])

    def test_equivalent_to_genuine_pilots_when_decisions_correct(self):
        """Correctly decided consensus carriers are genuine pilots: a fresh
        solve treating those carriers as pilots (rows from the true frame
        symbols) reproduces the refined estimates, so the paired NMSE
        distributions coincide (KS distance < 0.1)."""
        from gridce.solver import BernoulliPrior, greedy_search

        ratios_aided, ratios_pilot = [], []
        for seed in range(10):
            grid, channels, config, frame, sensing_full, obs, base, cfg = full_scene(
                rows=3, cols=3, snr_db=20.0, seed=50 + seed
            )
            refined = run_data_aided(grid, frame, sensing_full, obs, base, cfg,
                                     config.alphabet, n_reliable=12)
            agreements = refined.diagnostics["agreements"]
            pilots = frame.pilot_indices
            t_max = cfg.resolve_t_max(32, pilots.size)
            for r, c in grid.antennas():
                reliable = agreements[r][c]
                if reliable.consensus.size == 0:
                    continue
                correct = np.allclose(
                    reliable.agreed_symbols,
                    frame.freq_symbols[reliable.consensus],
                )
                if not correct:
                    continue
                idx = np.concatenate([pilots, reliable.consensus])
                a_pilot_run = sensing_full.rows[idx]  # rows from true symbols
                est = greedy_search(
                    a_pilot_run, obs[r, c, idx],
                    BernoulliPrior(base.priors[r, c]),
                    base.noise_vars[r, c], t_max,
                )
                h_true = channels.taps[r, c]
                energy = float(np.sum(np.abs(h_true) ** 2))
                ratios_aided.append(
                    float(np.sum(np.abs(refined.taps[r, c] - h_true) ** 2)) / energy
                )
                ratios_pilot.append(
                    float(np.sum(np.abs(est.h_ammse - h_true) ** 2)) / energy
                )
                np.testing.assert_allclose(
                    refined.taps[r, c], est.h_ammse, atol=1e-12
                )
        assert len(ratios_aided) >= 20
        a = np.sort(ratios_aided)
        b = np.sort(ratios_pilot)
        grid_pts = np.union1d(a, b)
        ks = np.max(np.abs(
            np.searchsorted(a, grid_pts, side="right") / a.size
            - np.searchsorted(b, grid_pts, side="right") / b.size
        ))
        assert ks < 0.1
