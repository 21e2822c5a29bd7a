"""Reliable carriers: distortion model, reliability metric, consensus, refinement.

The per-antenna, set-based consensus, the per-antenna top-U pick and the
per-antenna carrier budget that the stencil, rank-mask and grid versions
replaced are kept here as oracles (``select_and_agree_oracle``,
``top_reliable_oracle``, ``reliable_budget_oracle``).  So are the
generic-matrix products the DFT closed forms replaced: the distortion
variances diag(A R A^H) of any A (``distortion_covariance_oracle``), the
explicit augmented rows (``augmented_products_oracle``), the per-antenna
re-estimation loop (``reestimate_oracle``) and the log-domain reliability
over a length-Q axis with its put/max peak (``carrier_reliability_oracle``).
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridce.channels import generate_channels
import gridce.data_aided
from gridce import experiments
from gridce.data_aided import (
    ANTENNA_CHUNK,
    MIN_RELIABLE,
    RELIABILITY_CAP,
    RHO_REFERENCE,
    ReliableSet,
    _CAPPED,
    _RowDistortion,
    _capped_for_sure,
    _top_carriers,
    carrier_reliability,
    distortion_covariance,
    reestimation_inputs,
    reliable_budget,
    run_data_aided,
    select_and_agree,
    toeplitz_grams,
    top_reliable,
)
from gridce.errors import InvalidContextError
from gridce.experiments import ExperimentSpec, error_ratio
from gridce.ofdm import (
    ZF_MIN_GAIN,
    detect,
    freq_response,
    make_rng,
    modulate_frame,
    place_pilots,
)
from gridce.qam import build_qam_alphabet
from gridce.sharing import (
    BeliefKind,
    GridEstimate,
    GridSolverConfig,
    first_pass,
    run_marginal_based,
)
from gridce.solver import greedy_search_batch, search_depth
from oracles import (
    dense_rows,
    eager_reliable_sets,
    error_covariance,
    greedy_search,
    nearest_indices_oracle,
    neighbors,
    reestimation_inputs_oracle,
    sq_distances_oracle,
    synthesize_received_oracle,
    top_carriers_oracle,
    truncated_dft,
)

QAM4 = build_qam_alphabet(4)
PROPERTY = settings(max_examples=200, deadline=None, derandomize=True)


def full_scene(rows=4, cols=4, n=128, k=16, length=32, sparsity=3, snr_db=15.0,
               seed=0, qam=4):
    noise_var = sparsity / (n * 10 ** (snr_db / 10))
    alphabet = build_qam_alphabet(qam)
    true_taps = generate_channels((rows, cols), length, sparsity, "SIA", 0.0,
                                  make_rng(seed, 0))
    pilots = place_pilots(n, k, make_rng(seed, 1))
    frame = modulate_frame(alphabet, n, pilots, make_rng(seed, 2))
    full_rows = dense_rows(frame, length)
    observations = synthesize_received_oracle(full_rows, true_taps, noise_var,
                                              make_rng(seed, 3))
    solver_cfg = GridSolverConfig(lambda_init=sparsity / length,
                                  noise_var=noise_var)
    first = first_pass(observations[..., pilots], full_rows[pilots], solver_cfg,
                       [BeliefKind.MARGINAL])
    base = run_marginal_based(first, solver_cfg, 2)
    return (rows, cols), true_taps, alphabet, frame, full_rows, observations, base, solver_cfg


def distortion_covariance_oracle(a, err_cov, noise_var, taps=None):
    """diag(A R A^H) + sigma_w^2 for any A (N, L): R on all L columns, or on
    ``taps`` columns, or a stack of (B, T, T) covariances on (B, T) taps, by
    gathering the (B, N, T) rows; the generic form the DFT one replaced."""
    if taps is not None:
        a = np.moveaxis(a[:, taps], 0, -2)
    diag = np.einsum("...ij,...ij->...i", a @ err_cov, a.conj()).real
    return diag + np.asarray(noise_var, dtype=float)[..., None]


def assert_close(got, want, rtol=1e-12):
    """Agreement within ``rtol`` of the largest entry of ``want``."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.abs(got - want).max(initial=0.0) <= rtol * np.abs(want).max(initial=0.0)


def random_symbols(rng, n, order=4):
    return build_qam_alphabet(order).points[rng.integers(0, order, size=n)]


class TestDistortionCovariance:
    def test_zero_error_covariance(self):
        symbols = random_symbols(make_rng(1), 8)
        var = distortion_covariance(symbols, np.zeros((4, 4)), 0.3, np.arange(4))
        np.testing.assert_allclose(var, 0.3, atol=1e-14)

    def test_diagonal_at_least_noise_floor(self):
        rng = make_rng(2)
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        var = distortion_covariance(random_symbols(rng, 8, 16), m @ m.conj().T,
                                    noise_var=0.1, taps=np.arange(4))
        assert np.all(var >= 0.1 - 1e-12)

    def test_detected_taps_match_full_matrix(self):
        """A T x T covariance on its taps gives the same carrier variances as
        the L x L matrix it embeds into."""
        rng = make_rng(4)
        symbols = random_symbols(rng, 6, 16)
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        taps = np.array([3, 1])
        full = np.zeros((5, 5), complex)
        full[np.ix_(taps, taps)] = m @ m.conj().T
        np.testing.assert_allclose(distortion_covariance(symbols, m @ m.conj().T, 0.1, taps),
                                   distortion_covariance(symbols, full, 0.1, np.arange(5)),
                                   rtol=1e-12)

    def test_rank_one_expansion(self):
        """R = s^2 e_k e_k^H gives diag entries s^2 |A_ik|^2 + noise, and
        |A_ik|^2 = |x_i|^2 / N for A = diag(x) F_L."""
        symbols = random_symbols(make_rng(3), 6, 16)
        r = np.zeros((5, 5), complex)
        r[2, 2] = 0.7
        var = distortion_covariance(symbols, r, 0.05, np.arange(5))
        expected = 0.7 * np.abs(symbols) ** 2 / 6 + 0.05
        np.testing.assert_allclose(var, expected, atol=1e-12)


@st.composite
def dft_systems(draw):
    """Systems A = diag(s) F_L: N carriers with L <= N (L = 1 and L = N
    included), 4- or 16-QAM frame symbols, pilots (possibly none) and B
    antennas whose consensus covers none, some or every data carrier."""
    n = draw(st.integers(1, 40))
    length = draw(st.one_of(st.just(1), st.just(n), st.integers(1, n)))
    order = draw(st.sampled_from([4, 16]))
    rng = make_rng(draw(st.integers(0, 2**32 - 1)))
    alphabet = build_qam_alphabet(order)
    symbols = alphabet.points[rng.integers(0, order, size=n)]
    pilots = np.flatnonzero(rng.random(n) < draw(st.sampled_from([0.0, 0.2, 0.5, 1.0])))
    n_ant = draw(st.integers(1, 5))
    share = draw(st.sampled_from([0.0, 0.3, 1.0]))
    consensus = rng.random((n_ant, n)) < share
    consensus[:, pilots] = False
    decisions = rng.integers(0, order, size=(n_ant, n))
    observations = (rng.normal(size=(n_ant, n)) + 1j * rng.normal(size=(n_ant, n)))
    return symbols, pilots, observations, consensus, decisions, alphabet, length, rng


def with_pilot_mask(system):
    """A ``dft_systems`` system with its pilot indices given as the (N,)
    pilot mask that ``reestimation_inputs`` takes."""
    symbols, pilots, *rest = system
    on_pilot = np.zeros(symbols.size, dtype=bool)
    on_pilot[pilots] = True
    return (symbols, on_pilot, *rest)


def augmented_products_oracle(symbols, pilots, observations, consensus, decisions,
                              alphabet, length):
    """Gram, A^H y and ||y||^2 per antenna from the explicit augmented rows:
    the pilot rows of diag(s) F_L stacked over the consensus rows of F_L
    scaled by the agreed symbols (the per-antenna build the closed forms
    replaced)."""
    dft = truncated_dft(symbols.size, length)
    grams, corrs, norms = [], [], []
    for y, agreed, picks in zip(observations, consensus, decisions):
        idx = np.flatnonzero(agreed)
        a_aug = np.vstack([symbols[pilots, None] * dft[pilots],
                           alphabet.points[picks[idx], None] * dft[idx]])
        y_aug = y[np.concatenate([pilots, idx])]
        grams.append(a_aug.conj().T @ a_aug)
        corrs.append(a_aug.conj().T @ y_aug)
        norms.append(np.vdot(y_aug, y_aug).real)
    return np.array(grams), np.array(corrs), np.array(norms)


class TestClosedForms:
    """The DFT closed forms against the generic-matrix products."""

    @PROPERTY
    @given(dft_systems())
    def test_reestimation_inputs_match_augmented_rows(self, case):
        *system, _ = case
        length = system[-1]
        lags, corr, y_norm2 = reestimation_inputs(*with_pilot_mask(system))
        grams = toeplitz_grams(lags)
        assert grams.shape == (lags.shape[0], length, length)
        assert np.shares_memory(grams, lags)  # a view, no copy
        want_gram, want_corr, want_norm = augmented_products_oracle(*system)
        for b in range(lags.shape[0]):
            assert_close(grams[b], want_gram[b])
            assert_close(corr[b], want_corr[b])
            assert_close(y_norm2[b], want_norm[b])

    @PROPERTY
    @given(dft_systems())
    def test_reestimation_inputs_match_stacked_spectra(self, case):
        """The preallocated spectra buffer gives the products of the
        ``np.stack`` form bit for bit."""
        *system, _ = case
        masked = with_pilot_mask(system)
        for got, want in zip(reestimation_inputs(*masked), reestimation_inputs_oracle(*system)):
            np.testing.assert_array_equal(got, want)

    def test_reestimation_inputs_match_stacked_spectra_over_chunks(self):
        """37 antennas: two full chunks and a short one share the buffer."""
        rng = make_rng(37)
        symbols = QAM4.points[rng.integers(0, 4, size=128)]
        pilots = np.sort(rng.choice(128, size=16, replace=False))
        consensus = rng.random((37, 128)) < 0.4
        consensus[:, pilots] = False
        decisions = rng.integers(0, 4, size=(37, 128))
        observations = rng.normal(size=(37, 128)) + 1j * rng.normal(size=(37, 128))
        system = (symbols, pilots, observations, consensus, decisions, QAM4, 32)
        masked = with_pilot_mask(system)
        for got, want in zip(reestimation_inputs(*masked), reestimation_inputs_oracle(*system)):
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    @PROPERTY
    @given(dft_systems(), st.integers(1, 6))
    def test_distortion_matches_generic_product(self, case, t_max):
        """Full L x L covariances, and (B, T, T) stacks on their taps with
        short chains zero-padded and failed antennas zero throughout."""
        symbols, _, observations, _, _, _, length, rng = case
        n_ant = observations.shape[0]
        a = symbols[:, None] * truncated_dft(symbols.size, length)
        m = rng.normal(size=(n_ant, length, length)) + 1j * rng.normal(size=(n_ant, length, length))
        full = m @ m.conj().transpose(0, 2, 1)
        assert_close(distortion_covariance(symbols, full, 0.0, np.arange(length)),
                     distortion_covariance_oracle(a, full, 0.0))

        t_max = min(t_max, length)
        support = np.zeros((n_ant, t_max), dtype=int)
        error_cov = np.zeros((n_ant, t_max, t_max), dtype=complex)
        for b in range(n_ant):
            t = int(rng.integers(0, t_max + 1))  # 0: failed, < t_max: padded
            support[b, :t] = rng.permutation(length)[:t]
            error_cov[b, :t, :t] = full[b, :t, :t]
        noise_vars = rng.random(n_ant)
        got = distortion_covariance(symbols, error_cov, noise_vars, taps=support)
        want = distortion_covariance_oracle(a, error_cov, noise_vars, taps=support)
        for b in range(n_ant):
            assert_close(got[b] - noise_vars[b], want[b] - noise_vars[b])


def reliability(x_hat, variance, alphabet):
    """``carrier_reliability`` on the nearest levels that detection would
    hand it."""
    x_hat = np.asarray(x_hat, dtype=complex)
    return carrier_reliability(x_hat, variance, alphabet, alphabet.nearest_levels(x_hat))


class TestCarrierReliability:
    def test_origin_equidistant(self):
        """4-QAM at the origin: one numerator over three equal terms -> 1/3."""
        alph = build_qam_alphabet(4)
        m = reliability(np.array([0.0 + 0.0j]), np.array([0.5]), alph)
        assert abs(m[0] - 1 / 3) < 1e-12

    def test_on_point_small_variance_capped(self):
        alph = build_qam_alphabet(4)
        m = reliability(alph.points[:1], np.array([1e-12]), alph)
        assert np.isfinite(m[0])
        assert m[0] >= 1e290

    def test_cap_without_warnings(self):
        """A zero or subnormal other-point sum, where 1/sum divides by zero or
        overflows, returns the capped value exactly and warns of nothing."""
        alph = build_qam_alphabet(4)
        point = alph.points[:1]
        # 4-QAM on a point: every other level lies 2 s away, so each axis
        # sum is exp(-4 s^2 / variance) = exp(-2 / variance)
        variance = np.array([1e-12, 2 / 713.0, 2 / 600.0])
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            m = reliability(np.repeat(point, 3), variance, alph)
        capped = np.exp(np.log(RELIABILITY_CAP))
        np.testing.assert_array_equal(m[:2], capped)
        assert m[2] < capped

    def test_monotone_toward_point(self):
        """Reliability strictly increases moving from the decision boundary
        toward the constellation point along the real axis."""
        alph = build_qam_alphabet(4)
        target = (1 + 1j) / np.sqrt(2)
        xs = np.linspace(0.02, target.real, 25) + 1j * target.imag
        m = reliability(xs, np.full(25, 0.3), alph)
        assert np.all(np.diff(m) > 0)

    def test_scale_invariance_of_density_ratio(self):
        """Common positive scaling of all densities cancels in the ratio:
        doubling the variance changes the value smoothly but the ratio form
        itself stays positive and finite."""
        alph = build_qam_alphabet(16)
        rng = make_rng(5)
        x = rng.normal(size=20) + 1j * rng.normal(size=20)
        m = reliability(x, np.full(20, 0.2), alph)
        assert np.all(m > 0) and np.all(np.isfinite(m))

    def test_nonpositive_variance_rejected(self):
        alph = build_qam_alphabet(4)
        with pytest.raises(InvalidContextError):
            reliability(np.array([0.1 + 0.1j]), np.array([0.0]), alph)

    @PROPERTY
    @given(st.sampled_from([4, 16]), st.integers(0, 2**32 - 1))
    def test_peak_matches_put_max_form(self, order, seed):
        """The per-axis closed form gives the put/max form's values within
        that form's own log-domain rounding, 16 eps (1 + max_v d2_v /
        variance) on log r: random symbols, symbols on the axes (exact ties
        between two or four points), on points with vanishing variance (the
        cap, exactly equal) and far outside the constellation."""
        alphabet = build_qam_alphabet(order)
        rng = make_rng(seed)
        points = alphabet.points[rng.integers(0, order, size=12)]
        x = np.concatenate([
            points,
            rng.normal(size=12) + 1j * rng.normal(size=12),
            points.real, 1j * points.imag, np.zeros(2),
            10.0 * (rng.normal(size=4) + 1j * rng.normal(size=4)),
        ])
        variance = 10.0 ** rng.uniform(-3, 1, size=x.size)
        variance[:12] = 1e-12  # on a point: capped
        got = reliability(x, variance, alphabet)
        want = carrier_reliability_oracle(x, variance, alphabet)
        bound = 16 * np.finfo(float).eps * (
            1 + sq_distances_oracle(alphabet, x).max(axis=-1) / variance)
        assert np.all(np.abs(np.log(got) - np.log(want)) <= bound)
        np.testing.assert_array_equal(got[:12], np.exp(np.log(RELIABILITY_CAP)))
        np.testing.assert_array_equal(want[:12], got[:12])


def carrier_reliability_oracle(x_hat, variance, alphabet):
    """Reliabilities with the "every other point" peak taken as the max of
    a length-Q axis in which the nearest point is put to -inf: the form the
    second-nearest running minimum replaced."""
    d2 = sq_distances_oracle(alphabet, x_hat)
    nearest = np.expand_dims(nearest_indices_oracle(alphabet, x_hat, d2), -1)
    loglik = np.negative(d2)
    loglik /= variance[..., None]
    log_num = np.take_along_axis(loglik, nearest, axis=-1)[..., 0]
    np.put_along_axis(loglik, nearest, -np.inf, axis=-1)
    peak = loglik.max(axis=-1, keepdims=True)
    loglik -= peak
    log_den = peak[..., 0] + np.log(np.exp(loglik, out=loglik).sum(axis=-1))
    return np.exp(np.minimum(log_num - log_den, np.log(RELIABILITY_CAP)))


def top_reliable_oracle(reliability, eligible, count):
    """Indices of the ``count`` most reliable eligible carriers (ties to the
    lower carrier index), sorted ascending: the per-antenna reference."""
    idx = np.flatnonzero(eligible)
    if idx.size <= count:
        return np.sort(idx)
    order = np.lexsort((idx, -reliability[idx]))
    return np.sort(idx[order[:count]])


def select_and_agree_oracle(shape, top_sets, hard_decisions, pilot_indices):
    """Per-antenna consensus over Python sets: the intersection of the
    neighborhood's top sets minus the pilots, pruned to carriers where every
    member made the same hard decision.  Returns [row][col] (consensus,
    agreed symbols)."""
    pilot_set = set(int(i) for i in pilot_indices)
    out = [[None] * shape[1] for _ in range(shape[0])]
    for r, c in np.ndindex(shape):
        members = [(r, c)] + neighbors(shape, (r, c))
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


class TestSelectAndAgree:
    def test_unanimous_neighborhood_keeps_all(self):
        top = top_masks((3, 3, 16), [[[4, 9, 13]] * 3] * 3)
        decisions = np.full((3, 3, 16), 3)  # (1+1j)/sqrt(2) everywhere
        sets = list(select_and_agree(top, decisions, np.array([0, 1])))
        assert list(sets[1][1].consensus) == [4, 9, 13]
        np.testing.assert_array_equal(QAM4.points[decisions[1, 1]][sets[1][1].consensus],
                                      QAM4.points[[3, 3, 3]])

    def test_disjoint_sets_empty(self):
        top = top_masks((1, 2, 16), [[[3], [7]]])
        decisions = np.zeros((1, 2, 16), dtype=int)
        sets = list(select_and_agree(top, decisions, np.array([])))
        assert sets[0][0].consensus.size == 0

    def test_disagreeing_decisions_pruned(self):
        top = top_masks((1, 2, 16), [[[3, 5], [3, 5]]])
        decisions = np.zeros((1, 2, 16), dtype=int)
        decisions[0, 0, 3] = 3
        decisions[0, 1, 3] = 2  # disagree on 3
        decisions[0, :, 5] = 0
        sets = list(select_and_agree(top, decisions, np.array([])))
        assert list(sets[0][0].consensus) == [5]

    def test_pilots_excluded(self):
        top = top_masks((1, 1, 8), [[[2, 3]]])
        decisions = np.ones((1, 1, 8), dtype=int)
        sets = list(select_and_agree(top, decisions, np.array([2])))
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
    return (rows, cols), top, decisions, pilots, order


class TestLazyReliableSets:
    """The ``[row][col]`` sets read their fields from row views of the grid
    masks; they equal the sets built with every field computed up front, and
    the decisions on their consensus are the eager sets' agreed symbols."""

    @staticmethod
    def assert_equal_sets(top, decisions, pilots, alphabet):
        consensus = np.empty_like(top)
        sets = list(select_and_agree(top, decisions, pilots, out=consensus))
        want = eager_reliable_sets(top, consensus, decisions, alphabet)
        assert len(sets) == len(want) == top.shape[0]
        for r, (got_row, want_row) in enumerate(zip(sets, want)):
            assert len(got_row) == len(want_row) == top.shape[1]
            for c, (got, expected) in enumerate(zip(got_row, want_row)):
                for name in ("own_top", "consensus"):
                    value, reference = getattr(got, name), getattr(expected, name)
                    assert value.dtype == reference.dtype, name
                    np.testing.assert_array_equal(value, reference)
                agreed = alphabet.points[decisions[r, c]][got.consensus]
                assert agreed.dtype == expected.agreed_symbols.dtype
                np.testing.assert_array_equal(agreed, expected.agreed_symbols)
        return consensus

    @PROPERTY
    @given(consensus_inputs(), st.booleans())
    def test_match_eager_sets(self, case, empty):
        """Any grid shape; with ``empty`` no antenna ranks any carrier, so
        every consensus is empty."""
        _, top, decisions, pilots, order = case
        if empty:
            top[...] = False
        consensus = self.assert_equal_sets(top, decisions, pilots, build_qam_alphabet(order))
        assert not (empty and consensus.any())

    @pytest.mark.parametrize("rows, cols", [(1, 1), (1, 6), (6, 1)])
    def test_thin_grids_and_empty_consensus(self, rows, cols):
        rng = make_rng(rows, cols)
        top = rng.random((rows, cols, 12)) < 0.8
        decisions = rng.integers(0, 4, size=(rows, cols, 12))
        decisions[..., :6] = 2  # unanimous on the first half
        self.assert_equal_sets(top, decisions, np.array([0, 7]), QAM4)
        top[0, 0] = False  # an antenna that offers nothing agrees on nothing
        consensus = self.assert_equal_sets(top, decisions, np.array([0, 7]), QAM4)
        assert not consensus[0, 0].any()

    def test_sets_are_views(self):
        """A set holds row views of the grid arrays, no copies."""
        top = np.ones((2, 3, 8), dtype=bool)
        decisions = np.zeros((2, 3, 8), dtype=np.uint8)
        consensus = np.empty_like(top)
        sets = list(select_and_agree(top, decisions, np.array([1]), out=consensus))
        assert np.shares_memory(sets[1][2].top_row, top)
        np.testing.assert_array_equal(sets[1][2].consensus_row, consensus[1, 2])
        assert list(sets[1][2].consensus) == [0, 2, 3, 4, 5, 6, 7]


class TestStencilConsensus:
    """Stencil consensus and rank-mask top-U against the per-antenna oracles."""

    @PROPERTY
    @given(consensus_inputs())
    def test_matches_set_based_consensus(self, case):
        shape, top, decisions, pilots, order = case
        points = build_qam_alphabet(order).points[decisions]
        sets = list(select_and_agree(top, decisions, pilots))
        top_sets = [[np.flatnonzero(top[r, c]) for c in range(shape[1])]
                    for r in range(shape[0])]
        want = select_and_agree_oracle(shape, top_sets, points, pilots)
        for r, c in np.ndindex(shape):
            consensus, symbols = want[r][c]
            np.testing.assert_array_equal(sets[r][c].consensus, consensus)
            np.testing.assert_array_equal(points[r, c][sets[r][c].consensus], symbols)
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


def reliable_budget_oracle(cov, taps, n_pilots, n_data, expected_actives):
    """One antenna's carrier budget from its (taps, T x T error covariance)
    pair (None when its final pass failed) and combined taps: the
    per-antenna reference."""
    if n_pilots <= 2 * (expected_actives + 1):
        return n_data
    if cov is None:
        return MIN_RELIABLE
    _, matrix = cov
    energy = float(np.sum(np.abs(taps) ** 2))
    rho = np.trace(matrix).real / max(energy, 1e-30)
    budget = int(round(n_pilots * rho / RHO_REFERENCE))
    return int(np.clip(budget, MIN_RELIABLE, n_data))


def grid_estimate(covariances, taps, t_max, failed):
    """A GridEstimate holding [row][col] (taps, error covariance) pairs
    (None: failed final pass), zero-padded by hand to T = t_max."""
    rows, cols, length = taps.shape
    support = np.zeros((rows, cols, t_max), dtype=int)
    error_cov = np.zeros((rows, cols, t_max, t_max), dtype=complex)
    for r in range(rows):
        for c in range(cols):
            if covariances[r][c] is not None:
                cov_taps, matrix = covariances[r][c]
                t = cov_taps.size
                support[r, c, :t] = cov_taps
                error_cov[r, c, :t, :t] = matrix
    return GridEstimate(taps=taps, support=support, error_cov=error_cov,
                        priors=np.full(taps.shape, 0.1), failed=failed)


@st.composite
def budget_inputs(draw):
    """Random grid estimates: full and short chains, failed antennas (zero
    taps, no covariance), zero-energy estimates and error traces from far
    below to far above the estimate energy; pilot counts on both sides of
    the starved threshold."""
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    length = draw(st.integers(1, 24))
    t_max = draw(st.integers(1, min(length, 9)))
    rng = make_rng(draw(st.integers(0, 2**32 - 1)))
    taps = (rng.normal(size=(rows, cols, length))
            + 1j * rng.normal(size=(rows, cols, length))) * 10.0 ** rng.uniform(-3, 1)
    covariances = [[None] * cols for _ in range(rows)]
    failed = rng.random((rows, cols)) < 0.1  # first-pass failures keep a covariance
    for r in range(rows):
        for c in range(cols):
            kind = rng.choice(["full", "short", "failed", "zero_energy"], p=[0.5, 0.2, 0.15, 0.15])
            if kind == "failed":
                taps[r, c] = 0.0
                failed[r, c] = True
                continue
            if kind == "zero_energy":
                taps[r, c] = 0.0
            t = t_max if kind != "short" else int(rng.integers(1, t_max + 1))
            m = rng.normal(size=(t, t)) + 1j * rng.normal(size=(t, t))
            scale = 10.0 ** rng.uniform(-7, 1)
            covariances[r][c] = (rng.permutation(length)[:t], scale * (m @ m.conj().T))
    n_pilots = draw(st.integers(1, 64))
    n_data = draw(st.integers(MIN_RELIABLE, 400))
    expected_actives = draw(st.integers(1, 8))
    return covariances, taps, t_max, failed, n_pilots, n_data, expected_actives


class TestReliableBudget:
    """The (M, G) budget grid against the per-antenna oracle."""

    @PROPERTY
    @given(budget_inputs())
    def test_matches_per_antenna_budget(self, case):
        covariances, taps, t_max, failed, n_pilots, n_data, expected_actives = case
        base = grid_estimate(covariances, taps, t_max, failed)
        got = reliable_budget(base, n_pilots, n_data, expected_actives)
        assert got.shape == failed.shape and got.dtype.kind == "i"
        want = [[reliable_budget_oracle(covariances[r][c], taps[r, c], n_pilots, n_data,
                                        expected_actives)
                 for c in range(taps.shape[1])] for r in range(taps.shape[0])]
        np.testing.assert_array_equal(got, want)

    def test_starved_regime_offers_every_carrier(self):
        covariances = [[None, (np.array([1]), np.eye(1))]]
        base = grid_estimate(covariances, np.ones((1, 2, 4), complex), 2,
                             np.array([[True, False]]))
        np.testing.assert_array_equal(reliable_budget(base, 8, 100, 3), [[100, 100]])

    def test_short_chain_and_failed_antenna_distortion(self):
        """A chain that stopped early and a failed antenna, zero-padded into
        one stack, give the carrier variances of the per-antenna
        per-antenna covariance path (noise alone for the failed antenna)."""
        rng = make_rng(8)
        a_short = np.zeros((5, 6), complex)  # two usable columns: chain of 2
        a_short[:, 1] = [1, 2, 0, 1j, 0]
        a_short[:, 4] = [0, 1, 1, 0, -1j]
        short = greedy_search(a_short, a_short[:, 1] + a_short[:, 4],
                              np.full(6, 0.3), 0.1, 3)
        a_full = rng.normal(size=(5, 6)) + 1j * rng.normal(size=(5, 6))
        full = greedy_search(a_full, a_full[:, 2] - 0.5 * a_full[:, 0],
                             np.full(6, 0.3), 0.1, 3)
        covs = [(est.detected_taps, error_covariance(est)) for est in (short, full)]
        assert [cov_taps.size for cov_taps, _ in covs] == [2, 3]

        support = np.full((3, 3), 5)  # garbage the padding must clear
        error_cov = np.ones((3, 3, 3), complex)
        for i, (cov_taps, matrix) in enumerate(covs):
            t = cov_taps.size
            support[i], error_cov[i] = 0, 0
            support[i, :t], error_cov[i, :t, :t] = cov_taps, matrix
        support[2], error_cov[2] = 0, 0  # failed antenna
        noise_vars = np.array([0.1, 0.2, 0.3])
        symbols = random_symbols(rng, 12, 16)
        got = distortion_covariance(symbols, error_cov, noise_vars, taps=support)
        assert got.shape == (3, 12)
        for i, (cov_taps, matrix) in enumerate(covs):
            np.testing.assert_allclose(
                got[i], distortion_covariance(symbols, matrix, noise_vars[i], cov_taps),
                rtol=1e-12)
        np.testing.assert_array_equal(got[2], 0.3)


def reestimate_oracle(frame, full_rows, observations, base, config, consensus,
                      decided_points):
    """The per-antenna re-estimation loop the closed forms replaced:
    explicit augmented rows, with the (M, G, N) ``decided_points`` standing
    in as pilot symbols on each row of the (M, G, N) ``consensus`` mask, and
    one search per aided antenna.  Returns (taps, fallback) on the grid."""
    length = full_rows.shape[1]
    pilots = frame.pilot_indices
    dft = truncated_dft(frame.n_carriers, length)
    t_max = search_depth(length, config.lambda_init, pilots.size)
    taps = base.taps.copy()
    fallback = np.ones(base.failed.shape, dtype=bool)
    for (r, c), failed in np.ndenumerate(base.failed):
        agreed = np.flatnonzero(consensus[r, c])
        if failed or not agreed.size:
            continue
        a_aug = np.vstack([full_rows[pilots], decided_points[r, c, agreed, None] * dft[agreed]])
        y_aug = observations[r, c, np.concatenate([pilots, agreed])]
        stack = greedy_search_batch(
            a_aug.conj().T @ a_aug, (a_aug.conj().T @ y_aug)[None],
            [np.vdot(y_aug, y_aug).real], base.priors[r, c][None],
            np.array([config.noise_var]), t_max,
        )
        if stack.failed[0]:
            continue
        taps[r, c] = stack.taps[0]
        fallback[r, c] = False
    return taps, fallback


def fix_budget(monkeypatch, count):
    """Give every antenna the carrier budget ``count`` in place of
    ``reliable_budget``'s rule, through the module name ``run_data_aided``
    calls."""
    monkeypatch.setattr(gridce.data_aided, "reliable_budget",
                        lambda base, *rule_inputs: np.full(base.failed.shape, count))


class TestRunDataAided:
    @pytest.mark.parametrize("rows, cols, qam, budget, seed", [
        (1, 1, 4, None, 0), (1, 5, 16, None, 1), (5, 1, 4, 8, 2),
        (2, 3, 16, 8, 3), (3, 4, 4, None, 4), (4, 4, 4, 2, 5),
    ])
    def test_matches_per_antenna_reestimation(self, rows, cols, qam, budget, seed,
                                              monkeypatch):
        """One batched solve on the closed-form inputs against the
        per-antenna loop on explicit augmented rows: equal fallbacks and
        taps within 1e-12 relative, under the budget rule and under fixed
        budgets."""
        shape, true_taps, alphabet, frame, full_rows, obs, base, cfg = full_scene(
            rows=rows, cols=cols, qam=qam, snr_db=12.0, seed=seed)
        if budget is not None:
            fix_budget(monkeypatch, budget)
        refined = run_data_aided(frame, obs, base, cfg, alphabet)
        taps, fallback = reestimate_oracle(
            frame, full_rows, obs, base, cfg, refined.diagnostics["consensus"],
            alphabet.points[refined.diagnostics["base_decisions"]])
        np.testing.assert_array_equal(refined.diagnostics["fallback_no_consensus"], fallback)
        assert_close(refined.taps, taps)
        assert not fallback.all()

    @pytest.mark.parametrize("rows, cols, budget, seed", [
        (4, 4, None, 0), (1, 5, None, 1), (3, 4, 8, 4), (4, 4, 2, 5),
    ])
    def test_consensus_is_the_stencil_rule(self, rows, cols, budget, seed, monkeypatch):
        """The ``"consensus"`` diagnostic is the (M, G, N) mask of the
        carriers that every neighborhood member ranks top-U and decodes to
        one symbol, off the pilots: the per-antenna rule on the top sets and
        decisions the stage agreed on."""
        shape, true_taps, alphabet, frame, full_rows, obs, base, cfg = full_scene(
            rows=rows, cols=cols, snr_db=12.0, seed=seed)
        if budget is not None:
            fix_budget(monkeypatch, budget)
        agreed_on = []

        def spy(top, decisions, pilots, out=None):
            agreed_on.append((top.copy(), decisions.copy()))
            return select_and_agree(top, decisions, pilots, out=out)

        monkeypatch.setattr(gridce.data_aided, "select_and_agree", spy)
        refined = run_data_aided(frame, obs, base, cfg, alphabet)
        consensus = refined.diagnostics["consensus"]
        [(top, decisions)] = agreed_on
        np.testing.assert_array_equal(decisions, refined.diagnostics["base_decisions"])
        assert consensus.shape == top.shape and consensus.dtype == bool
        top_sets = [[np.flatnonzero(top[r, c]) for c in range(cols)] for r in range(rows)]
        want = select_and_agree_oracle(shape, top_sets, alphabet.points[decisions],
                                       frame.pilot_indices)
        for r, c in np.ndindex(shape):
            np.testing.assert_array_equal(np.flatnonzero(consensus[r, c]), want[r][c][0])
        np.testing.assert_array_equal(refined.diagnostics["fallback_no_consensus"],
                                      ~consensus.any(axis=-1))
        assert consensus.any()

    def test_budget_is_read_from_the_rule(self, monkeypatch):
        """``run_data_aided`` takes its budgets from one call of
        ``reliable_budget`` with the pilot and data carrier counts and
        round(L lambda_init) expected taps, through the module name, so
        patching that name (as ``fix_budget`` does) replaces the rule and
        nothing else."""
        shape, true_taps, alphabet, frame, full_rows, obs, base, cfg = full_scene(seed=7)
        want = run_data_aided(frame, obs, base, cfg, alphabet)
        calls = []

        def spy(*args):
            calls.append(args[1:])
            return reliable_budget(*args)

        monkeypatch.setattr(gridce.data_aided, "reliable_budget", spy)
        got = run_data_aided(frame, obs, base, cfg, alphabet)
        assert calls == [(16, 112, 3)]
        np.testing.assert_array_equal(got.taps, want.taps)
        for key, value in want.diagnostics.items():
            np.testing.assert_array_equal(got.diagnostics[key], value)

    def test_refinement_improves_or_matches_base(self):
        shape, true_taps, alphabet, frame, full_rows, obs, base, cfg = full_scene()
        refined = run_data_aided(frame, obs, base, cfg, alphabet)
        base_ratio = error_ratio(true_taps, base.taps)
        refined_ratio = error_ratio(true_taps, refined.taps)
        assert refined_ratio <= base_ratio * 1.05

    def test_builds_no_reliable_sets(self, monkeypatch):
        """The stage reads the consensus mask alone, so it builds none of
        the per-antenna ``ReliableSet`` views; a refined antenna shows the
        consensus was formed."""
        shape, true_taps, alphabet, frame, full_rows, obs, base, cfg = full_scene(seed=2)
        built = []

        def counting(*views):
            built.append(views)
            return ReliableSet(*views)

        monkeypatch.setattr(gridce.data_aided, "ReliableSet", counting)
        refined = run_data_aided(frame, obs, base, cfg, alphabet)
        assert not refined.diagnostics["fallback_no_consensus"].all()
        assert built == []

    def test_consensus_symbols_are_true_symbols_at_high_snr(self, monkeypatch):
        shape, true_taps, alphabet, frame, full_rows, obs, base, cfg = full_scene(
            snr_db=25.0, seed=2
        )
        fix_budget(monkeypatch, 8)
        refined = run_data_aided(frame, obs, base, cfg, alphabet)
        fallback = refined.diagnostics["fallback_no_consensus"]
        assert not fallback.all()  # some antennas did refine

    def test_noiseless_consistent_augmentation(self):
        """Noiseless with an exact base estimate: all decisions are correct,
        the augmented rows equal the true ones and the refined NMSE does not
        exceed the base NMSE."""
        shape, true_taps, alphabet, frame, full_rows, obs, base, cfg = full_scene(
            snr_db=90.0, seed=3
        )
        base_ratio = error_ratio(true_taps, base.taps)
        refined = run_data_aided(frame, obs, base, cfg, alphabet)
        refined_ratio = error_ratio(true_taps, refined.taps)
        assert refined_ratio <= base_ratio + 1e-12

    def test_empty_consensus_returns_base(self, monkeypatch):
        """With a budget of 2 and decorrelated rankings some antennas fall
        back; their outputs must equal the base estimates exactly."""
        shape, true_taps, alphabet, frame, full_rows, obs, base, cfg = full_scene(
            seed=4, snr_db=10.0
        )
        fix_budget(monkeypatch, 2)
        refined = run_data_aided(frame, obs, base, cfg, alphabet)
        fallback = refined.diagnostics["fallback_no_consensus"]
        for r, c in np.ndindex(shape):
            if fallback[r, c]:
                np.testing.assert_array_equal(refined.taps[r, c], base.taps[r, c])

    def test_failed_flag_is_not_read(self):
        """A failed base pass leaves an antenna without taps, so it decodes
        no carrier, joins no consensus and falls back, flagged failed or
        not; the stage reads the same either way."""
        shape, true_taps, alphabet, frame, full_rows, obs, base, cfg = full_scene(seed=6)
        taps, support, error_cov = base.taps.copy(), base.support.copy(), base.error_cov.copy()
        for zeroed in (taps, support, error_cov):
            zeroed[1, 2] = 0
        runs = []
        for flagged in (False, True):
            failed = np.zeros(base.failed.shape, dtype=bool)
            failed[1, 2] = flagged
            runs.append(run_data_aided(frame, obs, dataclasses.replace(
                base, taps=taps, support=support, error_cov=error_cov, failed=failed,
            ), cfg, alphabet))
        clean, flagged = runs
        np.testing.assert_array_equal(flagged.taps, clean.taps)
        for key in ("fallback_no_consensus", "base_decisions", "base_undecodable"):
            np.testing.assert_array_equal(flagged.diagnostics[key], clean.diagnostics[key])
        assert flagged.diagnostics["fallback_no_consensus"][1, 2]
        assert flagged.diagnostics["base_undecodable"][1, 2].all()
        assert not flagged.diagnostics["fallback_no_consensus"].all()

    def test_equivalent_to_genuine_pilots_when_decisions_correct(self, monkeypatch):
        """Correctly decided consensus carriers are genuine pilots: a fresh
        solve treating those carriers as pilots (rows from the true frame
        symbols) reproduces the refined estimates, so the paired NMSE
        distributions coincide (KS distance < 0.1)."""
        ratios_aided, ratios_pilot = [], []
        fix_budget(monkeypatch, 12)
        for seed in range(10):
            shape, true_taps, alphabet, frame, full_rows, obs, base, cfg = full_scene(
                rows=3, cols=3, snr_db=20.0, seed=50 + seed
            )
            refined = run_data_aided(frame, obs, base, cfg, alphabet)
            consensus = refined.diagnostics["consensus"]
            decided_points = alphabet.points[refined.diagnostics["base_decisions"]]
            pilots = frame.pilot_indices
            t_max = search_depth(32, cfg.lambda_init, pilots.size)
            for r, c in np.ndindex(shape):
                agreed = np.flatnonzero(consensus[r, c])
                if agreed.size == 0:
                    continue
                correct = np.allclose(
                    decided_points[r, c, agreed],
                    frame.freq_symbols[agreed],
                )
                if not correct:
                    continue
                idx = np.concatenate([pilots, agreed])
                a_pilot_run = full_rows[idx]  # rows from true symbols
                est = greedy_search(
                    a_pilot_run, obs[r, c, idx],
                    base.priors[r, c], cfg.noise_var, t_max,
                )
                h_true = true_taps[r, c]
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


def top_carrier_case(rng, rows, cols, n, length, t_max, order, pilot_share=0.2):
    """Inputs of ``_top_carriers`` on a random grid: (base, observations,
    symbols, alphabet, eligible, noise_var) and the (M, G) count of offered
    (eligible and decodable) carriers.  About a fifth of the antennas hold
    the taps [1, -1], whose response is exactly zero on carrier 0, and a
    fifth hold no taps, so they decode no carrier."""
    alphabet = build_qam_alphabet(order)
    symbols = alphabet.points[rng.integers(0, order, size=n)]
    eligible = rng.random(n) >= pilot_share
    taps = rng.normal(size=(rows, cols, length)) + 1j * rng.normal(size=(rows, cols, length))
    kind = rng.choice(3, size=(rows, cols), p=[0.6, 0.2, 0.2])
    taps[kind > 0] = 0.0
    taps[kind == 1, :2] = [1.0, -1.0]
    support = np.zeros((rows, cols, t_max), dtype=int)
    error_cov = np.zeros((rows, cols, t_max, t_max), dtype=complex)
    for r, c in np.ndindex(rows, cols):
        if kind[r, c] == 2:
            continue  # a failed pass: zero throughout
        t = int(rng.integers(1, t_max + 1))
        m = rng.normal(size=(t, t)) + 1j * rng.normal(size=(t, t))
        support[r, c, :t] = rng.permutation(length)[:t]
        error_cov[r, c, :t, :t] = 10.0 ** rng.uniform(-4, 0) * (m @ m.conj().T)
    base = GridEstimate(taps=taps, support=support, error_cov=error_cov,
                        priors=np.full(taps.shape, 0.1), failed=kind == 2)
    observations = rng.normal(size=(rows, cols, n)) + 1j * rng.normal(size=(rows, cols, n))
    noise_var = 10.0 ** rng.uniform(-3, 0)
    bad = np.abs(freq_response(taps, n)) < ZF_MIN_GAIN
    offered = (eligible & ~bad).sum(axis=-1)
    return (base, observations, symbols, alphabet, eligible, noise_var), offered


@st.composite
def top_carrier_inputs(draw):
    """Grids of one to three ``ANTENNA_CHUNK``s whose budgets cover every
    offered carrier, fall one or more short on some rows, or both."""
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 9))
    n = draw(st.integers(2, 40))
    length = draw(st.integers(2, min(n, 8)))
    rng = make_rng(draw(st.integers(0, 2**32 - 1)))
    case, offered = top_carrier_case(rng, rows, cols, n, length,
                                     draw(st.integers(1, length)),
                                     draw(st.sampled_from([4, 16])))
    slack = {"cover": [0, 0, 1, 30], "short": [-1, -3], "mixed": [-1, 0, 0, 2]}
    delta = rng.choice(slack[draw(st.sampled_from(sorted(slack)))], size=offered.shape)
    return case, np.maximum(offered + delta, 0)


def capped_carrier_case(rng, rows, cols, n, length, t_max, order, pulled=True):
    """``top_carrier_case`` made capped-heavy: noise-free observations
    freq_response(taps) * symbols, a tiny error covariance and noise level,
    so that a symbol on its point has a capped reliability; and (M, G)
    budgets.

    Each antenna pulls a share of its carriers (none, 5%, 30% or all) and,
    on half of them, a leading block of up to N / 2 carriers to near the
    origin, where the reliability stays far below the cap.  So rows are
    settled by the first prefix, need it doubled, or fall short to the full
    sort, and some hold no capped carrier.  With ``pulled`` false no
    carrier is pulled (the draws are made all the same).  Budgets mix
    counts of 0-3, any count up to two past the offered carriers, and
    counts that cover them.
    """
    (base, _, symbols, alphabet, eligible, _), offered = top_carrier_case(
        rng, rows, cols, n, length, t_max, order)
    base.error_cov *= 1e-12
    observations = freq_response(base.taps, n) * symbols
    share = rng.choice([0.0, 0.05, 0.3, 1.0], size=(rows, cols, 1))
    lead = rng.integers(0, n // 2 + 1, size=(rows, cols, 1)) * (rng.random((rows, cols, 1)) < 0.5)
    pull = (rng.random((rows, cols, n)) < share) | (np.arange(n) < lead)
    observations[pull & pulled] *= 1e-12
    noise_var = 10.0 ** rng.uniform(-9, -7)
    budgets = np.choose(rng.integers(0, 3, size=offered.shape),
                        [rng.integers(0, 4, size=offered.shape), rng.integers(0, offered + 3),
                         offered + rng.integers(0, 2, size=offered.shape)])
    return (base, observations, symbols, alphabet, eligible, noise_var), budgets


@st.composite
def capped_carrier_inputs(draw):
    """Capped-heavy grids of one to four ``ANTENNA_CHUNK``s, the last one
    mostly ragged, over 8 to 96 carriers of QAM 4 or 16."""
    rows, cols = draw(st.integers(1, 7)), draw(st.integers(1, 9))
    n = draw(st.integers(8, 96))
    length = draw(st.integers(2, 8))
    rng = make_rng(draw(st.integers(0, 2**32 - 1)))
    return capped_carrier_case(rng, rows, cols, n, length, draw(st.integers(1, length)),
                               draw(st.sampled_from([4, 16])))


def row_regimes(case, budgets):
    """(M, G) labels of how ``_top_carriers`` meets each antenna, read off
    every carrier's reliability: "cover" (the budget covers every offered
    carrier), "first" (U capped offered carriers up to the U-th eligible
    one), "doubled" (they lie further in) or "short" (the row has fewer);
    and the (M, G) masks of rows with no capped offered carrier and of
    rows with an undecodable carrier."""
    base, observations, symbols, alphabet, eligible, noise_var = case
    n_ant, n = base.failed.size, symbols.shape[0]
    x, levels, bad = detect(observations.reshape(n_ant, n), base.taps.reshape(n_ant, -1),
                            alphabet)
    variance = distortion_covariance(
        symbols, base.error_cov.reshape(n_ant, *base.error_cov.shape[-2:]), noise_var,
        taps=base.support.reshape(n_ant, -1))
    offered = eligible & ~bad
    capped = offered & (carrier_reliability(x, variance, alphabet, levels) == _CAPPED)
    labels = []
    for u, row_offered, row_capped in zip(budgets.ravel(), offered, capped):
        if u >= row_offered.sum():
            labels.append("cover")
        elif u > row_capped.sum():
            labels.append("short")
        else:
            first = u == 0 or (np.flatnonzero(row_capped)[u - 1]
                               <= np.flatnonzero(eligible)[u - 1])
            labels.append("first" if first else "doubled")
    shape = base.failed.shape
    return (np.reshape(labels, shape), ~capped.any(axis=-1).reshape(shape),
            bad.any(axis=-1).reshape(shape))


def bound_case(rng, order, n_rows, n, length, t_max):
    """A stack of ``n_rows`` antenna rows for the distortion bound: a
    ``GridEstimate`` of random error covariances (scaled PSD matrices on
    random supports, zero-padded to ``t_max``; some rows all zero, as after
    a failed pass, where the bound is the exact variance, the noise level),
    the frame's QAM symbols, a noise level, and equalized symbols displaced
    from them by 1e-9 to 1 in any direction.

    On the all-zero rows a quarter of the carriers instead sit, on both
    axes, where the exponent gap to the next level inward is theta times
    the noise level, theta within a few units of ln RELIABILITY_CAP: the
    two density ratios exp(-theta) then decide whether the cap is reached,
    on either side of the bound's margin."""
    alphabet = build_qam_alphabet(order)
    symbols = alphabet.points[rng.integers(0, order, size=n)]
    support = np.zeros((n_rows, t_max), dtype=int)
    error_cov = np.zeros((n_rows, t_max, t_max), dtype=complex)
    for b in range(n_rows):
        if rng.random() < 0.15:
            continue
        t = int(rng.integers(1, t_max + 1))
        m = rng.normal(size=(t, t)) + 1j * rng.normal(size=(t, t))
        support[b, :t] = rng.permutation(length)[:t]
        error_cov[b, :t, :t] = 10.0 ** rng.uniform(-12, 0) * (m @ m.conj().T)
    base = GridEstimate(taps=np.zeros((n_rows, length), dtype=complex), support=support,
                        error_cov=error_cov, priors=np.full((n_rows, length), 0.1),
                        failed=np.zeros(n_rows, dtype=bool))
    noise_var = 10.0 ** rng.uniform(-12, -3)
    shift = rng.normal(size=(n_rows, n)) + 1j * rng.normal(size=(n_rows, n))
    x = symbols + 10.0 ** rng.uniform(-9, 0, size=(n_rows, n)) * shift
    # (spacing - d)^2 - d^2 = theta sigma_w^2 for a displacement d inward
    spacing = alphabet.levels[1] - alphabet.levels[0]
    theta = np.log(RELIABILITY_CAP) + rng.uniform(-1, np.log(2 * order) + 1, size=(n_rows, n))
    inward = (spacing ** 2 - theta * noise_var) / (2 * spacing)
    edge = ((rng.random((n_rows, n)) < 0.25) & ~error_cov.any(axis=(-2, -1))[:, None]
            & (inward >= 0))
    edge_x = symbols - inward * (np.sign(symbols.real) + 1j * np.sign(symbols.imag))
    x[edge] = edge_x[edge]
    return base, symbols, alphabet, noise_var, x


@st.composite
def bound_inputs(draw):
    """``bound_case`` stacks of one to three ``ANTENNA_CHUNK``s over QAM 4,
    16 and 64."""
    n = draw(st.integers(2, 64))
    length = draw(st.integers(1, min(n, 12)))
    return bound_case(make_rng(draw(st.integers(0, 2**32 - 1))),
                      draw(st.sampled_from([4, 16, 64])),
                      draw(st.integers(1, 2 * ANTENNA_CHUNK + 3)), n, length,
                      draw(st.integers(1, length)))


def chunked_variances(base, symbols, noise_var):
    """``distortion_covariance`` of consecutive ``ANTENNA_CHUNK``s of rows."""
    return np.concatenate([
        distortion_covariance(symbols, base.error_cov[start:start + ANTENNA_CHUNK],
                              noise_var, taps=base.support[start:start + ANTENNA_CHUNK])
        for start in range(0, base.failed.size, ANTENNA_CHUNK)])


class TestCappedBound:
    """The bound that settles capped carriers without the distortion FFT
    is sound: it covers every exact variance, and a carrier it calls capped
    for sure has the capped reliability under its exact variance."""

    @PROPERTY
    @given(bound_inputs())
    def test_capped_for_sure_is_capped(self, inputs):
        base, symbols, alphabet, noise_var, x = inputs
        n_rows = x.shape[0]
        distortion = _RowDistortion(symbols, base, noise_var)
        bound = distortion.bound(np.arange(n_rows), slice(None))
        exact = chunked_variances(base, symbols, noise_var)
        assert np.all(exact <= bound)
        nearest = alphabet.nearest_levels(x)
        sure = _capped_for_sure(x, nearest, bound, alphabet)
        reliability = carrier_reliability(x[sure], exact[sure], alphabet, nearest[sure])
        np.testing.assert_array_equal(reliability, _CAPPED)

    @PROPERTY
    @given(bound_inputs(), st.randoms(use_true_random=False))
    def test_row_variances_equal_chunked_bit_for_bit(self, inputs, random):
        """Rows asked for in any order and any groups get the variances that
        ``distortion_covariance`` gives on consecutive chunks, bit for bit;
        a row asked for again keeps them."""
        base, symbols, _, noise_var, _ = inputs
        rows = np.arange(base.failed.size)
        random.shuffle(rows)
        distortion = _RowDistortion(symbols, base, noise_var)
        assert distortion.variance is None  # allocated on the first request
        cut = random.randint(0, rows.size)
        distortion.variances(rows[:cut])
        variance = distortion.variances(rows)
        want = chunked_variances(base, symbols, noise_var)
        np.testing.assert_array_equal(variance.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("order", [4, 16, 64])
    def test_bound_settles_some_and_doubts_some(self, order):
        """On one stack the bound settles some carriers and leaves others in
        doubt, some of them capped after all: every carrier capped for sure
        is capped, not every capped one is settled."""
        base, symbols, alphabet, noise_var, x = bound_case(make_rng(order), order, 40, 64,
                                                           12, 6)
        bound = _RowDistortion(symbols, base, noise_var).bound(np.arange(x.shape[0]),
                                                               slice(None))
        nearest = alphabet.nearest_levels(x)
        sure = _capped_for_sure(x, nearest, bound, alphabet)
        assert sure.any() and not sure.all()
        exact = chunked_variances(base, symbols, noise_var)
        capped = carrier_reliability(x, exact, alphabet, nearest) == _CAPPED
        assert not np.any(sure & ~capped)
        assert np.any(capped & ~sure)


class CallCounter:
    """Wraps a function and counts its calls and the elements of their
    first arguments."""

    def __init__(self, fn):
        self.fn, self.calls, self.sizes = fn, 0, []

    def __call__(self, *args, **kwargs):
        self.calls += 1
        self.sizes.append(np.size(args[0]))
        return self.fn(*args, **kwargs)


@pytest.fixture
def reliability_calls(monkeypatch):
    """Counts the calls ``_top_carriers`` makes to ``carrier_reliability``
    and ``distortion_covariance``, through the module names it calls."""
    counters = {}
    for name in ("carrier_reliability", "distortion_covariance"):
        counters[name] = CallCounter(getattr(gridce.data_aided, name))
        monkeypatch.setattr(gridce.data_aided, name, counters[name])
    return counters


def assert_top_carriers_match(case, budgets):
    got = _top_carriers(*case[:5], budgets, case[5])
    want = top_carriers_oracle(*case[:5], budgets, case[5])
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        np.testing.assert_array_equal(g, w)
    return got


class TestTopCarrierSkip:
    """A row whose budget covers every offered carrier keeps them all; the
    other rows score a prefix of the carriers and take its capped ones
    where they suffice.  The masks equal the path that scores every
    carrier of every chunk."""

    @PROPERTY
    @given(top_carrier_inputs())
    def test_matches_full_path(self, inputs):
        assert_top_carriers_match(*inputs)

    @PROPERTY
    @given(capped_carrier_inputs())
    def test_capped_heavy_matches_full_path(self, inputs):
        assert_top_carriers_match(*inputs)

    @pytest.mark.parametrize("order", [4, 16])
    def test_capped_prefix_scores_fewer_carriers(self, reliability_calls, order):
        """On a capped-heavy grid of four chunks, the last one ragged, with
        every row regime present, fewer carriers are scored than the ranked
        rows hold."""
        n = 64
        case, budgets = capped_carrier_case(make_rng(5), 7, 9, n, 6, 4, order)
        regimes, no_capped, undecodable = row_regimes(case, budgets)
        assert set(regimes.ravel()) == {"cover", "first", "doubled", "short"}
        ranked = regimes != "cover"
        assert (ranked & no_capped).any() and (ranked & undecodable).any()
        assert_top_carriers_match(case, budgets)
        scored = reliability_calls["carrier_reliability"].sizes
        assert sum(scored) < np.count_nonzero(ranked) * n

    def test_calls_hold_at_most_a_chunk_of_rows(self, reliability_calls):
        """Every row of a 63-antenna grid one carrier short: the prefixes of
        all four chunks hold more than ``ANTENNA_CHUNK`` x N carriers, and
        they go to ``carrier_reliability`` in calls of at most that many."""
        case, offered = top_carrier_case(make_rng(23), 7, 9, 48, 6, 3, 4)
        budgets = np.maximum(offered - 1, 0)
        assert_top_carriers_match(case, budgets)
        assert max(reliability_calls["carrier_reliability"].sizes) == ANTENNA_CHUNK * 48

    @pytest.mark.parametrize("qam_order", [4, 16])
    def test_trial_matches_full_path(self, reliability_calls, monkeypatch, qam_order):
        """A ranking trial on two chunks, at an SNR where the bound leaves
        carriers in doubt, scores and estimates exactly as with the top sets
        from the path that scores every carrier."""
        spec = ExperimentSpec(grid_rows=5, grid_cols=5, n_carriers=128, channel_len=16,
                              sparsity=2, n_pilots=(10,), snr_db=(15.0,), depth=(2,),
                              qam_order=qam_order, trials=1, seed=3)
        point = (10, 15.0, 2)
        got = experiments.run_point_trial(spec, 0, point, 0)
        assert reliability_calls["carrier_reliability"].calls
        assert reliability_calls["distortion_covariance"].calls
        monkeypatch.setattr(gridce.data_aided, "_top_carriers", top_carriers_oracle)
        want = experiments.run_point_trial(spec, 0, point, 0)
        assert {k: v[:3] for k, v in got.items()} == {k: v[:3] for k, v in want.items()}

    def test_budgets_equal_to_offered_count_skip(self, reliability_calls):
        case, offered = top_carrier_case(make_rng(21), 4, 4, 48, 6, 3, 16)
        bad = np.abs(freq_response(case[0].taps, 48)) < ZF_MIN_GAIN
        assert bad.any() and not bad.all()  # undecodable carriers on some rows
        top, _, undecodable = assert_top_carriers_match(case, offered)
        np.testing.assert_array_equal(undecodable, bad)
        np.testing.assert_array_equal(top, case[4] & ~bad)
        # the oracle's own calls go to the unwrapped functions
        assert reliability_calls["carrier_reliability"].calls == 0
        assert reliability_calls["distortion_covariance"].calls == 0

    def test_one_row_one_short_runs_full_path(self, reliability_calls):
        """One row of a 16-antenna chunk one carrier short: only that row is
        scored, and it takes its distortion variances once.  It holds no
        capped carrier, so the bound settles none of its carriers: the
        offered carriers of its prefix up to its U-th eligible carrier, then
        of the doubling of that prefix (clipped at N), go to the exact
        reliability, and then its full row; it keeps all but one of its
        offered carriers."""
        case, offered = top_carrier_case(make_rng(22), 4, 4, 48, 6, 3, 4)
        budgets = offered.copy()
        row = np.unravel_index(np.argmax(offered), offered.shape)
        budgets[row] -= 1
        top, _, _ = assert_top_carriers_match(case, budgets)
        np.testing.assert_array_equal(top.sum(axis=-1), budgets)
        regimes, no_capped, _ = row_regimes(case, budgets)
        assert regimes[row] == "short" and no_capped[row]
        first = np.flatnonzero(case[4])[budgets[row] - 1] + 1
        assert 2 * first >= 48
        row_offered = case[4] & (np.abs(freq_response(case[0].taps[row], 48)) >= ZF_MIN_GAIN)
        assert row_offered[:first].sum() < first  # the doubt excludes the pilots
        assert reliability_calls["carrier_reliability"].sizes == [
            row_offered[:first].sum(), row_offered[first:].sum(), 48]
        assert reliability_calls["distortion_covariance"].calls == 1

    @pytest.mark.parametrize("order", [4, 16])
    def test_capped_rows_settle_without_variances(self, reliability_calls, order):
        """A capped-heavy grid of four chunks with no carrier pulled off its
        point: the bound settles every carrier the ranked rows score, so no
        distortion variance and no exact reliability is computed, and the
        masks are the full path's."""
        case, budgets = capped_carrier_case(make_rng(6), 7, 9, 64, 6, 4, order,
                                            pulled=False)
        regimes, no_capped, _ = row_regimes(case, budgets)
        assert {"first", "doubled"} <= set(regimes.ravel()) <= {"cover", "first", "doubled"}
        assert_top_carriers_match(case, budgets)
        assert reliability_calls["distortion_covariance"].calls == 0
        assert reliability_calls["carrier_reliability"].calls == 0

    def test_no_exact_reliability_past_the_budget(self, reliability_calls):
        """Two ranked rows on a flat channel share the first window, which
        ends at the 20th eligible carrier for row B's budget.  Row A's
        budget is 2, and its first two offered carriers are capped for sure;
        its later carriers sit near the origin, in doubt.  They come after
        A's second capped carrier, so no exact reliability and no variance
        is taken for them; row B's are all capped for sure."""
        n = 32
        alphabet = QAM4
        symbols = alphabet.points[make_rng(7).integers(0, 4, size=n)]
        eligible = np.arange(n) % 8 != 0
        taps = np.zeros((1, 2, 4), dtype=complex)
        taps[..., 0] = 1.0
        base = GridEstimate(taps=taps, support=np.zeros((1, 2, 1), dtype=int),
                            error_cov=np.full((1, 2, 1, 1), 1e-12, dtype=complex),
                            priors=np.full(taps.shape, 0.1), failed=np.zeros((1, 2), bool))
        observations = freq_response(taps, n) * symbols
        observations[0, 0, 3:] *= 1e-12
        budgets = np.array([[2, 20]])
        case = (base, observations, symbols, alphabet, eligible, 1e-9)
        x, levels, _ = detect(observations[0, :1], taps[0, :1], alphabet)
        bound = _RowDistortion(symbols, base, 1e-9).bound(np.arange(1), slice(None))
        sure = _capped_for_sure(x, levels, bound, alphabet)[0]
        np.testing.assert_array_equal(sure, np.arange(n) < 3)
        top, _, _ = assert_top_carriers_match(case, budgets)
        np.testing.assert_array_equal(np.flatnonzero(top[0, 0]), [1, 2])
        np.testing.assert_array_equal(np.flatnonzero(top[0, 1]), np.flatnonzero(eligible)[:20])
        assert reliability_calls["carrier_reliability"].calls == 0
        assert reliability_calls["distortion_covariance"].calls == 0

    @pytest.mark.parametrize("n_pilots, skips", [(6, True), (10, False)])
    def test_reliability_only_where_budgets_leave_a_choice(self, reliability_calls,
                                                          n_pilots, skips):
        """K = 6 with two expected taps is the pilot-starved regime, where
        every data carrier is offered; K = 10 ranks by reliability."""
        spec = ExperimentSpec(grid_rows=3, grid_cols=3, n_carriers=64, channel_len=16,
                              sparsity=2, n_pilots=(n_pilots,), snr_db=(15.0,),
                              depth=(2,), algorithms=("MB-R", "IB-R"), trials=1, seed=1)
        experiments.run_point_trial(spec, 0, (n_pilots, 15.0, 2), 0)
        for counter in reliability_calls.values():
            assert (counter.calls == 0) == skips
