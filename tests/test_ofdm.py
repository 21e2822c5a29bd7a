"""Frames, pilots, pilot rows, received-signal synthesis, detection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridce.errors import ConfigurationError
from gridce.experiments import ExperimentSpec, synthesize_scene
from gridce.ofdm import (
    OfdmFrame,
    detect,
    equalize,
    freq_response,
    make_rng,
    modulate_frame,
    pilot_rows,
    place_pilots,
    synthesize_received,
)
from gridce.qam import build_qam_alphabet
from oracles import (
    dense_rows,
    equalize_and_slice,
    equalize_oracle,
    freq_response_oracle,
    qam_slice,
    synthesize_received_oracle,
    truncated_dft,
)

QAM4 = build_qam_alphabet(4)


@st.composite
def dimensions(draw):
    """(N, L, K) with 1 <= L <= N and 1 <= K <= N; L = 1 and L = N included."""
    n = draw(st.integers(1, 96))
    length = draw(st.one_of(st.just(1), st.just(n), st.integers(1, n)))
    return n, length, draw(st.integers(1, n))


def small_spec(**kw):
    defaults = dict(grid_rows=2, grid_cols=2, n_carriers=64, channel_len=16,
                    sparsity=2, n_pilots=(12,), qam_order=4, trials=1)
    defaults.update(kw)
    return ExperimentSpec(**defaults)


class TestConfig:
    """The OFDM dimensions are validated where they are declared: on the spec."""

    def test_rejects_more_pilots_than_carriers(self):
        with pytest.raises(ConfigurationError):
            ExperimentSpec(n_carriers=4, n_pilots=(5,), channel_len=2, sparsity=1)

    def test_rejects_long_channel(self):
        with pytest.raises(ConfigurationError):
            small_spec(channel_len=65)

    def test_rejects_bad_qam(self):
        with pytest.raises(ConfigurationError):
            small_spec(qam_order=8)


class TestPilotPlacement:
    def test_sorted_distinct_in_range(self):
        p = place_pilots(512, 16, rng_seed=3)
        assert p.shape == (16,)
        assert np.all(np.diff(p) > 0)
        assert p.min() >= 0 and p.max() < 512

    def test_small_pilot_budget(self):
        assert place_pilots(512, 8, rng_seed=1).shape == (8,)

    def test_too_many_pilots(self):
        with pytest.raises(ConfigurationError):
            place_pilots(4, 5, rng_seed=0)

    def test_reproducible(self):
        np.testing.assert_array_equal(
            place_pilots(256, 12, rng_seed=42), place_pilots(256, 12, rng_seed=42)
        )

    def test_pinned_stream(self):
        """PCG64 is pinned, so a fixed seed yields these exact indices."""
        np.testing.assert_array_equal(
            place_pilots(16, 4, rng_seed=0), place_pilots(16, 4, rng_seed=0)
        )
        assert not np.array_equal(
            place_pilots(256, 12, rng_seed=0), place_pilots(256, 12, rng_seed=1)
        )


class TestFrame:
    def test_shape_and_alphabet_membership(self):
        pilots = place_pilots(64, 12, 0)
        frame = modulate_frame(QAM4, 64, pilots, make_rng(0, 2))
        assert frame.freq_symbols.shape == (64,)
        d = np.abs(frame.freq_symbols[:, None] - QAM4.points[None, :]).min(axis=1)
        assert d.max() < 1e-12

    def test_all_pilot_frame(self):
        pilots = np.arange(64)
        frame = modulate_frame(QAM4, 64, pilots, make_rng(1))
        assert frame.data_indices.size == 0
        # every carrier carries a constant-modulus pilot point
        assert np.allclose(np.abs(frame.freq_symbols), np.abs(frame.freq_symbols[0]))

    def test_same_seed_same_frame(self):
        pilots = place_pilots(64, 12, 0)
        f1 = modulate_frame(QAM4, 64, pilots, make_rng(7))
        f2 = modulate_frame(QAM4, 64, pilots, make_rng(7))
        np.testing.assert_array_equal(f1.freq_symbols, f2.freq_symbols)


class TestPilotRows:
    def test_all_ones_frame_gives_dft_rows(self):
        frame = OfdmFrame(freq_symbols=np.ones(32, complex),
                          pilot_indices=np.array([0, 3, 17, 31]))
        rows = pilot_rows(frame, 8)
        np.testing.assert_allclose(rows, truncated_dft(32, 8)[frame.pilot_indices], atol=1e-14)

    def test_restricted_shape(self):
        scene = synthesize_scene(small_spec(), 12, 10.0, 0, 0)
        assert scene.pilot_rows.shape == (12, 16)

    def test_rows_are_scaled_dft_rows(self):
        pilots = place_pilots(64, 12, 0)
        frame = modulate_frame(QAM4, 64, pilots, make_rng(0))
        f = truncated_dft(64, 16)[pilots]
        np.testing.assert_allclose(
            pilot_rows(frame, 16), frame.freq_symbols[pilots, None] * f, atol=1e-14
        )

    def test_rejects_channel_longer_than_frame(self):
        frame = OfdmFrame(freq_symbols=np.ones(8, complex), pilot_indices=np.arange(2))
        with pytest.raises(ConfigurationError):
            pilot_rows(frame, 9)

    def test_scene_rows_are_the_dense_pilot_rows(self):
        """A scene's K x L pilot rows are bit for bit the pilot rows of the
        dense matrix diag(s) F_L."""
        scene = synthesize_scene(small_spec(), 12, 10.0, 0, 0)
        full = dense_rows(scene.frame, 16)
        assert np.array_equal(full[scene.frame.pilot_indices], scene.pilot_rows)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(dims=dimensions(), seed=st.integers(0, 2**32 - 1))
    def test_equals_dense_rows_bit_for_bit(self, dims, seed):
        n, length, k = dims
        frame = modulate_frame(QAM4, n, place_pilots(n, k, seed), make_rng(seed))
        pilots = frame.pilot_indices
        want = frame.freq_symbols[pilots, None] * truncated_dft(n, length)[pilots]
        np.testing.assert_array_equal(pilot_rows(frame, length).view(np.uint64),
                                      want.view(np.uint64))


class TestDftProperties:
    def test_unitary_round_trip(self):
        n = 64
        k = np.arange(n)[:, None]
        f = np.exp(-2j * np.pi * k * k.T / n) / np.sqrt(n)
        rng = np.random.default_rng(0)
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        np.testing.assert_allclose(f.conj().T @ (f @ x), x, atol=1e-10)
        assert abs(np.linalg.norm(f @ x) - np.linalg.norm(x)) < 1e-10

    def test_freq_response_matches_truncated_dft(self):
        rng = np.random.default_rng(1)
        h = rng.normal(size=16) + 1j * rng.normal(size=16)
        np.testing.assert_allclose(
            freq_response(h, 64), truncated_dft(64, 16) @ h, atol=1e-12
        )


    @pytest.mark.parametrize("n_carriers", [1, 16, 64, 512])
    def test_freq_response_matches_division_bit_for_bit(self, n_carriers):
        """Scaling the float view by 1/sqrt(N) is the complex division by
        sqrt(N), on one CIR and on a stack."""
        rng = make_rng(n_carriers)
        for shape in ((1,), (16,), (3, 5, 16)):
            h = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            np.testing.assert_array_equal(
                freq_response(h, n_carriers).view(np.uint64),
                freq_response_oracle(h, n_carriers).view(np.uint64))


class TestSynthesizeReceived:
    def test_noiseless_is_exact(self):
        pilots = place_pilots(64, 12, 0)
        frame = modulate_frame(QAM4, 64, pilots, make_rng(0))
        rng = np.random.default_rng(0)
        h = rng.normal(size=16) + 1j * rng.normal(size=16)
        y = synthesize_received(frame, h, 0.0, make_rng(1))
        np.testing.assert_allclose(y, dense_rows(frame, 16) @ h, atol=1e-14)

    def test_noise_variance_monte_carlo(self):
        """h = 0: the empirical per-entry variance over 1e5 draws must land
        within 5% of the configured value."""
        frame = OfdmFrame(freq_symbols=np.ones(10, complex), pilot_indices=np.arange(2))
        h = np.zeros((10_000, 4))  # 10^5 total noise entries
        y = synthesize_received(frame, h, 0.25, make_rng(123))
        empirical = np.mean(np.abs(y) ** 2)
        assert abs(empirical - 0.25) / 0.25 < 0.05

    def test_total_noise_energy(self):
        frame = OfdmFrame(freq_symbols=np.ones(64, complex), pilot_indices=np.arange(2))
        rng = np.random.default_rng(0)
        h = rng.normal(size=(2000, 8)) + 0j
        y = synthesize_received(frame, h, 0.5, make_rng(5))
        clean = synthesize_received(frame, h, 0.0, make_rng(5))
        per_vector = np.sum(np.abs(y - clean) ** 2, axis=1)
        assert abs(np.mean(per_vector) - 64 * 0.5) / (64 * 0.5) < 0.05

    @pytest.mark.parametrize("noise_var", [0.0, 0.3])
    def test_noise_added_in_place_matches_the_sum(self, noise_var):
        """The in-place noise is the noiseless spectrum plus (re + 1j im),
        drawn real part first, bit for bit."""
        frame = modulate_frame(QAM4, 32, place_pilots(32, 6, 2), make_rng(2))
        rng = np.random.default_rng(4)
        h = rng.normal(size=(3, 5, 8)) + 1j * rng.normal(size=(3, 5, 8))
        y = synthesize_received(frame, h, noise_var, make_rng(7))
        g, sigma, shape = make_rng(7), np.sqrt(noise_var / 2.0), (3, 5, 32)
        want = (freq_response(h, 32) * frame.freq_symbols
                + (g.normal(0.0, sigma, shape) + 1j * g.normal(0.0, sigma, shape)))
        np.testing.assert_array_equal(y.view(np.uint64), want.view(np.uint64))

    def test_noise_matches_two_normal_draws_bit_for_bit(self):
        """One standard-normal block scaled by sigma is what two
        ``rng.normal(0, sigma)`` calls draw, real part first: 20 seeds on a
        20 x 20 grid of 512 carriers.  With h = 0 the noise is all of y."""
        frame = modulate_frame(QAM4, 512, place_pilots(512, 16, 0), make_rng(0))
        rows = dense_rows(frame, 64)
        h = np.zeros((20, 20, 64), dtype=complex)
        for seed in range(20):
            got = synthesize_received(frame, h, 0.01 * (seed + 1), make_rng(seed, 3))
            want = synthesize_received_oracle(rows, h, 0.01 * (seed + 1), make_rng(seed, 3))
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(dims=dimensions(), stack=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_matches_the_dense_oracle(self, dims, stack, seed):
        """The FFT synthesis equals the dense h @ (diag(s) F_L)^T within
        1e-12 of each antenna's norm, on one antenna and on an (M, G, L)
        stack, and it leaves the noise stream where the oracle leaves it."""
        n, length, k = dims
        frame = modulate_frame(QAM4, n, place_pilots(n, k, seed), make_rng(seed))
        shape = (3, 2, length) if stack else (length,)
        g = make_rng(seed, 0)
        h = g.normal(size=shape) + 1j * g.normal(size=shape)
        got_rng, want_rng = make_rng(seed, 3), make_rng(seed, 3)
        got = synthesize_received(frame, h, 0.1, got_rng)
        want = synthesize_received_oracle(dense_rows(frame, length), h, 0.1, want_rng)
        assert got.shape == want.shape == shape[:-1] + (n,)
        error = np.linalg.norm(got - want, axis=-1)
        assert np.all(error <= 1e-12 * np.linalg.norm(want, axis=-1))
        assert got_rng.standard_normal() == want_rng.standard_normal()

    def test_real_inputs_give_complex_observations(self):
        frame = OfdmFrame(freq_symbols=np.arange(4.0) + 0j, pilot_indices=np.arange(2))
        y = synthesize_received(frame, np.ones((2, 3)), 0.1, make_rng(0))
        assert np.iscomplexobj(y) and y.shape == (2, 4)

    def test_rejects_channel_longer_than_frame(self):
        """An FFT of n=N would crop an L > N response silently."""
        frame = OfdmFrame(freq_symbols=np.ones(8, complex), pilot_indices=np.arange(2))
        with pytest.raises(ConfigurationError):
            synthesize_received(frame, np.zeros(9), 0.0, make_rng(0))


class TestEqualizeAndSlice:
    def test_perfect_equalization(self):
        pilots = place_pilots(64, 12, 0)
        frame = modulate_frame(QAM4, 64, pilots, make_rng(0))
        rng = np.random.default_rng(3)
        h = rng.normal(size=16) + 1j * rng.normal(size=16)
        y = synthesize_received(frame, h, 0.0, make_rng(0))
        resp = freq_response(h, 64)
        equalized, bad = equalize(y, resp)
        hard = qam_slice(QAM4, equalized)
        assert not bad.any()
        np.testing.assert_allclose(hard, frame.freq_symbols, atol=1e-9)

    def test_zero_gain_flagged(self):
        y = np.ones(4, complex)
        resp = np.array([1.0, 0.0, 1.0, 1e-15], complex)
        equalized, bad = equalize(y, resp)
        np.testing.assert_array_equal(bad, [False, True, False, True])
        assert equalized[1] == 0.0

    def test_equalize_matches_masked_store_bit_for_bit(self):
        """The masked division into zeros equals dividing by 1 on the
        undecodable carriers and storing zeros there."""
        rng = make_rng(11)
        received = rng.normal(size=(16, 64)) + 1j * rng.normal(size=(16, 64))
        resp = rng.normal(size=(16, 64)) + 1j * rng.normal(size=(16, 64))
        resp[rng.random((16, 64)) < 0.1] = 0.0
        resp[3, :5] = 1e-13
        got, got_bad = equalize(received, resp)
        want, want_bad = equalize_oracle(received, resp)
        np.testing.assert_array_equal(got_bad, want_bad)
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("order", [4, 16])
    def test_detect_matches_per_antenna_and_carrier_subsets(self, order):
        """A stack detects as each antenna alone, and detecting a subset of
        carriers gives that subset's bits of detecting all of them."""
        alphabet = build_qam_alphabet(order)
        rng = make_rng(order)
        taps = rng.normal(size=(5, 8)) + 1j * rng.normal(size=(5, 8))
        taps[3] = 0.0                # decodes no carrier
        taps[4] = 0.0
        taps[4, :2] = [1.0, -1.0]    # a zero of the response on carrier 0
        received = rng.normal(size=(5, 32)) + 1j * rng.normal(size=(5, 32))
        equalized, nearest, bad = detect(received, taps, alphabet)
        assert bad[3].all() and bad[4, 0] and not bad[4, 1:].any()
        subset = np.flatnonzero(rng.random(32) < 0.6)
        resp = freq_response(taps, 32)
        for b in range(5):
            want_eq, want_hard, want_bad = equalize_and_slice(received[b], resp[b], alphabet)
            np.testing.assert_array_equal(equalized[b], want_eq)
            np.testing.assert_array_equal(
                alphabet.points[alphabet.indices_from_levels(nearest[b])], want_hard)
            np.testing.assert_array_equal(bad[b], want_bad)
        sub_eq, sub_bad = equalize(received[:, subset], resp[:, subset])
        np.testing.assert_array_equal(sub_eq, equalized[:, subset])
        np.testing.assert_array_equal(alphabet.nearest_levels(sub_eq), nearest[:, subset])
        np.testing.assert_array_equal(sub_bad, bad[:, subset])
