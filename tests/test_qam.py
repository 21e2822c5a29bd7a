"""Alphabet construction, Gray mapping and hard slicing.

The per-axis slicer is checked against the constellation-wide Q-pass
slicer it replaced (``nearest_indices_oracle``).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridce.errors import ConfigurationError
from gridce.qam import QamAlphabet, build_qam_alphabet
from oracles import (
    bit_words_oracle,
    indices_from_bits,
    nearest_indices_oracle,
    nearest_levels_oracle,
    qam_slice,
)


class TestAlphabetConstruction:
    def test_4qam_points(self):
        """Q=4 must be the four unit-magnitude corners (+-1 +-j)/sqrt(2)."""
        alph = build_qam_alphabet(4)
        expected = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) / np.sqrt(2)
        assert sorted(np.round(alph.points, 12), key=lambda z: (z.real, z.imag)) == \
            sorted(np.round(expected, 12), key=lambda z: (z.real, z.imag))

    def test_16qam_grid(self):
        """Q=16 is the {+-1, +-3}^2 grid scaled by 1/sqrt(10)."""
        alph = build_qam_alphabet(16)
        levels = np.unique(np.round(alph.points.real * np.sqrt(10)))
        np.testing.assert_array_equal(levels, [-3, -1, 1, 3])

    @pytest.mark.parametrize("order", [4, 16, 64])
    def test_unit_average_energy(self, order):
        alph = build_qam_alphabet(order)
        assert abs(np.mean(np.abs(alph.points) ** 2) - 1.0) < 1e-12

    @pytest.mark.parametrize("order", [4, 16, 64])
    def test_symmetric_about_origin(self, order):
        pts = build_qam_alphabet(order).points
        negated = sorted(-pts, key=lambda z: (z.real, z.imag))
        original = sorted(pts, key=lambda z: (z.real, z.imag))
        np.testing.assert_allclose(negated, original, atol=1e-12)

    @pytest.mark.parametrize("order", [2, 8, 32, 12, 0])
    def test_non_square_orders_rejected(self, order):
        with pytest.raises(ConfigurationError):
            build_qam_alphabet(order)

    @pytest.mark.parametrize("order", [4, 16, 64])
    def test_one_shared_read_only_alphabet_per_order(self, order):
        """Every call with an order returns one instance, and none of its
        arrays can be written, so no caller can change what the others see."""
        alph = build_qam_alphabet(order)
        assert build_qam_alphabet(order) is alph
        assert build_qam_alphabet(4 if order != 4 else 16) is not alph
        for table in (alph.points, alph.levels, alph.level_table, alph.popcount,
                      alph.corners):
            with pytest.raises(ValueError, match="read-only"):
                table[0] = table[1]
        np.testing.assert_allclose(np.abs(alph.corners), np.abs(alph.points).max())

    def test_points_are_a_read_only_copy(self):
        """An alphabet built from a caller's points copies them."""
        points = build_qam_alphabet(4).points.copy()
        alph = QamAlphabet(order=4, points=points)
        points[0] = 0.0
        assert points.flags.writeable and alph.points[0] != 0.0


class TestGrayMapping:
    @pytest.mark.parametrize("order", [4, 16, 64])
    def test_adjacent_points_differ_by_one_bit(self, order):
        """Nearest horizontal/vertical neighbors differ in exactly one bit."""
        alph = build_qam_alphabet(order)
        m = round(order ** 0.5)
        step = 2.0 / np.sqrt(2.0 * (m * m - 1) / 3.0)
        for v in range(order):
            p = alph.points[v]
            for delta in (step, step * 1j):
                q = p + delta
                dist = np.abs(alph.points - q)
                if dist.min() > 1e-9:
                    continue  # off the grid edge
                w = int(np.argmin(dist))
                assert bin(v ^ w).count("1") == 1

    def test_bits_round_trip(self):
        alph = build_qam_alphabet(16)
        idx = np.arange(16)
        bits = bit_words_oracle(alph, idx)
        np.testing.assert_array_equal(indices_from_bits(alph, bits), idx)

    @pytest.mark.parametrize("order", [4, 16, 64])
    def test_popcount_of_xor_is_the_hamming_distance(self, order):
        """popcount[a ^ b] counts the bits in which the words of a and b differ."""
        alph = build_qam_alphabet(order)
        idx = np.arange(order)
        bits = bit_words_oracle(alph, idx)
        hamming = (bits[:, None, :] != bits[None, :, :]).sum(axis=-1)
        np.testing.assert_array_equal(alph.popcount[idx[:, None] ^ idx[None, :]], hamming)

    def test_documented_4qam_table(self):
        """The module docstring's 4-QAM table: bit b1 drives I, b0 drives Q."""
        alph = build_qam_alphabet(4)
        s = 1 / np.sqrt(2)
        np.testing.assert_allclose(alph.points[0b00], (-1 - 1j) * s, atol=1e-12)
        np.testing.assert_allclose(alph.points[0b01], (-1 + 1j) * s, atol=1e-12)
        np.testing.assert_allclose(alph.points[0b10], (1 - 1j) * s, atol=1e-12)
        np.testing.assert_allclose(alph.points[0b11], (1 + 1j) * s, atol=1e-12)


class TestSlicing:
    def test_points_map_to_themselves(self):
        alph = build_qam_alphabet(16)
        np.testing.assert_array_equal(
            alph.indices_from_levels(alph.nearest_levels(alph.points)), np.arange(16)
        )

    def test_nearest_point_example(self):
        """0.9 + 0.8j slices to (1+j)/sqrt(2) at Q=4."""
        alph = build_qam_alphabet(4)
        sliced = qam_slice(alph, np.array([0.9 + 0.8j]))
        np.testing.assert_allclose(sliced, [(1 + 1j) / np.sqrt(2)], atol=1e-12)

    def test_idempotent(self):
        alph = build_qam_alphabet(16)
        rng = np.random.default_rng(0)
        x = rng.normal(size=100) + 1j * rng.normal(size=100)
        once = qam_slice(alph, x)
        np.testing.assert_array_equal(qam_slice(alph, once), once)

    def test_tie_breaks_lexicographically(self):
        """The origin is equidistant from all 4-QAM points; the winner is the
        lexicographically smallest (real, imag) point."""
        alph = build_qam_alphabet(4)
        sliced = qam_slice(alph, np.array([0.0 + 0.0j]))[0]
        assert sliced == min(alph.points, key=lambda z: (z.real, z.imag))


def exact_midpoints(levels):
    """Midpoints between adjacent levels that are exact float ties."""
    mids = (levels[1:] + levels[:-1]) / 2
    return mids[mids - levels[:-1] == levels[1:] - mids]


class TestSeparableSlicing:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.sampled_from([4, 16, 64]), st.integers(0, 2**32 - 1))
    def test_matches_q_pass_oracle(self, order, seed):
        """Per-axis decisions equal the Q-pass slicer's bit for bit on random
        symbols, points, points on the axes, exact decision-boundary
        midpoints (ties on one or both axes), +-0.0 and symbols 10x outside
        the constellation."""
        alph = build_qam_alphabet(order)
        rng = np.random.default_rng(seed)
        mids = exact_midpoints(alph.levels)
        axis_values = np.concatenate([alph.levels, mids, [0.0, -0.0],
                                      10 * alph.levels, rng.normal(size=8)])
        points = alph.points[rng.integers(0, order, size=16)]
        x = np.concatenate([
            rng.normal(size=64) + 1j * rng.normal(size=64),
            points, points.real, 1j * points.imag,
            rng.choice(axis_values, 64) + 1j * rng.choice(axis_values, 64),
            np.array([0.0, -0.0]) + 1j * np.array([-0.0, 0.0]),
            10.0 * (rng.normal(size=16) + 1j * rng.normal(size=16)),
        ])
        np.testing.assert_array_equal(alph.indices_from_levels(alph.nearest_levels(x)),
                                      nearest_indices_oracle(alph, x))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.sampled_from([4, 16, 64]), st.integers(0, 2**32 - 1))
    def test_levels_match_running_minimum_oracle(self, order, seed):
        """The slicer that starts from its first comparison and skips the
        minimum after the last level picks the running-minimum oracle's
        levels bit for bit, dtype included: on random symbols, points,
        exact and inexact midpoints, +-0.0, far-out values, inf and nan."""
        alph = build_qam_alphabet(order)
        rng = np.random.default_rng(seed)
        levels = alph.levels
        axis_values = np.concatenate([levels, (levels[1:] + levels[:-1]) / 2,
                                      [0.0, -0.0, np.inf, -np.inf, np.nan],
                                      1e6 * levels, rng.normal(size=8)])
        x = np.empty((8, 24), dtype=complex)
        x.real = rng.choice(np.concatenate([axis_values, rng.normal(size=96)]), x.shape)
        x.imag = rng.choice(np.concatenate([axis_values, rng.normal(size=96)]), x.shape)
        got = alph.nearest_levels(x)
        want = nearest_levels_oracle(alph, x)
        assert got.dtype == want.dtype and got.shape == want.shape
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("order", [16, 64])
    def test_inexact_midpoint_goes_to_nearer_level(self, order):
        """Where the float midpoint of two levels is not an exact tie, the
        slicer picks the strictly nearer level on that axis (the Q-pass
        slicer's rounded 2-D distances can call such a point a tie)."""
        alph = build_qam_alphabet(order)
        levels = alph.levels
        mids = (levels[1:] + levels[:-1]) / 2
        inexact = np.flatnonzero(mids - levels[:-1] != levels[1:] - mids)
        assert inexact.size  # these orders have some
        for k in inexact:
            nearer = k if mids[k] - levels[k] < levels[k + 1] - mids[k] else k + 1
            got = alph.nearest_levels(np.array([mids[k] + 1j * mids[k]]))
            np.testing.assert_array_equal(got[0], [nearer, nearer])

    @pytest.mark.parametrize("order", [4, 16, 64])
    def test_level_table_round_trip(self, order):
        """The (I level, Q level) table points back at every point."""
        alph = build_qam_alphabet(order)
        i, q = alph.nearest_levels(alph.points).T
        np.testing.assert_array_equal(alph.levels[i] + 1j * alph.levels[q], alph.points)
        np.testing.assert_array_equal(alph.level_table[i, q], np.arange(order))
