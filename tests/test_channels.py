"""Grid topology, array classification, sparse channel generation, depth bounds.

The design rules (array classification and the depth bounds) live in the
test oracles; these tests check them against the paper's numbers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridce.channels import (
    POWER_PROFILES,
    TAP_SAMPLERS,
    ArrayKind,
    channels_to_csv,
    generate_channels,
)
from gridce.errors import ConfigurationError
from gridce.ofdm import make_rng
from oracles import (
    channels_to_csv_loop_oracle,
    classify_array,
    generate_channels_loop_oracle,
    lower_bound_D,
    neighbors,
    read_channels_csv,
    recommended_D,
    tier_population,
)


class TestNeighbors:
    def test_interior_has_four(self):
        assert len(neighbors((20, 20), (10, 10))) == 4

    def test_corner_has_two(self):
        assert len(neighbors((20, 20), (0, 0))) == 2
        assert len(neighbors((20, 20), (19, 19))) == 2

    def test_edge_has_three(self):
        assert len(neighbors((20, 20), (0, 5))) == 3

    def test_out_of_grid(self):
        with pytest.raises(IndexError):
            neighbors((3, 3), (3, 0))


class TestClassifyArray:
    def test_lte_10x10_is_sia(self):
        kind, d_max_m = classify_array(10, 10, 0.058, 20e6)
        assert kind == ArrayKind.SIA
        assert abs(d_max_m - 0.522) < 1e-9

    def test_lte_50x50_is_sva(self):
        assert classify_array(50, 50, 0.058, 20e6)[0] == ArrayKind.SVA

    def test_cdma2000_100x100_is_sia(self):
        # 1.25 MHz bandwidth -> 24 m resolvability threshold
        assert classify_array(100, 100, 0.150, 1.25e6)[0] == ArrayKind.SIA

    def test_monotone_in_bandwidth_and_spacing(self):
        """Growing BW or d never flips SVA back to SIA."""
        kinds = [classify_array(30, 30, 0.05 * factor, 20e6)[0]
                 for factor in (1.0, 2.0, 4.0, 8.0)]
        seen_sva = False
        for kind in kinds:
            if kind == ArrayKind.SVA:
                seen_sva = True
            assert not (seen_sva and kind == ArrayKind.SIA)
        if classify_array(30, 30, 0.05, 20e6)[0] == ArrayKind.SVA:
            assert classify_array(30, 30, 0.05, 160e6)[0] == ArrayKind.SVA


class TestDepthFormulas:
    def test_recommended_depth_lte(self):
        # C/(20*0.058*20e6) = 12.92 -> 12
        assert recommended_D(0.058, 20e6) == 12

    def test_recommended_depth_zero_for_huge_spacing(self):
        assert recommended_D(10.0, 20e6) == 0

    def test_lower_bound_vacuous(self):
        assert lower_bound_D(3, 8) == 0

    def test_lower_bound_strict(self):
        # sqrt(20 - 5 - 0.25) - 0.5 = 3.34 -> smallest integer above is 4
        assert lower_bound_D(20, 10) == 4

    def test_lower_bound_is_strictly_above(self):
        for n in range(1, 30):
            for k in range(0, 30):
                d = lower_bound_D(n, k)
                assert tier_population(d) > 2 * n - k

    def test_tier_population(self):
        # two rounds reach 12 neighbors plus the center
        assert tier_population(2) == 13
        assert tier_population(1) == 5


class TestGeneration:
    def test_sia_supports_identical(self):
        taps = generate_channels((3, 3), 32, 3, ArrayKind.SIA, drift=0.05, rng=make_rng(0))
        support = taps != 0
        assert all(
            np.array_equal(support[r, c], support[0, 0]) for r, c in np.ndindex(3, 3)
        )

    def test_exact_sparsity_everywhere(self):
        taps = generate_channels((4, 5), 64, 3, ArrayKind.SVA, drift=0.3, rng=make_rng(1))
        np.testing.assert_array_equal((taps != 0).sum(axis=2), 3)

    def test_off_support_exactly_zero_on_support_nonzero(self):
        taps = generate_channels((3, 3), 32, 4, ArrayKind.SVA, drift=0.5, rng=make_rng(2))
        np.testing.assert_array_equal((taps == 0).sum(axis=2), 32 - 4)
        assert np.all(np.abs(taps[taps != 0]) >= 1e-9)

    def test_sva_neighbors_differ_by_at_most_one_migration(self):
        for seed in range(10):
            support = generate_channels((6, 6), 32, 3, ArrayKind.SVA, drift=0.6,
                                        rng=make_rng(seed)) != 0
            for r, c in np.ndindex(6, 6):
                for nr, nc in neighbors((6, 6), (r, c)):
                    sym_diff = np.logical_xor(support[r, c], support[nr, nc]).sum()
                    assert sym_diff <= 2

    def test_sva_zero_drift_reduces_to_sia(self):
        support = generate_channels((4, 4), 32, 3, ArrayKind.SVA, drift=0.0,
                                    rng=make_rng(3)) != 0
        assert all(
            np.array_equal(support[r, c], support[0, 0]) for r, c in np.ndindex(4, 4)
        )

    def test_sva_actually_drifts(self):
        support = generate_channels((8, 8), 64, 3, ArrayKind.SVA, drift=0.9,
                                    rng=make_rng(4)) != 0
        assert not np.array_equal(support[0, 0], support[7, 7])

    @pytest.mark.parametrize("shape, kind, drift", [
        ((0, 3), ArrayKind.SIA, 0.0), ((2, 0), ArrayKind.SVA, 0.5),
        ((-1, 2), ArrayKind.SIA, 0.0), ((3,), ArrayKind.SIA, 0.0),
    ])
    def test_empty_or_negative_side_is_a_configuration_error_before_any_draw(
            self, shape, kind, drift):
        rng = make_rng(5)
        state = rng.bit_generator.state
        with pytest.raises(ConfigurationError):
            generate_channels(shape, 16, 2, kind, drift, rng)
        assert rng.bit_generator.state == state

    def test_sparsity_exceeding_length(self):
        with pytest.raises(ConfigurationError):
            generate_channels((2, 2), 4, 5, ArrayKind.SIA, drift=0.05, rng=make_rng(0))

    @pytest.mark.parametrize("dist", ["rayleigh", "constant", "student_t"])
    def test_tap_distributions(self, dist):
        taps = generate_channels((2, 2), 16, 2, ArrayKind.SIA, drift=0.05, rng=make_rng(6),
                                 tap_dist=dist)
        np.testing.assert_array_equal((taps != 0).sum(axis=2), 2)
        assert np.all(np.abs(taps[taps != 0]) >= 1e-9)

    @pytest.mark.parametrize("argument, names", [
        ("tap_dist", tuple(TAP_SAMPLERS)), ("power_profile", POWER_PROFILES),
    ], ids=["tap_dist", "power_profile"])
    def test_unknown_name_is_a_configuration_error_before_any_draw(self, argument, names):
        """The error names every accepted value, and the generator is untouched."""
        rng = make_rng(5)
        state = rng.bit_generator.state
        with pytest.raises(ConfigurationError) as excinfo:
            generate_channels((2, 2), 16, 2, ArrayKind.SIA, drift=0.0, rng=rng,
                              **{argument: "laplace"})
        assert all(repr(name) in str(excinfo.value) for name in names)
        assert rng.bit_generator.state == state

    def test_determinism(self):
        a = generate_channels((3, 3), 32, 3, ArrayKind.SVA, drift=0.4, rng=make_rng(9))
        b = generate_channels((3, 3), 32, 3, ArrayKind.SVA, drift=0.4, rng=make_rng(9))
        np.testing.assert_array_equal(a, b)


class TestArrayFill:
    """The array form of ``generate_channels`` against the per-antenna fill
    it replaced (``generate_channels_loop_oracle``), bit for bit."""

    @pytest.mark.parametrize("rows, cols", [(4, 5), (1, 7), (6, 1), (1, 1)])
    @pytest.mark.parametrize("kind, drift", [
        (ArrayKind.SIA, 0.05), (ArrayKind.SVA, 0.0), (ArrayKind.SVA, 0.4),
        (ArrayKind.SVA, 1.0),
    ])
    @pytest.mark.parametrize("power_profile", ["flat", "geometric"])
    def test_equals_per_antenna_fill(self, rows, cols, kind, drift, power_profile):
        for seed in range(3):
            real = generate_channels((rows, cols), 32, 4, kind, drift, make_rng(seed),
                                     power_profile=power_profile)
            taps, support = generate_channels_loop_oracle(
                (rows, cols), 32, 4, kind, drift, make_rng(seed), power_profile=power_profile)
            assert np.array_equal(real, taps)
            assert np.array_equal(real != 0, support)


class TestSupportIsNonzero:
    """Every antenna holds exactly ``sparsity`` nonzero taps, and they sit
    where the per-antenna fill puts the support, for every tap sampler,
    power profile and regime (drift 0.6: the SVA support walks)."""

    @pytest.mark.parametrize("tap_dist", sorted(TAP_SAMPLERS))
    @pytest.mark.parametrize("power_profile", POWER_PROFILES)
    @pytest.mark.parametrize("kind", list(ArrayKind))
    @settings(max_examples=20, deadline=None)
    @given(
        rows=st.integers(1, 6),
        cols=st.integers(1, 6),
        channel_len=st.integers(1, 24),
        data=st.data(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_nonzero_taps_are_the_support(self, tap_dist, power_profile, kind,
                                          rows, cols, channel_len, data, seed):
        sparsity = data.draw(st.integers(1, channel_len), label="sparsity")
        args = ((rows, cols), channel_len, sparsity, kind, 0.6)
        taps = generate_channels(*args, make_rng(seed), tap_dist=tap_dist,
                                 power_profile=power_profile)
        _, support = generate_channels_loop_oracle(*args, make_rng(seed), tap_dist=tap_dist,
                                                   power_profile=power_profile)
        np.testing.assert_array_equal((taps != 0).sum(axis=-1), sparsity)
        np.testing.assert_array_equal(taps != 0, support)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        real = generate_channels((3, 4), 16, 3, ArrayKind.SVA, drift=0.3, rng=make_rng(11))
        path = tmp_path / "channels.csv"
        channels_to_csv(real, path)
        taps, support = read_channels_csv(path, 3, 4, 16)
        np.testing.assert_allclose(taps, real, atol=0)
        np.testing.assert_array_equal(support, real != 0)
        np.testing.assert_array_equal(support.sum(axis=2), 3)

    @pytest.mark.parametrize("kind, drift", [(ArrayKind.SIA, 0.0), (ArrayKind.SVA, 0.6)])
    def test_bytes_equal_the_per_antenna_loop(self, tmp_path, kind, drift):
        """One walk over the nonzero taps writes the per-antenna loop's file,
        byte for byte; drift 0.6 walks the SVA support."""
        taps = generate_channels((4, 5), 32, 3, kind, drift, make_rng(12),
                                 tap_dist="student_t")
        channels_to_csv(taps, tmp_path / "array.csv")
        channels_to_csv_loop_oracle(taps, tmp_path / "loop.csv")
        assert (tmp_path / "array.csv").read_bytes() == (tmp_path / "loop.csv").read_bytes()
