"""Grid topology, array classification, sparse channel generation, depth bounds."""

import numpy as np
import pytest

from gridce.channels import (
    AntennaGrid,
    ArrayKind,
    channels_to_csv,
    classify_array,
    generate_channels,
    lower_bound_D,
    recommended_D,
    tier_population,
)
from gridce.errors import ConfigurationError
from gridce.ofdm import make_rng
from oracles import generate_channels_loop_oracle, neighbors, read_channels_csv


class TestNeighbors:
    def test_interior_has_four(self):
        grid = AntennaGrid(rows=20, cols=20)
        assert len(neighbors(grid, (10, 10))) == 4

    def test_corner_has_two(self):
        grid = AntennaGrid(rows=20, cols=20)
        assert len(neighbors(grid, (0, 0))) == 2
        assert len(neighbors(grid, (19, 19))) == 2

    def test_edge_has_three(self):
        grid = AntennaGrid(rows=20, cols=20)
        assert len(neighbors(grid, (0, 5))) == 3

    def test_out_of_grid(self):
        grid = AntennaGrid(rows=3, cols=3)
        with pytest.raises(IndexError):
            neighbors(grid, (3, 0))


class TestClassifyArray:
    def test_lte_10x10_is_sia(self):
        grid = AntennaGrid(rows=10, cols=10, spacing_m=0.058, bandwidth_hz=20e6)
        cls = classify_array(grid)
        assert cls.kind == ArrayKind.SIA
        assert abs(cls.d_max_m - 0.522) < 1e-9

    def test_lte_50x50_is_sva(self):
        grid = AntennaGrid(rows=50, cols=50, spacing_m=0.058, bandwidth_hz=20e6)
        assert classify_array(grid).kind == ArrayKind.SVA

    def test_cdma2000_100x100_is_sia(self):
        # 1.25 MHz bandwidth -> 24 m resolvability threshold
        grid = AntennaGrid(rows=100, cols=100, spacing_m=0.150, bandwidth_hz=1.25e6)
        assert classify_array(grid).kind == ArrayKind.SIA

    def test_monotone_in_bandwidth_and_spacing(self):
        """Growing BW or d never flips SVA back to SIA."""
        base = dict(rows=30, cols=30, spacing_m=0.05, bandwidth_hz=20e6)
        kinds = []
        for factor in (1.0, 2.0, 4.0, 8.0):
            grid = AntennaGrid(rows=30, cols=30, spacing_m=0.05 * factor,
                               bandwidth_hz=20e6)
            kinds.append(classify_array(grid).kind)
        seen_sva = False
        for kind in kinds:
            if kind == ArrayKind.SVA:
                seen_sva = True
            assert not (seen_sva and kind == ArrayKind.SIA)
        grid = AntennaGrid(**base)
        wider = AntennaGrid(rows=30, cols=30, spacing_m=0.05, bandwidth_hz=160e6)
        if classify_array(grid).kind == ArrayKind.SVA:
            assert classify_array(wider).kind == ArrayKind.SVA


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
        grid = AntennaGrid(rows=3, cols=3)
        real = generate_channels(grid, 32, 3, ArrayKind.SIA, drift=0.05, rng=make_rng(0))
        base = real.support[0, 0]
        assert all(
            np.array_equal(real.support[r, c], base)
            for r, c in np.ndindex(grid.rows, grid.cols)
        )

    def test_exact_sparsity_everywhere(self):
        grid = AntennaGrid(rows=4, cols=5)
        real = generate_channels(grid, 64, 3, ArrayKind.SVA, drift=0.3,
                                 rng=make_rng(1))
        np.testing.assert_array_equal(real.support.sum(axis=2), 3)

    def test_off_support_exactly_zero_on_support_nonzero(self):
        grid = AntennaGrid(rows=3, cols=3)
        real = generate_channels(grid, 32, 4, ArrayKind.SVA, drift=0.5,
                                 rng=make_rng(2))
        assert np.all(real.taps[~real.support] == 0)
        assert np.all(np.abs(real.taps[real.support]) >= 1e-9)

    def test_sva_neighbors_differ_by_at_most_one_migration(self):
        grid = AntennaGrid(rows=6, cols=6)
        for seed in range(10):
            real = generate_channels(grid, 32, 3, ArrayKind.SVA, drift=0.6,
                                     rng=make_rng(seed))
            for r, c in np.ndindex(grid.rows, grid.cols):
                for nr, nc in neighbors(grid, (r, c)):
                    sym_diff = np.logical_xor(real.support[r, c],
                                              real.support[nr, nc]).sum()
                    assert sym_diff <= 2

    def test_sva_zero_drift_reduces_to_sia(self):
        grid = AntennaGrid(rows=4, cols=4)
        real = generate_channels(grid, 32, 3, ArrayKind.SVA, drift=0.0,
                                 rng=make_rng(3))
        base = real.support[0, 0]
        assert all(
            np.array_equal(real.support[r, c], base)
            for r, c in np.ndindex(grid.rows, grid.cols)
        )

    def test_sva_actually_drifts(self):
        grid = AntennaGrid(rows=8, cols=8)
        real = generate_channels(grid, 64, 3, ArrayKind.SVA, drift=0.9,
                                 rng=make_rng(4))
        assert not np.array_equal(real.support[0, 0], real.support[7, 7])

    def test_sparsity_exceeding_length(self):
        grid = AntennaGrid(rows=2, cols=2)
        with pytest.raises(ConfigurationError):
            generate_channels(grid, 4, 5, ArrayKind.SIA, drift=0.05, rng=make_rng(0))

    @pytest.mark.parametrize("dist", ["rayleigh", "constant", "student_t"])
    def test_tap_distributions(self, dist):
        grid = AntennaGrid(rows=2, cols=2)
        real = generate_channels(grid, 16, 2, ArrayKind.SIA, drift=0.05, rng=make_rng(6),
                                 tap_dist=dist)
        assert np.all(np.abs(real.taps[real.support]) >= 1e-9)

    def test_determinism(self):
        grid = AntennaGrid(rows=3, cols=3)
        a = generate_channels(grid, 32, 3, ArrayKind.SVA, drift=0.4, rng=make_rng(9))
        b = generate_channels(grid, 32, 3, ArrayKind.SVA, drift=0.4, rng=make_rng(9))
        np.testing.assert_array_equal(a.taps, b.taps)


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
        grid = AntennaGrid(rows=rows, cols=cols)
        for seed in range(3):
            real = generate_channels(grid, 32, 4, kind, drift, make_rng(seed),
                                     power_profile=power_profile)
            taps, support = generate_channels_loop_oracle(
                grid, 32, 4, kind, drift, make_rng(seed), power_profile=power_profile)
            assert np.array_equal(real.taps, taps)
            assert np.array_equal(real.support, support)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        grid = AntennaGrid(rows=3, cols=4)
        real = generate_channels(grid, 16, 3, ArrayKind.SVA, drift=0.3,
                                 rng=make_rng(11))
        path = tmp_path / "channels.csv"
        channels_to_csv(real, path)
        taps, support = read_channels_csv(path, 3, 4, 16)
        np.testing.assert_allclose(taps, real.taps, atol=0)
        np.testing.assert_array_equal(support, real.support)
        np.testing.assert_array_equal(support.sum(axis=2), 3)
