"""Locality: a change at one antenna reaches no farther than the stencil
rounds that carry it.

Each sharing round moves beliefs one hop, so the pilot-stage estimate of an
antenna depends only on the antennas within D hops (Manhattan distance).
The data-aided stage adds two more: the carrier budget is the largest in
the neighborhood (one hop), and the consensus needs every neighbor's top
set and decisions, which rest on that budget (a second hop).  Both
budget regimes of ``data_aided.reliable_budget`` are drawn: with 2
expected taps, K = 6 <= 2 (2 + 1) pilots offer every data carrier, and
K = 10 ranks them.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridce.data_aided import reliable_budget, run_data_aided
from gridce.experiments import ExperimentSpec, synthesize_scene
from gridce.ofdm import make_rng
from gridce.sharing import (
    BeliefKind,
    GridSolverConfig,
    first_pass,
    run_integer_based,
    run_marginal_based,
)

RUNNERS = {"MB": (run_marginal_based, BeliefKind.MARGINAL),
           "IB": (run_integer_based, BeliefKind.SCORE)}


def hops_from(rows, cols, antenna):
    r, c = np.indices((rows, cols))
    return np.abs(r - antenna[0]) + np.abs(c - antenna[1])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    rows=st.integers(1, 4), cols=st.integers(1, 6), depth=st.integers(0, 3),
    kind=st.sampled_from(sorted(RUNNERS)), n_pilots=st.sampled_from([6, 10]),
    seed=st.integers(0, 2**16), data=st.data(),
)
def test_perturbation_stays_within_reach(rows, cols, depth, kind, n_pilots, seed, data):
    """Perturbing every carrier of one random antenna leaves the pilot-stage
    taps bit-identical beyond D hops and the data-aided taps beyond D + 2,
    on 1x1, 1xN, Nx1 and non-square grids."""
    antenna = (data.draw(st.integers(0, rows - 1)), data.draw(st.integers(0, cols - 1)))
    spec = ExperimentSpec(
        grid_rows=rows, grid_cols=cols, n_carriers=64, channel_len=16, sparsity=2,
        n_pilots=(n_pilots,), snr_db=(15.0,), depth=(depth,), trials=1, seed=seed,
    )
    scene = synthesize_scene(spec, n_pilots, 15.0, 0, 0)
    config = GridSolverConfig(lambda_init=2 / 16, noise_var=scene.noise_var)
    pilots = scene.frame.pilot_indices
    rng = make_rng(seed, 99)
    perturbed = scene.observations.copy()
    perturbed[antenna] += 0.3 * (rng.normal(size=64) + 1j * rng.normal(size=64))

    def estimates(observations):
        runner, currency = RUNNERS[kind]
        first = first_pass(observations[..., pilots], scene.pilot_rows, config, [currency])
        base = runner(first, config, depth)
        aided = run_data_aided(scene.frame, observations, base, config, scene.alphabet)
        return base.taps, aided.taps

    base1, aided1 = estimates(scene.observations)
    base2, aided2 = estimates(perturbed)
    hops = hops_from(rows, cols, antenna)
    np.testing.assert_array_equal(base1[hops > depth], base2[hops > depth])
    np.testing.assert_array_equal(aided1[hops > depth + 2], aided2[hops > depth + 2])


@pytest.mark.parametrize("n_pilots, starved", [(6, True), (10, False)])
def test_both_budget_regimes_are_drawn(n_pilots, starved):
    """The property's two pilot counts fall on either side of the
    pilot-starved boundary of ``reliable_budget``: at K = 6 every antenna is
    offered all 58 data carriers, at K = 10 not every one all 54."""
    spec = ExperimentSpec(
        grid_rows=3, grid_cols=3, n_carriers=64, channel_len=16, sparsity=2,
        n_pilots=(n_pilots,), snr_db=(15.0,), depth=(1,), trials=1, seed=0,
    )
    scene = synthesize_scene(spec, n_pilots, 15.0, 0, 0)
    config = GridSolverConfig(lambda_init=2 / 16, noise_var=scene.noise_var)
    first = first_pass(scene.observations[..., scene.frame.pilot_indices],
                       scene.pilot_rows, config, [BeliefKind.MARGINAL])
    base = run_marginal_based(first, config, 1)
    n_data = 64 - n_pilots
    budgets = reliable_budget(base, n_pilots, n_data, expected_actives=2)
    assert np.all(budgets == n_data) == starved
