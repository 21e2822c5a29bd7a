"""Stacked solvers against the per-antenna reference paths.

``greedy_search``, the from-scratch ``lattice_oracle`` and the L x L
covariance sum (all in ``tests/oracles.py``) are the oracles.  The Gram recursion of
``greedy_search_batch`` sums in a different order than the
orthogonalized-column recursion, so its values are compared to a relative
tolerance and chosen supports exactly.  ``gram_search_oracle`` is the Gram
stage loop it replaced (full log posterior as the key, |z|^2 through
``np.abs``, R^-1 from LAPACK): picks and flags must equal it, values agree
within the same tolerance.  ``greedy_search_stack`` runs the
orthogonalized-column recursion itself and must equal ``greedy_search`` bit
for bit in everything but the combined taps and R^-1.  Chains that stop
early (rank-deficient rows) are compared on their prefix; the padding past
it must read as zeros.  Both stage loops grow R^-1 next to R, so every
stack checks R^-1 R = I.
"""

from dataclasses import fields
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridce import solver
from gridce.data_aided import reestimation_inputs, toeplitz_grams
from gridce.errors import ConfigurationError, IllConditionedSupportError
from gridce.ofdm import make_rng
from gridce.solver import (
    COLLINEARITY_TOL,
    ChainStack,
    PRIOR_EPS,
    error_covariances,
    greedy_search_batch,
    greedy_search_stack,
    lattice_marginals,
    search_rows,
)
from gridce.qam import build_qam_alphabet
from oracles import (
    error_covariance,
    full_covariance_oracle,
    gram_search_oracle,
    greedy_search,
    lattice_oracle,
    truncated_dft,
)

#: relative agreement of nus, conditional means, combined taps, covariances,
#: R^-1 and R^-1 R = I
REL = 1e-9

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)


def assert_rel(got, want, scale=None):
    """Within ``REL`` of ``scale``, by default the largest magnitude of
    ``want``."""
    if scale is None:
        scale = max(float(np.abs(want).max(initial=0.0)), 1e-300)
    assert float(np.abs(np.asarray(got) - want).max(initial=0.0)) <= REL * scale


def random_rows(rng, k, length, duplicates, rank=None):
    """Random K x L rows; with ``rank`` their columns span only that many
    dimensions, so every chain stops after ``rank`` stages."""
    a = (rng.normal(size=(k, length)) + 1j * rng.normal(size=(k, length))) / np.sqrt(k)
    if rank is not None:
        mix = rng.normal(size=(rank, length)) + 1j * rng.normal(size=(rank, length))
        a = a[:, :rank] @ mix / np.sqrt(rank)
    for _ in range(duplicates):
        src, dst = rng.choice(length, size=2, replace=length == 1)
        a[:, dst] = a[:, src]
    return a


@st.composite
def antenna_systems(draw, max_t=64):
    """A few antennas, each with its own rows (ragged K), observation,
    prior and noise level, plus a t_max valid for every one of them.  Rows
    of rank below t_max make every chain stop early."""
    seed = draw(st.integers(0, 2**32 - 1))
    length = draw(st.integers(1, 64))
    ragged = draw(st.booleans())
    n_antennas = draw(st.integers(1, 4))
    ks = draw(st.lists(st.integers(1, 40), min_size=n_antennas, max_size=n_antennas)
              if ragged else st.integers(1, 40).map(lambda k: [k] * n_antennas))
    t_cap = min(min(ks), length, max_t)
    t_max = draw(st.sampled_from(sorted({1, t_cap, draw(st.integers(1, t_cap))})))
    duplicates = draw(st.integers(0, 3))
    zero_y = draw(st.booleans())
    rank = draw(st.none() | st.integers(1, t_max - 1)) if t_max > 1 else None
    rng = make_rng(seed)
    shared = None if ragged else random_rows(rng, ks[0], length, duplicates, rank)
    systems = []
    for k in ks:
        a = shared if shared is not None else random_rows(rng, k, length, duplicates, rank)
        h = np.zeros(length, complex)
        taps = rng.choice(length, size=min(3, length), replace=False)
        h[taps] = rng.normal(size=taps.size) + 1j * rng.normal(size=taps.size)
        noise_var = float(10 ** rng.uniform(-4, 0))
        y = np.zeros(k, complex) if zero_y else (
            a @ h + np.sqrt(noise_var / 2) * (rng.normal(size=k) + 1j * rng.normal(size=k)))
        # t_max == K (or == rank) ties every last-stage candidate at a zero
        # residual under a uniform prior; distinct priors keep that pick
        # well defined
        lambdas = (rng.uniform(0.01, 0.5, size=length)
                   if t_max == k or rank is not None or rng.random() < 0.5
                   else np.full(length, 3 / length if length > 3 else 0.5))
        systems.append((a, y, lambdas, noise_var))
    return systems, t_max


def column_classes(a):
    """Per column, the smallest index of an identical column.  Identical
    columns are indistinguishable to the model: which copy wins an exact
    tie is decided by rounding, in greedy_search as well, so supports and
    taps are compared with every copy folded onto its class."""
    _, inverse = np.unique(a, axis=1, return_inverse=True)
    inverse = inverse.ravel()
    first = np.full(inverse.max() + 1, a.shape[1])
    np.minimum.at(first, inverse, np.arange(a.shape[1]))
    return first[inverse]


def folded(taps, classes):
    out = np.zeros(taps.shape, complex)
    np.add.at(out, classes, taps)
    return out


def stack_inputs(systems):
    gram = np.stack([a.conj().T @ a for a, *_ in systems])
    corr = np.stack([a.conj().T @ y for a, y, *_ in systems])
    y_norm2 = np.array([np.vdot(y, y).real for _, y, *_ in systems])
    lambdas = np.stack([lam for *_, lam, _ in systems])
    noise_vars = np.array([nv for *_, nv in systems])
    return gram, corr, y_norm2, lambdas, noise_vars


def reference(a, y, lambdas, noise_var, t_max):
    """greedy_search, or None where it raises (no usable column)."""
    try:
        return greedy_search(a, y, lambdas, noise_var, t_max)
    except IllConditionedSupportError:
        return None


def stage_means(stack):
    """(B, T, T): column s-1 holds the stage-s mean R_s^-1 (Q^H y)_s in its
    first s entries, as prefix sums along the rows of R^-1 (Q^H y), since
    R^-1 is upper triangular."""
    return np.cumsum(stack.r_inverses * stack.qty[:, None, :], axis=2)


def assert_padding(stack):
    """Past each chain's length: tap 0, posterior 0, identity R, zero Q^H y."""
    pad = ~stack.active()
    assert np.all(stack.chosen[pad] == 0) and np.all(stack.posteriors[pad] == 0)
    assert np.all(stack.qty[pad] == 0) and np.all(np.isneginf(stack.nus[pad]))
    columns = np.broadcast_to(pad[:, None, :], stack.r_factors.shape)
    eye = np.broadcast_to(np.eye(pad.shape[1]), columns.shape)
    for factor in (stack.r_factors, stack.r_inverses):
        np.testing.assert_array_equal(factor[columns], eye[columns])


def assert_inverse(stack):
    """Per row, R^-1 R = I within ``REL`` of max|R^-1| max|R|."""
    eye = np.eye(stack.r_factors.shape[1])
    for rinv, r in zip(stack.r_inverses, stack.r_factors):
        error = float(np.abs(rinv @ r - eye).max())
        assert error <= REL * float(np.abs(rinv).max()) * float(np.abs(r).max())


def assert_chain_factors_equal(stack, row, want):
    """R and Q^H y of a stack row bit for bit, through what greedy_search
    computes from its own: each stage's conditional mean
    solve(R_s, (Q^H y)_s) and (A_S^H A_S)^-1 = R_s^-1 R_s^-H."""
    stages = zip(want.cond_means, want.gram_inverses)
    for s, (mean, gram_inverse) in enumerate(stages, start=1):
        rr = stack.r_factors[row, :s, :s]
        np.testing.assert_array_equal(np.linalg.solve(rr, stack.qty[row, :s]), mean)
        rinv = np.linalg.inv(rr)
        np.testing.assert_array_equal(rinv @ rinv.conj().T, gram_inverse)


def assert_row_equals_greedy_search(stack, row, want):
    """A ``greedy_search_stack`` row against greedy_search's estimate (None
    where it raised): bit for bit, and the combined taps, which the stack
    combines through R^-1, within ``REL``."""
    if want is None:
        assert stack.lengths[row] == 0 and not stack.taps[row].any()
        return
    n = len(want.supports)
    assert stack.lengths[row] == n
    np.testing.assert_array_equal(stack.chosen[row, :n], want.detected_taps)
    for name in ("nus", "residuals", "posteriors"):
        np.testing.assert_array_equal(getattr(stack, name)[row, :n], getattr(want, name))
    assert stack.skipped[row] == want.skipped
    assert stack.underflow[row] == want.underflow
    assert_chain_factors_equal(stack, row, want)
    assert_rel(stack.taps[row], want.h_ammse)


@st.composite
def shared_row_systems(draw):
    """B observation vectors on one K x L system: duplicated and zero
    columns, rows of rank below K (chains stop early), a zero observation
    (no usable column), uniform or per-tap priors, and t_max == K (the
    rank-filling tie) half the time."""
    seed = draw(st.integers(0, 2**32 - 1))
    k = draw(st.integers(1, 16))
    length = draw(st.integers(k, 128))
    n = draw(st.sampled_from([1, 7, 64]))
    t_max = draw(st.sampled_from([k, draw(st.integers(1, k))]))
    duplicates = draw(st.integers(0, 3))
    zero_columns = draw(st.integers(0, 3))
    rank = draw(st.none() | st.integers(1, k - 1)) if k > 1 else None
    zero_y = draw(st.booleans())
    uniform = draw(st.booleans())
    rng = make_rng(seed)
    a = random_rows(rng, k, length, duplicates, rank)
    a[:, rng.choice(length, size=min(zero_columns, length), replace=False)] = 0
    h = np.zeros((length, n), complex)
    for col in range(n):
        taps = rng.choice(length, size=min(3, length), replace=False)
        h[taps, col] = rng.normal(size=taps.size) + 1j * rng.normal(size=taps.size)
    noise_vars = 10 ** rng.uniform(-4, 0, size=n)
    noise = rng.normal(size=(n, k)) + 1j * rng.normal(size=(n, k))
    ys = (a @ h).T + np.sqrt(noise_vars / 2)[:, None] * noise
    if zero_y:
        ys[0] = 0
    lambdas = (np.full((n, length), min(3 / length, 0.5)) if uniform
               else rng.uniform(0.01, 0.5, size=(n, length)))
    return a, ys, lambdas, noise_vars, t_max


@PROPERTY
@given(shared_row_systems())
def test_stack_matches_greedy_search(case):
    a, ys, lambdas, noise_vars, t_max = case
    stack = greedy_search_stack(a, ys, lambdas, noise_vars, t_max)
    assert_padding(stack)
    assert_inverse(stack)
    for row in range(ys.shape[0]):
        want = reference(a, ys[row], lambdas[row], noise_vars[row], t_max)
        assert_row_equals_greedy_search(stack, row, want)


def test_stack_settles_rank_filling_tie_as_greedy_search():
    """200 pilot systems with t_max == K = 6 and a uniform prior (L = 64,
    seeds 0-199): every last-stage candidate leaves a zero residual, so
    rounding picks, and some picks are not the smallest free index.  Each
    stack row still equals greedy_search."""
    off_index = 0
    for seed in range(200):
        rng = make_rng(seed)
        a = random_rows(rng, 6, 64, 0)
        y = rng.normal(size=6) + 1j * rng.normal(size=6)
        lambdas = np.full(64, 3 / 64)
        stack = greedy_search_stack(a, y[None], lambdas[None], np.array([0.05]), 6)
        want = greedy_search(a, y, lambdas, 0.05, 6)
        assert_row_equals_greedy_search(stack, 0, want)
        free = np.setdiff1d(np.arange(64), want.detected_taps[:5])
        off_index += want.detected_taps[5] != free[0]
    assert off_index > 0


@pytest.mark.parametrize("noise_var, t_max", [(0.0, 2), (np.nan, 2), (0.1, 0), (0.1, 5)])
def test_stack_rejects_bad_noise_or_depth(noise_var, t_max):
    """A nonpositive or NaN noise variance on any row, or t_max outside
    [1, min(K, L)] (K = 4 rows here), as ``greedy_search_batch`` rejects."""
    a = random_rows(make_rng(3), 4, 8, 0)
    with pytest.raises(ConfigurationError):
        greedy_search_stack(a, np.ones((2, 4), complex), np.full((2, 8), 0.2),
                            np.array([0.1, noise_var]), t_max)


@PROPERTY
@given(antenna_systems())
def test_batch_matches_greedy_search(case):
    systems, t_max = case
    stack = greedy_search_batch(*stack_inputs(systems), t_max)
    covariances = error_covariances(stack)
    means = stage_means(stack)
    assert_padding(stack)
    assert_inverse(stack)
    for row, (a, y, lambdas, noise_var) in enumerate(systems):
        want = reference(a, y, lambdas, noise_var, t_max)
        assert bool(stack.failed[row]) == (want is None)
        if want is None:
            assert not stack.taps[row].any() and not covariances[row].any()
            continue
        n = len(want.supports)
        assert stack.lengths[row] == n
        classes = column_classes(a)
        np.testing.assert_array_equal(classes[stack.chosen[row, :n]],
                                      classes[want.detected_taps])
        assert_rel(stack.nus[row, :n], want.nus)
        assert_rel(stack.posteriors[row, :n], want.posteriors)
        for s, mean_want in enumerate(want.cond_means, start=1):
            assert_rel(means[row, :s, s - 1], mean_want)
        assert_rel(folded(stack.taps[row], classes), folded(want.h_ammse, classes))
        taps = want.detected_taps
        assert_rel(covariances[row, :n, :n], full_covariance_oracle(want)[np.ix_(taps, taps)])
        assert not covariances[row, n:].any() and not covariances[row, :, n:].any()


@st.composite
def gram_systems(draw):
    """Gram-domain inputs of a few observation vectors and a t_max: one
    shared Gram of random rows (with zero columns, and rows or rank below
    t_max, so chains stop early), or one Toeplitz-view Gram per row as
    ``reestimation_inputs`` forms them (4-QAM partial-DFT rows on random
    carrier sets, some with fewer carriers than t_max, some with none).
    One observation may be zero.  No column is duplicated where the prior
    is uniform: priors are per tap wherever the model ties exactly (a
    filled rank, aliased DFT columns)."""
    seed = draw(st.integers(0, 2**32 - 1))
    toeplitz = draw(st.booleans())
    n = draw(st.sampled_from([1, 6, 40]))
    length = draw(st.integers(1, 48))
    t_max = draw(st.integers(1, min(length, 7)))
    zero_y = draw(st.booleans())
    rng = make_rng(seed)
    noise_vars = 10 ** rng.uniform(-4, 0, size=n)
    lambdas = rng.uniform(0.01, 0.5, size=(n, length))
    if toeplitz:
        n_carriers = draw(st.integers(length, 2 * length))
        alphabet = build_qam_alphabet(4)
        symbols = alphabet.points[rng.integers(0, 4, size=n_carriers)]
        on_pilot = rng.random(n_carriers) < draw(st.sampled_from([0.0, 0.1, 0.3]))
        consensus = rng.random((n, n_carriers)) < rng.uniform(0, 1, size=(n, 1))
        consensus[:, on_pilot] = False
        decisions = rng.integers(0, 4, size=(n, n_carriers))
        observations = rng.normal(size=(n, n_carriers)) + 1j * rng.normal(size=(n, n_carriers))
        observations[0] *= not zero_y
        lags, corr, y_norm2 = reestimation_inputs(symbols, on_pilot, observations, consensus,
                                                  decisions, alphabet, length)
        return toeplitz_grams(lags), corr, y_norm2, lambdas, noise_vars, t_max
    k = draw(st.integers(1, 24))
    rank = draw(st.none() | st.integers(1, t_max))
    a = random_rows(rng, k, length, 0, rank if rank is not None and rank < k else None)
    a[:, rng.choice(length, size=draw(st.integers(0, min(3, length))), replace=False)] = 0
    h = np.zeros((n, length), complex)
    for row in h:
        taps = rng.choice(length, size=min(3, length), replace=False)
        row[taps] = rng.normal(size=taps.size) + 1j * rng.normal(size=taps.size)
    noise = rng.normal(size=(n, k)) + 1j * rng.normal(size=(n, k))
    ys = h @ a.T + np.sqrt(noise_vars / 2)[:, None] * noise
    ys[0] *= not zero_y
    if rank is None and t_max < k and draw(st.booleans()):
        lambdas = np.full((n, length), min(3 / length, 0.5))
    return (a.conj().T @ a, ys @ a.conj(), np.einsum("bk,bk->b", ys.conj(), ys).real,
            lambdas, noise_vars, t_max)


@PROPERTY
@given(gram_systems())
def test_batch_matches_gram_oracle(case):
    """The stage loop against the one it replaced: equal picks, chain
    lengths and flags; log posteriors, posteriors, taps and R^-1 of every
    row within ``REL``, and residuals within ``REL`` of ||y||^2, the value
    they are subtracted from; R^-1 R = I and exact identity padding."""
    stack = greedy_search_batch(*case)
    want = gram_search_oracle(*case)
    for name in ("chosen", "lengths", "skipped", "underflow"):
        np.testing.assert_array_equal(getattr(stack, name), getattr(want, name))
    assert_padding(stack)
    assert_inverse(stack)
    y_norm2 = case[2]
    for row in range(stack.chosen.shape[0]):
        n = stack.lengths[row]
        assert_rel(stack.residuals[row, :n], want.residuals[row, :n], y_norm2[row])
        for name in ("nus", "posteriors"):
            assert_rel(getattr(stack, name)[row, :n], getattr(want, name)[row, :n])
        for name in ("taps", "r_inverses"):
            assert_rel(getattr(stack, name)[row], getattr(want, name)[row])


@PROPERTY
@given(antenna_systems(max_t=6))
def test_lattice_matches_from_scratch(case):
    """Each antenna's lattice, on its own rows (ragged K included), equals
    the from-scratch lattice on those rows."""
    systems, t_max = case
    gram, corr, y_norm2, lambdas, noise_vars = stack_inputs(systems)
    stack = greedy_search_batch(gram, corr, y_norm2, lambdas, noise_vars, t_max)
    marginals = lattice_marginals(stack, lambdas)
    for row, (a, y, lam, noise_var) in enumerate(systems):
        n = stack.lengths[row]
        assert not marginals[row, n:].any()
        if n == 0:
            continue
        _, _, want = lattice_oracle(stack.chosen[row, :n], a, y, lam, noise_var)
        np.testing.assert_allclose(marginals[row, :n], want, rtol=0, atol=REL)


@st.composite
def lattice_systems(draw):
    """Chains of up to T = 7 taps (production's t_max at L = 64) of a few
    observations from each producer of chains, with every row's explicit
    rows for the oracle: ``search_rows`` on shared rows at t_max < K (the
    Gram domain) and at t_max == K (the rank-filling stack), and
    ``greedy_search_batch`` on one Toeplitz-view Gram per row from
    ``reestimation_inputs``, whose rows are diag(s) F_L on the pilots and
    that antenna's consensus carriers (see ``lattice_case``)."""
    seed = draw(st.integers(0, 2**32 - 1))
    producer = draw(st.sampled_from(["gram", "rank-filling", "toeplitz"]))
    t_max = draw(st.integers(1, 7))
    length = draw(st.integers(max(t_max, 2), 24))
    n_obs = draw(st.integers(1, 3))
    if producer == "toeplitz":
        n_carriers = draw(st.integers(length, 2 * length))
        return lattice_case(seed, producer, t_max, length, n_obs, n_carriers=n_carriers)
    k = t_max if producer == "rank-filling" else draw(st.integers(t_max + 1, 16))
    near = draw(st.booleans()) and k > 1  # the step takes a row of its own
    margin = draw(st.floats(256.0, 1024.0))
    return lattice_case(seed, producer, t_max, length, n_obs, k=k, near=near, margin=margin)


def lattice_case(seed, producer, t_max, length, n_obs, n_carriers=None, k=None, near=False,
                 margin=None):
    """One ``lattice_systems`` example: (stack, rows, ys, lambdas,
    noise_vars) of ``producer``'s chains, with ``n_carriers`` carriers
    for "toeplitz" and K = ``k`` shared rows otherwise.

    With ``near`` one shared column sits just above the skip tolerance.  It
    repeats another plus a step along the last row, which no other column
    and no noise touches; its squared orthogonalized norm is then about
    ``margin`` * COLLINEARITY_TOL**2 of the largest squared column norm
    (so the oracle's conditioning check still passes), and a high prior
    pulls it into the chains.  Every subset fit stays well determined,
    because an observation's last entry comes from that column's own tap
    alone."""
    rng = make_rng(seed)
    noise_vars = 10 ** rng.uniform(-3, 0, size=n_obs)
    h = np.zeros((n_obs, length), complex)
    for row in h:
        taps = rng.choice(length, size=min(3, length), replace=False)
        row[taps] = rng.normal(size=taps.size) + 1j * rng.normal(size=taps.size)
    if producer == "toeplitz":
        alphabet = build_qam_alphabet(4)
        symbols = alphabet.points[rng.integers(0, 4, size=n_carriers)]
        on_pilot = rng.random(n_carriers) < 0.3
        consensus = rng.random((n_obs, n_carriers)) < rng.uniform(0, 1, size=(n_obs, 1))
        consensus[:, on_pilot] = False
        decisions = rng.integers(0, 4, size=(n_obs, n_carriers))
        lambdas = rng.uniform(0.01, 0.5, size=(n_obs, length))
        pilot_symbols = np.where(on_pilot, symbols, 0.0)
        s = np.where(consensus, alphabet.points[decisions], pilot_symbols)
        rows = s[:, :, None] * truncated_dft(n_carriers, length)
        noise = rng.normal(size=(n_obs, n_carriers)) + 1j * rng.normal(size=(n_obs, n_carriers))
        ys = (rows @ h[:, :, None])[..., 0] + np.sqrt(noise_vars[:, None] / 2) * noise
        ys[s == 0] = 0.0  # reestimation_inputs reads the used carriers only
        lags, corr, y_norm2 = reestimation_inputs(symbols, on_pilot, ys, consensus, decisions,
                                                  alphabet, length)
        stack = greedy_search_batch(toeplitz_grams(lags), corr, y_norm2, lambdas,
                                    noise_vars, t_max)
        return stack, rows, ys, lambdas, noise_vars
    a = random_rows(rng, k, length, 0)
    lambdas = np.tile(rng.uniform(0.01, 0.5, size=length), (n_obs, 1))
    noise = rng.normal(size=(n_obs, k)) + 1j * rng.normal(size=(n_obs, k))
    if near:
        src, dst = rng.choice(length, size=2, replace=False)
        a[-1] = 0.0
        a[:, dst] = a[:, src]
        a[-1, dst] = np.sqrt(margin) * COLLINEARITY_TOL * np.linalg.norm(a, axis=0).max()
        lambdas[:, dst] = 0.9
        noise[:, -1] = 0.0
    ys = h @ a.T + np.sqrt(noise_vars[:, None] / 2) * noise
    stack = search_rows(a, ys, lambdas, noise_vars, t_max)
    return stack, np.broadcast_to(a, (n_obs, k, length)), ys, lambdas, noise_vars


@PROPERTY
@given(lattice_systems())
def test_lattice_matches_oracle_up_to_seven_taps(case):
    """Marginals equal the from-scratch lattice on each row's explicit rows
    within criterion 4's 1e-12, zero past each chain, and every lattice
    subset's Gram has Cholesky pivots above the guard of ``_subset_fits``:
    no chain subset counts a column as dependent."""
    stack, rows, ys, lambdas, noise_vars = case
    marginals = lattice_marginals(stack, lambdas)
    for row, (a, y) in enumerate(zip(rows, ys)):
        n = stack.lengths[row]
        assert not marginals[row, n:].any()
        if n == 0:
            continue
        taps = stack.chosen[row, :n]
        _, _, want = lattice_oracle(taps, a, y, lambdas[row], noise_vars[row])
        np.testing.assert_allclose(marginals[row, :n], want, rtol=0, atol=1e-12)
        gram = a.conj().T @ a
        for size in range(1, n + 1):
            for subset in combinations(taps, size):
                sub = gram[np.ix_(subset, subset)]
                pivots = np.abs(np.diagonal(np.linalg.cholesky(sub))) ** 2
                assert np.all(pivots > COLLINEARITY_TOL**2 * np.diagonal(sub).real)


@pytest.mark.xfail(strict=True, reason=(
    "lattice_marginals misses criterion 4's 1e-12 on this valid rank-filling chain: row 1 reads "
    "0.15074178144927253 against the oracle's 0.15074178145042316; against a 60-digit mpmath "
    "evaluation the production marginal is off by 1.15e-12 and the oracle by 2.3e-16.  The "
    "subset fits go through the Gram of [R | Q^H y], which squares R's conditioning."))
def test_lattice_matches_oracle_on_near_column_rank_filling_chain():
    """A ``lattice_systems`` example that the property test can draw: two
    observations on K = t_max = 4 shared rows, L = 21, with a near column
    at margin 298."""
    case = lattice_case(2147483644, "rank-filling", 4, 21, 2, k=4, near=True, margin=298.0)
    test_lattice_matches_oracle_up_to_seven_taps.hypothesis.inner_test(case)


@PROPERTY
@given(antenna_systems(), st.integers(0, 3))
def test_rows_do_not_interact(case, target):
    """Perturbing one antenna's observation leaves every other row
    bit-identical, in the chains and in the lattice marginals, and each
    chain equals a one-row call on it."""
    systems, t_max = case
    target %= len(systems)
    gram, corr, y_norm2, lambdas, noise_vars = stack_inputs(systems)
    shared = not ragged(systems)
    if shared:  # one (L, L) Gram for every row, as on the pilot grid
        gram = gram[:1]
    before = greedy_search_batch(gram[0] if shared else gram, corr, y_norm2, lambdas,
                                 noise_vars, t_max)
    corr = corr.copy()
    corr[target] += 0.25 - 0.5j
    after = greedy_search_batch(gram[0] if shared else gram, corr, y_norm2, lambdas,
                                noise_vars, t_max)
    one = slice(target, target + 1)
    alone = greedy_search_batch(gram[0] if shared else gram[one], corr[one], y_norm2[one],
                                lambdas[one], noise_vars[one], t_max)
    others = np.arange(len(systems)) != target
    names = ("chosen", "nus", "r_factors", "qty", "taps", "lengths")
    for name in names:
        np.testing.assert_array_equal(getattr(before, name)[others],
                                      getattr(after, name)[others])
        np.testing.assert_array_equal(getattr(alone, name)[0],
                                      getattr(after, name)[target])
    if shared and t_max <= 6:  # rows of every chain length share the lattice call
        a = systems[0][0]
        ys = np.stack([y for _, y, *_ in systems])
        moved = ys.copy()
        moved[target] += 0.25 - 0.5j
        unmoved, perturbed = (
            lattice_marginals(search_rows(a, obs, lambdas, noise_vars, t_max), lambdas)
            for obs in (ys, moved))
        np.testing.assert_array_equal(unmoved[others], perturbed[others])


@PROPERTY
@given(shared_row_systems(), st.integers(0, 63))
def test_stack_rows_do_not_interact(case, target):
    """``greedy_search_stack``'s twin of ``test_rows_do_not_interact``:
    perturbing one observation leaves every other row bit-identical in
    every ``ChainStack`` field, and the perturbed row equals a one-row call
    bit for bit, R^-1 and the combined taps included.  So no buffer the
    loop allocates once per call carries a value across rows or stages."""
    a, ys, lambdas, noise_vars, t_max = case
    target %= ys.shape[0]
    before = greedy_search_stack(a, ys, lambdas, noise_vars, t_max)
    moved = ys.copy()
    moved[target] += 0.25 - 0.5j
    after = greedy_search_stack(a, moved, lambdas, noise_vars, t_max)
    one = slice(target, target + 1)
    alone = greedy_search_stack(a, moved[one], lambdas[one], noise_vars[one], t_max)
    others = np.arange(ys.shape[0]) != target
    for name in (field.name for field in fields(ChainStack)):
        np.testing.assert_array_equal(getattr(before, name)[others],
                                      getattr(after, name)[others])
        np.testing.assert_array_equal(getattr(alone, name)[0], getattr(after, name)[target])


def ragged(systems):
    return any(a is not systems[0][0] for a, *_ in systems)


def test_duplicate_column_skipped_and_flagged():
    rng = make_rng(12)
    a = rng.normal(size=(6, 8)) + 1j * rng.normal(size=(6, 8))
    a[:, 5] = a[:, 2]
    y = 2.0 * a[:, 2]
    stack = greedy_search_batch(a.conj().T @ a, (a.conj().T @ y)[None],
                                np.array([np.vdot(y, y).real]), np.full(8, 0.2),
                                np.array([0.01]), 3)
    assert not {2, 5}.issubset(set(stack.chosen[0]))
    assert stack.skipped[0] and not stack.failed[0]


def short_chain_system():
    """Two usable columns cannot carry a chain of three."""
    a = np.zeros((5, 6), complex)
    a[:, 1] = [1, 2, 0, 1j, 0]
    a[:, 4] = [0, 1, 1, 0, -1j]
    return a, a[:, 1] + a[:, 4]


def test_short_chain_matches_greedy_search():
    """A chain that stops after two of three stages is a stack row of
    length 2 equal to greedy_search's estimate; an all-zero system fails."""
    a, y = short_chain_system()
    zero = np.zeros_like(a)
    gram = np.stack([a.conj().T @ a, zero.conj().T @ zero])
    corr = np.stack([a.conj().T @ y, np.zeros(6, complex)])
    stack = greedy_search_batch(gram, corr, np.array([np.vdot(y, y).real, 0.0]),
                                np.full((2, 6), 0.3), np.array([0.1, 0.1]), 3)
    np.testing.assert_array_equal(stack.lengths, [2, 0])
    np.testing.assert_array_equal(stack.failed, [False, True])
    assert_padding(stack)
    est = greedy_search(a, y, np.full(6, 0.3), 0.1, 3)
    assert len(est.supports) == 2
    np.testing.assert_array_equal(stack.chosen[0, :2], est.detected_taps)
    assert_rel(stack.taps[0], est.h_ammse)
    assert_rel(stack.posteriors[0, :2], est.posteriors)
    covariances = error_covariances(stack)
    assert_rel(covariances[0, :2, :2], error_covariance(est))
    assert not covariances[0, 2].any() and not covariances[1].any()
    assert not stack.taps[1].any()


@pytest.mark.parametrize("k, t_max", [(6, 6), (6, 3)])
def test_grid_search_routing(k, t_max):
    """Chains that fill every pilot row run greedy_search's recursion and
    equal it bit for bit up to the combined taps; shorter ones are batched.
    Either way one stack holds every antenna."""
    rng = make_rng(7)
    a = random_rows(rng, k, 16, 0)
    ys = rng.normal(size=(5, k)) + 1j * rng.normal(size=(5, k))
    lambdas = np.full((5, 16), 3 / 16)
    noise_vars = np.full(5, 0.05)
    stack = search_rows(a, ys, lambdas, noise_vars, t_max)
    np.testing.assert_array_equal(stack.lengths, np.full(5, t_max))
    for i in range(5):
        want = greedy_search(a, ys[i], lambdas[i], 0.05, t_max)
        if t_max == k:
            assert_row_equals_greedy_search(stack, i, want)
        else:
            np.testing.assert_array_equal(stack.chosen[i], want.detected_taps)
            assert_rel(stack.taps[i], want.h_ammse)


@st.composite
def zero_column_systems(draw):
    """Shared rows with some all-zero columns, or none nonzero at all, and
    two independent draws of observations (zero or random), priors (exact 0
    and 1 included) and noise levels on them."""
    seed = draw(st.integers(0, 2**32 - 1))
    k = draw(st.integers(1, 12))
    length = draw(st.integers(k, 32))
    t_max = draw(st.sampled_from([k, draw(st.integers(1, k))]))
    rng = make_rng(seed)
    a = random_rows(rng, k, length, 0)
    n_zero = length if draw(st.booleans()) else draw(st.integers(0, length - 1))
    a[:, rng.choice(length, size=n_zero, replace=False)] = 0
    draws = []
    for _ in range(2):
        n = draw(st.integers(1, 5))
        ys = rng.normal(size=(n, k)) + 1j * rng.normal(size=(n, k))
        if draw(st.booleans()):
            ys[0] = 0
        lambdas = rng.choice([0.0, 1.0, 0.05, 0.3], size=(n, length))
        draws.append((ys, lambdas, 10 ** rng.uniform(-4, 0, size=n)))
    return a, t_max, draws


@PROPERTY
@given(zero_column_systems())
def test_chain_failure_depends_only_on_rows(case):
    """At the first stage a candidate is usable exactly when its column of
    the shared rows is nonzero, so every chain fails when no column is,
    and none fails otherwise, whatever the observations and priors: a
    grid's final pass fails exactly where its first pass did."""
    a, t_max, draws = case
    for ys, lambdas, noise_vars in draws:
        stack = search_rows(a, ys, lambdas, noise_vars, t_max)
        np.testing.assert_array_equal(stack.failed, np.full(ys.shape[0], not a.any()))


@pytest.mark.parametrize("k, t_max", [(6, 6), (6, 3)])
def test_priors_at_zero_and_one_clamp(k, t_max):
    """Activity priors of exactly 0 and 1 search and score as priors at
    PRIOR_EPS and 1 - PRIOR_EPS, with finite log posteriors and marginals,
    in both solver forms and in the lattice."""
    rng = make_rng(21)
    a = random_rows(rng, k, 16, 0)
    ys = rng.normal(size=(4, k)) + 1j * rng.normal(size=(4, k))
    lambdas = rng.uniform(0.01, 0.5, size=(4, 16))
    lambdas[:, [2, 9]] = 0.0
    lambdas[:, 4] = 1.0
    clamped = np.clip(lambdas, PRIOR_EPS, 1 - PRIOR_EPS)
    noise_vars = np.full(4, 0.05)
    exact, eps = (search_rows(a, ys, lam, noise_vars, t_max) for lam in (lambdas, clamped))
    for name in ("chosen", "lengths", "nus", "posteriors", "taps"):
        np.testing.assert_array_equal(getattr(exact, name), getattr(eps, name))
    assert np.isfinite(exact.nus).all()
    marginals = lattice_marginals(exact, lambdas)
    np.testing.assert_array_equal(marginals, lattice_marginals(eps, clamped))
    assert np.isfinite(marginals).all()


@pytest.mark.parametrize("k, t_max", [(12, 4), (6, 6)])
def test_temper_is_read_where_each_log_posterior_is_formed(monkeypatch, k, t_max):
    """Doubling ``solver.TEMPER`` scores every support as doubling the noise
    level does, in both solver forms (Gram, and K domain at t_max == K) and
    in the lattice, so no copy of the temper hides elsewhere.  Powers of
    two scale exactly: the two runs agree bit for bit."""
    rng = make_rng(13)
    a = random_rows(rng, k, 16, 0)
    ys = rng.normal(size=(5, k)) + 1j * rng.normal(size=(5, k))
    lambdas = rng.uniform(0.05, 0.4, size=(5, 16))
    noise_vars = 10 ** rng.uniform(-2, 0, size=5)

    def solve(noise):
        stack = search_rows(a, ys, lambdas, noise, t_max)
        arrays = [getattr(stack, name) for name in ("chosen", "nus", "posteriors", "taps")]
        return [x.tobytes() for x in arrays + [lattice_marginals(stack, lambdas)]]

    want = solve(2 * noise_vars)
    monkeypatch.setattr(solver, "TEMPER", 2 * solver.TEMPER)
    assert solve(noise_vars) == want
