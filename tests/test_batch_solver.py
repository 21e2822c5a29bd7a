"""Batched Gram-domain solver against the per-antenna reference paths.

``greedy_search``, ``compute_marginals(reuse=False)`` and the L x L
covariance sum are the oracles.  The Gram recursion sums in a different
order than the orthogonalized-column recursion, so values are compared to
a relative tolerance and chosen supports exactly.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridce.errors import IllConditionedSupportError
from gridce.ofdm import make_rng
from gridce.posterior import (
    compute_marginals,
    error_covariances,
    lattice_marginals,
)
from gridce.sharing import _search_grid
from gridce.solver import BernoulliPrior, greedy_search, greedy_search_batch

from test_posterior import full_covariance_oracle

#: relative agreement of nus, conditional means, combined taps, covariances
REL = 1e-9

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)


def assert_rel(got, want):
    scale = max(float(np.abs(want).max(initial=0.0)), 1e-300)
    assert float(np.abs(np.asarray(got) - want).max(initial=0.0)) <= REL * scale


def random_rows(rng, k, length, duplicates):
    a = (rng.normal(size=(k, length)) + 1j * rng.normal(size=(k, length))) / np.sqrt(k)
    for _ in range(duplicates):
        src, dst = rng.choice(length, size=2, replace=length == 1)
        a[:, dst] = a[:, src]
    return a


@st.composite
def antenna_systems(draw, max_t=64):
    """A few antennas, each with its own rows (ragged K), observation,
    prior and noise level, plus a t_max valid for every one of them."""
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
    rng = make_rng(seed)
    shared = None if ragged else random_rows(rng, ks[0], length, duplicates)
    systems = []
    for k in ks:
        a = shared if shared is not None else random_rows(rng, k, length, duplicates)
        h = np.zeros(length, complex)
        taps = rng.choice(length, size=min(3, length), replace=False)
        h[taps] = rng.normal(size=taps.size) + 1j * rng.normal(size=taps.size)
        noise_var = float(10 ** rng.uniform(-4, 0))
        y = np.zeros(k, complex) if zero_y else (
            a @ h + np.sqrt(noise_var / 2) * (rng.normal(size=k) + 1j * rng.normal(size=k)))
        # t_max == K ties every last-stage candidate at a zero residual under a
        # uniform prior; distinct priors keep that pick well defined
        lambdas = (rng.uniform(0.01, 0.5, size=length) if t_max == k or rng.random() < 0.5
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
    """greedy_search, or None where its chain is shorter than t_max."""
    try:
        est = greedy_search(a, y, BernoulliPrior(lambdas), noise_var, t_max)
    except IllConditionedSupportError:
        return None
    return est if len(est.supports) == t_max else None


@PROPERTY
@given(antenna_systems())
def test_batch_matches_greedy_search(case):
    systems, t_max = case
    stack = greedy_search_batch(*stack_inputs(systems), t_max)
    covariances = error_covariances(stack)
    estimates = stack.estimates()
    for row, (a, y, lambdas, noise_var) in enumerate(systems):
        want = reference(a, y, lambdas, noise_var, t_max)
        assert bool(stack.failed[row]) == (want is None)
        if want is None:
            continue
        got = estimates[row]
        classes = column_classes(a)
        np.testing.assert_array_equal(classes[stack.chosen[row]],
                                      classes[want.detected_taps])
        assert_rel(got.nus, want.nus)
        for mean_got, mean_want in zip(got.cond_means, want.cond_means):
            assert_rel(mean_got, mean_want)
        assert_rel(folded(got.h_ammse, classes), folded(want.h_ammse, classes))
        taps = want.detected_taps
        assert_rel(covariances[row], full_covariance_oracle(want)[np.ix_(taps, taps)])


@PROPERTY
@given(antenna_systems(max_t=6))
def test_lattice_matches_from_scratch(case):
    systems, t_max = case
    a = systems[0][0]
    same_rows = [s for s in systems if s[0] is a]
    gram, corr, y_norm2, lambdas, noise_vars = stack_inputs(same_rows)
    stack = greedy_search_batch(gram[0], corr, y_norm2, lambdas, noise_vars, t_max)
    keep = np.flatnonzero(~stack.failed)
    stack = stack.take(keep)
    marginals = lattice_marginals(stack, gram[0], corr[keep], y_norm2[keep], lambdas[keep])
    for row, i in enumerate(keep):
        _, y, lam, noise_var = same_rows[i]
        est = greedy_search(a, y, BernoulliPrior(lam), noise_var, t_max)
        want = compute_marginals(est, a, y, BernoulliPrior(lam), reuse=False)
        np.testing.assert_allclose(marginals[row], want.marginals, rtol=0, atol=REL)


@PROPERTY
@given(antenna_systems(), st.integers(0, 3))
def test_rows_do_not_interact(case, target):
    """Perturbing one antenna's observation leaves every other row
    bit-identical, and each row equals a one-row call on it."""
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
    names = ("chosen", "nus", "r_factors", "qty", "taps", "failed")
    for name in names:
        np.testing.assert_array_equal(getattr(before, name)[others],
                                      getattr(after, name)[others])
        np.testing.assert_array_equal(getattr(alone, name)[0],
                                      getattr(after, name)[target])
    marginal_rows = np.flatnonzero(~after.failed) if shared else []
    if len(marginal_rows) and t_max <= 6:
        rows = after.take(marginal_rows)
        batch = lattice_marginals(rows, gram[0], corr[marginal_rows],
                                  y_norm2[marginal_rows], lambdas[marginal_rows])
        for k, i in enumerate(marginal_rows):
            single = lattice_marginals(after.take([i]), gram[0], corr[[i]],
                                       y_norm2[[i]], lambdas[[i]])
            np.testing.assert_array_equal(batch[k], single[0])


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


def test_short_chain_fails():
    """Two usable columns cannot carry a chain of three."""
    a = np.zeros((5, 6), complex)
    a[:, 1] = [1, 2, 0, 1j, 0]
    a[:, 4] = [0, 1, 1, 0, -1j]
    y = a[:, 1] + a[:, 4]
    stack = greedy_search_batch(a.conj().T @ a, (a.conj().T @ y)[None],
                                np.array([np.vdot(y, y).real]), np.full(6, 0.3),
                                np.array([0.1]), 3)
    assert stack.failed[0]
    est = greedy_search(a, y, BernoulliPrior.uniform(6, 0.3), 0.1, 3)
    assert len(est.supports) == 2


@pytest.mark.parametrize("k, t_max", [(6, 6), (6, 3)])
def test_grid_search_routing(k, t_max):
    """Chains that fill every pilot row go through greedy_search; shorter
    ones are batched.  Either way the estimates match greedy_search."""
    rng = make_rng(7)
    a = random_rows(rng, k, 16, 0)
    ys = rng.normal(size=(5, k)) + 1j * rng.normal(size=(5, k))
    lambdas = np.full((5, 16), 3 / 16)
    noise_vars = np.full(5, 0.05)
    search = _search_grid(a, ys, lambdas, noise_vars, t_max)
    assert len(search.singles) == (5 if t_max == k else 0)
    for i in range(5):
        want = greedy_search(a, ys[i], BernoulliPrior(lambdas[i]), 0.05, t_max)
        if i in search.singles:
            got = search.singles[i]
        else:
            got = search.stack.estimates()[int(np.flatnonzero(search.rows == i)[0])]
        np.testing.assert_array_equal(got.detected_taps, want.detected_taps)
        assert_rel(got.h_ammse, want.h_ammse)
