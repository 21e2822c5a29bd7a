"""Error covariances and marginal posteriors over the detected-tap lattice.

The tests solve with the production entry point ``search_rows`` and check
``error_covariances`` and ``lattice_marginals`` on its stack; the
from-scratch lattice, the exhaustive marginals and the per-antenna
covariance sum are the oracles in ``tests/oracles.py``.
"""

import numpy as np
import pytest

from gridce.errors import ConfigurationError
from gridce.ofdm import make_rng
from gridce.solver import (
    COLLINEARITY_TOL,
    ChainStack,
    _lattice_sums,
    _position_combos,
    _prior_terms,
    _subset_fits,
    error_covariances,
    lattice_marginals,
    search_rows,
)
from oracles import (
    error_covariance,
    exhaustive_marginals,
    full_covariance_oracle,
    greedy_search,
    independent_taps,
    lattice_oracle,
    support_metric,
)


def solved_instance(seed=0, k=10, length=16, sparsity=3, noise_var=0.02, t_max=4):
    """A random system and its one-row production solve: (a, y, h, prior,
    stack, noise_var, marginals), the marginals from ``lattice_marginals``."""
    rng = make_rng(seed)
    a = (rng.normal(size=(k, length)) + 1j * rng.normal(size=(k, length))) / np.sqrt(k)
    support = np.sort(rng.choice(length, size=sparsity, replace=False))
    h = np.zeros(length, complex)
    h[support] = rng.normal(size=sparsity) + 1j * rng.normal(size=sparsity)
    noise = np.sqrt(noise_var / 2) * (rng.normal(size=k) + 1j * rng.normal(size=k))
    y = a @ h + noise
    prior = np.full(length, sparsity / length)
    stack = search_rows(a, y[None], prior[None], np.array([noise_var]), t_max)
    marginals = lattice_marginals(stack, prior)
    return a, y, h, prior, stack, noise_var, marginals[0, :stack.lengths[0]]


def detected(stack):
    return stack.chosen[0, :stack.lengths[0]]


class TestErrorCovariance:
    def test_single_support_block(self):
        a, y, h, prior, stack, nv, _ = solved_instance(t_max=1)
        cov = error_covariances(stack)[0]
        a_s = a[:, detected(stack)]
        expected = nv * np.linalg.inv(a_s.conj().T @ a_s)
        assert cov.shape == (1, 1)
        np.testing.assert_allclose(cov, expected, atol=1e-10)

    def test_detected_block_of_full_sum(self):
        """The T x T reference block is the L x L sum restricted to the
        detected taps, and the L x L sum vanishes everywhere else (the
        production blocks are checked against the same sum in
        ``test_batch_solver``)."""
        for seed in range(5):
            a, y, h, prior, stack, nv, _ = solved_instance(seed=seed)
            est = greedy_search(a, y, prior, nv, 4)
            cov = error_covariance(est)
            full = full_covariance_oracle(est)
            taps = est.detected_taps
            np.testing.assert_allclose(cov, full[np.ix_(taps, taps)],
                                       rtol=0, atol=1e-15 * np.abs(full).max())
            mask = np.ones(16, bool)
            mask[taps] = False
            assert np.all(full[mask] == 0) and np.all(full[:, mask] == 0)

    def test_orthonormal_columns_give_scaled_identity(self):
        rng = make_rng(1)
        q, _ = np.linalg.qr(rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)))
        a = q[:, :6]  # orthonormal columns
        h = np.zeros(6, complex)
        h[2] = 3.0
        y = a @ h + 0.01 * (rng.normal(size=8) + 1j * rng.normal(size=8))
        stack = search_rows(a, y[None], np.full((1, 6), 0.2), np.array([1e-4]), 1)
        np.testing.assert_allclose(error_covariances(stack)[0], 1e-4 * np.eye(1), atol=1e-12)

    def test_hermitian_psd(self):
        for seed in range(5):
            a, y, h, prior, stack, nv, _ = solved_instance(seed=seed)
            cov = error_covariances(stack)[0]
            assert np.abs(cov - cov.conj().T).max() < 1e-10
            eigs = np.linalg.eigvalsh(cov)
            assert eigs.min() >= -1e-9

    def test_monte_carlo_blue_covariance(self):
        """Fixed support, 1e4 noise draws: the empirical covariance of the
        BLUE error matches sigma^2 (A_S^H A_S)^-1 within 5% Frobenius."""
        rng = make_rng(3)
        k, sparsity, nv = 12, 3, 0.05
        a_s = (rng.normal(size=(k, sparsity)) + 1j * rng.normal(size=(k, sparsity)))
        a_s /= np.sqrt(k)
        h_s = rng.normal(size=sparsity) + 1j * rng.normal(size=sparsity)
        draws = 10_000
        noise = np.sqrt(nv / 2) * (
            rng.normal(size=(draws, k)) + 1j * rng.normal(size=(draws, k))
        )
        ys = (a_s @ h_s)[None, :] + noise
        gram_inv = np.linalg.inv(a_s.conj().T @ a_s)
        proj = gram_inv @ a_s.conj().T
        errors = ys @ proj.T - h_s[None, :]
        empirical = errors.T @ errors.conj() / draws
        expected = nv * gram_inv
        rel = np.linalg.norm(empirical - expected) / np.linalg.norm(expected)
        assert rel < 0.05


class TestLatticeEnumeration:
    """The production lattice order, ``_position_combos``: subsets of chain
    positions by size, then lexicographically in detection order."""

    def test_three_taps_gives_seven_subsets(self):
        taps = np.array([9, 4, 12])  # detection order
        subsets = [tuple(taps[c]) for block in _position_combos(3) for c in block]
        assert subsets == [
            (9,), (4,), (12,),
            (9, 4), (9, 12), (4, 12),
            (9, 4, 12),
        ]

    def test_single_tap(self):
        assert sum(len(block) for block in _position_combos(1)) == 1

    @pytest.mark.parametrize("t", range(1, 11))
    def test_count_identity(self, t):
        assert sum(len(block) for block in _position_combos(t)) == 2**t - 1

    def test_guard(self):
        """A chain of 21 taps is refused before its lattice is enumerated."""
        rng = make_rng(2)
        a = rng.normal(size=(24, 32)) + 1j * rng.normal(size=(24, 32))
        y = rng.normal(size=(1, 24)) + 1j * rng.normal(size=(1, 24))
        lambdas = np.full((1, 32), 0.5)
        stack = search_rows(a, y, lambdas, np.array([0.1]), 21)
        assert stack.lengths[0] == 21
        with pytest.raises(ConfigurationError):
            lattice_marginals(stack, lambdas)


class TestSubsetFits:
    """``_subset_fits``, the Cholesky elimination behind the lattice."""

    def test_dependent_column_adds_nothing(self):
        """Positions 1 and 3 hold the same column, so a subset holding both
        meets a pivot at or below the guard; that column adds nothing.  On
        the Gram of [A | y] the corner of every subset's elimination is its
        residual, the squared distance from y to the projection ``lstsq``
        gives on the subset's span."""
        rng = make_rng(31)
        a = rng.normal(size=(8, 5)) + 1j * rng.normal(size=(8, 5))
        a[:, 3] = a[:, 1]
        y = rng.normal(size=8) + 1j * rng.normal(size=8)
        bordered = np.column_stack((a, y))
        gram = bordered.conj().T @ bordered
        source = gram.reshape(-1, 1)
        bounds = COLLINEARITY_TOL**2 * gram.diagonal().real[:5, None]
        for size, block in enumerate(_position_combos(5)[:-1], start=1):
            residuals = _subset_fits(source, bounds, size)[:, 0]
            for subset, residual in zip(block[1:], residuals):
                cols = a[:, subset]
                left = y - cols @ np.linalg.lstsq(cols, y, rcond=None)[0]
                assert residual == pytest.approx(np.vdot(left, left).real, rel=1e-12)


class TestPivotBounds:
    """The lattice's pivot bounds, reached through ``lattice_marginals``.
    A greedy chain never holds a column its own earlier columns nearly
    span, so the chain here is built by hand."""

    def test_nearly_parallel_columns_in_a_non_prefix_subset(self):
        """R's columns 1 and 2 differ by 1e-7 along the third axis, so in
        the non-prefix subset {1, 2} the pivot of column 2 falls below its
        bound and that column adds nothing; column 0 has a negative inner
        product with column 2, so a bound read off the Gram's first row
        would let the pivot through.  The explicit rows [R; 0] with y =
        [Q^H y; e] give the same lattice, scored by ``lattice_oracle``."""
        delta, noise_var = 1e-7, 0.1
        r = np.array([[1.0, -0.3, -0.3], [0.0, 1.0, 1.0], [0.0, 0.0, delta]], dtype=complex)
        qty = np.array([0.5, -0.2 + 0.1j, 0.7])
        tail = 0.2
        lambdas = np.array([0.2, 0.3, 0.25])
        a = np.vstack((r, np.zeros((1, 3))))
        y = np.append(qty, tail)
        _, gain = _prior_terms(lambdas)
        prefix = [support_metric([0], y, a, lambdas, noise_var),
                  support_metric([0, 1], y, a, lambdas, noise_var)]
        prefix.append(prefix[1] + gain[2])  # column 2 adds nothing to {0, 1}
        stack = ChainStack(
            chosen=np.array([[0, 1, 2]]), nus=np.array([prefix]),
            residuals=np.array([[0.0, 0.0, tail**2]]), posteriors=np.zeros((1, 3)),
            r_factors=r[None], r_inverses=np.linalg.inv(r)[None], qty=qty[None],
            taps=np.zeros((1, 3), complex), noise_vars=np.array([noise_var]),
            lengths=np.array([3]), skipped=np.zeros(1, bool), underflow=np.zeros(1, bool),
        )
        assert independent_taps(a, [1, 2]).tolist() == [1]
        _, _, want = lattice_oracle(np.arange(3), a, y, lambdas, noise_var)
        np.testing.assert_allclose(lattice_marginals(stack, lambdas)[0], want, atol=1e-12)


class TestMarginals:
    def test_uniform_lattice_example(self):
        """With uniform posteriors 1/7 at T=3, every tap's marginal is 4/7
        (each appears in four of the seven subsets)."""
        marginals = _lattice_sums(np.full((1, 7), 1 / 7))[0]
        np.testing.assert_allclose(marginals, [4 / 7, 4 / 7, 4 / 7], atol=1e-12)

    def test_zero_posterior_gives_zero_marginal(self):
        # T=2 lattice order: (0,), (1,), (0, 1)
        marginals = _lattice_sums(np.array([[1.0, 0.0, 0.0]]))[0]
        assert marginals[1] == 0.0

    def test_marginals_in_unit_interval_and_dominate_members(self):
        a, y, h, prior, stack, nv, marginals = solved_instance(seed=4)
        assert np.all(marginals >= 0) and np.all(marginals <= 1 + 1e-12)
        subsets, posteriors, _ = lattice_oracle(detected(stack), a, y, prior, nv)
        for i, tap in enumerate(detected(stack)):
            containing = [p for s, p in zip(subsets, posteriors) if tap in s]
            assert marginals[i] >= max(containing) - 1e-12

    def test_lattice_posteriors_normalized(self):
        a, y, h, prior, stack, nv, _ = solved_instance(seed=5)
        _, posteriors, _ = lattice_oracle(detected(stack), a, y, prior, nv)
        assert abs(posteriors.sum() - 1.0) < 1e-9

    def test_marginal_sum_equals_expected_support_size(self):
        """sum_i lambda(a_i) = sum_S |S| p(S|y), exactly."""
        a, y, h, prior, stack, nv, marginals = solved_instance(seed=6)
        subsets, posteriors, _ = lattice_oracle(detected(stack), a, y, prior, nv)
        expected_size = sum(len(s) * p for s, p in zip(subsets, posteriors))
        assert abs(marginals.sum() - expected_size) < 1e-12

    @pytest.mark.parametrize("t_max", [1, 2, 3, 4])
    def test_reuse_matches_from_scratch(self, t_max):
        """The chain-reusing lattice equals full re-evaluation within 1e-12."""
        for seed in range(5):
            a, y, h, prior, stack, nv, marginals = solved_instance(seed=10 + seed,
                                                                   t_max=t_max)
            _, _, want = lattice_oracle(detected(stack), a, y, prior, nv)
            np.testing.assert_allclose(marginals, want, atol=1e-12)

    def test_marginal_vector_layout(self):
        a, y, h, prior, stack, nv, marginals = solved_instance(seed=7)
        full = np.zeros((1, stack.chosen.shape[1]))
        full[0, :marginals.size] = marginals
        vec = stack.scatter(full)[0]
        assert vec.shape == (16,)
        np.testing.assert_allclose(vec[detected(stack)], marginals, atol=0)
        others = np.setdiff1d(np.arange(16), detected(stack))
        assert np.all(vec[others] == 0)

    def test_true_taps_get_high_marginals(self):
        a, y, h, prior, stack, nv, marginals = solved_instance(seed=8, noise_var=1e-4)
        true_support = set(np.flatnonzero(np.abs(h) > 0))
        taps = detected(stack)
        assert true_support.issubset({int(t) for t in taps})
        for i, tap in enumerate(taps):
            if int(tap) in true_support:
                assert marginals[i] > 0.9

    def test_exhaustive_debug_mode_agrees_on_confident_taps(self):
        """At L <= 10 the lattice restriction tracks the full enumeration on
        the confidently detected taps.  (Marginals of borderline spurious
        taps are inflated by the restricted normalization; that looseness is
        inherent to the approximation, so only confident taps are compared.)"""
        a, y, h, prior, stack, nv, marginals = solved_instance(
            seed=9, k=8, length=10, sparsity=2, noise_var=1e-3, t_max=3)
        full = exhaustive_marginals(a, y, prior, nv, max_size=3)
        compared = 0
        for i, tap in enumerate(detected(stack)):
            if full[tap] > 0.9:
                assert abs(marginals[i] - full[tap]) < 0.05
                compared += 1
        assert compared >= 2
        # the restriction never *under*-ranks a detected tap
        for i, tap in enumerate(detected(stack)):
            assert marginals[i] >= full[tap] - 0.05
