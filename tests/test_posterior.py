"""Error covariance and marginal posteriors over the detected-tap lattice."""

import numpy as np
import pytest

from gridce.errors import ConfigurationError
from gridce.ofdm import make_rng
from gridce.posterior import (
    compute_marginals,
    enumerate_marginal_supports,
    error_covariance,
    exhaustive_marginals,
    marginals_from_lattice,
)
from gridce.solver import BernoulliPrior, greedy_search


def solved_instance(seed=0, k=10, length=16, sparsity=3, noise_var=0.02, t_max=4):
    rng = make_rng(seed)
    a = (rng.normal(size=(k, length)) + 1j * rng.normal(size=(k, length))) / np.sqrt(k)
    support = np.sort(rng.choice(length, size=sparsity, replace=False))
    h = np.zeros(length, complex)
    h[support] = rng.normal(size=sparsity) + 1j * rng.normal(size=sparsity)
    noise = np.sqrt(noise_var / 2) * (rng.normal(size=k) + 1j * rng.normal(size=k))
    y = a @ h + noise
    prior = BernoulliPrior.uniform(length, sparsity / length)
    est = greedy_search(a, y, prior, noise_var, t_max)
    return a, y, h, prior, est, noise_var


def full_covariance_oracle(estimate):
    """The L x L posterior-weighted covariance sum, support by support."""
    length = estimate.channel_len
    matrix = np.zeros((length, length), dtype=complex)
    for weight, support, ginv in zip(
        estimate.posteriors, estimate.supports, estimate.gram_inverses
    ):
        matrix[np.ix_(support, support)] += weight * ginv
    return estimate.noise_var * matrix


class TestErrorCovariance:
    def test_single_support_block(self):
        a, y, h, prior, est, nv = solved_instance(t_max=1)
        cov = error_covariance(est)
        s = est.supports[0]
        a_s = a[:, s]
        expected = nv * np.linalg.inv(a_s.conj().T @ a_s)
        np.testing.assert_array_equal(cov.taps, s)
        np.testing.assert_allclose(cov.matrix, expected, atol=1e-10)

    def test_detected_block_of_full_sum(self):
        """The T x T matrix is the L x L sum restricted to the detected taps,
        and the L x L sum vanishes everywhere else."""
        for seed in range(5):
            a, y, h, prior, est, nv = solved_instance(seed=seed)
            cov = error_covariance(est)
            full = full_covariance_oracle(est)
            np.testing.assert_allclose(cov.matrix, full[np.ix_(cov.taps, cov.taps)],
                                       rtol=0, atol=1e-15 * np.abs(full).max())
            mask = np.ones(16, bool)
            mask[cov.taps] = False
            assert np.all(full[mask] == 0) and np.all(full[:, mask] == 0)

    def test_orthonormal_columns_give_scaled_identity(self):
        rng = make_rng(1)
        q, _ = np.linalg.qr(rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)))
        a = q[:, :6]  # orthonormal columns
        h = np.zeros(6, complex)
        h[2] = 3.0
        y = a @ h + 0.01 * (rng.normal(size=8) + 1j * rng.normal(size=8))
        est = greedy_search(a, y, BernoulliPrior.uniform(6, 0.2), 1e-4, t_max=1)
        cov = error_covariance(est)
        np.testing.assert_allclose(cov.matrix, 1e-4 * np.eye(1), atol=1e-12)

    def test_hermitian_psd(self):
        for seed in range(5):
            a, y, h, prior, est, nv = solved_instance(seed=seed)
            cov = error_covariance(est)
            assert np.abs(cov.matrix - cov.matrix.conj().T).max() < 1e-10
            eigs = np.linalg.eigvalsh(cov.matrix)
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
    def test_three_taps_gives_seven_subsets(self):
        detected = np.array([9, 4, 12])  # detection order
        subsets = enumerate_marginal_supports(detected)
        assert len(subsets) == 7
        as_tuples = [tuple(s) for s in subsets]
        assert as_tuples == [
            (9,), (4,), (12,),
            (9, 4), (9, 12), (4, 12),
            (9, 4, 12),
        ]

    def test_single_tap(self):
        assert len(enumerate_marginal_supports(np.array([5]))) == 1

    @pytest.mark.parametrize("t", range(1, 11))
    def test_count_identity(self, t):
        assert len(enumerate_marginal_supports(np.arange(t))) == 2**t - 1

    def test_guard(self):
        with pytest.raises(ConfigurationError):
            enumerate_marginal_supports(np.arange(21))


class TestMarginals:
    def test_uniform_lattice_example(self):
        """With uniform posteriors 1/7 at T=3, the first tap's marginal is 4/7
        (it appears in four of the seven subsets)."""
        detected = np.array([3, 8, 1])
        subsets = [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)]
        posteriors = np.full(7, 1 / 7)
        marginals = marginals_from_lattice(subsets, posteriors, 3)
        np.testing.assert_allclose(marginals, [4 / 7, 4 / 7, 4 / 7], atol=1e-12)

    def test_zero_posterior_gives_zero_marginal(self):
        subsets = [(0,), (1,), (0, 1)]
        posteriors = np.array([1.0, 0.0, 0.0])
        marginals = marginals_from_lattice(subsets, posteriors, 2)
        assert marginals[1] == 0.0

    def test_marginals_in_unit_interval_and_dominate_members(self):
        a, y, h, prior, est, nv = solved_instance(seed=4)
        ms = compute_marginals(est, a, y, prior)
        assert np.all(ms.marginals >= 0) and np.all(ms.marginals <= 1 + 1e-12)
        for i, tap in enumerate(ms.detected_taps):
            containing = [
                p for s, p in zip(ms.lattice_subsets, ms.lattice_posteriors)
                if tap in s
            ]
            assert ms.marginals[i] >= max(containing) - 1e-12

    def test_lattice_posteriors_normalized(self):
        a, y, h, prior, est, nv = solved_instance(seed=5)
        ms = compute_marginals(est, a, y, prior)
        assert abs(ms.lattice_posteriors.sum() - 1.0) < 1e-9

    def test_marginal_sum_equals_expected_support_size(self):
        """sum_i lambda(a_i) = sum_S |S| p(S|y), exactly."""
        a, y, h, prior, est, nv = solved_instance(seed=6)
        ms = compute_marginals(est, a, y, prior)
        expected_size = sum(
            len(s) * p for s, p in zip(ms.lattice_subsets, ms.lattice_posteriors)
        )
        assert abs(ms.marginals.sum() - expected_size) < 1e-12

    @pytest.mark.parametrize("t_max", [1, 2, 3, 4])
    def test_reuse_matches_from_scratch(self, t_max):
        """The chain-reusing lattice equals full re-evaluation within 1e-12."""
        for seed in range(5):
            a, y, h, prior, est, nv = solved_instance(seed=10 + seed, t_max=t_max)
            fast = compute_marginals(est, a, y, prior, reuse=True)
            slow = compute_marginals(est, a, y, prior, reuse=False)
            np.testing.assert_allclose(fast.marginals, slow.marginals, atol=1e-12)
            np.testing.assert_allclose(
                fast.lattice_posteriors, slow.lattice_posteriors, atol=1e-12
            )

    def test_marginal_vector_layout(self):
        a, y, h, prior, est, nv = solved_instance(seed=7)
        ms = compute_marginals(est, a, y, prior)
        vec = ms.marginal_vector(16)
        assert vec.shape == (16,)
        np.testing.assert_allclose(vec[ms.detected_taps], ms.marginals, atol=0)
        others = np.setdiff1d(np.arange(16), ms.detected_taps)
        assert np.all(vec[others] == 0)

    def test_true_taps_get_high_marginals(self):
        a, y, h, prior, est, nv = solved_instance(seed=8, noise_var=1e-4)
        ms = compute_marginals(est, a, y, prior)
        true_support = set(np.flatnonzero(np.abs(h) > 0))
        detected = {int(t) for t in ms.detected_taps}
        assert true_support.issubset(detected)
        for i, tap in enumerate(ms.detected_taps):
            if int(tap) in true_support:
                assert ms.marginals[i] > 0.9

    def test_exhaustive_debug_mode_agrees_on_confident_taps(self):
        """At L <= 10 the lattice restriction tracks the full enumeration on
        the confidently detected taps.  (Marginals of borderline spurious
        taps are inflated by the restricted normalization; that looseness is
        inherent to the approximation, so only confident taps are compared.)"""
        a, y, h, prior, est, nv = solved_instance(seed=9, k=8, length=10,
                                                  sparsity=2, noise_var=1e-3,
                                                  t_max=3)
        ms = compute_marginals(est, a, y, prior)
        full = exhaustive_marginals(a, y, prior, nv, max_size=3)
        compared = 0
        for i, tap in enumerate(ms.detected_taps):
            if full[tap] > 0.9:
                assert abs(ms.marginals[i] - full[tap]) < 0.05
                compared += 1
        assert compared >= 2
        # the restriction never *under*-ranks a detected tap
        for i, tap in enumerate(ms.detected_taps):
            assert ms.marginals[i] >= full[tap] - 0.05
