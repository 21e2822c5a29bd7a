"""Greedy matching-pursuit solver: metric, BLUE, chain search, combination.

The chain tests run the production entry point ``search_rows`` on one
observation vector; the support metric, BLUE and exhaustive enumeration
they are checked against are the oracles in ``tests/oracles.py``.
"""

import numpy as np
import pytest

from gridce.errors import ConfigurationError, IllConditionedSupportError
from gridce.ofdm import make_rng
from gridce.sharing import GridSolverConfig
from gridce.solver import DML_Z, dml_support_size, search_depth, search_rows
from oracles import blue_estimate, exhaustive_estimate, support_metric


def random_system(k, length, sparsity, noise_var, seed, complex_taps=True):
    rng = make_rng(seed)
    a = (rng.normal(size=(k, length)) + 1j * rng.normal(size=(k, length))) / np.sqrt(k)
    support = np.sort(rng.choice(length, size=sparsity, replace=False))
    h = np.zeros(length, complex)
    h[support] = rng.normal(size=sparsity) + (1j * rng.normal(size=sparsity)
                                              if complex_taps else 0)
    noise = np.sqrt(noise_var / 2) * (rng.normal(size=k) + 1j * rng.normal(size=k))
    return a, h, support, a @ h + noise


def solve(a, y, lambdas, noise_var, t_max):
    """The production chain of one observation vector: a one-row stack."""
    return search_rows(a, np.asarray(y)[None], lambdas[None], np.array([noise_var]), t_max)


def chain(stack):
    """Row 0's detected taps in selection order."""
    return stack.chosen[0, :stack.lengths[0]]


class TestInitParams:
    """The search depth every antenna starts from."""

    def test_dml_size_example(self):
        # L=64, lambda=3/64, z=2: ceil(3 + 2*sqrt(3*61/64)) = 7
        assert DML_Z == 2.0 and dml_support_size(64, 3 / 64) == 7
        # L=4, lambda=0.9: ceil(3.6 + 2*0.6) = 5, capped at L
        assert dml_support_size(4, 0.9) == 4

    def test_t_max_capped_at_observation_count(self):
        config = GridSolverConfig(lambda_init=0.5, noise_var=0.1)
        assert dml_support_size(64, 0.5) > 2
        assert search_depth(64, config.lambda_init, 2) == 2


class TestSupportMetric:
    def test_empty_support(self):
        a, h, support, y = random_system(8, 16, 2, 0.1, seed=0)
        prior = np.full(16, 0.1)
        nu = support_metric([], y, a, prior, 0.1)
        expected = -np.vdot(y, y).real / 0.2 + 16 * np.log1p(-prior[0])
        assert abs(nu - expected) < 1e-9

    def test_equal_prior_identity(self):
        """With lambda_i = lambda the prior part is |S| ln(l/(1-l)) + L ln(1-l)."""
        a, h, support, y = random_system(8, 16, 2, 0.1, seed=1)
        lam = 0.2
        prior = np.full(16, lam)
        nu = support_metric(support, y, a, prior, 0.1)
        q, _ = np.linalg.qr(a[:, support])
        res = y - q @ (q.conj().T @ y)
        expected = (
            -np.vdot(res, res).real / 0.2
            + len(support) * np.log(lam / (1 - lam))
            + 16 * np.log(1 - lam)
        )
        assert abs(nu - expected) < 1e-9

    def test_projection_residual_monotone_in_support(self):
        a, h, support, y = random_system(8, 16, 2, 0.5, seed=2)
        prior = np.full(16, 0.1)

        def residual(s):
            if not len(s):
                return np.vdot(y, y).real
            q, _ = np.linalg.qr(a[:, list(s)])
            r = y - q @ (q.conj().T @ y)
            return np.vdot(r, r).real

        base = [3, 7]
        for extra in range(16):
            if extra in base:
                continue
            assert residual(base + [extra]) <= residual(base) + 1e-10

    def test_projector_hermitian_idempotent(self):
        """Explicit projector at small sizes: Hermitian and idempotent."""
        a, *_ = random_system(6, 8, 2, 0.1, seed=3)
        for support in ([0], [1, 4], [2, 5, 7]):
            a_s = a[:, support]
            p = a_s @ np.linalg.inv(a_s.conj().T @ a_s) @ a_s.conj().T
            p_perp = np.eye(6) - p
            assert np.abs(p_perp - p_perp.conj().T).max() < 1e-10
            assert np.abs(p_perp @ p_perp - p_perp).max() < 1e-10

    def test_rank_deficient_support_raises(self):
        a = np.ones((4, 3), complex)
        a[:, 1] = a[:, 0]  # duplicate column
        y = np.ones(4, complex)
        prior = np.full(3, 0.2)
        with pytest.raises(IllConditionedSupportError):
            support_metric([0, 1], y, a, prior, 0.1)

    def test_zero_noise_rejected(self):
        a, h, support, y = random_system(8, 16, 2, 0.1, seed=4)
        with pytest.raises(ConfigurationError):
            support_metric(support, y, a, np.full(16, 0.1), 0.0)


class TestBlueEstimate:
    def test_noiseless_consistency(self):
        a, h, support, y = random_system(10, 20, 3, 0.0, seed=5)
        coef = blue_estimate(a[:, support], y)
        np.testing.assert_allclose(coef, h[support], atol=1e-10)

    def test_orthonormal_columns(self):
        q, _ = np.linalg.qr(make_rng(6).normal(size=(8, 3)) + 0j)
        y = make_rng(7).normal(size=8) + 0j
        np.testing.assert_allclose(blue_estimate(q, y), q.conj().T @ y, atol=1e-12)

    def test_underdetermined_rejected(self):
        a = np.ones((2, 3), complex)
        with pytest.raises(IllConditionedSupportError):
            blue_estimate(a, np.ones(2, complex))


class TestGreedySearch:
    def test_single_stage_matches_exhaustive_singletons(self):
        """Stage-1 pick equals the global size-1 argmax of the metric."""
        for seed in range(20):
            a, h, support, y = random_system(6, 10, 2, 0.05, seed=seed)
            prior = np.full(10, 0.2)
            stack = solve(a, y, prior, 0.05, t_max=1)
            nus = [support_metric([j], y, a, prior, 0.05) for j in range(10)]
            assert stack.chosen[0, 0] == int(np.argmax(nus))

    def test_nested_chain_structure(self):
        """Every stage adds one tap not chosen before."""
        a, h, support, y = random_system(8, 16, 3, 0.05, seed=8)
        stack = solve(a, y, np.full(16, 0.15), 0.05, t_max=5)
        taps = chain(stack)
        assert taps.size == 5 and np.unique(taps).size == 5

    def test_noiseless_recovery_rate(self):
        """L=8, K=6, n=2, noiseless: the true support must be a prefix of the
        chain in at least 95% of 500 seeded trials (verified brute-force over
        all C(8,2) supports that the metric's argmax is the true support)."""
        from itertools import combinations

        hits = 0
        oracle_agrees = 0
        trials = 500
        for seed in range(trials):
            a, h, support, y = random_system(6, 8, 2, 1e-8, seed=1000 + seed)
            prior = np.full(8, 2 / 8)
            stack = solve(a, y, prior, 1e-6, t_max=2)
            if set(chain(stack)) == set(support):
                hits += 1
            # brute-force oracle over all size-2 supports
            best = max(
                combinations(range(8), 2),
                key=lambda s: support_metric(list(s), y, a, prior, 1e-6),
            )
            if set(best) == set(support):
                oracle_agrees += 1
        assert oracle_agrees / trials >= 0.99  # metric identifies the support
        assert hits / trials >= 0.95           # greedy finds it

    def test_posteriors_normalized(self):
        a, h, support, y = random_system(8, 16, 3, 0.05, seed=9)
        stack = solve(a, y, np.full(16, 0.15), 0.05, t_max=4)
        assert abs(stack.posteriors[0].sum() - 1.0) < 1e-9

    def test_residual_monotone_along_chain(self):
        a, h, support, y = random_system(10, 24, 3, 0.1, seed=10)
        stack = solve(a, y, np.full(24, 0.1), 0.1, t_max=6)
        assert np.all(np.diff(stack.residuals[0, :stack.lengths[0]]) <= 1e-10)

    def test_scale_equivariance(self):
        """Scaling y and sigma_w together leaves the chain unchanged."""
        a, h, support, y = random_system(8, 16, 2, 0.05, seed=11)
        prior = np.full(16, 0.1)
        one = solve(a, y, prior, 0.05, t_max=4)
        scaled = solve(a, 10 * y, prior, 100 * 0.05, t_max=4)
        np.testing.assert_array_equal(chain(one), chain(scaled))
        np.testing.assert_allclose(one.posteriors, scaled.posteriors, atol=1e-9)

    def test_collinear_candidate_skipped(self):
        """A duplicated column cannot enter the same support twice."""
        rng = make_rng(12)
        a = rng.normal(size=(6, 8)) + 1j * rng.normal(size=(6, 8))
        a[:, 5] = a[:, 2]  # exact duplicate
        h = np.zeros(8, complex)
        h[2] = 2.0
        y = a @ h
        stack = solve(a, y, np.full(8, 0.2), 0.01, t_max=3)
        assert not {2, 5}.issubset(set(chain(stack)))
        assert stack.skipped[0]

    def test_no_nan_or_inf(self):
        for seed in range(10):
            a, h, support, y = random_system(8, 16, 3, 1e-6, seed=100 + seed)
            stack = solve(a, y, np.full(16, 0.1), 1e-6, t_max=6)
            assert np.all(np.isfinite(stack.posteriors))
            assert np.all(np.isfinite(stack.taps))

    def test_finds_support_with_nongaussian_taps(self):
        """The solver never uses the tap distribution: constant-magnitude taps
        recover as well as Gaussian ones."""
        hits = 0
        for seed in range(50):
            rng = make_rng(300 + seed)
            a = (rng.normal(size=(10, 16)) + 1j * rng.normal(size=(10, 16))) / np.sqrt(10)
            support = rng.choice(16, size=2, replace=False)
            h = np.zeros(16, complex)
            h[support] = np.exp(2j * np.pi * rng.random(2))  # unit magnitude
            y = a @ h
            stack = solve(a, y, np.full(16, 0.12), 1e-6, t_max=3)
            hits += set(support).issubset(set(chain(stack)))
        assert hits >= 45


class TestAmmseCombine:
    def test_single_support_is_padded_blue(self):
        a, h, support, y = random_system(8, 16, 2, 0.05, seed=13)
        stack = solve(a, y, np.full(16, 0.1), 0.05, t_max=1)
        expected = np.zeros(16, complex)
        expected[chain(stack)] = blue_estimate(a[:, chain(stack)], y)
        np.testing.assert_allclose(stack.taps[0], expected, atol=1e-10)

    def test_support_contained_in_largest(self):
        a, h, support, y = random_system(8, 16, 3, 0.05, seed=14)
        stack = solve(a, y, np.full(16, 0.15), 0.05, t_max=4)
        nz = np.flatnonzero(stack.taps[0])
        assert set(nz).issubset(set(chain(stack)))

    def test_posteriors_sum_to_one_after_combine(self):
        """The combined taps are the posterior-weighted sum of the zero-padded
        BLUE of every chain prefix, with weights summing to one."""
        a, h, support, y = random_system(8, 16, 3, 0.05, seed=15)
        stack = solve(a, y, np.full(16, 0.15), 0.05, t_max=4)
        assert abs(stack.posteriors[0].sum() - 1.0) < 1e-9
        expected = np.zeros(16, complex)
        taps = chain(stack)
        for s, weight in enumerate(stack.posteriors[0], start=1):
            expected[taps[:s]] += weight * blue_estimate(a[:, taps[:s]], y)
        np.testing.assert_allclose(stack.taps[0], expected, atol=1e-10)


class TestExhaustiveOracle:
    def test_matches_greedy_on_easy_instance(self):
        a, h, support, y = random_system(6, 8, 2, 1e-6, seed=16)
        prior = np.full(8, 0.25)
        stack = solve(a, y, prior, 1e-6, t_max=2)
        supports, posteriors, _, h_ex = exhaustive_estimate(a, y, prior, 1e-6, 2)
        top = supports[int(np.argmax(posteriors))]
        assert set(top) == set(chain(stack))
        # both estimates land on the true channel
        np.testing.assert_allclose(h_ex, h, atol=1e-3)

    def test_guard(self):
        a = np.ones((4, 16), complex)
        with pytest.raises(ConfigurationError):
            exhaustive_estimate(a, np.ones(4, complex), np.full(16, 0.1),
                                0.1, 2)
