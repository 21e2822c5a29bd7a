"""Reference forms that production code replaced, kept for the tests.

``greedy_search`` is the per-antenna chain search on one observation
vector, in the orthogonalized-column recursion that
``solver.greedy_search_stack`` runs for a stack; its ``SparseEstimate``
keeps every chain support, conditional mean and Gram inverse.
``gram_search_oracle`` is the Gram-domain stage loop that
``solver.greedy_search_batch`` replaced: it ranks candidates by their full
log posterior, forms |z|^2 through ``np.abs`` and inverts every R with
LAPACK at the end.
``support_metric``, ``blue_estimate``, ``exhaustive_estimate`` and
``exhaustive_marginals`` score explicit supports one by one.  Priors are
plain (L,) activity arrays, clamped as the solver clamps them.
``lattice_oracle`` evaluates the detected-tap lattice from scratch, with
no chain value reused (a numerically dependent column adds nothing, as
``independent_taps`` decides), and ``error_covariance``,
``full_covariance_oracle`` and ``assign_scores`` are the per-antenna forms of
``posterior.error_covariances`` and the integer scores of the grid runners.
``equalize_and_slice`` is zero-forcing detection of one antenna, the
reference for the chunked BER scoring.  ``freq_response_oracle``,
``equalize_oracle``, ``equalize_masked_oracle``,
``synthesize_received_oracle`` and ``reestimation_inputs_oracle`` are the
carrier-domain forms that divide complex values by reals, divide by 1 or
not at all on the undecodable carriers, store through masks, draw the
noise as two ``rng.normal`` calls and stack the two spectra; the
production forms must equal them bit for bit.  ``qam_slice``,
``bit_words_oracle`` and ``indices_from_bits`` are the alphabet helpers
only the tests use; ``bit_words_oracle`` unpacks point indices into the
bit words that BER scoring counts by popcount.

``top_carriers_oracle`` is the data-aided stage's top-U pick that scores
every chunk's reliabilities, whether or not the budgets leave a choice;
``eager_reliable_sets`` builds the ``[row][col]`` consensus views with
their index arrays computed up front, antenna by antenna.

``nearest_levels_oracle`` is the per-axis slicer as a running minimum
from a zero pick over every level, the form ``QamAlphabet.nearest_levels``
trimmed.  ``sq_distances_oracle`` and ``nearest_indices_oracle`` are the
constellation-wide slicer: a (..., Q) array of squared distances and Q
masked passes in lexicographic (real, imag) point order, where only a
strict improvement replaces the pick.  ``QamAlphabet.nearest_levels``
slices each axis on its own instead, and ``indices_from_levels`` pairs
the two levels into a point index.

``neighbors`` is the set-based 4-neighborhood of a (rows, cols) grid
that the array stencils (``sharing.stencil_reduce`` and
``stencil_gather``) replaced.
``somp_loop_oracle`` and ``oracle_ls_loop_oracle`` are the per-antenna
baselines that ``experiments.somp_baseline`` and ``oracle_ls_estimate``
replaced with one Gram-domain batch: SOMP refits every stage with
``lstsq`` on the member observations, and oracle-LS calls
``blue_estimate`` per antenna.

``per_currency_grid`` is the grid pipeline of one belief currency with
its own first pass, as a trial ran each currency before
``sharing.first_pass`` served MB and IB from one search.

``generate_channels_loop_oracle`` is the per-antenna fill that
``channels.generate_channels`` and its SVA walk replaced with one diagonal
index and ``np.put_along_axis``; it draws the same RNG values in the same
order, so the two agree bit for bit, and it fills the support mask that
the production draw leaves as ``taps != 0``.  ``read_channels_csv`` reads
back what ``channels.channels_to_csv`` writes, and
``channels_to_csv_loop_oracle`` writes the same bytes antenna by antenna.
``truncated_dft`` is the dense N x L matrix F_L, the first L columns of the
unitary N-point DFT, and ``dense_rows`` is diag(s) F_L for a frame: the
matrix that ``ofdm.pilot_rows`` equals on the pilot rows bit for bit, and
that ``synthesize_received_oracle`` multiplies where
``ofdm.synthesize_received`` runs the FFT.

``classify_array``, ``recommended_D``, ``lower_bound_D`` and
``tier_population`` are the paper's design rules for an array of given
spacing and bandwidth: the SIA/SVA regime, the sharing depth whose
neighborhood stays support-invariant, the smallest depth whose
neighborhood holds enough observations, and the antennas that depth
reaches.  No trial reads them; the tests check them against the paper's
numbers.
"""

import csv
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from gridce.channels import (
    TAP_SAMPLERS,
    _draw_taps,
    _migrate_one,
    geometric_gains,
)
from gridce.errors import ConfigurationError, IllConditionedSupportError
from gridce.data_aided import (
    ANTENNA_CHUNK,
    carrier_reliability,
    distortion_covariance,
    top_reliable,
)
from gridce.ofdm import ZF_MIN_GAIN, equalize, freq_response
from gridce.posterior import error_covariances, lattice_marginals
from gridce.qam import as_axes
from gridce.sharing import (
    BeliefKind,
    GridEstimate,
    _rank_scores,
    average_marginals_round,
    average_scores_round,
    scores_to_beliefs,
    stencil_reduce,
)
from gridce.solver import (
    COLLINEARITY_TOL,
    ChainStack,
    _normalize_log_posteriors,
    _prior_terms,
    check_conditioning,
    search_depth,
    search_rows,
)


@dataclass
class SparseEstimate:
    """One chain of ``greedy_search``: nested supports (selection order
    kept inside each), posteriors normalized over the chain, and per
    support its log posterior, residual energy, conditional mean and
    (A_S^H A_S)^-1; ``h_ammse`` is the posterior-weighted combination."""

    supports: list
    posteriors: np.ndarray
    cond_means: list
    residuals: np.ndarray
    nus: np.ndarray
    gram_inverses: list
    noise_var: float
    h_ammse: np.ndarray
    skipped: bool        # a collinear candidate was skipped at some stage
    underflow: bool      # the posteriors fell back to uniform

    @property
    def detected_taps(self) -> np.ndarray:
        """The largest support, in selection order."""
        return self.supports[-1]


def support_metric(support, y, sensing_rows, lambdas: np.ndarray,
                   noise_var: float) -> float:
    """nu(S) for one explicit support set (empty set allowed)."""
    if noise_var <= 0:
        raise ConfigurationError("noise_var must be positive")
    y = np.asarray(y)
    support = np.asarray(support, dtype=int)
    base, gain = _prior_terms(lambdas)
    if support.size == 0:
        residual2 = float(np.vdot(y, y).real)
    else:
        a_s = np.asarray(sensing_rows)[:, support]
        check_conditioning(a_s)
        q, _ = np.linalg.qr(a_s)
        proj = q @ (q.conj().T @ y)
        residual2 = float(np.vdot(y - proj, y - proj).real)
    return -residual2 / (2.0 * noise_var) + base + float(gain[support].sum())


def blue_estimate(a_s, y):
    """Least squares on a fixed support: (A_S^H A_S)^-1 A_S^H y."""
    a_s = np.atleast_2d(np.asarray(a_s))
    check_conditioning(a_s)
    coef, *_ = np.linalg.lstsq(a_s, np.asarray(y), rcond=None)
    return coef


def greedy_search(sensing_rows, y, lambdas: np.ndarray, noise_var: float,
                  t_max: int) -> SparseEstimate:
    """Grow the nested dominant-support chain of sizes 1..t_max on one
    observation vector, scoring every single-index extension per stage
    (the first of equal scores wins) and skipping candidates that would
    make the support Gram matrix numerically singular."""
    # contiguous copies pin the BLAS kernels: results are then bit-identical
    # for equal values regardless of the caller's array layout
    a = np.ascontiguousarray(sensing_rows, dtype=complex)
    y = np.ascontiguousarray(y, dtype=complex)
    k, length = a.shape
    if noise_var <= 0:
        raise ConfigurationError("noise_var must be positive")
    if t_max < 1 or t_max > min(k, length):
        raise ConfigurationError(f"t_max={t_max} must lie in [1, min(K, L)]")

    base, gain = _prior_terms(lambdas)
    col_norm2 = np.einsum("ij,ij->j", a.conj(), a).real

    b = a.copy()                      # columns orthogonalized against the chain
    r = y.copy()                      # current residual P_S_perp y
    res2 = float(np.vdot(y, y).real)
    prior_term = base
    q_basis = np.zeros((k, t_max), dtype=complex)     # orthonormal basis of A_S
    qty = np.zeros(t_max, dtype=complex)              # Q^H y
    r_fact = np.zeros((t_max, t_max), dtype=complex)  # A_S = Q R
    available = np.ones(length, dtype=bool)

    chosen: list[int] = []
    supports, nus, residuals, means, gram_invs = [], [], [], [], []
    skipped = False

    for stage in range(t_max):
        b2 = np.einsum("ij,ij->j", b.conj(), b).real
        valid = available & (b2 > COLLINEARITY_TOL**2 * col_norm2)
        if not valid.any():
            break
        skipped |= bool((available & ~valid).any())

        bhr = b.conj().T @ r
        drop = np.zeros(length)
        drop[valid] = np.abs(bhr[valid]) ** 2 / b2[valid]
        nu_cand = np.where(
            valid, -(res2 - drop) / (2.0 * noise_var) + prior_term + gain, -np.inf
        )
        j = int(np.argmax(nu_cand))

        q = b[:, j] / np.sqrt(b2[j])
        r_fact[:stage, stage] = q_basis[:, :stage].conj().T @ a[:, j]
        r_fact[stage, stage] = np.sqrt(b2[j])
        q_basis[:, stage] = q
        qty[stage] = np.vdot(q, r)

        r = r - q * qty[stage]
        res2 = max(res2 - drop[j], 0.0)
        prior_term += gain[j]
        b = b - np.outer(q, q.conj() @ b)
        available[j] = False
        chosen.append(j)

        supports.append(np.array(chosen))
        nus.append(-res2 / (2.0 * noise_var) + prior_term)
        residuals.append(res2)

        rr = r_fact[: stage + 1, : stage + 1]
        means.append(np.linalg.solve(rr, qty[: stage + 1]))
        rinv = np.linalg.inv(rr)
        gram_invs.append(rinv @ rinv.conj().T)

    if not supports:
        raise IllConditionedSupportError("no usable sensing column found")

    nus = np.asarray(nus)
    posteriors, underflow = _normalize_log_posteriors(nus)
    h = np.zeros(length, dtype=complex)
    for weight, support, mean in zip(posteriors, supports, means):
        h[support] += weight * mean
    return SparseEstimate(
        supports=supports, posteriors=posteriors, cond_means=means,
        residuals=np.asarray(residuals), nus=nus, gram_inverses=gram_invs,
        noise_var=noise_var, h_ammse=h, skipped=skipped, underflow=bool(underflow),
    )


def gram_search_oracle(gram, corr, y_norm2, lambdas, noise_vars, t_max) -> ChainStack:
    """``greedy_search_batch``'s chains with the full log posterior of every
    candidate as the stage key and R^-1 from ``np.linalg.inv``."""
    gram = np.asarray(gram, dtype=complex)
    gram = gram if gram.ndim == 3 else gram[None]
    corr = np.asarray(corr, dtype=complex)
    n, length = corr.shape
    noise_vars = np.asarray(noise_vars, dtype=float)
    prior_term, gain = _prior_terms(np.broadcast_to(lambdas, (n, length)))
    col_norm2 = np.einsum("...jj->...j", gram).real
    rows = np.arange(n)
    gram_rows = rows if gram.shape[0] > 1 else 0
    two_nv = 2.0 * noise_vars

    b2 = np.broadcast_to(col_norm2, (n, length)).copy()
    bhr = corr.copy()
    res2 = np.asarray(y_norm2, dtype=float).copy()
    w = np.zeros((n, t_max, length), dtype=complex)
    r_fact = np.zeros((n, t_max, t_max), dtype=complex)
    qty = np.zeros((n, t_max), dtype=complex)
    chosen = np.zeros((n, t_max), dtype=int)
    nus = np.zeros((n, t_max))
    residuals = np.zeros((n, t_max))
    available = np.ones((n, length), dtype=bool)
    lengths = np.zeros(n, dtype=int)
    stopped = np.zeros(n, dtype=bool)
    skipped = np.zeros(n, dtype=bool)

    for stage in range(t_max):
        valid = available & (b2 > COLLINEARITY_TOL**2 * col_norm2)
        stopped |= ~valid.any(axis=1)
        lengths += ~stopped
        skipped |= ~stopped & (available & ~valid).any(axis=1)
        drop = np.where(valid, np.abs(bhr) ** 2 / np.where(valid, b2, 1.0), 0.0)
        nu_cand = np.where(
            valid,
            -(res2[:, None] - drop) / two_nv[:, None] + prior_term[:, None] + gain,
            -np.inf,
        )
        j = np.argmax(nu_cand, axis=1)

        norm = np.sqrt(np.where(stopped, 1.0, b2[rows, j]))
        q_a = w[rows, :stage, j].conj()
        g_col = gram[gram_rows, :, j]
        w_new = (g_col - (q_a[:, None, :] @ w[:, :stage])[:, 0]) / norm[:, None]
        r_fact[:, :stage, stage] = q_a
        r_fact[:, stage, stage] = norm
        qty[:, stage] = bhr[rows, j] / norm
        w[:, stage] = w_new

        res2 = np.maximum(res2 - drop[rows, j], 0.0)
        prior_term = prior_term + gain[rows, j]
        nus[:, stage] = -res2 / two_nv + prior_term
        residuals[:, stage] = res2
        b2 -= np.abs(w_new) ** 2
        bhr -= w_new * qty[:, stage, None]
        available[rows, j] = False
        chosen[:, stage] = j

    pad = np.arange(t_max) >= lengths[:, None]
    for array, fill in ((chosen, 0), (nus, -np.inf), (qty, 0.0)):
        np.copyto(array, fill, where=pad)
    np.copyto(r_fact, np.eye(t_max), where=pad[:, None, :])
    posteriors = np.zeros((n, t_max))
    underflow = np.zeros(n, dtype=bool)
    for s in set(lengths.tolist()) - {0}:
        group = lengths == s
        posteriors[group, :s], underflow[group] = _normalize_log_posteriors(nus[group, :s])
    r_inv = np.linalg.inv(r_fact)
    stack = ChainStack(
        chosen=chosen, nus=nus, residuals=residuals, posteriors=posteriors,
        r_factors=r_fact, r_inverses=r_inv, qty=qty,
        taps=np.zeros((n, length), dtype=complex), noise_vars=noise_vars,
        lengths=lengths, skipped=skipped, underflow=underflow,
    )
    coef = (r_inv @ (stack.tail_weights() * qty)[:, :, None])[:, :, 0]
    stack.scatter(coef, out=stack.taps)
    return stack


def exhaustive_estimate(sensing_rows, y, lambdas: np.ndarray, noise_var: float,
                        max_size: int):
    """Score every support of size 1..max_size (L <= 12 only).  Returns
    (supports, posteriors, means, h_ammse) with posteriors normalized over
    the full enumeration."""
    a = np.asarray(sensing_rows)
    length = a.shape[1]
    if length > 12:
        raise ConfigurationError("exhaustive enumeration is limited to L <= 12")
    supports, nus, means = [], [], []
    for size in range(1, max_size + 1):
        for combo in combinations(range(length), size):
            s = np.array(combo)
            try:
                nu = support_metric(s, y, a, lambdas, noise_var)
                mean = blue_estimate(a[:, s], y)
            except IllConditionedSupportError:
                continue
            supports.append(s)
            nus.append(nu)
            means.append(mean)
    posteriors, _ = _normalize_log_posteriors(np.asarray(nus))
    h = np.zeros(length, dtype=complex)
    for weight, s, mean in zip(posteriors, supports, means):
        h[s] += weight * mean
    return supports, posteriors, means, h


def exhaustive_marginals(sensing_rows, y, lambdas: np.ndarray, noise_var: float,
                         max_size: int) -> np.ndarray:
    """Length-L marginals over *all* supports of size 1..max_size, not just
    subsets of the detected taps (L <= 12 only)."""
    supports, posteriors, _, _ = exhaustive_estimate(sensing_rows, y, lambdas, noise_var,
                                                     max_size)
    marginals = np.zeros(np.asarray(sensing_rows).shape[1])
    for s, weight in zip(supports, posteriors):
        marginals[s] += weight
    return marginals


def lattice_oracle(detected, sensing_rows, y, lambdas: np.ndarray, noise_var: float):
    """The detected-tap lattice evaluated from scratch: every nonempty
    subset (by size, then lexicographic in detection order) scored by
    ``support_metric``.  A subset that ``check_conditioning`` refuses is
    scored on its independent columns (``independent_taps``) plus the prior
    gains of the dropped taps: a dependent column adds nothing to the fit.
    Returns (subsets, posteriors, marginals), the marginals aligned with
    ``detected``."""
    detected = np.asarray(detected)
    positions = [combo for size in range(1, detected.size + 1)
                 for combo in combinations(range(detected.size), size)]
    subsets = [detected[list(combo)] for combo in positions]
    _, gain = _prior_terms(lambdas)

    def score(support):
        try:
            return support_metric(support, y, sensing_rows, lambdas, noise_var)
        except IllConditionedSupportError:
            kept = independent_taps(sensing_rows, support)
            dropped = np.setdiff1d(support, kept)
            return (support_metric(kept, y, sensing_rows, lambdas, noise_var)
                    + float(gain[dropped].sum()))

    nus = np.array([score(s) for s in subsets])
    posteriors, _ = _normalize_log_posteriors(nus)
    marginals = np.zeros(detected.size)
    for combo, weight in zip(positions, posteriors):
        marginals[list(combo)] += weight
    return subsets, posteriors, marginals


def independent_taps(sensing_rows, support) -> np.ndarray:
    """The taps of ``support`` kept in order when each is dropped whose
    column, orthogonalized against the kept ones, has at most
    ``COLLINEARITY_TOL**2`` of its squared norm left: the pivot rule of
    the lattice's Cholesky elimination, on explicit columns."""
    a = np.asarray(sensing_rows)
    kept = []
    for tap in support:
        column = a[:, tap]
        left = column
        if kept:
            q, _ = np.linalg.qr(a[:, kept])
            left = column - q @ (q.conj().T @ column)
        if np.vdot(left, left).real > COLLINEARITY_TOL**2 * np.vdot(column, column).real:
            kept.append(tap)
    return np.array(kept, dtype=int)


def error_covariance(estimate: SparseEstimate) -> np.ndarray:
    """sigma_w^2 sum_S p(S|y) (A_S^H A_S)^-1 as the T x T block on the
    detected taps, in selection order."""
    size = estimate.detected_taps.size
    matrix = np.zeros((size, size), dtype=complex)
    for weight, support, ginv in zip(
        estimate.posteriors, estimate.supports, estimate.gram_inverses
    ):
        matrix[: support.size, : support.size] += weight * ginv
    return estimate.noise_var * matrix


def full_covariance_oracle(estimate: SparseEstimate) -> np.ndarray:
    """The L x L posterior-weighted covariance sum, support by support."""
    length = estimate.h_ammse.size
    matrix = np.zeros((length, length), dtype=complex)
    for weight, support, ginv in zip(
        estimate.posteriors, estimate.supports, estimate.gram_inverses
    ):
        matrix[np.ix_(support, support)] += weight * ginv
    return estimate.noise_var * matrix


def assign_scores(estimate: SparseEstimate) -> np.ndarray:
    """Integer scores over all L taps: T for the largest detected amplitude
    down to 1 for the smallest, zero off the detected set; equal amplitudes
    rank the lower tap index higher."""
    taps = estimate.detected_taps
    order = np.lexsort((taps, -np.abs(estimate.h_ammse[taps])))
    scores = np.zeros(estimate.h_ammse.size)
    scores[taps[order]] = np.arange(taps.size, 0, -1)
    return scores


def per_currency_grid(kind, observations, sensing_rows, config, depth) -> GridEstimate:
    """One currency's grid pipeline from the (M, G, K) observations: its own
    uniform-prior first pass, ``depth`` averaging rounds, beliefs to priors
    and the final pass, with the production solver, lattice and rounds."""
    n_obs, length = sensing_rows.shape
    grid = observations.shape[:2]
    t_max = search_depth(length, config.lambda_init, n_obs)
    ys = np.ascontiguousarray(observations, dtype=complex).reshape(-1, n_obs)
    noise_vars = np.full(ys.shape[0], config.noise_var)
    lambdas = np.full((ys.shape[0], length), config.lambda_init)
    first = search_rows(sensing_rows, ys, lambdas, noise_vars, t_max)
    if kind is BeliefKind.MARGINAL:
        values = first.scatter(lattice_marginals(first, lambdas))
    else:
        values = _rank_scores(first)
    detected = first.scatter(np.ones(first.chosen.shape, dtype=bool)).reshape(*grid, length)
    gate = stencil_reduce(detected, np.logical_or)
    values = values.reshape(*grid, length)
    for i in range(depth):
        if kind is BeliefKind.MARGINAL:
            values = average_marginals_round(values, gate)
        else:
            values = average_scores_round(values, gate, final=(i == depth - 1))
    scale = t_max if kind is BeliefKind.SCORE else 1
    priors = scores_to_beliefs(values, scale)
    final = search_rows(sensing_rows, ys, priors.reshape(-1, length), noise_vars, t_max)
    return GridEstimate(
        taps=final.taps.reshape(*grid, length), support=final.chosen.reshape(*grid, t_max),
        error_cov=error_covariances(final).reshape(*grid, t_max, t_max), priors=priors,
        failed=final.failed.reshape(grid),
    )


def freq_response_oracle(h, n_carriers):
    return np.fft.fft(h, n=n_carriers) / np.sqrt(n_carriers)


def equalize_oracle(received, freq_resp):
    bad = np.abs(freq_resp) < ZF_MIN_GAIN
    equalized = received / np.where(bad, 1.0, freq_resp)
    equalized[bad] = 0.0
    return equalized, bad


def equalize_masked_oracle(received, freq_resp):
    bad = np.abs(freq_resp) < ZF_MIN_GAIN
    equalized = np.zeros(received.shape, dtype=np.result_type(received, freq_resp))
    np.divide(received, freq_resp, out=equalized, where=~bad)
    return equalized, bad


def synthesize_received_oracle(sensing_rows, h, noise_var, rng):
    received = np.asarray(h @ np.asarray(sensing_rows).T, dtype=complex)
    sigma = np.sqrt(noise_var / 2.0)
    received.real += rng.normal(0.0, sigma, size=received.shape)
    received.imag += rng.normal(0.0, sigma, size=received.shape)
    return received


def reestimation_inputs_oracle(symbols, pilot_indices, observations, consensus, decisions,
                               alphabet, length):
    n_ant, n_carriers = observations.shape
    on_pilot = np.zeros(n_carriers, dtype=bool)
    on_pilot[pilot_indices] = True
    pilot_symbols = np.where(on_pilot, symbols, 0.0)
    lags = np.empty((n_ant, 2 * length - 1), dtype=complex)
    corr = np.empty((n_ant, length), dtype=complex)
    y_norm2 = np.empty(n_ant)
    for start in range(0, n_ant, ANTENNA_CHUNK):
        chunk = slice(start, start + ANTENNA_CHUNK)
        used = consensus[chunk] | on_pilot
        s = np.where(consensus[chunk], alphabet.points[decisions[chunk]], pilot_symbols)
        y = np.where(used, observations[chunk], 0.0)
        gram_row, s_hy = np.fft.ifft(np.stack([np.abs(s) ** 2, s.conj() * y]), axis=-1)
        lags[chunk, :length - 1] = gram_row[:, n_carriers - length + 1:]
        lags[chunk, length - 1:] = gram_row[:, :length]
        corr[chunk] = np.sqrt(n_carriers) * s_hy[:, :length]
        y_norm2[chunk] = np.einsum("ij,ij->i", y.conj(), y).real
    return lags, corr, y_norm2


def equalize_and_slice(received, freq_resp, alphabet):
    """Zero-forcing detection: ``equalize`` then nearest-point slicing.
    Returns (equalized, hard_decisions, undecodable_mask)."""
    equalized, bad = equalize(received, freq_resp)
    return equalized, qam_slice(alphabet, equalized), bad


def top_carriers_oracle(base, observations_full, symbols, alphabet, eligible, budgets,
                        noise_var):
    """``data_aided._top_carriers`` with the reliabilities and the stable
    sort run on every chunk: (top, decisions, undecodable), (M, G, N) each."""
    n_carriers, length = symbols.shape[0], base.taps.shape[-1]
    n_ant = base.failed.size
    taps = base.taps.reshape(n_ant, length)
    observations = observations_full.reshape(n_ant, n_carriers)
    support = base.support.reshape(n_ant, -1)
    error_cov = base.error_cov.reshape(n_ant, *base.error_cov.shape[-2:])
    budgets = budgets.reshape(n_ant)
    top = np.empty((n_ant, n_carriers), dtype=bool)
    decisions = np.empty((n_ant, n_carriers), dtype=np.min_scalar_type(alphabet.order - 1))
    undecodable = np.empty((n_ant, n_carriers), dtype=bool)
    for start in range(0, n_ant, ANTENNA_CHUNK):
        chunk = slice(start, start + ANTENNA_CHUNK)
        equalized, bad = equalize(observations[chunk], freq_response(taps[chunk], n_carriers))
        nearest = alphabet.nearest_levels(equalized)
        decisions[chunk] = alphabet.indices_from_levels(nearest)
        undecodable[chunk] = bad
        variance = distortion_covariance(symbols, error_cov[chunk], noise_var,
                                         taps=support[chunk])
        reliability = carrier_reliability(equalized, variance, alphabet, nearest)
        top[chunk] = top_reliable(reliability, eligible & ~bad, budgets[chunk])
    shape = (*base.failed.shape, n_carriers)
    return top.reshape(shape), decisions.reshape(shape), undecodable.reshape(shape)


@dataclass
class EagerReliableSet:
    own_top: np.ndarray
    consensus: np.ndarray
    agreed_symbols: np.ndarray


def eager_reliable_sets(top, consensus, decisions, alphabet) -> list:
    """``[row][col]`` views of (M, G, N) top, consensus and decision arrays
    with every field computed as the set is built."""
    sets = []
    for r in range(top.shape[0]):
        row = []
        for c in range(top.shape[1]):
            agreed = np.flatnonzero(consensus[r, c])
            row.append(EagerReliableSet(
                own_top=np.flatnonzero(top[r, c]),
                consensus=agreed,
                agreed_symbols=alphabet.points[decisions[r, c, agreed]],
            ))
        sets.append(row)
    return sets


def qam_slice(alphabet, symbols):
    """Hard decisions: the nearest constellation point of each symbol."""
    return alphabet.points[alphabet.indices_from_levels(alphabet.nearest_levels(symbols))]


def bit_words_oracle(alphabet, indices):
    """The (..., k) bit words, MSB first, of point indices: ``points[v]``
    carries the bits of the integer v."""
    shifts = np.arange(alphabet.bits_per_symbol - 1, -1, -1)
    return ((np.asarray(indices)[..., None] >> shifts) & 1).astype(np.int8)


def indices_from_bits(alphabet, bits):
    """Pack bits (..., k) MSB-first into symbol indices, the inverse of
    ``bit_words_oracle``."""
    k = alphabet.bits_per_symbol
    weights = 1 << np.arange(k - 1, -1, -1)
    return np.asarray(bits).reshape(-1, k) @ weights


def nearest_levels_oracle(alphabet, symbols):
    """``QamAlphabet.nearest_levels`` as a running minimum that starts from
    a zero pick and updates after every level, the last one included."""
    axes = as_axes(symbols)
    dtype = np.min_scalar_type(alphabet.levels.size - 1)
    nearest = np.zeros(axes.shape, dtype=dtype)
    best = np.abs(axes - alphabet.levels[0])
    for k in range(1, alphabet.levels.size):
        dist = np.abs(axes - alphabet.levels[k])
        np.maximum(nearest, np.multiply(dist < best, k, dtype=dtype), out=nearest)
        np.minimum(best, dist, out=best)
    return nearest


def sq_distances_oracle(alphabet, symbols):
    """|x - points[v]|^2 for every symbol x and index v, shape (..., Q)."""
    x = np.asarray(symbols)
    d2 = np.empty(x.shape + (alphabet.order,))
    for v, point in enumerate(alphabet.points):
        d2[..., v] = np.abs(x - point) ** 2
    return d2


def nearest_indices_oracle(alphabet, symbols, sq_distances=None):
    """Nearest point index per symbol from Q passes over the points in
    lexicographic (real, imag) order, so the lex-smallest of equally near
    points wins; ``sq_distances`` is ``sq_distances_oracle`` of the symbols
    when the caller already holds it."""
    x = np.asarray(symbols)
    if sq_distances is None:
        sq_distances = sq_distances_oracle(alphabet, x)
    lex_order = np.lexsort((alphabet.points.imag, alphabet.points.real))
    nearest = np.full(x.shape, lex_order[0])
    best = np.full(x.shape, np.inf)
    for v in lex_order:
        d2 = sq_distances[..., v]
        nearest[d2 < best] = v
        np.minimum(best, d2, out=best)
    return nearest


def neighbors(shape, antenna) -> list:
    """In-grid 4-neighborhood (up, down, left, right) of an antenna on a
    (rows, cols) grid."""
    rows, cols = shape
    r, c = antenna
    if not (0 <= r < rows and 0 <= c < cols):
        raise IndexError(f"antenna {antenna} outside {rows}x{cols} grid")
    out = []
    if r > 0:
        out.append((r - 1, c))
    if r < rows - 1:
        out.append((r + 1, c))
    if c > 0:
        out.append((r, c - 1))
    if c < cols - 1:
        out.append((r, c + 1))
    return out


def somp_loop_oracle(shape, observations, sensing_rows, n_taps):
    """Per-antenna SOMP over the in-grid neighborhood; returns ((M, G, L)
    taps, [row][col] selected tap lists in pick order)."""
    a = np.ascontiguousarray(sensing_rows, dtype=complex)
    n_obs, length = a.shape
    col_norm = np.sqrt(np.einsum("ij,ij->j", a.conj(), a).real)
    rows, cols = shape
    taps = np.zeros((rows, cols, length), dtype=complex)
    picks = [[[] for _ in range(cols)] for _ in range(rows)]
    for r, c in np.ndindex(rows, cols):
        members = [(r, c)] + neighbors(shape, (r, c))
        ys = np.ascontiguousarray(
            np.stack([observations[mr, mc] for mr, mc in members], axis=1)
        )
        residual = ys.copy()
        selected = picks[r][c]
        for _ in range(min(n_taps, n_obs)):
            corr = a.conj().T @ residual
            score = np.sqrt((np.abs(corr) ** 2).sum(axis=1)) / col_norm
            score[selected] = -1.0
            selected.append(int(np.argmax(score)))
            coef, *_ = np.linalg.lstsq(a[:, selected], ys, rcond=None)
            residual = ys - a[:, selected] @ coef
        if selected:
            taps[r, c, selected] = coef[:, 0]
    return taps, picks


def oracle_ls_loop_oracle(sensing_rows, observations, supports):
    """``blue_estimate`` on each antenna's support: (..., K) observations
    and (..., S) supports give (..., L) taps."""
    a = np.asarray(sensing_rows)
    supports = np.asarray(supports, dtype=int)
    y = np.asarray(observations).reshape(-1, a.shape[0])
    slots = supports.reshape(-1, supports.shape[-1])
    taps = np.zeros((slots.shape[0], a.shape[1]), dtype=complex)
    for b, support in enumerate(slots):
        taps[b, support] = blue_estimate(a[:, support], y[b])
    return taps.reshape(supports.shape[:-1] + (a.shape[1],))


def generate_channels_loop_oracle(shape, channel_len, sparsity, mode, drift, rng,
                                  tap_dist="rayleigh", power_profile="flat"):
    """(taps, support) of ``generate_channels`` on a (rows, cols) grid,
    filled antenna by antenna from a per-diagonal list of SVA walk slots."""
    rows, cols = shape
    if mode == "SIA" or drift == 0.0:
        base = np.sort(rng.choice(channel_len, size=sparsity, replace=False))
        slots = np.broadcast_to(base, (rows, cols, sparsity)).copy()
    else:
        current = np.sort(rng.choice(channel_len, size=sparsity, replace=False))
        per_diagonal = [current.copy()]
        for _ in range(1, rows + cols - 1):
            if drift > 0 and rng.random() < drift:
                current = _migrate_one(current, channel_len, rng)
            per_diagonal.append(current.copy())
        slots = np.zeros((rows, cols, sparsity), dtype=int)
        for r, c in np.ndindex(rows, cols):
            slots[r, c] = per_diagonal[r + c]
    gains = np.ones(sparsity) if power_profile == "flat" else geometric_gains(sparsity, rng)

    taps = np.zeros((rows, cols, channel_len), dtype=complex)
    support = np.zeros((rows, cols, channel_len), dtype=bool)
    draws = _draw_taps(rng, rows * cols * sparsity, TAP_SAMPLERS[tap_dist]).reshape(
        rows, cols, sparsity
    )
    for r, c in np.ndindex(rows, cols):
        taps[r, c, slots[r, c]] = gains * draws[r, c]
        support[r, c, slots[r, c]] = True
    return taps, support


def read_channels_csv(path, rows, cols, channel_len):
    """(taps, support), (rows, cols, L) each, of a ``channels_to_csv`` file."""
    taps = np.zeros((rows, cols, channel_len), dtype=complex)
    support = np.zeros((rows, cols, channel_len), dtype=bool)
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            at = int(row["antenna_row"]), int(row["antenna_col"]), int(row["tap_index"])
            taps[at] = float(row["re"]) + 1j * float(row["im"])
            support[at] = True
    return taps, support


def channels_to_csv_loop_oracle(taps, path):
    """``channels_to_csv`` antenna by antenna."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["antenna_row", "antenna_col", "tap_index", "re", "im"])
        rows, cols, _ = taps.shape
        for r in range(rows):
            for c in range(cols):
                for tap in np.flatnonzero(taps[r, c]):
                    value = taps[r, c, tap]
                    writer.writerow(
                        [r, c, int(tap), repr(float(value.real)), repr(float(value.imag))]
                    )


def truncated_dft(n_carriers: int, channel_len: int) -> np.ndarray:
    """First ``channel_len`` columns of the unitary N-point DFT matrix."""
    k = np.arange(n_carriers)[:, None]
    l = np.arange(channel_len)[None, :]
    return np.exp(-2j * np.pi * k * l / n_carriers) / np.sqrt(n_carriers)


def dense_rows(frame, channel_len: int) -> np.ndarray:
    """The N x L rows diag(s) F_L of a frame, the matrix the FFT synthesis
    replaced."""
    return frame.freq_symbols[:, None] * truncated_dft(frame.n_carriers, channel_len)


SPEED_OF_LIGHT = 2.998e8  # m/s


def classify_array(rows: int, cols: int, spacing_m: float, bandwidth_hz: float) -> tuple:
    """(mode, d_max_m): "SIA" when the farthest antennas cannot resolve
    distinct delays.

    Two taps are resolvable when their arrival-time difference exceeds
    1/(10*BW); the largest arrival-time difference across the array is
    d_max/C with d_max = (max(M, G) - 1) * d.
    """
    d_max = (max(rows, cols) - 1) * spacing_m
    threshold = SPEED_OF_LIGHT / (10.0 * bandwidth_hz)
    return ("SIA" if d_max <= threshold else "SVA"), d_max


def recommended_D(spacing_m: float, bandwidth_hz: float) -> int:
    """Largest sharing depth whose whole neighborhood stays support-invariant:
    floor(C / (20 * d * BW))."""
    if spacing_m <= 0 or bandwidth_hz <= 0:
        raise ConfigurationError("spacing and bandwidth must be positive")
    return int(np.floor(SPEED_OF_LIGHT / (20.0 * spacing_m * bandwidth_hz)))


def lower_bound_D(sparsity: int, n_pilots: int) -> int:
    """Smallest integer depth D with D > sqrt(n - K/2 - 1/4) - 1/2.

    Guarantees the noise-free neighborhood observation count 2D(D+1)+1
    exceeds 2n - K; returns 0 when the radicand is nonpositive (bound
    vacuous).
    """
    radicand = sparsity - n_pilots / 2.0 - 0.25
    if radicand <= 0:
        return 0
    bound = np.sqrt(radicand) - 0.5
    return max(0, int(np.floor(bound)) + 1)


def tier_population(depth: int) -> int:
    """Antennas reached after ``depth`` sharing rounds, center included."""
    return 2 * depth * (depth + 1) + 1
