"""Greedy Bayesian matching-pursuit estimation of sparse vectors.

Estimates a length-L sparse vector h from K < L noisy linear observations
y = A h + w.  The prior on tap activity is independent non-identical
Bernoulli with probabilities ``lambdas``; nothing is assumed about the
distribution of the active tap values.  Support quality is scored by the
log posterior

    nu(S) = -||P_S_perp y||^2 / (2 sigma_w^2)
            + sum_{i in S} ln(lambda_i) + sum_{j not in S} ln(1 - lambda_j)

with P_S_perp = I - A_S (A_S^H A_S)^-1 A_S^H.  (The Gaussian likelihood's
normalization constant is support-independent and cancels once posteriors
are normalized, so it is omitted.)  Conditional means are replaced by the
best linear unbiased estimate (A_S^H A_S)^-1 A_S^H y, and the final
estimate is the posterior-weighted average of the zero-padded means over
the nested dominant-support chain.

Every solve is stacked: one ``ChainStack`` holds the chains of a stack
of observation vectors.  ``greedy_search_batch`` grows them in the Gram
domain, where the row count K drops out after one product.
``greedy_search_stack`` grows them with an order-recursive QR
factorization on shared rows: each stage scores all single-index
extensions of the previous support in O(K*L) by updating the
orthogonalized column residuals, never re-solving from scratch.
``search_rows`` is the entry point on shared rows and picks between the
two; ``gram_products`` forms the Gram-domain inputs from the rows.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, IllConditionedSupportError

#: prior probabilities are clamped to [PRIOR_EPS, 1 - PRIOR_EPS]
PRIOR_EPS = 1e-6

#: candidates whose orthogonalized column shrinks below this fraction of the
#: original norm are skipped (Gram condition number beyond ~1e12)
COLLINEARITY_TOL = 1e-6

#: de Moivre-Laplace percentile constant for sizing the support search
DML_Z = 2.0


def dml_support_size(length: int, lam: float, z: float = DML_Z) -> int:
    """Support-search depth slightly above the expected active count:
    ceil(L*lam + z*sqrt(L*lam*(1-lam))), capped at L.

    Scalar ``math``, not numpy: ``ExperimentSpec`` calls this at
    construction, before a sweep's first trial, and a numpy scalar call
    there raised a serial IB sweep's peak RSS by 0.7 MB (Python 3.11,
    numpy 2.4).  Both round alike: sqrt and ceil are exact IEEE operations.
    """
    expected = length * lam
    slack = z * math.sqrt(length * lam * (1.0 - lam))
    return min(length, math.ceil(expected + slack))


def search_depth(length: int, lam: float, n_obs: int) -> int:
    """The search depth t_max of every antenna: ``dml_support_size`` capped
    at the observation count, and at least 1."""
    return max(1, min(dml_support_size(length, lam), n_obs))


def check_conditioning(a_s: np.ndarray):
    """Raise IllConditionedSupportError unless every (K, S) matrix of the
    stack ``a_s`` (..., K, S) has S <= K well-conditioned columns."""
    n_obs, size = a_s.shape[-2:]
    if size > n_obs:
        raise IllConditionedSupportError(
            f"support size {size} exceeds observation count {n_obs}"
        )
    sv = np.linalg.svd(a_s, compute_uv=False)
    with np.errstate(divide="ignore", invalid="ignore"):
        bad = (sv[..., -1] == 0.0) | (
            (sv[..., 0] / sv[..., -1]) ** 2 > 1.0 / COLLINEARITY_TOL**2)
    if bad.any():
        raise IllConditionedSupportError("sensing columns numerically rank deficient")


def _prior_terms(lambdas: np.ndarray):
    """(base, per-index gain) of the log prior of the activity
    probabilities ``lambdas``, clamped to [PRIOR_EPS, 1 - PRIOR_EPS]; a
    stack of priors (B, L) gives a base per row."""
    lam = np.clip(np.asarray(lambdas, dtype=float), PRIOR_EPS, 1 - PRIOR_EPS)
    log_off = np.log1p(-lam)
    return log_off.sum(axis=-1), np.log(lam) - log_off


def _normalize_log_posteriors(nus: np.ndarray):
    """Normalize log posteriors along the last axis.  Rows whose weights
    do not sum to a positive finite total (all -inf among them) fall back
    to uniform and are flagged in the returned underflow mask."""
    with np.errstate(invalid="ignore", divide="ignore"):
        weights = np.exp(nus - nus.max(axis=-1, keepdims=True))
        total = weights.sum(axis=-1, keepdims=True)
        underflow = ~np.isfinite(total) | (total <= 0.0)
        posteriors = np.where(underflow, 1.0 / nus.shape[-1], weights / total)
    return posteriors, underflow[..., 0]


@dataclass
class ChainStack:
    """Greedy chains of a stack of B observation vectors, one row each.

    Row b holds a chain of ``lengths[b]`` <= T nested supports, the
    prefixes of ``chosen[b]``; a chain stops early when no usable candidate
    is left.  Positions past a row's length are padding: tap 0 in
    ``chosen``, log posterior -inf, posterior 0, an identity block in R and
    zero Q^H y, so every stacked formula gives zeros there.  ``r_factors``
    is R of A_S = Q R on the full chain, so stage s uses its leading s x s
    block and ``r_inverses`` the leading block of R^-1.
    """

    chosen: np.ndarray        # (B, T) tap indices, selection order
    nus: np.ndarray           # (B, T) log posterior of each chain prefix
    residuals: np.ndarray     # (B, T) ||P_S_perp y||^2 of each prefix
    posteriors: np.ndarray    # (B, T) normalized over the chain
    r_factors: np.ndarray     # (B, T, T) upper triangular
    r_inverses: np.ndarray    # (B, T, T) upper triangular
    qty: np.ndarray           # (B, T) Q^H y
    taps: np.ndarray          # (B, L) posterior-weighted combined estimate
    noise_vars: np.ndarray    # (B,)
    lengths: np.ndarray       # (B,) chain length
    skipped: np.ndarray       # (B,) a collinear candidate was skipped
    underflow: np.ndarray     # (B,) posteriors fell back to uniform

    @property
    def failed(self) -> np.ndarray:
        """(B,) rows without a single usable column."""
        return self.lengths == 0

    def active(self) -> np.ndarray:
        """(B, T) mask of the chain positions inside each row's length."""
        return np.arange(self.chosen.shape[1]) < self.lengths[:, None]

    def scatter(self, values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """(B, T) values per chain position -> (B, L) per tap, zero off the
        chain unless written into ``out``; padding positions are left out."""
        rows, pos = np.nonzero(self.active())
        if out is None:
            out = np.zeros((self.chosen.shape[0], self.taps.shape[1]), dtype=values.dtype)
        out[rows, self.chosen[rows, pos]] = values[rows, pos]
        return out

    def tail_weights(self) -> np.ndarray:
        """(B, T): posterior mass of the supports containing each chain
        position, sum_{s >= m} p_s; position m belongs to every prefix
        longer than m."""
        return np.cumsum(self.posteriors[:, ::-1], axis=1)[:, ::-1]


def greedy_search_batch(gram: np.ndarray, corr: np.ndarray, y_norm2: np.ndarray,
                        lambdas: np.ndarray, noise_vars: np.ndarray,
                        t_max: int) -> ChainStack:
    """The nested dominant-support chains of sizes 1..t_max for a stack of
    B observation vectors, in the Gram domain.

    At each stage every single-index extension of a row's support is
    scored and the best is kept; of equal computed scores the smallest tap
    index wins.  Candidates that would make the support Gram matrix
    numerically singular are skipped for that stage.

    ``gram`` is A^H A, shared (L, L) or one per row (B, L, L); ``corr`` is
    A^H y (B, L), ``y_norm2`` is ||y||^2 (B,), ``lambdas`` the activity
    priors (B, L) and ``noise_vars`` (B,).  The stage state is W = A^H Q
    (B, T, L) in place of the orthogonalized K x L columns:

        ||P_S_perp a_j||^2 = G_jj - sum_s |W_sj|^2
        a_j^H P_S_perp y   = (A^H y)_j - sum_s W_sj^* (Q^H y)_s

    so after the products above the work no longer depends on K.  Rows
    never interact: each row's result equals a one-row call's bit for bit.
    A row whose candidates run out stops there and is padded (see
    ``ChainStack``).

    Exact ties in the model are still decided by rounding, because their
    computed scores differ in the last bits.  One such tie is systematic:
    when t_max equals the row count and the prior is uniform, every free
    candidate at the last stage leaves a zero residual.
    ``greedy_search_stack`` settles those systems (see ``search_rows``).
    """
    gram = np.asarray(gram, dtype=complex)
    gram = gram if gram.ndim == 3 else gram[None]
    corr = np.asarray(corr, dtype=complex)
    n, length = corr.shape
    noise_vars = np.asarray(noise_vars, dtype=float)
    if not np.all(noise_vars > 0):  # NaN (a None noise_var) included
        raise ConfigurationError("noise_var must be positive")
    if t_max < 1 or t_max > length:
        raise ConfigurationError(f"t_max={t_max} must lie in [1, L]")

    prior_term, gain = _prior_terms(np.broadcast_to(lambdas, (n, length)))
    col_norm2 = np.einsum("...jj->...j", gram).real     # (1 or B, L)
    rows = np.arange(n)
    gram_rows = rows if gram.shape[0] > 1 else 0
    two_nv = 2.0 * noise_vars

    b2 = np.broadcast_to(col_norm2, (n, length)).copy()   # ||P_S_perp a_j||^2
    bhr = corr.copy()                                     # a_j^H P_S_perp y
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
        j = np.argmax(nu_cand, axis=1)  # first max = smallest tap index on ties

        # a stopped row carries finite filler, replaced by padding below
        norm = np.sqrt(np.where(stopped, 1.0, b2[rows, j]))
        q_a = w[rows, :stage, j].conj()                   # Q^H a_j, (B, stage)
        g_col = gram[gram_rows, :, j]                     # A^H a_j, (B, L)
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

    return _finish_chains(chosen, nus, residuals, r_fact, qty, noise_vars, lengths,
                          skipped, length)


def greedy_search_stack(sensing_rows: np.ndarray, ys: np.ndarray, lambdas: np.ndarray,
                        noise_vars: np.ndarray, t_max: int) -> ChainStack:
    """The chains of ``greedy_search_batch`` for a stack of B observation
    vectors ``ys`` (B, K) on shared rows A (K, L), grown in the K domain.

    Each row keeps its own orthogonalized columns (B, K, L) and residual
    (B, K), and every expression keeps the form of the one-vector
    recursion (``greedy_search`` in ``tests/oracles.py``; numpy hands each
    row of a stacked product to the kernel the 2-D call uses), so each row
    rounds as a one-vector call does and equals it bit for bit up to the
    combined taps.  The rank-filling tie (t_max == K) is therefore settled
    as that recursion settles it.  ``lambdas`` is
    (B, L) and ``noise_vars`` (B,); a row whose candidates run out stops
    and is padded (see ``ChainStack``), a row without a usable column has
    length 0.
    """
    a = np.ascontiguousarray(sensing_rows, dtype=complex)
    ys = np.ascontiguousarray(ys, dtype=complex)
    k, length = a.shape
    n = ys.shape[0]
    noise_vars = np.asarray(noise_vars, dtype=float)
    if not np.all(noise_vars > 0):
        raise ConfigurationError("noise_var must be positive")
    if t_max < 1 or t_max > min(k, length):
        raise ConfigurationError(f"t_max={t_max} must lie in [1, min(K, L)]")

    prior_term, gain = _prior_terms(np.broadcast_to(lambdas, (n, length)))
    col_norm2 = np.einsum("ij,ij->j", a.conj(), a).real
    rows = np.arange(n)
    two_nv = 2.0 * noise_vars

    b = np.broadcast_to(a, (n, k, length)).copy()     # columns orthogonalized per row
    b_conj = np.empty_like(b)
    r = ys.copy()                                       # residuals P_S_perp y
    res2 = _stacked_vdot(ys, ys).real
    q_basis = np.zeros((n, k, t_max), dtype=complex)
    # the picked column a_j as a strided vector, as a[:, j] of the 2-D
    # rows is: BLAS takes another gemv path for unit stride, which rounds R
    # apart
    a_col = np.zeros((n, k, 2), dtype=complex)
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
        np.conjugate(b, out=b_conj)
        b2 = np.einsum("bij,bij->bj", b_conj, b).real
        valid = available & (b2 > COLLINEARITY_TOL**2 * col_norm2)
        stopped |= ~valid.any(axis=1)
        lengths += ~stopped
        skipped |= ~stopped & (available & ~valid).any(axis=1)
        bhr = (b_conj.transpose(0, 2, 1) @ r[..., None])[..., 0]
        drop = np.where(valid, np.abs(bhr) ** 2 / np.where(valid, b2, 1.0), 0.0)
        nu_cand = np.where(
            valid,
            -(res2[:, None] - drop) / two_nv[:, None] + prior_term[:, None] + gain,
            -np.inf,
        )
        j = np.argmax(nu_cand, axis=1)  # first max = smallest tap index on ties

        # a stopped row carries finite filler, replaced by padding at the end
        norm = np.sqrt(np.where(stopped, 1.0, b2[rows, j]))
        q = b[rows, :, j] / norm[:, None]
        a_col[:, :, 0] = a.T[j]
        r_fact[:, :stage, stage] = (
            q_basis[:, :, :stage].conj().transpose(0, 2, 1) @ a_col[:, :, :1]
        )[..., 0]
        r_fact[:, stage, stage] = norm
        q_basis[:, :, stage] = q
        qty[:, stage] = _stacked_vdot(q, r)

        r -= q * qty[:, stage, None]
        res2 = np.maximum(res2 - drop[rows, j], 0.0)
        prior_term = prior_term + gain[rows, j]
        nus[:, stage] = -res2 / two_nv + prior_term
        residuals[:, stage] = res2
        b -= q[:, :, None] * (q.conj()[:, None, :] @ b)
        available[rows, j] = False
        chosen[:, stage] = j

    return _finish_chains(chosen, nus, residuals, r_fact, qty, noise_vars, lengths,
                          skipped, length)


def _stacked_vdot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``np.vdot`` of each row pair of two (B, K) stacks, as (B,) 1 x 1
    products, which round as ``np.vdot`` does."""
    return (x.conj()[:, None, :] @ y[:, :, None])[:, 0, 0]


def _finish_chains(chosen, nus, residuals, r_fact, qty, noise_vars, lengths, skipped,
                   length) -> ChainStack:
    """The stage loops' common tail: pad each row past its length (see
    ``ChainStack``), normalize its posteriors over its own chain, invert R
    and combine the taps."""
    n, t_max = chosen.shape
    pad = np.arange(t_max) >= lengths[:, None]
    for array, fill in ((chosen, 0), (nus, -np.inf), (qty, 0.0)):
        np.copyto(array, fill, where=pad)
    np.copyto(r_fact, np.eye(t_max), where=pad[:, None, :])
    # per chain length, so each row sums exactly the terms a one-vector call
    # sums (trailing zeros would regroup numpy's pairwise sum from 8 terms)
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
    # sum_s p_s (R_s^-1 Q_s^H y) zero-padded = R^-1 (tail weights * Q^H y)
    coef = (r_inv @ (stack.tail_weights() * qty)[:, :, None])[:, :, 0]
    stack.scatter(coef, out=stack.taps)
    return stack


def gram_products(sensing_rows: np.ndarray, ys: np.ndarray):
    """(A^H A, A^H y, ||y||^2) of observation vectors ``ys`` (B, K) on
    shared rows A (K, L): (L, L), (B, L) and (B,)."""
    a = np.ascontiguousarray(sensing_rows, dtype=complex)
    return a.conj().T @ a, ys @ a.conj(), np.einsum("bk,bk->b", ys.conj(), ys).real


def search_rows(sensing_rows: np.ndarray, ys: np.ndarray, lambdas: np.ndarray,
                noise_vars: np.ndarray, t_max: int) -> ChainStack:
    """One chain per observation vector ``ys`` (B, K) on shared rows A (K, L).

    When t_max fills the K rows, every free candidate ties at a zero
    residual in the last stage and rounding settles the pick, so those
    chains run the K-domain recursion (``greedy_search_stack``); all others
    run in the Gram domain on ``gram_products``.
    """
    if t_max < np.shape(sensing_rows)[0]:
        return greedy_search_batch(*gram_products(sensing_rows, ys), lambdas, noise_vars,
                                   t_max)
    return greedy_search_stack(sensing_rows, ys, lambdas, noise_vars, t_max)
