"""Greedy Bayesian matching-pursuit estimation of sparse vectors.

Estimates a length-L sparse vector h from K < L noisy linear observations
y = A h + w.  The prior on tap activity is independent non-identical
Bernoulli with probabilities ``lambdas``; nothing is assumed about the
distribution of the active tap values.  Support quality is scored by the
log posterior

    nu(S) = -||P_S_perp y||^2 / (2 sigma_w^2)
            + sum_{i in S} ln(lambda_i) + sum_{j not in S} ln(1 - lambda_j)

with P_S_perp = I - A_S (A_S^H A_S)^-1 A_S^H.  The data term is a
tempered likelihood, not the CN(0, sigma_w^2) one: that noise model's
log-likelihood is -||P_S_perp y||^2 / sigma_w^2, and the factor 2 (the
constant TEMPER, read by every log posterior here and in ``posterior``)
halves it.  (On a 5 x 5 grid with K = 16 pilots, 1 / sigma_w^2 in its
place made every grid algorithm 1.9-4.3 dB worse on Rayleigh taps.)
Support-independent constants cancel once posteriors are normalized, so
they are omitted.  Conditional means are replaced by the best linear
unbiased estimate (A_S^H A_S)^-1 A_S^H y, and the final estimate is the
posterior-weighted average of the zero-padded means over the nested
dominant-support chain.

Every solve is stacked: one ``ChainStack`` holds the chains of a stack
of observation vectors.  ``greedy_search_batch`` grows them in the Gram
domain, where the row count K drops out after one product.
``greedy_search_stack`` grows them with an order-recursive QR
factorization on shared rows: each stage scores all single-index
extensions of the previous support in O(K*L) by updating the
orthogonalized column residuals, never re-solving from scratch.  Both
keep only their candidate state; one ``_Chains`` record holds the rest,
from the stage's candidate mask to the padded result.
``search_rows`` is the entry point on shared rows and picks between the
two.

A stage extends support S by the candidate j with the largest

    |a_j^H P_S_perp y|^2 / ||P_S_perp a_j||^2 / (2 sigma_w^2) + gain_j,

gain_j = ln(lambda_j) - ln(1 - lambda_j).  The first term is the drop of
the residual energy; nu(S + j) adds the same residual and prior base to
every candidate of a row, so this key ranks them as nu(S + j) does.  The
Gram loop ranks by this key, the K-domain loop by nu(S + j) itself, in the
form of its one-vector oracle.  Both loops grow R^-1 next to R, with no
matrix inverse: for pick j at position s,

    R_{s+1} = [[R_s, c], [0, rho]],   R_{s+1}^-1 = [[R_s^-1, -R_s^-1 c / rho],
                                                    [0,      1 / rho      ]]

with c = Q^H a_j and rho = ||P_S_perp a_j||.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, IllConditionedSupportError

#: the likelihood temper: the data term of nu(S) is -||P_S_perp y||^2 /
#: (TEMPER sigma_w^2), half the CN(0, sigma_w^2) log-likelihood
TEMPER = 2.0

#: prior probabilities are clamped to [PRIOR_EPS, 1 - PRIOR_EPS]
PRIOR_EPS = 1e-6

#: candidates whose orthogonalized column shrinks below this fraction of the
#: original norm are skipped (Gram condition number beyond ~1e12)
COLLINEARITY_TOL = 1e-6

#: de Moivre-Laplace percentile constant for sizing the support search
DML_Z = 2.0


def search_depth(length: int, lam: float, n_obs: int) -> int:
    """The search depth t_max of every antenna, slightly above the expected
    active count: the de Moivre-Laplace bound
    ceil(L*lam + z*sqrt(L*lam*(1-lam))) with z = DML_Z, capped at L and at
    the observation count, and at least 1.

    Scalar ``math``, not numpy: ``ExperimentSpec`` calls this at
    construction, before a sweep's first trial, and a numpy scalar call
    there raised a serial IB sweep's peak RSS by 0.7 MB (Python 3.11,
    numpy 2.4).  Both round alike: sqrt and ceil are exact IEEE operations.
    """
    expected = length * lam
    slack = DML_Z * math.sqrt(length * lam * (1.0 - lam))
    return max(1, min(length, math.ceil(expected + slack), n_obs))


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


def _stack_prior_terms(lambdas: np.ndarray, n: int, length: int):
    """``_prior_terms`` of one prior row (L,) or of one per row (B, L),
    taken before broadcasting: base (B,) and gain (B, L), read-only."""
    base, gain = _prior_terms(lambdas)
    return np.broadcast_to(base, (n,)), np.broadcast_to(gain, (n, length))


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


class _Chains:
    """The state both stage loops share: the prior, the tempered noise
    ``scale`` = TEMPER sigma_w^2 (B,), the current residual energy ``res2``
    and the result's buffers, R and R^-1 grown (T, T, B), rows last.  A
    loop opens each stage with ``open_stage``, hands its picks to
    ``record`` and ends with ``finish``; ``t_limit`` is its largest t_max."""

    def __init__(self, n, length, t_max, t_limit, lambdas, noise_vars, y_norm2, col_norm2):
        self.noise_vars = noise_vars = np.full(n, noise_vars, dtype=float)
        if not np.all(noise_vars > 0):  # NaN (a None noise_var) included
            raise ConfigurationError("noise_var must be positive")
        if t_max < 1 or t_max > t_limit:
            raise ConfigurationError(f"t_max={t_max} must lie in [1, {t_limit}]")
        self.scale = TEMPER * noise_vars
        self.prior_term, self.gain = _stack_prior_terms(lambdas, n, length)
        self.threshold = COLLINEARITY_TOL**2 * col_norm2
        self.res2 = np.asarray(y_norm2, dtype=float)
        self.rows = np.arange(n)
        self.r_fact = np.zeros((t_max, t_max, n), dtype=complex)
        self.r_inv = np.zeros_like(self.r_fact)
        self.qty = np.zeros((n, t_max), dtype=complex)
        self.chosen = np.zeros((n, t_max), dtype=int)
        self.nus = np.zeros((n, t_max))
        self.residuals = np.zeros((n, t_max))
        self.available = np.ones((n, length), dtype=bool)
        self.valid = np.empty((n, length), dtype=bool)
        self.lengths = np.zeros(n, dtype=int)
        self.stopped = np.zeros(n, dtype=bool)
        self.skipped = np.zeros(n, dtype=bool)

    def open_stage(self, b2: np.ndarray) -> np.ndarray:
        """The (B, L) candidates of the next stage: available taps whose
        orthogonalized squared norm ``b2`` clears the collinearity bound.
        A row left without one stops; a row that passes over an available
        tap is flagged skipped."""
        valid = np.greater(b2, self.threshold, out=self.valid)
        valid &= self.available
        self.stopped |= ~valid.any(axis=1)
        self.lengths += ~self.stopped
        self.skipped |= ~self.stopped & (self.available != valid).any(axis=1)
        return valid

    def pivots(self, b2_j: np.ndarray):
        """(rho, 1 / rho) of the picks with squared norms ``b2_j`` (B,); a
        stopped row carries finite filler, replaced by padding at the end."""
        norm = np.sqrt(np.where(self.stopped, 1.0, b2_j))
        return norm, 1.0 / norm

    def record(self, stage, j, col, norm, inv_norm, qty, drop):
        """Record the picks ``j`` (B,) at position ``stage``: R's new column
        ``col`` = Q^H a_j (stage, B) above ``norm``, R^-1's from them,
        (Q^H y)_stage = ``qty``, and the residual energy less ``drop``."""
        self.r_fact[:stage, stage] = col
        self.r_fact[stage, stage] = norm
        _grow_inverse(self.r_inv, col, inv_norm, stage)
        self.qty[:, stage] = qty
        self.res2 = np.maximum(self.res2 - drop, 0.0)
        self.prior_term = self.prior_term + self.gain[self.rows, j]
        self.nus[:, stage] = -self.res2 / self.scale + self.prior_term
        self.residuals[:, stage] = self.res2
        self.available[self.rows, j] = False
        self.chosen[:, stage] = j

    def finish(self) -> ChainStack:
        """Lay R and R^-1 out per row, pad each row past its length (see
        ``ChainStack``), normalize its posteriors over its own chain and
        combine the taps."""
        chosen, nus, qty, lengths = self.chosen, self.nus, self.qty, self.lengths
        n, t_max = chosen.shape
        r_fact, r_inv = (np.ascontiguousarray(f.transpose(2, 0, 1))
                         for f in (self.r_fact, self.r_inv))
        pad = np.arange(t_max) >= lengths[:, None]
        for array, fill in ((chosen, 0), (nus, -np.inf), (qty, 0.0)):
            np.copyto(array, fill, where=pad)
        for factor in (r_fact, r_inv):
            np.copyto(factor, np.eye(t_max), where=pad[:, None, :])
        # per chain length, so each row sums exactly the terms a one-vector call
        # sums (trailing zeros would regroup numpy's pairwise sum from 8 terms)
        posteriors = np.zeros((n, t_max))
        underflow = np.zeros(n, dtype=bool)
        for s in set(lengths.tolist()) - {0}:
            group = lengths == s
            posteriors[group, :s], underflow[group] = _normalize_log_posteriors(nus[group, :s])
        stack = ChainStack(chosen=chosen, nus=nus, residuals=self.residuals, posteriors=posteriors,
                           r_factors=r_fact, r_inverses=r_inv, qty=qty, noise_vars=self.noise_vars,
                           taps=np.zeros((n, self.available.shape[1]), dtype=complex),
                           lengths=lengths, skipped=self.skipped, underflow=underflow)
        # sum_s p_s (R_s^-1 Q_s^H y) zero-padded = R^-1 (tail weights * Q^H y)
        coef = (r_inv @ (stack.tail_weights() * qty)[:, :, None])[:, :, 0]
        stack.scatter(coef, out=stack.taps)
        return stack


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
    priors, one row (L,) for every vector or one per row (B, L), and
    ``noise_vars`` a scalar or (B,).  The stage state is W = A^H Q
    (B, T, L) in place of the orthogonalized K x L columns:

        ||P_S_perp a_j||^2 = G_jj - sum_s |W_sj|^2
        a_j^H P_S_perp y   = (A^H y)_j - sum_s W_sj^* (Q^H y)_s

    so after the products above the work no longer depends on K.
    Candidates are ranked by the Gram loop's key (see the module
    docstring), into buffers allocated once per call.  Rows never interact:
    each row's result equals a one-row call's bit for bit.  A row whose
    candidates run out stops there and is padded (see ``ChainStack``).

    Exact ties in the model are still decided by rounding, because their
    computed scores differ in the last bits.  One such tie is systematic:
    when t_max equals the row count and the prior is uniform, every free
    candidate at the last stage leaves a zero residual.
    ``greedy_search_stack`` settles those systems (see ``search_rows``).
    """
    gram = np.asarray(gram, dtype=complex)
    # the pick's Gram column is read as a row of the transpose: a shared
    # Gram is transposed once, a Toeplitz view's columns are contiguous
    per_row = gram.ndim == 3
    gram_t = gram.transpose(0, 2, 1) if per_row else np.ascontiguousarray(gram.T)
    corr = np.asarray(corr, dtype=complex)
    n, length = corr.shape
    col_norm2 = np.einsum("...jj->...j", gram).real     # (L,) or (B, L)
    chains = _Chains(n, length, t_max, length, lambdas, noise_vars, y_norm2, col_norm2)
    rows = chains.rows

    b2 = np.broadcast_to(col_norm2, (n, length)).copy()   # ||P_S_perp a_j||^2
    bhr = corr.copy()                                     # a_j^H P_S_perp y
    # stage-major rows of W, each written whole before any stage reads it (the
    # first by a product over zero stages, which writes zeros)
    w = np.empty((t_max - 1, n, length), dtype=complex)
    score = np.empty((n, length))
    work = np.empty((n, length))
    update = np.empty((n, length), dtype=complex)

    for stage in range(t_max):
        valid = chains.open_stage(b2)
        _abs2(bhr, out=work, work=score)
        score.fill(-np.inf)
        np.divide(work, b2, out=score, where=valid)     # the drop of each candidate
        score /= chains.scale[:, None]
        score += chains.gain
        j = np.argmax(score, axis=1)  # first max = smallest tap index on ties

        b2_j = b2[rows, j]
        norm, inv_norm = chains.pivots(b2_j)
        drop_j = np.divide(work[rows, j], b2_j, out=np.zeros(n), where=~chains.stopped)
        q_a = w[:stage, rows, j].conj()                   # Q^H a_j, (stage, B)
        chains.record(stage, j, q_a, norm, inv_norm, bhr[rows, j] * inv_norm, drop_j)
        if stage == t_max - 1:
            break

        # W's new row (A^H a_j - sum_s W_s (Q^H a_j)_s) / norm; the candidates'
        # orthogonalized norms and correlations then lose its part
        w_new = w[stage]
        np.matmul(np.ascontiguousarray(q_a.T)[:, None, :], w[:stage].transpose(1, 0, 2),
                  out=w_new[:, None])
        np.subtract(gram_t[rows, j] if per_row else gram_t[j], w_new, out=w_new)
        np.multiply(w_new.view(float), inv_norm[:, None], out=w_new.view(float))
        _abs2(w_new, out=work, work=score)
        b2 -= work
        np.multiply(w_new, chains.qty[:, stage, None], out=update)
        bhr -= update

    return chains.finish()


def _abs2(z: np.ndarray, out: np.ndarray, work: np.ndarray) -> np.ndarray:
    """|z|^2 as re^2 + im^2 into ``out``, with ``work`` of the same shape."""
    np.square(z.real, out=out)
    np.square(z.imag, out=work)
    return np.add(out, work, out=out)


def _grow_inverse(r_inv: np.ndarray, col: np.ndarray, inv_norm: np.ndarray, stage: int):
    """Column ``stage`` of R^-1 (T, T, B), rows last, from R's new column:
    ``col`` (stage, B) above its diagonal ``1 / inv_norm``.  The leading
    block R_s^-1 is already in place, so the column is -R_s^-1 col / norm,
    summed over the earlier positions in order, and inv_norm on the
    diagonal."""
    new = r_inv[:stage, stage]
    for k in range(stage):
        new[:k + 1] += r_inv[:k + 1, k] * col[k]
    new *= -inv_norm
    r_inv[stage, stage] = inv_norm


def greedy_search_stack(sensing_rows: np.ndarray, ys: np.ndarray, lambdas: np.ndarray,
                        noise_vars: np.ndarray, t_max: int) -> ChainStack:
    """The chains of ``greedy_search_batch`` for a stack of B observation
    vectors ``ys`` (B, K) on shared rows A (K, L), grown in the K domain.

    Each row keeps its own orthogonalized columns (B, K, L) and residual
    (B, K), and every expression keeps the form of the one-vector
    recursion (``greedy_search`` in ``tests/oracles.py``; numpy hands each
    row of a stacked product to the kernel the 2-D call uses), so each row
    rounds as a one-vector call does and equals it bit for bit up to R^-1
    and the combined taps.  The rank-filling tie (t_max == K) is therefore
    settled as that recursion settles it.  ``lambdas`` and ``noise_vars``
    are taken as ``greedy_search_batch`` takes them; a row whose candidates
    run out stops and is padded (see ``ChainStack``), a row without a
    usable column has length 0.
    """
    a = np.ascontiguousarray(sensing_rows, dtype=complex)
    ys = np.ascontiguousarray(ys, dtype=complex)
    k, length = a.shape
    n = ys.shape[0]
    chains = _Chains(n, length, t_max, min(k, length), lambdas, noise_vars,
                     _stacked_vdot(ys, ys).real, np.einsum("ij,ij->j", a.conj(), a).real)
    rows = chains.rows

    b = np.broadcast_to(a, (n, k, length)).copy()     # columns orthogonalized per row
    b_conj = np.empty_like(b)
    r = ys.copy()                                       # residuals P_S_perp y
    q_basis = np.zeros((n, k, t_max), dtype=complex)
    # the picked column a_j as a strided vector, as a[:, j] of the 2-D
    # rows is: BLAS takes another gemv path for unit stride, which rounds R
    # apart
    a_col = np.zeros((n, k, 2), dtype=complex)

    for stage in range(t_max):
        np.conjugate(b, out=b_conj)
        b2 = np.einsum("bij,bij->bj", b_conj, b).real
        valid = chains.open_stage(b2)
        bhr = (b_conj.transpose(0, 2, 1) @ r[..., None])[..., 0]
        drop = np.where(valid, np.abs(bhr) ** 2 / np.where(valid, b2, 1.0), 0.0)
        nu_cand = np.where(
            valid,
            -(chains.res2[:, None] - drop) / chains.scale[:, None] + chains.prior_term[:, None]
            + chains.gain,
            -np.inf,
        )
        j = np.argmax(nu_cand, axis=1)  # first max = smallest tap index on ties

        norm, inv_norm = chains.pivots(b2[rows, j])
        q = b[rows, :, j] / norm[:, None]
        a_col[:, :, 0] = a.T[j]
        q_a = (q_basis[:, :, :stage].conj().transpose(0, 2, 1) @ a_col[:, :, :1])[..., 0].T
        q_basis[:, :, stage] = q
        chains.record(stage, j, q_a, norm, inv_norm, _stacked_vdot(q, r), drop[rows, j])
        if stage == t_max - 1:
            break

        # the residuals and the columns lose the new basis vector's part
        r -= q * chains.qty[:, stage, None]
        b -= q[:, :, None] * (q.conj()[:, None, :] @ b)

    return chains.finish()


def _stacked_vdot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``np.vdot`` of each row pair of two (B, K) stacks, as (B,) 1 x 1
    products, which round as ``np.vdot`` does."""
    return (x.conj()[:, None, :] @ y[:, :, None])[:, 0, 0]


def search_rows(sensing_rows: np.ndarray, ys: np.ndarray, lambdas: np.ndarray,
                noise_vars: np.ndarray, t_max: int) -> ChainStack:
    """One chain per observation vector ``ys`` (B, K) on shared rows A (K, L).

    When t_max fills the K rows, every free candidate ties at a zero
    residual in the last stage and rounding settles the pick, so those
    chains run the K-domain recursion (``greedy_search_stack``); all others
    run in the Gram domain on A^H A, A^H y and ||y||^2.
    """
    if t_max < np.shape(sensing_rows)[0]:
        a = np.ascontiguousarray(sensing_rows, dtype=complex)
        return greedy_search_batch(a.conj().T @ a, ys @ a.conj(),
                                   np.einsum("bk,bk->b", ys.conj(), ys).real,
                                   lambdas, noise_vars, t_max)
    return greedy_search_stack(sensing_rows, ys, lambdas, noise_vars, t_max)
