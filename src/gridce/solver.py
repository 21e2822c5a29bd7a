"""Greedy Bayesian matching-pursuit estimation of sparse vectors.

Estimates a length-L sparse vector h from K < L noisy linear observations
y = A h + w.  The prior on tap activity is independent non-identical
Bernoulli with probabilities ``lambdas``; nothing is assumed about the
distribution of the active tap values.  Support quality is scored by the
log posterior

    nu(S) = -||P_S_perp y||^2 / (2 sigma_w^2)
            + sum_{i in S} ln(lambda_i) + sum_{j not in S} ln(1 - lambda_j)

with P_S_perp = I - A_S (A_S^H A_S)^-1 A_S^H, formed by one function,
``_log_posterior``, for every support scored here.  The data term is a
tempered likelihood, not the CN(0, sigma_w^2) one: that noise model's
log-likelihood is -||P_S_perp y||^2 / sigma_w^2, and the factor 2 (the
constant TEMPER) halves it.  (On a 5 x 5 grid with K = 16 pilots,
1 / sigma_w^2 in its place made every grid algorithm 1.9-4.3 dB worse on
Rayleigh taps.)  Support-independent constants cancel once posteriors are
normalized, so they are omitted.  Conditional means are replaced by the
best linear unbiased estimate (A_S^H A_S)^-1 A_S^H y, and the final
estimate is the posterior-weighted average of the zero-padded means over
the nested dominant-support chain.

Every solve is stacked: one ``ChainStack`` holds the chains of a stack
of observation vectors.  ``greedy_search_batch`` grows them in the Gram
domain, where the row count K drops out after one product.
``greedy_search_stack`` grows them with an order-recursive QR
factorization on shared rows: each stage scores all single-index
extensions of the previous support in O(K*L) by updating the
orthogonalized column residuals, never re-solving from scratch.  It keeps
those columns conjugated, which rounds as its one-vector oracle does
without a conjugation per stage, and writes each stage into buffers
allocated once per call.  Both loops keep only their candidate state;
one ``_Chains`` record holds the rest, from the stage's candidate mask
to the padded result.
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

A finished stack yields two more things.  ``error_covariances`` gives
each row's posterior-weighted BLUE error covariance on its detected taps.
``lattice_marginals`` gives the belief that an individual detected tap
is active, which needs posteriors over the full lattice of 2^T - 1
nonempty subsets of the detected taps, not just the chain's nested
supports {a1}, {a1,a2}, ....  Subsets that are chain prefixes reuse the
chain's log posteriors; the remaining subsets are fitted fresh, per
subset size, by a Cholesky elimination written elementwise over all
subsets and antennas.  Lattice posteriors are normalized over the
lattice only -- supports involving undetected taps carry negligible mass
and are excluded by construction.  The per-antenna forms of both, with a
lattice evaluated from scratch, are test oracles (``tests/oracles.py``).
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

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

#: lattice enumeration guard: 2^T - 1 subsets
MAX_LATTICE_TAPS = 20


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


def _log_posterior(res2, scale, prior, gain=0.0, out=None):
    """nu(S) of supports with residual energy ``res2``, tempered noise
    ``scale`` (TEMPER sigma_w^2) and log prior ``prior`` + ``gain``, as
    -res2 / scale + prior + gain in that order; into ``out`` when given,
    which may be ``res2`` itself.  ``res2`` has the result's shape."""
    nu = np.negative(res2, out=out)
    nu /= scale
    nu += prior
    nu += gain
    return nu


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
        self.nus[:, stage] = _log_posterior(self.res2, self.scale, self.prior_term)
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

    Each row keeps its own orthogonalized columns, conjugated (B, K, L),
    and residual (B, K), and every value rounds as in the one-vector
    recursion (``greedy_search`` in ``tests/oracles.py``; numpy hands each
    row of a stacked product to the kernel the 2-D call uses), so each row
    equals a one-vector call bit for bit up to R^-1 and the combined taps:
    - conj(x) y is conj(x conj(y)) bit for bit, so the products on the
      conjugated columns are the conjugates of the recursion's;
    - ||b_j||^2 is re^2 + im^2 summed over K in row order, which is what
      the recursion's einsum of conj(b) b sums;
    - the candidates' scores go through ``_log_posterior``.
    The rank-filling tie (t_max == K) is therefore settled as that
    recursion settles it.  Every stage writes into buffers allocated once
    per call.  ``lambdas`` and ``noise_vars`` are taken as
    ``greedy_search_batch`` takes them; a row whose candidates run out
    stops and is padded (see ``ChainStack``), a row without a usable
    column has length 0.
    """
    a = np.ascontiguousarray(sensing_rows, dtype=complex)
    ys = np.ascontiguousarray(ys, dtype=complex)
    k, length = a.shape
    n = ys.shape[0]
    col_norm2 = np.einsum("ij,ij->j", a.conj(), a).real
    chains = _Chains(n, length, t_max, min(k, length), lambdas, noise_vars,
                     _stacked_vdot(ys, ys).real, col_norm2)
    rows = chains.rows

    b_conj = np.broadcast_to(a.conj(), (n, k, length)).copy()   # conj(P_S_perp a_j) per row
    r = ys.copy()                                       # residuals P_S_perp y
    q_basis = np.zeros((n, k, t_max), dtype=complex)
    # the picked column a_j as a strided vector, as a[:, j] of the 2-D
    # rows is: BLAS takes another gemv path for unit stride, which rounds R
    # apart
    a_col = np.zeros((n, k, 2), dtype=complex)
    b2 = np.broadcast_to(col_norm2, (n, length)).copy()   # ||P_S_perp a_j||^2
    entries = np.empty((n, k, length))                  # |b_ij|^2
    work = np.empty_like(entries)
    update = np.empty_like(b_conj)
    bhr = np.empty((n, length), dtype=complex)          # a_j^H P_S_perp y
    proj = np.empty((n, 1, length), dtype=complex)
    drop = np.empty((n, length))
    score = np.empty((n, length))
    invalid = np.empty((n, length), dtype=bool)

    for stage in range(t_max):
        if stage:
            _abs2(b_conj, out=entries, work=work)
            entries.sum(axis=1, out=b2)
        valid = chains.open_stage(b2)
        np.logical_not(valid, out=invalid)
        np.matmul(b_conj.transpose(0, 2, 1), r[..., None], out=bhr[..., None])
        np.abs(bhr, out=score)      # |bhr|^2 through np.abs, as the recursion forms it
        np.square(score, out=score)
        np.divide(score, b2, out=drop, where=valid)     # the drop of each candidate
        np.copyto(drop, 0.0, where=invalid)
        np.subtract(chains.res2[:, None], drop, out=score)
        _log_posterior(score, chains.scale[:, None], chains.prior_term[:, None], chains.gain,
                       out=score)
        np.copyto(score, -np.inf, where=invalid)
        j = np.argmax(score, axis=1)  # first max = smallest tap index on ties

        norm, inv_norm = chains.pivots(b2[rows, j])
        q = b_conj[rows, :, j].conj() / norm[:, None]
        a_col[:, :, 0] = a.T[j]
        q_a = (q_basis[:, :, :stage].conj().transpose(0, 2, 1) @ a_col[:, :, :1])[..., 0].T
        q_basis[:, :, stage] = q
        chains.record(stage, j, q_a, norm, inv_norm, _stacked_vdot(q, r), drop[rows, j])
        if stage == t_max - 1:
            break

        # the residuals and the columns lose the new basis vector's part: the
        # columns' by the conjugate of the recursion's q (q^H b)
        r -= q * chains.qty[:, stage, None]
        np.matmul(q[:, None, :], b_conj, out=proj)
        np.multiply(q.conj()[:, :, None], proj, out=update)
        b_conj -= update

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


def error_covariances(stack: ChainStack) -> np.ndarray:
    """Posterior-weighted BLUE error covariance of every row of a stack,
    R = sigma_w^2 sum_S p(S|y) (A_S^H A_S)^-1 over the chain's supports, as
    (B, T, T) blocks on the detected taps in selection order (every chain
    support is a prefix of them, so the L x L sum vanishes elsewhere).

    The padded stage-s Gram inverse is R^-1 D_s R^-H with D_s selecting the
    first s positions, so the posterior-weighted sum is R^-1 diag(w) R^-H
    with w the tail weights of the chain.
    """
    rinv = stack.r_inverses
    weighted = rinv * stack.tail_weights()[:, None, :]
    return stack.noise_vars[:, None, None] * (weighted @ rinv.conj().transpose(0, 2, 1))


@lru_cache(maxsize=32)
def _position_combos(n_detected: int):
    """Per subset size s: array of all position combinations, lex order.
    Row 0 of each block is (0, .., s-1), i.e. the greedy chain prefix."""
    return [
        np.array(list(combinations(range(n_detected), s)))
        for s in range(1, n_detected + 1)
    ]


@lru_cache(maxsize=32)
def _membership(n_detected: int) -> np.ndarray:
    """(2^T - 1, T) 0/1 matrix: row i marks the positions in lattice subset i."""
    rows = [combo for block in _position_combos(n_detected) for combo in block]
    out = np.zeros((len(rows), n_detected))
    for i, combo in enumerate(rows):
        out[i, list(combo)] = 1.0
    return out


def _lattice_sums(posteriors: np.ndarray) -> np.ndarray:
    """(B, 2^T - 1) lattice posteriors -> (B, T) marginals.  One product
    per row: a single (B, n) x (n, T) product may round a row differently
    depending on how many rows share it."""
    t = int(np.log2(posteriors.shape[1] + 1))
    return (posteriors[:, None, :] @ _membership(t))[:, 0, :]


def _check_lattice_size(t: int):
    if t > MAX_LATTICE_TAPS:
        raise ConfigurationError(
            f"lattice of {t} taps exceeds the enumeration guard ({MAX_LATTICE_TAPS})"
        )


def lattice_marginals(stack: ChainStack, lambdas: np.ndarray) -> np.ndarray:
    """Per-tap marginals of every row of a stack, (B, T): the lattice
    posteriors summed over the subsets containing each detected tap, zero
    past each row's chain length.

    ``lambdas`` are the priors the stack was searched with, one (L,) row
    for every chain or one row per chain (B, L).  The subset fits read only
    the chain: its last residual ``residuals[:, T-1]`` and the Gram of
    [R | Q^H y] (see the module docstring).  Rows of equal chain length
    share one lattice.
    """
    base, gain = _stack_prior_terms(lambdas, *stack.taps.shape)
    out = np.zeros(stack.chosen.shape)
    for t in set(stack.lengths.tolist()) - {0}:  # np.unique adds ~1.4 MB to peak RSS
        _check_lattice_size(t)
        rows = np.flatnonzero(stack.lengths == t)
        border = np.concatenate((stack.r_factors[rows, :t, :t], stack.qty[rows, :t, None]),
                                axis=2)
        gram = (border.conj().transpose(0, 2, 1) @ border).reshape(rows.size, -1)
        nus = _lattice_nus(
            stack.nus[rows, :t], np.ascontiguousarray(gram.T), stack.residuals[rows, t - 1],
            base[rows], gain[rows[:, None], stack.chosen[rows, :t]], stack.noise_vars[rows],
        )
        out[rows, :t] = _lattice_sums(_normalize_log_posteriors(nus)[0])
    return out


def _lattice_nus(chain_nus, source, chain_res2, base, gains, noise_vars):
    """(B, 2^T - 1) lattice log posteriors of B rows with T detected taps
    each, from the (T + 1)^2 entries of each row's Gram of [R | Q^H y]
    (``source``, a column per row, entry (i, j) at i * (T + 1) + j), the
    full chain's residual (B,) and the prior gains (B, T); the chain prefix
    of each subset size reuses ``chain_nus``.  A pivot's bound is
    ``COLLINEARITY_TOL**2`` times its tap's squared column norm, the
    Gram's diagonal."""
    n_detected = chain_nus.shape[1]
    bounds = COLLINEARITY_TOL**2 * source[:-1:n_detected + 2].real
    scale = TEMPER * noise_vars[:, None]
    nus = np.empty((source.shape[1], 2 ** n_detected - 1))
    first = 0
    for size, block in enumerate(_position_combos(n_detected), start=1):
        # chain prefix (row 0: positions 0..s-1) reuses the greedy-stage value
        nus[:, first] = chain_nus[:, size - 1]
        if block.shape[0] > 1:
            rest = block[1:]
            res2 = np.maximum(chain_res2[:, None] + _subset_fits(source, bounds, size).T, 0.0)
            nus[:, first + 1:first + block.shape[0]] = _log_posterior(
                res2, scale, base[:, None], gains[:, rest].sum(axis=2))
        first += block.shape[0]
    return nus


@lru_cache(maxsize=64)
def _bordered_entries(n_detected: int, size: int) -> np.ndarray:
    """(E, C) ``source`` rows of the bordered Gram [[G_S, c_S], [c_S^H,
    ||Q^H y||^2]] of every non-prefix subset S of ``size`` positions: the
    Gram of [R | Q^H y] on S's columns and the border, column T, with its
    lower triangle packed column by column, E = (s + 1)(s + 2) / 2."""
    t = n_detected
    rest = _position_combos(t)[size - 1][1:]
    columns = np.hstack((rest, np.full((rest.shape[0], 1), t)))
    return np.stack([columns[:, i] * (t + 1) + columns[:, j]
                     for j in range(size + 1) for i in range(j, size + 1)])


def _subset_fits(source, bounds, size):
    """(C, B) T-space residuals ||Q^H y||^2 - c_S^H G_S^-1 c_S of the C
    non-prefix subsets S of ``size`` positions of every row, from the rows'
    Grams of [R | Q^H y] (``source``, see ``_lattice_nus``) and pivot
    ``bounds`` (T, B), by a Cholesky factorization of each bordered Gram
    written elementwise over the (subset, row) axes.

    Eliminating the first s columns of [[G, c], [c^H, ||Q^H y||^2]] leaves
    ||Q^H y||^2 - ||L^-1 c||^2 in the corner: the energy of the part of y
    in the chain's span that S leaves unfitted.  Every subset Gram is a principal
    submatrix of its chain's Gram R^H R, which is positive definite (every
    chain tap passed the ``COLLINEARITY_TOL`` test), so each pivot is
    positive; a pivot at or below its bound, ``COLLINEARITY_TOL**2 *
    G_jj`` for detected tap j, counts as a column dependent on the ones
    before it, which adds nothing to the fit (the projection ``lstsq``
    gives).

    Every intermediate lives in one work buffer: separate medium-sized
    temporaries let glibc's adaptive mmap threshold fragment the heap and
    raise peak RSS.  ``np.take`` writes into it with ``mode="clip"`` (every
    index is in range), since the default mode buffers the whole output.
    """
    rest = _position_combos(bounds.shape[0])[size - 1][1:]
    entries = _bordered_entries(bounds.shape[0], size)
    n_entries, n_subsets = entries.shape
    work = np.empty((n_entries + size + 2, n_subsets, source.shape[1]), dtype=complex)
    packed = np.take(source, entries, axis=0, out=work[:n_entries], mode="clip")
    product = work[n_entries:n_entries + size]
    conj = work[-2]
    bound, pivot = work[-1].view(float).reshape(2, n_subsets, -1)
    start = 0
    for j in range(size):
        column = packed[start:start + size + 1 - j]       # rows j..s of column j
        np.take(bounds, rest[:, j], axis=0, out=bound, mode="clip")
        np.copyto(pivot, column[0].real)
        pivot[pivot <= bound] = np.inf                   # entries divide to zero
        np.sqrt(pivot, out=pivot)
        below = column[1:].view(float).reshape(*column[1:].shape, 2)
        np.divide(below, pivot[..., None], out=below)
        start += column.shape[0]
        target = start
        for k in range(j + 1, size + 1):                 # trailing columns
            count = size + 1 - k
            np.conjugate(column[k - j], out=conj)
            np.multiply(column[k - j:], conj, out=product[:count])
            trailing = packed[target:target + count]
            np.subtract(trailing, product[:count], out=trailing)
            target += count
    return packed[-1].real.copy()  # a view would keep the work buffer alive
