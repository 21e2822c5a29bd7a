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

The greedy chain is grown with an order-recursive QR factorization: each
stage scores all single-index extensions of the previous support in
O(K*L) by updating the orthogonalized column residuals, never re-solving
from scratch.  ``greedy_search`` runs that recursion on one observation
vector, and ``greedy_search_stack`` runs it for a stack of observation
vectors on shared rows with the same rounding.  ``greedy_search_batch``
runs the chain for a stack of antennas in the Gram domain, where the row
count K drops out after one product.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, IllConditionedSupportError

#: prior probabilities are clamped to [PRIOR_EPS, 1 - PRIOR_EPS]
PRIOR_EPS = 1e-6

#: candidates whose orthogonalized column shrinks below this fraction of the
#: original norm are skipped (Gram condition number beyond ~1e12)
COLLINEARITY_TOL = 1e-6

#: de Moivre-Laplace percentile constant for sizing the support search
DML_Z = 2.0

#: default scale on var(y) for the initial noise-variance estimate
NOISE_VAR_SCALE = 0.1


@dataclass(frozen=True)
class BernoulliPrior:
    """Per-tap activity probabilities, clamped away from {0, 1}."""

    lambdas: np.ndarray

    def __post_init__(self):
        lam = np.clip(np.asarray(self.lambdas, dtype=float), PRIOR_EPS, 1 - PRIOR_EPS)
        object.__setattr__(self, "lambdas", lam)

    @classmethod
    def uniform(cls, length: int, value: float) -> "BernoulliPrior":
        return cls(np.full(length, value))

    def __len__(self):
        return self.lambdas.shape[0]


@dataclass
class SparseEstimate:
    """Output of the greedy search over one observation vector.

    ``supports`` is the nested chain (selection order preserved inside each
    array); ``posteriors`` are normalized over the chain; ``cond_means``
    align with ``supports``.  ``gram_inverses`` holds (A_S^H A_S)^-1 per
    support, reused later for the error covariance.
    """

    supports: list
    posteriors: np.ndarray
    cond_means: list
    residuals: np.ndarray
    nus: np.ndarray
    gram_inverses: list
    channel_len: int
    noise_var: float
    t_max: int
    h_ammse: np.ndarray | None = None
    diagnostics: dict = field(default_factory=dict)

    @property
    def detected_taps(self) -> np.ndarray:
        """Detected tap locations: the largest support, in selection order."""
        return self.supports[-1]


@dataclass(frozen=True)
class InitParams:
    prior: BernoulliPrior
    noise_var: float
    t_max: int
    t_max_capped: bool = False


def dml_support_size(length: int, lam: float, z: float = DML_Z) -> int:
    """Support-search depth slightly above the expected active count:
    ceil(L*lam + z*sqrt(L*lam*(1-lam))), capped at L."""
    expected = length * lam
    slack = z * np.sqrt(length * lam * (1.0 - lam))
    return min(length, int(np.ceil(expected + slack)))


def init_params(sensing_rows: np.ndarray, y: np.ndarray,
                noise_scale: float = NOISE_VAR_SCALE, z: float = DML_Z) -> InitParams:
    """Data-driven initialization of (prior, noise variance, search depth).

    The uniform activity probability counts columns whose correlation with
    y reaches half the peak correlation; the noise variance starts as a
    scaled version of var(y).  Both only seed the search; the solver is
    robust to their exact values.
    """
    a = np.asarray(sensing_rows)
    y = np.asarray(y)
    k, length = a.shape
    if k < 1:
        raise ConfigurationError("need at least one observation row")

    corr = np.abs(a.conj().T @ y)
    peak = corr.max() if corr.size else 0.0
    if peak == 0.0:
        return InitParams(
            prior=BernoulliPrior.uniform(length, PRIOR_EPS),
            noise_var=float(noise_scale * np.var(y)) or PRIOR_EPS,
            t_max=1,
        )
    lam = np.count_nonzero(corr >= 0.5 * peak) / length
    lam = float(np.clip(lam, PRIOR_EPS, 1 - PRIOR_EPS))
    noise_var = float(noise_scale * np.var(y))
    t_max = dml_support_size(length, lam, z)
    capped = t_max > k
    return InitParams(
        prior=BernoulliPrior.uniform(length, lam),
        noise_var=noise_var,
        t_max=min(t_max, k),
        t_max_capped=capped,
    )


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


def blue_estimate(a_s: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Least squares on a fixed support: (A_S^H A_S)^-1 A_S^H y."""
    a_s = np.atleast_2d(np.asarray(a_s))
    check_conditioning(a_s)
    coef, *_ = np.linalg.lstsq(a_s, np.asarray(y), rcond=None)
    return coef


def _prior_terms(prior: BernoulliPrior):
    """(base, per-index gain) of the log prior; a stack of priors (B, L)
    gives a base per row."""
    lam = prior.lambdas
    log_off = np.log1p(-lam)
    return log_off.sum(axis=-1), np.log(lam) - log_off


def support_metric(support, y, sensing_rows, prior: BernoulliPrior,
                   noise_var: float) -> float:
    """nu(S) for one explicit support set (empty set allowed)."""
    if noise_var <= 0:
        raise ConfigurationError("noise_var must be positive")
    y = np.asarray(y)
    support = np.asarray(support, dtype=int)
    base, gain = _prior_terms(prior)
    if support.size == 0:
        residual2 = float(np.vdot(y, y).real)
    else:
        a_s = np.asarray(sensing_rows)[:, support]
        check_conditioning(a_s)
        q, _ = np.linalg.qr(a_s)
        proj = q @ (q.conj().T @ y)
        residual2 = float(np.vdot(y - proj, y - proj).real)
    return -residual2 / (2.0 * noise_var) + base + float(gain[support].sum())


def greedy_search(sensing_rows: np.ndarray, y: np.ndarray, prior: BernoulliPrior,
                  noise_var: float, t_max: int) -> SparseEstimate:
    """Grow the nested dominant-support chain of sizes 1..t_max.

    At each stage every single-index extension of the current support is
    scored and the best extension is kept; of equal computed scores the
    smallest tap index wins.  Exact ties in the model are still decided by
    rounding, because their computed scores differ in the last bits: when
    t_max equals the row count K, every free candidate leaves a zero
    residual at the last stage, and identical columns are scored through
    different BLAS roundings.  Candidates that would make the support Gram
    matrix numerically singular are skipped for that stage.
    """
    # contiguous copies pin the BLAS kernels: results are then bit-identical
    # for equal values regardless of the caller's array layout
    a = np.ascontiguousarray(sensing_rows, dtype=complex)
    y = np.ascontiguousarray(y, dtype=complex)
    k, length = a.shape
    if noise_var <= 0:
        raise ConfigurationError("noise_var must be positive")
    if t_max < 1 or t_max > min(k, length):
        raise ConfigurationError(f"t_max={t_max} must lie in [1, min(K, L)]")

    base, gain = _prior_terms(prior)
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
    skipped_any = False

    for stage in range(t_max):
        b2 = np.einsum("ij,ij->j", b.conj(), b).real
        valid = available & (b2 > COLLINEARITY_TOL**2 * col_norm2)
        if not valid.any():
            break
        if (available & ~valid).any():
            skipped_any = True

        bhr = b.conj().T @ r
        drop = np.zeros(length)
        drop[valid] = np.abs(bhr[valid]) ** 2 / b2[valid]
        nu_cand = np.where(
            valid, -(res2 - drop) / (2.0 * noise_var) + prior_term + gain, -np.inf
        )
        j = int(np.argmax(nu_cand))  # first max = smallest tap index on ties

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
        coef = np.linalg.solve(rr, qty[: stage + 1])
        means.append(coef)
        rinv = np.linalg.inv(rr)
        gram_invs.append(rinv @ rinv.conj().T)

    if not supports:
        raise IllConditionedSupportError("no usable sensing column found")

    n = len(supports)
    nus = np.asarray(nus)
    posteriors, underflow = _normalize_log_posteriors(nus)
    underflow = bool(underflow)
    estimate = SparseEstimate(
        supports=supports,
        posteriors=posteriors,
        cond_means=means,
        residuals=np.asarray(residuals),
        nus=nus,
        gram_inverses=gram_invs,
        channel_len=length,
        noise_var=noise_var,
        t_max=n,
        diagnostics={
            "skipped_candidates": skipped_any,
            "posterior_underflow": underflow,
            "t_max_requested": t_max,
        },
    )
    ammse_combine(estimate)
    return estimate


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


def ammse_combine(estimate: SparseEstimate) -> np.ndarray:
    """Posterior-weighted average of the zero-padded conditional means."""
    h = np.zeros(estimate.channel_len, dtype=complex)
    for weight, support, mean in zip(
        estimate.posteriors, estimate.supports, estimate.cond_means
    ):
        h[support] += weight * mean
    estimate.h_ammse = h
    return h


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
    """``greedy_search`` for a stack of B observation vectors, in the Gram domain.

    ``gram`` is A^H A, shared (L, L) or one per row (B, L, L); ``corr`` is
    A^H y (B, L), ``y_norm2`` is ||y||^2 (B,), ``lambdas`` the activity
    priors (B, L) and ``noise_vars`` (B,).  The stage state is W = A^H Q
    (B, T, L) in place of the orthogonalized K x L columns:

        ||P_S_perp a_j||^2 = G_jj - sum_s |W_sj|^2
        a_j^H P_S_perp y   = (A^H y)_j - sum_s W_sj^* (Q^H y)_s

    so after the products above the work no longer depends on K.  Rows
    never interact: each row's result equals a one-row call's bit for bit.
    A row whose candidates run out stops there, as ``greedy_search`` does,
    and is padded (see ``ChainStack``).

    Picks match ``greedy_search`` except on ties within rounding, which
    the two recursions round apart.  One such tie is systematic: when t_max
    equals the row count and the prior is uniform, every free candidate at
    the last stage leaves a zero residual.  ``greedy_search_stack`` solves
    those systems with ``greedy_search``'s picks.
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

    prior_term, gain = _prior_terms(BernoulliPrior(np.broadcast_to(lambdas, (n, length))))
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
    """``greedy_search`` for a stack of B observation vectors ``ys`` (B, K)
    on shared rows A (K, L), with its picks bit for bit.

    The stage loop is ``greedy_search``'s K-domain recursion run for every
    row at once: each row keeps its own orthogonalized columns (B, K, L)
    and residual (B, K), and every expression keeps the form
    ``greedy_search`` uses (numpy hands each row of a stacked product to
    the kernel the 2-D call uses), so each row rounds as a one-vector call
    does.  The rank-filling tie (t_max == K) is therefore settled exactly as
    ``greedy_search`` settles it.  ``lambdas`` is (B, L) and ``noise_vars``
    (B,); a row whose candidates run out stops and is padded (see
    ``ChainStack``), a row without a usable column has length 0.
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

    prior_term, gain = _prior_terms(BernoulliPrior(np.broadcast_to(lambdas, (n, length))))
    col_norm2 = np.einsum("ij,ij->j", a.conj(), a).real
    rows = np.arange(n)
    two_nv = 2.0 * noise_vars

    b = np.broadcast_to(a, (n, k, length)).copy()     # columns orthogonalized per row
    r = ys.copy()                                       # residuals P_S_perp y
    res2 = _stacked_vdot(ys, ys).real
    q_basis = np.zeros((n, k, t_max), dtype=complex)
    # the picked column a_j as a strided vector, as greedy_search's a[:, j]
    # is: BLAS takes another gemv path for unit stride, which rounds R apart
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
        b2 = np.einsum("bij,bij->bj", b.conj(), b).real
        valid = available & (b2 > COLLINEARITY_TOL**2 * col_norm2)
        stopped |= ~valid.any(axis=1)
        lengths += ~stopped
        skipped |= ~stopped & (available & ~valid).any(axis=1)
        bhr = (b.conj().transpose(0, 2, 1) @ r[..., None])[..., 0]
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

        r = r - q * qty[:, stage, None]
        res2 = np.maximum(res2 - drop[rows, j], 0.0)
        prior_term = prior_term + gain[rows, j]
        nus[:, stage] = -res2 / two_nv + prior_term
        residuals[:, stage] = res2
        b = b - q[:, :, None] * (q.conj()[:, None, :] @ b)
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


def exhaustive_estimate(sensing_rows: np.ndarray, y: np.ndarray,
                        prior: BernoulliPrior, noise_var: float,
                        max_size: int):
    """Debug oracle: score every support of size 1..max_size.

    Only feasible for small L; guarded at L <= 12.  Returns
    (supports, posteriors, means, h_ammse) with posteriors normalized over
    the full enumeration.
    """
    from itertools import combinations

    a = np.asarray(sensing_rows)
    length = a.shape[1]
    if length > 12:
        raise ConfigurationError("exhaustive enumeration is limited to L <= 12")
    supports, nus, means = [], [], []
    for size in range(1, max_size + 1):
        for combo in combinations(range(length), size):
            s = np.array(combo)
            try:
                nu = support_metric(s, y, a, prior, noise_var)
                mean = blue_estimate(a[:, s], y)
            except IllConditionedSupportError:
                continue
            supports.append(s)
            nus.append(nu)
            means.append(mean)
    nus = np.asarray(nus)
    posteriors, _ = _normalize_log_posteriors(nus)
    h = np.zeros(length, dtype=complex)
    for weight, s, mean in zip(posteriors, supports, means):
        h[s] += weight * mean
    return supports, posteriors, means, h
