"""Error covariance and per-tap marginal posteriors for a greedy estimate.

The greedy chain only exposes the nested supports {a1}, {a1,a2}, ...; the
belief that an individual detected tap is active needs posteriors over the
full lattice of 2^T - 1 nonempty subsets of the detected taps.  Subsets
that are chain prefixes reuse the values already computed during the
search; the remaining subsets are solved fresh (batched per subset size).
Posteriors are normalized over the lattice only -- supports involving
undetected taps carry negligible mass and are excluded by construction.

Every function has a stacked form for a ``ChainStack`` of antennas:
``error_covariances`` and ``lattice_marginals``.
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from .errors import ConfigurationError
from .solver import (
    BernoulliPrior,
    ChainStack,
    SparseEstimate,
    _normalize_log_posteriors,
    _prior_terms,
    support_metric,
)

#: lattice enumeration guard: 2^T - 1 subsets
MAX_LATTICE_TAPS = 20


@dataclass(frozen=True)
class ErrorCovariance:
    """R = sigma_w^2 * sum_S p(S|y) (A_S^H A_S)^-1 on the detected taps.

    Every chain support is a prefix of the detected taps, so the L x L
    matrix vanishes outside taps x taps; ``matrix`` is that T x T block,
    rows and columns in the order of ``taps``.
    """

    taps: np.ndarray
    matrix: np.ndarray

    @property
    def mmse_trace(self) -> float:
        return float(np.trace(self.matrix).real)


@dataclass(frozen=True)
class MarginalSet:
    """Per-tap activity beliefs for the detected taps of one antenna."""

    detected_taps: np.ndarray          # tap indices, selection order
    marginals: np.ndarray              # aligned with detected_taps, in [0, 1]
    lattice_subsets: list              # tap-index arrays, size then lex order
    lattice_posteriors: np.ndarray     # normalized over the lattice

    def marginal_vector(self, channel_len: int) -> np.ndarray:
        """Length-L vector: marginal at detected taps, zero elsewhere."""
        out = np.zeros(channel_len)
        out[self.detected_taps] = self.marginals
        return out


def error_covariance(
    estimate: SparseEstimate,
    sensing_rows: np.ndarray | None = None,
    noise_var: float | None = None,
) -> ErrorCovariance:
    """Posterior-weighted BLUE error covariance over the dominant supports.

    The per-support Gram inverses were already factored during the greedy
    search and are reused; ``sensing_rows`` is only needed when an estimate
    lacks them.
    """
    noise_var = estimate.noise_var if noise_var is None else noise_var
    taps = estimate.detected_taps
    matrix = np.zeros((taps.size, taps.size), dtype=complex)
    for weight, support, ginv in zip(
        estimate.posteriors, estimate.supports, estimate.gram_inverses
    ):
        if ginv is None:
            a_s = np.asarray(sensing_rows)[:, support]
            ginv = np.linalg.inv(a_s.conj().T @ a_s)
        matrix[: support.size, : support.size] += weight * ginv
    return ErrorCovariance(taps=taps, matrix=noise_var * matrix)


def error_covariances(stack: ChainStack) -> np.ndarray:
    """``error_covariance`` of every row of a stack, as (B, T, T) blocks.

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


def enumerate_marginal_supports(detected_taps: np.ndarray) -> list:
    """All 2^T - 1 nonempty subsets of the detected taps, ordered by size
    then lexicographically in detection order."""
    detected_taps = np.asarray(detected_taps)
    t = detected_taps.shape[0]
    _check_lattice_size(t)
    return [detected_taps[combo] for block in _position_combos(t) for combo in block]


@lru_cache(maxsize=32)
def _membership(n_detected: int) -> np.ndarray:
    """(2^T - 1, T) 0/1 matrix: row i marks the positions in lattice subset i."""
    rows = [combo for block in _position_combos(n_detected) for combo in block]
    out = np.zeros((len(rows), n_detected))
    for i, combo in enumerate(rows):
        out[i, list(combo)] = 1.0
    return out


def marginals_from_lattice(
    subsets_positions: list, posteriors: np.ndarray, n_detected: int
) -> np.ndarray:
    """Sum lattice posteriors over the subsets containing each detected tap."""
    marginals = np.zeros(n_detected)
    for combo, weight in zip(subsets_positions, posteriors):
        marginals[list(combo)] += weight
    return marginals


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


def compute_marginals(
    estimate: SparseEstimate,
    sensing_rows: np.ndarray,
    y: np.ndarray,
    prior: BernoulliPrior,
    noise_var: float | None = None,
    reuse: bool = True,
) -> MarginalSet:
    """Lattice posteriors over the detected taps and the per-tap marginals.

    With ``reuse`` (default) chain-prefix subsets take their scores straight
    from the greedy stage; set it to False to re-evaluate every subset from
    scratch (slow; used to validate the reuse path).
    """
    noise_var = estimate.noise_var if noise_var is None else noise_var
    detected = estimate.detected_taps
    t = detected.shape[0]
    _check_lattice_size(t)
    a = np.ascontiguousarray(sensing_rows, dtype=complex)
    y = np.ascontiguousarray(y, dtype=complex)

    blocks = _position_combos(t)
    positions = [combo for block in blocks for combo in block]
    if not reuse:
        nus = np.asarray([
            support_metric(detected[combo], y, a, prior, noise_var)
            for combo in positions
        ])
        posteriors, _ = _normalize_log_posteriors(nus)
        marginals = marginals_from_lattice(positions, posteriors, t)
    else:
        base, gain = _prior_terms(prior)
        a_t = a[:, detected]
        nus = _lattice_nus(
            estimate.nus[None], (a_t.conj().T @ a_t)[None], (a_t.conj().T @ y)[None],
            np.array([np.vdot(y, y).real]), np.array([base]), gain[detected][None],
            np.array([noise_var]),
        )
        posteriors, _ = _normalize_log_posteriors(nus)
        marginals = _lattice_sums(posteriors)[0]
        posteriors = posteriors[0]
    return MarginalSet(
        detected_taps=detected,
        marginals=marginals,
        lattice_subsets=[detected[c] for c in positions],
        lattice_posteriors=posteriors,
    )


def lattice_marginals(stack: ChainStack, gram: np.ndarray, corr: np.ndarray,
                      y_norm2: np.ndarray, lambdas: np.ndarray) -> np.ndarray:
    """``compute_marginals(...).marginals`` of every row of a stack, (B, T).

    ``gram`` is the shared A^H A (L, L); ``corr``, ``y_norm2`` and
    ``lambdas`` are the rows' A^H y, ||y||^2 and priors, as passed to
    ``greedy_search_batch``.
    """
    chosen = stack.chosen
    n, t = chosen.shape
    _check_lattice_size(t)
    base, gain = _prior_terms(BernoulliPrior(np.broadcast_to(lambdas, (n, gram.shape[0]))))
    nus = _lattice_nus(
        stack.nus, gram[chosen[:, :, None], chosen[:, None, :]],
        np.take_along_axis(corr, chosen, axis=1), y_norm2, base,
        np.take_along_axis(gain, chosen, axis=1), stack.noise_vars,
    )
    posteriors, _ = _normalize_log_posteriors(nus)
    return _lattice_sums(posteriors)


def _lattice_nus(chain_nus, gram, corr, y_norm2, base, gains, noise_vars):
    """(B, 2^T - 1) lattice log posteriors from each row's detected-tap Gram
    (B, T, T), correlations (B, T) and prior gains (B, T); the chain prefix
    of each subset size reuses ``chain_nus``."""
    two_nv = 2.0 * noise_vars[:, None]
    nus = []
    for s, block in enumerate(_position_combos(gram.shape[1]), start=1):
        block_nus = np.empty((gram.shape[0], block.shape[0]))
        # chain prefix (row 0: positions 0..s-1) reuses the greedy-stage value
        block_nus[:, 0] = chain_nus[:, s - 1]
        if block.shape[0] > 1:
            rest = block[1:]
            sub_gram = gram[:, rest[:, :, None], rest[:, None, :]]
            sub_corr = corr[:, rest]
            try:
                coef = np.linalg.solve(sub_gram, sub_corr[..., None])[..., 0]
            except np.linalg.LinAlgError:
                # matrix by matrix, so one singular Gram leaves the others'
                # solutions exactly as the batched solve gives them
                coef = np.stack([
                    _solve_or_lstsq(g, c)
                    for g, c in zip(sub_gram.reshape(-1, s, s), sub_corr.reshape(-1, s))
                ]).reshape(sub_corr.shape)
            fit = np.einsum("bns,bns->bn", sub_corr.conj(), coef).real
            res2 = np.maximum(y_norm2[:, None] - fit, 0.0)
            block_nus[:, 1:] = -res2 / two_nv + base[:, None] + gains[:, rest].sum(axis=2)
        nus.append(block_nus)
    return np.concatenate(nus, axis=1)


def _solve_or_lstsq(gram, corr):
    try:
        return np.linalg.solve(gram, corr)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(gram, corr, rcond=None)[0]


def exhaustive_marginals(
    sensing_rows: np.ndarray,
    y: np.ndarray,
    prior: BernoulliPrior,
    noise_var: float,
    max_size: int,
) -> np.ndarray:
    """Debug oracle: marginals over *all* supports of size 1..max_size.

    Enumerates the full index set (not just detected taps); only feasible
    for L <= 12.  Returns the length-L marginal vector.
    """
    from .solver import exhaustive_estimate

    supports, posteriors, _, _ = exhaustive_estimate(
        sensing_rows, y, prior, noise_var, max_size
    )
    length = np.asarray(sensing_rows).shape[1]
    marginals = np.zeros(length)
    for s, weight in zip(supports, posteriors):
        marginals[s] += weight
    return marginals
