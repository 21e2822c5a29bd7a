"""Error covariances and per-tap marginal posteriors of a stack of greedy chains.

The greedy chain only exposes the nested supports {a1}, {a1,a2}, ...; the
belief that an individual detected tap is active needs posteriors over the
full lattice of 2^T - 1 nonempty subsets of the detected taps.  Subsets
that are chain prefixes reuse the values already computed during the
search; the remaining subsets are solved fresh (batched per subset size).
Posteriors are normalized over the lattice only -- supports involving
undetected taps carry negligible mass and are excluded by construction.

Both functions take a ``ChainStack`` of antennas: ``error_covariances``
and ``lattice_marginals``.  The per-antenna forms they replaced, with a
lattice evaluated from scratch, are test oracles (``tests/oracles.py``).
"""

from functools import lru_cache
from itertools import combinations

import numpy as np

from .errors import ConfigurationError
from .solver import BernoulliPrior, ChainStack, _normalize_log_posteriors, _prior_terms

#: lattice enumeration guard: 2^T - 1 subsets
MAX_LATTICE_TAPS = 20


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


def lattice_marginals(stack: ChainStack, gram: np.ndarray, corr: np.ndarray,
                      y_norm2: np.ndarray, lambdas: np.ndarray) -> np.ndarray:
    """Per-tap marginals of every row of a stack, (B, T): the lattice
    posteriors summed over the subsets containing each detected tap, zero
    past each row's chain length.

    ``gram`` is the shared A^H A (L, L); ``corr``, ``y_norm2`` and
    ``lambdas`` are the rows' A^H y, ||y||^2 and priors, as ``search_rows``
    returns and takes them.  Rows of equal chain length share one lattice.
    """
    base, gain = _prior_terms(BernoulliPrior(np.broadcast_to(lambdas, corr.shape)))
    out = np.zeros(stack.chosen.shape)
    for t in set(stack.lengths.tolist()) - {0}:  # np.unique adds ~1.4 MB to peak RSS
        _check_lattice_size(t)
        rows = np.flatnonzero(stack.lengths == t)
        chosen = stack.chosen[rows, :t]
        nus = _lattice_nus(
            stack.nus[rows, :t], gram[chosen[:, :, None], chosen[:, None, :]],
            np.take_along_axis(corr[rows], chosen, axis=1), y_norm2[rows], base[rows],
            np.take_along_axis(gain[rows], chosen, axis=1), stack.noise_vars[rows],
        )
        out[rows, :t] = _lattice_sums(_normalize_log_posteriors(nus)[0])
    return out


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
