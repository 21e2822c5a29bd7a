"""Error covariances and per-tap marginal posteriors of a stack of greedy chains.

The greedy chain only exposes the nested supports {a1}, {a1,a2}, ...; the
belief that an individual detected tap is active needs posteriors over the
full lattice of 2^T - 1 nonempty subsets of the detected taps.  Subsets
that are chain prefixes reuse the values already computed during the
search; the remaining subsets are fitted fresh, per subset size, by a
Cholesky elimination written elementwise over all subsets and antennas.
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
from .solver import (
    COLLINEARITY_TOL,
    TEMPER,
    ChainStack,
    _normalize_log_posteriors,
    _stack_prior_terms,
)

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
            nus[:, first + 1:first + block.shape[0]] = (
                -res2 / scale + base[:, None] + gains[:, rest].sum(axis=2))
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
