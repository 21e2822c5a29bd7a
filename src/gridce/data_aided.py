"""Reliable-carrier selection and pilot+reliable re-estimation.

After a pilot-based grid estimate, each antenna equalizes its data
carriers and scores how firmly each detected symbol sits inside its
decision region, given the combined distortion (channel estimation error
plus noise).  Neighborhoods agree on carriers that every member ranks
reliable *and* decodes identically; those carriers then act as extra
pilots for one more estimation pass.

Every system here has the form A = diag(s) F_L, a diagonal of carrier
symbols times the first L columns of the unitary DFT, so its products have
closed forms over the carriers.  With w_n = |s_n|^2 on the used carriers
and 0 elsewhere:

    (A^H A)_jl       = ifft(w)[(j - l) mod N]            Hermitian Toeplitz
    A^H y            = sqrt(N) ifft(conj(s) y)[:L]       y zero off the used carriers
    diag(A R A^H)_n  = |s_n|^2 / N fft(c)[n]             c_m = sum of R_jk at
                                                         lag (t_j - t_k) mod N = m

The reliability of an equalized symbol x under distortion variance s2 is
the density at its nearest point over the summed densities at every other
point, r = exp(-d2_n / s2) / sum_{v != n} exp(-d2_v / s2).  Square QAM is
the product of two PAM axes with levels a_0 < ... < a_{m-1}, m = sqrt(Q),
and d2_v = (x_I - a_i)^2 + (x_Q - a_q)^2 for the point v = (i, q), so each
density ratio factorizes: with n = (n_I, n_Q) the nearest levels and

    O_I = sum_{k != n_I} exp(-((x_I - a_k)^2 - (x_I - a_{n_I})^2) / s2)

(O_Q the same on the Q axis), the sum over all Q points of the ratio to
the nearest one is (1 + O_I)(1 + O_Q), so the sum over the others is that
minus the nearest point's own 1:

    r = 1 / ((1 + O_I)(1 + O_Q) - 1) = 1 / (O_I + O_Q + O_I O_Q)

written without the cancelling subtraction.  That takes 2(m - 1)
exponentials of non-positive arguments per symbol, no logarithm and no
length-Q axis; r overflows only where it exceeds RELIABILITY_CAP anyway.

Equalization, slicing, reliability and the re-estimation FFTs run on
``ANTENNA_CHUNK`` antennas at a time; the consensus is stencil arithmetic
on (M, G, N) carrier masks and symbol indices.
"""

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InvalidContextError
from .ofdm import OfdmFrame, detect
from .posterior import error_covariances
from .qam import QamAlphabet, as_axes
from .sharing import GridEstimate, GridSolverConfig, stencil_reduce
from .solver import greedy_search_batch

#: reliability ratios are capped here instead of overflowing to inf
RELIABILITY_CAP = 1e300

#: the value a capped ratio takes (the cap as the log-domain form rounded it)
_CAPPED = np.exp(np.log(RELIABILITY_CAP))

#: numpy's vectorized exp is fast only where its result is a normal float
#: (arguments above about -708); its result is exactly zero below _EXP_ZERO
_EXP_NORMAL = -700.0
_EXP_ZERO = -750.0

#: predicted relative error at which one pilot budget of reliable carriers is
#: requested; the default carrier budget scales linearly with the prediction
RHO_REFERENCE = 0.04

#: minimum per-antenna carrier budget (keeps refinement strictly active)
MIN_RELIABLE = 2

#: antennas processed at once wherever a stage works on their length-N
#: carrier rows: the (chunk, N) FFTs and the (chunk, N, 2) per-axis slicing
#: and reliability temporaries here and in BER scoring; bounds memory,
#: results do not depend on it
ANTENNA_CHUNK = 16


@dataclass
class ReliableSet:
    """One central antenna's view: its own top-U carriers and the carriers
    its whole neighborhood agrees on, each read on demand from the
    antenna's length-N rows of the grid masks."""

    top_row: np.ndarray
    consensus_row: np.ndarray

    @property
    def own_top(self) -> np.ndarray:
        return np.flatnonzero(self.top_row)

    @property
    def consensus(self) -> np.ndarray:
        return np.flatnonzero(self.consensus_row)


def distortion_covariance(
    symbols: np.ndarray,
    err_cov: np.ndarray,
    noise_var: float | np.ndarray,
    taps: np.ndarray,
) -> np.ndarray:
    """Variance of the combined distortion A h_err + w per carrier:
    diag(A R A^H) + sigma_w^2, the only part of its covariance ever consumed,
    for A = diag(symbols) F_L over all N = len(symbols) carriers.

    R lives on ``taps`` (as the ``GridEstimate.support`` and ``.error_cov``
    arrays, whose zero padding adds nothing; ``np.arange(L)`` for a full
    L x L matrix).  R_jk enters only through its lag t_j - t_k: scattered
    into c at lag (t_j - t_k) mod N, diag(A R A^H)_n = |s_n|^2 / N fft(c)[n].
    A stack of B covariances, (B, T) taps and (B,) noise variances gives
    (B, N) variances from one FFT.
    """
    symbols = np.asarray(symbols)
    err_cov = np.asarray(err_cov)
    taps = np.asarray(taps)
    n_carriers, size = symbols.shape[-1], err_cov.shape[-1]
    batch = err_cov.shape[:-2]
    n_rows = int(np.prod(batch))
    # bin (row, lag) of every R_jk, row-major over the flattened stack
    lag = (taps[..., :, None] - taps[..., None, :]) % n_carriers
    bins = (lag.reshape(-1, size * size) + n_carriers * np.arange(n_rows)[:, None]).ravel()
    lagged = (np.bincount(bins, err_cov.real.ravel(), n_rows * n_carriers)
              + 1j * np.bincount(bins, err_cov.imag.ravel(), n_rows * n_carriers))
    spectrum = np.fft.fft(lagged.reshape(*batch, n_carriers), axis=-1).real
    diag = spectrum * (np.abs(symbols) ** 2 / n_carriers)
    return diag + np.asarray(noise_var, dtype=float)[..., None]


def carrier_reliability(x_hat, variance, alphabet, nearest_levels) -> np.ndarray:
    """Reliability of equalized symbols under a per-carrier Gaussian model.

    Ratio of the distortion density at the displacement to the nearest
    constellation point over the summed densities at the displacements to
    every other point, in the per-axis closed form of the module docstring;
    works elementwise, so a (B, N) stack of antennas works as one.  Where
    the ratio exceeds RELIABILITY_CAP (a symbol on a point with vanishing
    variance) the capped value is returned instead of infinity.
    ``nearest_levels`` is ``alphabet.nearest_levels(x_hat)``, which the
    caller holds from detection.
    """
    x_hat = np.atleast_1d(np.asarray(x_hat, dtype=complex))
    variance = np.broadcast_to(np.asarray(variance, dtype=float), x_hat.shape)
    if np.any(variance <= 0):
        raise InvalidContextError("distortion variance must be positive")
    levels = alphabet.levels
    axes = as_axes(x_hat)
    nearest_gap = axes - levels.take(nearest_levels)
    nearest_gap *= nearest_gap
    scale = -1.0 / variance[..., None]
    # O_I and O_Q: every other level of an axis, visited as the cyclic
    # offsets j = 1..m-1 from the nearest one (m is a power of two, so the
    # mask also undoes any wrap of the small unsigned level indices)
    other = np.zeros_like(axes)
    for offset in range(1, levels.size):
        gap = axes - levels.take((nearest_levels + offset) & (levels.size - 1))
        gap *= gap
        gap -= nearest_gap
        gap *= scale
        other += _exp(gap)
    other_i, other_q = other[..., 0], other[..., 1]
    with np.errstate(divide="ignore", over="ignore"):
        ratio = 1.0 / (other_i + other_q + other_i * other_q)
    return np.minimum(ratio, _CAPPED, out=ratio)


def _exp(x: np.ndarray) -> np.ndarray:
    """np.exp(x) bit for bit, with the arguments whose result underflows
    kept off numpy's slow path: with a small distortion variance nearly
    every other-level term is exactly zero, and only the rare arguments
    between _EXP_ZERO and _EXP_NORMAL go through np.exp itself."""
    out = np.maximum(x, _EXP_NORMAL)
    np.exp(out, out=out)
    out *= x >= _EXP_NORMAL
    subnormal = (x < _EXP_NORMAL) & (x >= _EXP_ZERO)
    if subnormal.any():
        out[subnormal] = np.exp(x[subnormal])
    return out


def top_reliable(reliability: np.ndarray, eligible: np.ndarray, count) -> np.ndarray:
    """Mask of the ``count`` most reliable eligible carriers along the last
    axis, ties to the lower carrier index; ``count`` has one entry per row.

    A stable sort ranks the eligible carriers by falling reliability; the
    ones ranked below the budget are kept.  So a row whose budget covers
    all its eligible carriers keeps them all, whatever the reliabilities:
    ``_top_carriers`` then does not compute them.
    """
    key = np.where(eligible, -reliability, np.inf)
    order = np.argsort(key, axis=-1, kind="stable")
    rank = np.empty_like(order)
    np.put_along_axis(rank, order, np.arange(key.shape[-1]), axis=-1)
    return eligible & (rank < np.expand_dims(count, -1))


def reliable_budget(base: GridEstimate, n_pilots: int, n_data: int,
                    expected_actives: int) -> np.ndarray:
    """(M, G) carrier budgets from the base estimate's own predicted error.

    In the pilot-starved regime (pilots <= 2 * (expected active taps + 1),
    at or barely above the noise-free identifiability point where recovery
    needs outside observations) every data carrier is offered and the
    neighborhood's decision unanimity does all the filtering.  Otherwise
    the error covariance trace over the estimate energy predicts how far
    the pilot-only estimate is from done, and carriers are requested in
    proportion: aggressive when pilots barely suffice, nearly inert when
    the pilot-only estimate is already clean.  An antenna whose final pass
    failed has a zero trace and gets the minimum.
    """
    if n_pilots <= 2 * (expected_actives + 1):
        return np.full(base.failed.shape, n_data)
    trace = np.trace(base.error_cov, axis1=-2, axis2=-1).real
    energy = np.sum(np.abs(base.taps) ** 2, axis=-1)
    budget = np.round(n_pilots * (trace / np.maximum(energy, 1e-30)) / RHO_REFERENCE)
    return np.clip(budget, MIN_RELIABLE, n_data).astype(int)


def select_and_agree(
    top: np.ndarray,
    decisions: np.ndarray,
    pilot_indices: np.ndarray,
    out: np.ndarray | None = None,
) -> list:
    """Neighborhood consensus for every central antenna at once.

    ``top`` (M, G, N) marks each antenna's own top-U carriers and
    ``decisions`` (M, G, N) holds its hard-decision symbol indices.  A
    carrier joins an antenna's consensus when it is no pilot, every member
    of the neighborhood ranks it top-U (a stencil AND) and every member
    decoded it to the same symbol (stencil min equals stencil max).  An
    empty consensus is valid.  Returns ``[row][col]`` ReliableSets over row
    views of ``top`` and the consensus mask; ``out``, when given, receives
    the (M, G, N) consensus mask.
    """
    agreed = stencil_reduce(top, np.logical_and)
    agreed &= stencil_reduce(decisions, np.minimum) == stencil_reduce(decisions, np.maximum)
    agreed[..., np.asarray(pilot_indices, dtype=int)] = False
    if out is not None:
        out[...] = agreed
    return [[ReliableSet(*views) for views in zip(*rows)] for rows in zip(top, agreed)]


def _top_carriers(base, observations_full, symbols, alphabet, eligible, budgets,
                  noise_var):
    """Every antenna's top-U mask, hard-decision indices and undecodable
    mask, (M, G, N) each, under the receiver noise level ``noise_var``.

    Works through ``ANTENNA_CHUNK`` antennas at a time: one detection (FFT,
    division, per-axis slicing) and one distortion FFT per chunk; the
    nearest levels give both the decisions and the reliabilities.  A
    carrier is offered when it is eligible and decodable.  A budget that
    covers every offered carrier keeps them all, so where every budget of
    a chunk does (always in the pilot-starved regime), the chunk's top
    sets are its offered carriers and no reliability is computed.  An
    antenna without taps decodes no carrier, so its top set is empty.
    """
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
        equalized, nearest, bad = detect(observations[chunk], taps[chunk], alphabet)
        decisions[chunk] = alphabet.indices_from_levels(nearest)
        undecodable[chunk] = bad
        offered = eligible & ~bad
        if np.all(budgets[chunk] >= offered.sum(axis=-1)):
            top[chunk] = offered
            continue
        variance = distortion_covariance(symbols, error_cov[chunk], noise_var,
                                         taps=support[chunk])
        reliability = carrier_reliability(equalized, variance, alphabet, nearest)
        top[chunk] = top_reliable(reliability, offered, budgets[chunk])
    shape = (*base.failed.shape, n_carriers)
    return top.reshape(shape), decisions.reshape(shape), undecodable.reshape(shape)


def toeplitz_grams(lags: np.ndarray) -> np.ndarray:
    """(..., L, L) Toeplitz matrices G_jl = lags[..., j - l + L - 1] as a
    zero-copy view of (..., 2L - 1) lags (lag -(L - 1) first)."""
    length = (lags.shape[-1] + 1) // 2
    return sliding_window_view(lags, length, axis=-1)[..., ::-1]


def reestimation_inputs(symbols, pilot_indices, observations, consensus, decisions,
                        alphabet, length):
    """Gram lags (B, 2L - 1), A^H y (B, L) and ||y||^2 (B,) of B augmented
    systems A = diag(s) F_L on the pilots plus each antenna's consensus.

    s holds the frame's pilot symbols and the agreed symbols
    ``alphabet.points[decisions]`` on the ``consensus`` (B, N) carriers, y
    the ``observations`` (B, N) there; both are zero on the other carriers.
    Then the Gram is ifft(|s|^2) at lags j - l mod N and A^H y is
    sqrt(N) ifft(conj(s) y)[:L]: one FFT pair per ``ANTENNA_CHUNK``
    antennas, with no augmented row matrix.
    """
    n_ant, n_carriers = observations.shape
    on_pilot = np.zeros(n_carriers, dtype=bool)
    on_pilot[pilot_indices] = True
    pilot_symbols = np.where(on_pilot, symbols, 0.0)
    lags = np.empty((n_ant, 2 * length - 1), dtype=complex)
    corr = np.empty((n_ant, length), dtype=complex)
    y_norm2 = np.empty(n_ant)
    # |s|^2 and conj(s) y of a chunk, transformed together
    spectra = np.zeros((2, min(n_ant, ANTENNA_CHUNK), n_carriers), dtype=complex)
    for start in range(0, n_ant, ANTENNA_CHUNK):
        chunk = slice(start, start + ANTENNA_CHUNK)
        used = consensus[chunk] | on_pilot
        s = np.where(consensus[chunk], alphabet.points[decisions[chunk]], pilot_symbols)
        y = np.where(used, observations[chunk], 0.0)
        chunk_spectra = spectra[:, :s.shape[0]]
        energy, s_y = chunk_spectra
        np.square(np.abs(s, out=energy.real), out=energy.real)
        np.multiply(s.conj(), y, out=s_y)
        gram_row, s_hy = np.fft.ifft(chunk_spectra, axis=-1)
        lags[chunk, :length - 1] = gram_row[:, n_carriers - length + 1:]
        lags[chunk, length - 1:] = gram_row[:, :length]
        corr[chunk] = np.sqrt(n_carriers) * s_hy[:, :length]
        y_norm2[chunk] = np.einsum("ij,ij->i", y.conj(), y).real
    return lags, corr, y_norm2


def run_data_aided(
    frame: OfdmFrame,
    observations_full: np.ndarray,
    base: GridEstimate,
    config: GridSolverConfig,
    alphabet: QamAlphabet,
) -> GridEstimate:
    """Refine a pilot-based grid estimate with agreed reliable data carriers.

    Per antenna: equalize with the base estimate, score data-carrier
    reliability from the base error covariance, pick the top U, agree with
    the neighborhood, then re-run the solver on the pilot rows plus the
    consensus carriers with the agreed decisions standing in as pilot
    symbols.  Antennas with an empty consensus keep their base estimate
    (flagged in diagnostics).  The products of the augmented systems
    diag(s) F_L are taken in closed form from the frame symbols.
    """
    n_carriers, length = frame.n_carriers, base.taps.shape[-1]
    symbols = frame.freq_symbols
    pilots = frame.pilot_indices
    n_data = n_carriers - pilots.shape[0]

    data_mask = np.ones(n_carriers, dtype=bool)
    data_mask[pilots] = False

    # each antenna's own carrier budget; neighbors then settle on the largest
    # budget in their neighborhood so one clean member cannot starve the
    # intersection of a struggling neighborhood (one extra shared integer)
    expected_actives = max(1, round(length * config.lambda_init))
    budgets = reliable_budget(base, pilots.shape[0], n_data, expected_actives)
    top, decisions, undecodable = _top_carriers(
        base, observations_full, symbols, alphabet, data_mask,
        stencil_reduce(budgets, np.maximum), config.noise_var,
    )
    consensus = np.empty_like(top)
    agreements = select_and_agree(top, decisions, pilots, out=consensus)

    taps = base.taps.copy()
    support = base.support.copy()
    error_cov = base.error_cov.copy()
    fallback = np.ones(base.failed.shape, dtype=bool)
    aided = np.nonzero(consensus.any(axis=-1))
    if aided[0].size:
        # every augmented system has at least K + 1 > t_max rows, so no chain
        # fills its rows and all of them go through one batched search; the
        # agreed decisions stand in as pilot symbols on the consensus carriers.
        # An antenna whose base pass failed has no taps, so it decodes no
        # carrier and joins no consensus; an aided antenna's Gram holds the
        # pilots' energy on its diagonal, so its chain cannot fail either
        lags, corr, y_norm2 = reestimation_inputs(
            symbols, pilots, observations_full[aided], consensus[aided],
            decisions[aided], alphabet, length,
        )
        stack = greedy_search_batch(
            toeplitz_grams(lags), corr, y_norm2, base.priors[aided], config.noise_var,
            base.support.shape[-1],
        )
        taps[aided] = stack.taps
        support[aided] = stack.chosen
        error_cov[aided] = error_covariances(stack)
        fallback[aided] = False

    return GridEstimate(
        taps=taps,
        support=support,
        error_cov=error_cov,
        priors=base.priors,
        failed=base.failed.copy(),
        diagnostics={
            "fallback_no_consensus": fallback,
            "agreements": agreements,
            "base_decisions": decisions,
            "base_undecodable": undecodable,
        },
    )
