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

The top-U pick ranks by falling reliability with ties to the lower
carrier index.  A capped reliability is the largest value there is, and
capped values tie, so an antenna with U capped offered carriers among its
first w carriers takes the first U of them, whatever its other carriers
hold.  So reliabilities are computed on a prefix of the ranked rows, one
carrier window shared by every open row per round: the first ends at the
U-th data carrier of the largest budget, and each later one doubles the
prefix, up to N, until a row holds U capped carriers; only a row short of
U capped carriers over all N is ranked on every carrier.  At paper scale
nearly every carrier is capped and the prefix is a few carriers of
hundreds.  A tie order other than carrier index would have to visit the
carriers in that order instead.

Nor does a capped carrier need its distortion variance.  The FFT of the
lag sums c cannot exceed sum_m |c_m| <= sum_jk |R_jk| in magnitude, so

    v_bar_n = (1 + SPREAD_SLACK) sum_jk |R_jk| |s_n|^2 / N + sigma_w^2

bounds the variance at carrier n with no FFT.  With A = ln RELIABILITY_CAP
+ ln(2 m^2), a symbol whose smallest exponent gap (x_I - a_k)^2 - (x_I -
a_{n_I})^2 over both axes exceeds A v_bar_n has each of the 2(m - 1) terms
of O_I and O_Q below 1 / (2 m^2 RELIABILITY_CAP) under any variance up to
the bound, so its ratio clears the cap by a factor of m: the bound settles
it exactly.  An offered carrier the bound leaves in doubt takes the exact
variance only while its row holds fewer than U capped carriers before it,
those capped in earlier windows and those capped for sure earlier in the
window: with ties to the lower index, a carrier after the U-th cannot
enter the top U.  A row's variances come from the FFT, ``ANTENNA_CHUNK``
rows per call, the first time one of its carriers is taken so.  At paper
scale that is a few rows per trial; where carriers sit near their decision
boundaries most ranked rows still take it.

Equalization, slicing, distortion variances and the re-estimation FFTs
run on ``ANTENNA_CHUNK`` antennas at a time, and each window's bounds and
reliabilities in (rows, carriers) blocks of at most ``ANTENNA_CHUNK`` x N
carriers; the consensus is stencil arithmetic on (M, G, N) carrier masks
and symbol indices, and its (M, G, N) mask is the stage's ``"consensus"``
diagnostic.
"""

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InvalidContextError
from .ofdm import OfdmFrame, detect
from .qam import QamAlphabet, as_axes
from .sharing import GridEstimate, GridSolverConfig, stencil_reduce
from .solver import greedy_search_batch

#: reliability ratios are capped here instead of overflowing to inf
RELIABILITY_CAP = 1e300

#: the value a capped ratio takes (the cap as the log-domain form rounded it)
_CAPPED = np.exp(np.log(RELIABILITY_CAP))

#: relative slack of the distortion variance bound over the FFT's rounding,
#: which stays orders of magnitude below it at any carrier count used here
SPREAD_SLACK = 1e-9

#: predicted relative error at which one pilot budget of reliable carriers is
#: requested; the default carrier budget scales linearly with the prediction
RHO_REFERENCE = 0.04

#: minimum per-antenna carrier budget (keeps refinement strictly active)
MIN_RELIABLE = 2

#: antennas processed at once wherever a stage works on their length-N
#: carrier rows: the (chunk, N) FFTs and the (chunk, N, 2) per-axis slicing
#: and reliability temporaries here and in BER scoring (a reliability call
#: takes at most ANTENNA_CHUNK x N carriers); bounds memory, results do not
#: depend on it
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
    scale = -1.0 / variance[..., None]
    # O_I and O_Q, one other level of both axes at a time
    other = np.zeros((*x_hat.shape, 2))
    for gap in _level_gaps(x_hat, nearest_levels, alphabet.levels):
        gap *= scale
        other += np.exp(gap)
    other_i, other_q = other[..., 0], other[..., 1]
    with np.errstate(divide="ignore", over="ignore"):
        ratio = 1.0 / (other_i + other_q + other_i * other_q)
    return np.minimum(ratio, _CAPPED, out=ratio)


def _level_gaps(x_hat, nearest_levels, levels):
    """The density-ratio exponent gaps (u - a_k)^2 - (u - a_n)^2 of both
    axes u of the symbols ``x_hat``, (..., 2) arrays, one other level k per
    array: every other level of an axis, visited as the cyclic offsets
    j = 1..m-1 from the nearest one n (m is a power of two, so the mask also
    undoes any wrap of the small unsigned level indices)."""
    axes = as_axes(x_hat)
    nearest_gap = axes - levels.take(nearest_levels)
    nearest_gap *= nearest_gap
    for offset in range(1, levels.size):
        gap = axes - levels.take((nearest_levels + offset) & (levels.size - 1))
        gap *= gap
        gap -= nearest_gap
        yield gap


def _capped_for_sure(x_hat, nearest_levels, bound, alphabet) -> np.ndarray:
    """Mask of the symbols whose ``carrier_reliability`` is capped under
    every distortion variance up to ``bound``, elementwise.

    Such a symbol's smallest exponent gap exceeds A * bound, with
    A = ln(RELIABILITY_CAP) + ln(2 m^2).  Then every exponent is below -A
    under any variance up to the bound, each of the 2(m - 1) terms of
    O_I + O_Q is below 1 / (2 m^2 RELIABILITY_CAP), and the ratio clears
    the cap by a factor of m, far beyond any rounding.
    """
    gaps = _level_gaps(x_hat, nearest_levels, alphabet.levels)
    floor = next(gaps)
    for gap in gaps:
        np.minimum(floor, gap, out=floor)
    margin = np.log(RELIABILITY_CAP) + np.log(2.0 * alphabet.levels.size ** 2)
    return np.minimum(floor[..., 0], floor[..., 1]) > margin * bound


def top_reliable(reliability: np.ndarray, eligible: np.ndarray, count) -> np.ndarray:
    """Mask of the ``count`` most reliable eligible carriers along the last
    axis, ties to the lower carrier index; ``count`` has one entry per row.

    A stable sort ranks the eligible carriers by falling reliability; the
    ones ranked below the budget are kept.  So a row whose budget covers
    all its eligible carriers keeps them all, whatever the reliabilities:
    ``_top_carriers`` then does not compute them.  Capped reliabilities tie
    at the top and go in carrier order, so where a prefix of the row holds
    ``count`` capped eligible carriers, they are the pick: ``_rank_rows``
    computes the reliabilities on that prefix only.  A different tie order
    must change the order in which ``_rank_rows`` visits the carriers.
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
) -> Iterator[list[ReliableSet]]:
    """Neighborhood consensus for every central antenna at once.

    ``top`` (M, G, N) marks each antenna's own top-U carriers and
    ``decisions`` (M, G, N) holds its hard-decision symbol indices.  A
    carrier joins an antenna's consensus when it is no pilot, every member
    of the neighborhood ranks it top-U (a stencil AND) and every member
    decoded it to the same symbol (stencil min equals stencil max).  An
    empty consensus is valid.  The mask is computed at once, into ``out``
    when given; the rows of ReliableSets over row views of ``top`` and the
    mask are built only as the returned generator is iterated.
    """
    agreed = stencil_reduce(top, np.logical_and)
    agreed &= stencil_reduce(decisions, np.minimum) == stencil_reduce(decisions, np.maximum)
    agreed[..., np.asarray(pilot_indices, dtype=int)] = False
    if out is not None:
        out[...] = agreed
    return ([ReliableSet(*views) for views in zip(*rows)] for rows in zip(top, agreed))


def _top_carriers(base, observations_full, symbols, alphabet, eligible, budgets,
                  noise_var):
    """Every antenna's top-U mask, hard-decision indices and undecodable
    mask, (M, G, N) each, under the receiver noise level ``noise_var``.

    Detection (FFT, division, per-axis slicing) runs on ``ANTENNA_CHUNK``
    antennas at a time over every carrier; the nearest levels give both
    the decisions and the reliabilities.  A carrier is offered when it is
    eligible and decodable.  A row whose budget covers every offered
    carrier keeps them all (always so in the pilot-starved regime, and
    always for an antenna without taps, which decodes no carrier).
    ``_rank_rows`` picks the other rows' top sets, and takes distortion
    variances only for the rows where a bound leaves a carrier in doubt.
    """
    n_carriers, length = symbols.shape[0], base.taps.shape[-1]
    n_ant = base.failed.size
    taps = base.taps.reshape(n_ant, length)
    observations = observations_full.reshape(n_ant, n_carriers)
    budgets = budgets.reshape(n_ant)
    top = np.empty((n_ant, n_carriers), dtype=bool)  # offered until the ranked rows pick
    decisions = np.empty((n_ant, n_carriers), dtype=np.min_scalar_type(alphabet.order - 1))
    undecodable = np.empty((n_ant, n_carriers), dtype=bool)
    ranked = np.zeros(n_ant, dtype=bool)
    if np.any(budgets < np.count_nonzero(eligible)):
        # reliability inputs, filled on the chunks with a ranked row; where
        # every budget covers every eligible carrier (the pilot-starved
        # regime) no row ranks, and these arrays, even untouched, measurably
        # slowed the rest of the trial
        equalized = np.empty((n_ant, n_carriers), dtype=complex)
        nearest = np.empty((n_ant, n_carriers, 2),
                           dtype=np.min_scalar_type(alphabet.levels.size - 1))
    for start in range(0, n_ant, ANTENNA_CHUNK):
        chunk = slice(start, start + ANTENNA_CHUNK)
        x, levels, bad = detect(observations[chunk], taps[chunk], alphabet)
        decisions[chunk] = alphabet.indices_from_levels(levels)
        undecodable[chunk] = bad
        top[chunk] = eligible & ~bad
        ranked[chunk] = budgets[chunk] < top[chunk].sum(axis=-1)
        if ranked[chunk].any():
            equalized[chunk], nearest[chunk] = x, levels
    if ranked.any():
        offered = top.copy()
        top[ranked] = False
        distortion = _RowDistortion(symbols, base, noise_var)
        _rank_rows(top, np.flatnonzero(ranked), eligible, offered, budgets, equalized,
                   nearest, alphabet, distortion)
    shape = (*base.failed.shape, n_carriers)
    return top.reshape(shape), decisions.reshape(shape), undecodable.reshape(shape)


class _RowDistortion:
    """The distortion variances of a grid's antenna rows, read two ways: a
    bound at any carrier with no FFT, and the exact variances of a row,
    taken from ``distortion_covariance``, ``ANTENNA_CHUNK`` rows per call,
    the first time the row is asked for."""

    def __init__(self, symbols, base, noise_var):
        n_ant = base.failed.size
        self.symbols, self.noise_var = symbols, noise_var
        self.support = base.support.reshape(n_ant, -1)
        self.error_cov = base.error_cov.reshape(n_ant, *base.error_cov.shape[-2:])
        self.spread = (1.0 + SPREAD_SLACK) * np.abs(self.error_cov).sum(axis=(-2, -1))
        self.power = np.abs(symbols) ** 2 / symbols.shape[0]
        self.variance = None  # (n_ant, N), allocated when a row first needs it
        self.known = np.zeros(n_ant, dtype=bool)

    def bound(self, rows, window):
        """(rows, carriers) upper bounds on the variances of ``rows`` at the
        carriers ``window``:
        (1 + SPREAD_SLACK) sum_jk |R_jk| |s_n|^2 / N + sigma_w^2.

        The FFT of the lag sums c cannot exceed sum_m |c_m| <= sum_jk |R_jk|
        in magnitude, and the slack covers its rounding.  Both then take
        the same |s_n|^2 / N and sigma_w^2, and rounding keeps the order of
        a product and a sum.
        """
        return self.spread[rows, None] * self.power[window] + self.noise_var

    def variances(self, rows):
        """The (n_ant, N) variances, exact at least on ``rows`` (repeats
        allowed)."""
        if self.variance is None:
            self.variance = np.empty((self.known.size, self.power.size))
        # a mask, not np.unique, which adds ~1.3 MiB to peak RSS
        asked = np.zeros_like(self.known)
        asked[rows] = True
        new = np.flatnonzero(asked & ~self.known)
        for block in range(0, new.size, ANTENNA_CHUNK):
            stack = new[block:block + ANTENNA_CHUNK]
            self.variance[stack] = distortion_covariance(
                self.symbols, self.error_cov[stack], self.noise_var, taps=self.support[stack])
        self.known[new] = True
        return self.variance


def _rank_rows(top, rows, eligible, offered, budgets, equalized, nearest, alphabet,
               distortion):
    """Set in ``top``, zero on ``rows``, the ``budgets`` most reliable
    ``offered`` carriers of each of ``rows``, as ``top_reliable`` picks them,
    with reliabilities computed only on a prefix of the rows where that
    settles the pick, and exactly only where a bound leaves them in doubt.

    A capped reliability is the largest value there is, and capped values
    tie, which the stable sort settles by carrier index.  So a row holding
    at least U capped offered carriers in a prefix has as its top U the
    first U of them, whatever the rest of the row holds.  Each round scores
    one carrier window ``[start, end)`` of every open row.  The first ends
    at the U-th eligible carrier of the largest budget, where that row's
    U-th offered one sits unless an undecodable carrier comes first: no
    shorter prefix can settle it.  Each further window doubles the prefix
    (up to N).  A row short of U capped carriers over all N goes through
    ``carrier_reliability`` and ``top_reliable`` on its full row.

    Scoring a carrier first asks ``_capped_for_sure`` under the
    ``distortion`` bound, which is exact where it settles (the reliability
    is capped under any variance it covers).  An offered carrier it leaves
    in doubt goes through ``carrier_reliability`` with its row's exact
    variances only while the row holds fewer than U capped carriers before
    it: those capped in earlier windows and those capped for sure earlier
    in this one.  A carrier after the U-th cannot enter the top U.  The
    window is scored in (rows, carriers) blocks of at most
    ``ANTENNA_CHUNK`` x N carriers, and at least one row.
    """
    n_carriers = offered.shape[-1]
    capped = np.zeros(offered.shape, dtype=bool)
    held = np.zeros(rows.size, dtype=int)  # capped carriers of each open row so far
    start, end = 0, np.searchsorted(np.cumsum(eligible), budgets[rows].max()) + 1
    while True:
        window = slice(start, end)
        step = max(1, ANTENNA_CHUNK * n_carriers // (end - start))
        for block in range(0, rows.size, step):
            part = slice(block, block + step)
            ids = rows[part]
            x, levels, on = equalized[ids, window], nearest[ids, window], offered[ids, window]
            hit = on & _capped_for_sure(x, levels, distortion.bound(ids, window), alphabet)
            doubt = on & ~hit & (held[part, None] + np.cumsum(hit, axis=-1) < budgets[ids, None])
            if doubt.any():
                variance = distortion.variances(ids[doubt.any(axis=-1)])[ids, window]
                hit[doubt] = carrier_reliability(x[doubt], variance[doubt], alphabet,
                                                 levels[doubt]) == _CAPPED
            capped[ids, window] = hit
            held[part] += hit.sum(axis=-1)
        settled = held >= budgets[rows]
        done = rows[settled]
        hold = capped[done, :end]
        top[done, :end] = hold & (np.cumsum(hold, axis=-1) <= budgets[done, None])
        rows, held = rows[~settled], held[~settled]
        if not rows.size or end == n_carriers:
            break
        start, end = end, min(2 * end, n_carriers)
    if rows.size:
        variance = distortion.variances(rows)
    for block in range(0, rows.size, ANTENNA_CHUNK):
        full = rows[block:block + ANTENNA_CHUNK]
        reliability = carrier_reliability(equalized[full], variance[full], alphabet,
                                          nearest[full])
        top[full] = top_reliable(reliability, offered[full], budgets[full])


def toeplitz_grams(lags: np.ndarray) -> np.ndarray:
    """(..., L, L) Toeplitz matrices G_jl = lags[..., j - l + L - 1] as a
    zero-copy view of (..., 2L - 1) lags (lag -(L - 1) first)."""
    length = (lags.shape[-1] + 1) // 2
    return sliding_window_view(lags, length, axis=-1)[..., ::-1]


def reestimation_inputs(symbols, on_pilot, observations, consensus, decisions,
                        alphabet, length):
    """Gram lags (B, 2L - 1), A^H y (B, L) and ||y||^2 (B,) of B augmented
    systems A = diag(s) F_L on the pilots plus each antenna's consensus.

    ``on_pilot`` is the (N,) pilot mask (a frame's ``~data_mask``).  s
    holds the frame's pilot symbols and the agreed symbols
    ``alphabet.points[decisions]`` on the ``consensus`` (B, N) carriers, y
    the ``observations`` (B, N) there; both are zero on the other carriers.
    Then the Gram is ifft(|s|^2) at lags j - l mod N and A^H y is
    sqrt(N) ifft(conj(s) y)[:L]: one FFT pair per ``ANTENNA_CHUNK``
    antennas, with no augmented row matrix.
    """
    n_ant, n_carriers = observations.shape
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


@dataclass
class AidedEstimate:
    """What the data-aided stage hands on: the refined (M, G, L) taps and
    the diagnostics arrays ``run_data_aided`` lists."""

    taps: np.ndarray
    diagnostics: dict


def run_data_aided(
    frame: OfdmFrame,
    observations_full: np.ndarray,
    base: GridEstimate,
    config: GridSolverConfig,
    alphabet: QamAlphabet,
) -> AidedEstimate:
    """Refine a pilot-based grid estimate with agreed reliable data carriers.

    Per antenna: equalize with the base estimate, score data-carrier
    reliability from the base error covariance, pick the top U, agree with
    the neighborhood, then re-run the solver on the pilot rows plus the
    consensus carriers with the agreed decisions standing in as pilot
    symbols; antennas with an empty consensus keep their base taps.
    The augmented systems diag(s) F_L are taken in closed form.  The
    diagnostics are arrays: the (M, G) ``"fallback_no_consensus"`` flags,
    the (M, G, N) ``"consensus"`` mask, and the base estimate's (M, G, N)
    ``"base_decisions"`` and ``"base_undecodable"`` on every carrier.
    """
    length = base.taps.shape[-1]
    symbols = frame.freq_symbols
    pilots = frame.pilot_indices

    # each antenna's own carrier budget; neighbors then settle on the largest
    # budget in their neighborhood so one clean member cannot starve the
    # intersection of a struggling neighborhood (one extra shared integer)
    expected_actives = max(1, round(length * config.lambda_init))
    budgets = reliable_budget(base, pilots.shape[0], np.count_nonzero(frame.data_mask),
                              expected_actives)
    top, decisions, undecodable = _top_carriers(
        base, observations_full, symbols, alphabet, frame.data_mask,
        stencil_reduce(budgets, np.maximum), config.noise_var,
    )
    consensus = np.empty_like(top)
    select_and_agree(top, decisions, pilots, out=consensus)

    taps = base.taps.copy()
    fallback = ~consensus.any(axis=-1)
    aided = np.nonzero(~fallback)
    if aided[0].size:
        # every augmented system has at least K + 1 > t_max rows, so no chain
        # fills its rows and all of them go through one batched search; the
        # agreed decisions stand in as pilot symbols on the consensus carriers.
        # An antenna whose base pass failed has no taps, so it decodes no
        # carrier and joins no consensus; an aided antenna's Gram holds the
        # pilots' energy on its diagonal, so its chain cannot fail either
        lags, corr, y_norm2 = reestimation_inputs(
            symbols, ~frame.data_mask, observations_full[aided], consensus[aided],
            decisions[aided], alphabet, length,
        )
        taps[aided] = greedy_search_batch(
            toeplitz_grams(lags), corr, y_norm2, base.priors[aided], config.noise_var,
            base.support.shape[-1],
        ).taps

    return AidedEstimate(taps=taps, diagnostics={
        "fallback_no_consensus": fallback,
        "consensus": consensus,
        "base_decisions": decisions,
        "base_undecodable": undecodable,
    })
