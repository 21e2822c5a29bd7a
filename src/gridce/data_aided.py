"""Reliable-carrier selection and pilot+reliable re-estimation.

After a pilot-based grid estimate, each antenna equalizes its data
carriers and scores how firmly each detected symbol sits inside its
decision region, given the combined distortion (channel estimation error
plus noise).  Neighborhoods agree on carriers that every member ranks
reliable *and* decodes identically; those carriers then act as extra
pilots for one more estimation pass.

Equalization, slicing and reliability run on ``GRAM_CHUNK`` antennas at a
time; the consensus is stencil arithmetic on (M, G, N) carrier masks and
symbol indices.
"""

from dataclasses import dataclass

import numpy as np

from .channels import AntennaGrid
from .errors import ConfigurationError, IllConditionedSupportError, InvalidContextError
from .ofdm import OfdmFrame, SensingMatrix, equalize, freq_response
from .posterior import ErrorCovariance, error_covariance, error_covariances
from .qam import QamAlphabet
from .sharing import GridEstimate, GridSolverConfig, stencil_reduce
from .solver import BernoulliPrior, greedy_search, greedy_search_batch

#: reliability ratios are capped here instead of overflowing to inf
RELIABILITY_CAP = 1e300

#: predicted relative error at which one pilot budget of reliable carriers is
#: requested; the default carrier budget scales linearly with the prediction
RHO_REFERENCE = 0.04

#: minimum per-antenna carrier budget (keeps refinement strictly active)
MIN_RELIABLE = 2

#: antennas processed at once wherever a stage works on a stack of them:
#: augmented Gram matrices (L x L each) during re-estimation, and the
#: (chunk, N, Q) slicing and reliability temporaries here and in BER
#: scoring; bounds memory, results do not depend on it
GRAM_CHUNK = 16


@dataclass(frozen=True)
class ReliabilityContext:
    """Per-carrier variance of the combined distortion A h_err + w: the
    diagonal of A R A^H + sigma_w^2 I, the only part ever consumed."""

    per_carrier_var: np.ndarray


@dataclass
class ReliableSet:
    """One central antenna's view: its own top-U carriers, the carriers its
    whole neighborhood agrees on, and the agreed symbols there."""

    own_top: np.ndarray
    consensus: np.ndarray
    agreed_symbols: np.ndarray


def distortion_covariance(
    sensing_full: SensingMatrix | np.ndarray,
    err_cov: ErrorCovariance | list | np.ndarray,
    noise_var: float | np.ndarray,
) -> ReliabilityContext:
    """Variance of the combined distortion per carrier: diag(A R A^H) + sigma_w^2.

    An ``ErrorCovariance`` lives on its detected taps, so only those
    columns of A enter; a bare matrix is taken over all L columns.  A list
    of ``ErrorCovariance`` sharing one tap count T, with one noise variance
    each, gives one row of variances per entry from a single (B, N, T)
    product.
    """
    a = sensing_full.rows if isinstance(sensing_full, SensingMatrix) else np.asarray(sensing_full)
    if isinstance(err_cov, ErrorCovariance):
        a, r = a[:, err_cov.taps], err_cov.matrix
    elif isinstance(err_cov, list):
        a = np.moveaxis(a[:, np.stack([cov.taps for cov in err_cov])], 1, 0)
        r = np.stack([cov.matrix for cov in err_cov])
        noise_var = np.asarray(noise_var)[:, None]
    else:
        r = np.asarray(err_cov)
    diag = np.einsum("...ij,...ij->...i", a @ r, a.conj()).real + noise_var
    return ReliabilityContext(per_carrier_var=diag)


def carrier_reliability(x_hat, variance, alphabet, sliced=None) -> np.ndarray:
    """Reliability of equalized symbols under a per-carrier Gaussian model.

    Ratio of the distortion density at the displacement to the nearest
    constellation point over the summed densities at the displacements to
    every other point.  Computed in the log domain over the last axis, so
    a (B, N) stack of antennas works as one; a symbol exactly on a point
    with vanishing variance returns the RELIABILITY_CAP rather than
    infinity.  ``sliced`` is the (squared distances, nearest indices) pair
    of ``x_hat`` when the caller already holds it.
    """
    x_hat = np.atleast_1d(np.asarray(x_hat, dtype=complex))
    variance = np.broadcast_to(np.asarray(variance, dtype=float), x_hat.shape)
    if np.any(variance <= 0):
        raise InvalidContextError("distortion variance must be positive")
    if sliced is None:
        d2 = alphabet.sq_distances(x_hat)
        sliced = d2, alphabet.nearest_indices(x_hat, d2)
    d2, nearest = sliced

    loglik = np.negative(d2)
    loglik /= variance[..., None]
    nearest = np.expand_dims(nearest, -1)
    log_num = np.take_along_axis(loglik, nearest, axis=-1)[..., 0]
    np.put_along_axis(loglik, nearest, -np.inf, axis=-1)  # every other point
    peak = loglik.max(axis=-1, keepdims=True)
    loglik -= peak
    log_den = peak[..., 0] + np.log(np.exp(loglik, out=loglik).sum(axis=-1))
    return np.exp(np.minimum(log_num - log_den, np.log(RELIABILITY_CAP)))


def top_reliable(reliability: np.ndarray, eligible: np.ndarray, count) -> np.ndarray:
    """Mask of the ``count`` most reliable eligible carriers along the last
    axis, ties to the lower carrier index; ``count`` has one entry per row.

    A stable sort ranks the eligible carriers by falling reliability; the
    ones ranked below the budget are kept.
    """
    key = np.where(eligible, -reliability, np.inf)
    order = np.argsort(key, axis=-1, kind="stable")
    rank = np.empty_like(order)
    np.put_along_axis(rank, order, np.arange(key.shape[-1]), axis=-1)
    return eligible & (rank < np.expand_dims(count, -1))


def reliable_budget(base: GridEstimate, antenna, n_pilots: int, n_data: int,
                    expected_actives: int) -> int:
    """Carrier budget from the base estimate's own predicted relative error.

    In the pilot-starved regime (pilots <= 2 * (expected active taps + 1),
    at or barely above the noise-free identifiability point where recovery
    needs outside observations) every data carrier is offered and the
    neighborhood's decision unanimity does all the filtering.  Otherwise
    the error covariance trace over the estimate energy predicts how far
    the pilot-only estimate is from done, and carriers are requested in
    proportion: aggressive when pilots barely suffice, nearly inert when
    the pilot-only estimate is already clean.
    """
    if n_pilots <= 2 * (expected_actives + 1):
        return n_data
    r, c = antenna
    cov = base.covariances[r][c]
    if cov is None:
        return MIN_RELIABLE
    energy = float(np.sum(np.abs(base.taps[r, c]) ** 2))
    rho = cov.mmse_trace / max(energy, 1e-30)
    budget = int(round(n_pilots * rho / RHO_REFERENCE))
    return int(np.clip(budget, MIN_RELIABLE, n_data))


def select_and_agree(
    top: np.ndarray,
    decisions: np.ndarray,
    pilot_indices: np.ndarray,
    alphabet: QamAlphabet,
) -> list:
    """Neighborhood consensus for every central antenna at once.

    ``top`` (M, G, N) marks each antenna's own top-U carriers and
    ``decisions`` (M, G, N) holds its hard-decision symbol indices.  A
    carrier joins an antenna's consensus when it is no pilot, every member
    of the neighborhood ranks it top-U (a stencil AND) and every member
    decoded it to the same symbol (stencil min equals stencil max).  An
    empty consensus is valid.  Returns ``[row][col]`` ReliableSets.
    """
    agreed = stencil_reduce(top, np.logical_and)
    agreed &= stencil_reduce(decisions, np.minimum) == stencil_reduce(decisions, np.maximum)
    agreed[..., np.asarray(pilot_indices, dtype=int)] = False
    out = []
    for r in range(top.shape[0]):
        row = []
        for c in range(top.shape[1]):
            consensus = np.flatnonzero(agreed[r, c])
            row.append(ReliableSet(
                own_top=np.flatnonzero(top[r, c]),
                consensus=consensus,
                agreed_symbols=alphabet.points[decisions[r, c, consensus]],
            ))
        out.append(row)
    return out


def _top_carriers(base, observations_full, rows_mat, alphabet, eligible, budgets):
    """Every antenna's top-U mask and hard-decision indices, (M, G, N) each.

    Works through ``GRAM_CHUNK`` antennas at a time: one FFT and one
    nearest-point pass per chunk, whose distances also feed the
    reliabilities.  Antennas without a usable base estimate keep an empty
    top set.
    """
    n_carriers, length = rows_mat.shape
    grid_shape = base.taps.shape[:2]
    n_ant = base.failed.size
    taps = base.taps.reshape(n_ant, length)
    observations = observations_full.reshape(n_ant, n_carriers)
    covariances = [cov for row in base.covariances for cov in row]
    noise_vars = base.noise_vars.reshape(n_ant)
    budgets = budgets.reshape(n_ant)
    usable = ~base.failed.reshape(n_ant) & np.array([cov is not None for cov in covariances])
    top = np.zeros((n_ant, n_carriers), dtype=bool)
    decisions = np.empty((n_ant, n_carriers), dtype=np.min_scalar_type(alphabet.order - 1))
    for start in range(0, n_ant, GRAM_CHUNK):
        chunk = slice(start, start + GRAM_CHUNK)
        equalized, bad = equalize(observations[chunk], freq_response(taps[chunk], n_carriers))
        d2 = alphabet.sq_distances(equalized)
        decisions[chunk] = alphabet.nearest_indices(equalized, d2)
        members = start + np.flatnonzero(usable[chunk])
        if not members.size:
            continue
        local = members - start
        # distortion variances are one batched product per detected-tap count
        t_sizes = np.array([covariances[i].taps.size for i in members])
        variance = np.empty((members.size, n_carriers))
        for t in set(t_sizes.tolist()):
            same = t_sizes == t
            variance[same] = distortion_covariance(
                rows_mat, [covariances[i] for i in members[same]], noise_vars[members[same]]
            ).per_carrier_var
        reliability = carrier_reliability(
            equalized[local], variance, alphabet, (d2[local], decisions[members])
        )
        top[members] = top_reliable(reliability, eligible & ~bad[local], budgets[members])
    shape = (*grid_shape, n_carriers)
    return top.reshape(shape), decisions.reshape(shape)


def run_data_aided(
    grid: AntennaGrid,
    frame: OfdmFrame,
    sensing_full: SensingMatrix,
    observations_full: np.ndarray,
    base: GridEstimate,
    config: GridSolverConfig,
    alphabet: QamAlphabet,
    n_reliable: int | None = None,
) -> GridEstimate:
    """Refine a pilot-based grid estimate with agreed reliable data carriers.

    Per antenna: equalize with the base estimate, score data-carrier
    reliability from the base error covariance, pick the top U, agree with
    the neighborhood, then re-run the solver on the pilot rows plus the
    consensus carriers with the agreed decisions standing in as pilot
    symbols.  Antennas with an empty consensus keep their base estimate
    (flagged in diagnostics).
    """
    if base.covariances is None:
        raise ConfigurationError("base estimate must carry error covariances")
    rows_mat = sensing_full.rows
    n_carriers, length = rows_mat.shape
    pilots = frame.pilot_indices
    n_data = n_carriers - pilots.shape[0]
    if n_reliable is not None and n_reliable > n_data:
        raise ConfigurationError(
            f"n_reliable={n_reliable} exceeds data carrier count {n_data}"
        )

    data_mask = np.ones(n_carriers, dtype=bool)
    data_mask[pilots] = False

    # each antenna's own carrier budget; neighbors then settle on the largest
    # budget in their neighborhood so one clean member cannot starve the
    # intersection of a struggling neighborhood (one extra shared integer)
    expected_actives = max(1, round(length * config.lambda_init))
    budgets = np.zeros((grid.rows, grid.cols), dtype=int)
    for r, c in grid.antennas():
        budgets[r, c] = (
            n_reliable if n_reliable is not None
            else reliable_budget(base, (r, c), pilots.shape[0], n_data,
                                 expected_actives)
        )
    top, decisions = _top_carriers(
        base, observations_full, rows_mat, alphabet, data_mask,
        stencil_reduce(budgets, np.maximum),
    )
    agreements = select_and_agree(top, decisions, pilots, alphabet)

    taps = base.taps.copy()
    estimates = [list(row) for row in base.estimates]
    covariances = [list(row) for row in base.covariances]
    failed = base.failed.copy()
    fallback = np.ones((grid.rows, grid.cols), dtype=bool)
    t_max = config.resolve_t_max(length, pilots.shape[0])
    dft_rows = rows_mat / frame.freq_symbols[:, None]  # bare F_L rows

    def augmented(r, c):
        """Pilot rows plus the consensus carriers, with the agreed
        decisions standing in as pilot symbols."""
        reliable = agreements[r][c]
        a_aug = np.vstack([
            rows_mat[pilots],
            reliable.agreed_symbols[:, None] * dft_rows[reliable.consensus],
        ])
        y_aug = np.concatenate([
            observations_full[r, c, pilots],
            observations_full[r, c, reliable.consensus],
        ])
        return a_aug, y_aug

    # every augmented system has at least K + 1 > t_max rows, so no chain
    # fills its rows and all of them go through the batched search
    aided = [(r, c) for r, c in grid.antennas()
             if not base.failed[r, c] and agreements[r][c].consensus.size]
    for start in range(0, len(aided), GRAM_CHUNK):
        chunk = aided[start:start + GRAM_CHUNK]
        gram = np.empty((len(chunk), length, length), dtype=complex)
        corr = np.empty((len(chunk), length), dtype=complex)
        y_norm2 = np.empty(len(chunk))
        for k, (r, c) in enumerate(chunk):
            a_aug, y_aug = augmented(r, c)
            gram[k] = a_aug.conj().T @ a_aug
            corr[k] = a_aug.conj().T @ y_aug
            y_norm2[k] = np.vdot(y_aug, y_aug).real
        chunk_rows, chunk_cols = np.array(chunk).T
        stack = greedy_search_batch(
            gram, corr, y_norm2, base.priors[chunk_rows, chunk_cols],
            base.noise_vars[chunk_rows, chunk_cols], t_max,
        )
        blocks = error_covariances(stack)
        for k, ((r, c), est) in enumerate(zip(chunk, stack.estimates())):
            if not stack.failed[k]:
                cov = ErrorCovariance(taps=stack.chosen[k], matrix=blocks[k])
            else:  # the chain stopped early: the per-antenna solver decides
                a_aug, y_aug = augmented(r, c)
                try:
                    est = greedy_search(a_aug, y_aug, BernoulliPrior(base.priors[r, c]),
                                        base.noise_vars[r, c], t_max)
                except IllConditionedSupportError:
                    continue  # keeps the base estimate, flagged as a fallback
                cov = error_covariance(est)
            fallback[r, c] = False
            estimates[r][c] = est
            taps[r, c] = est.h_ammse
            covariances[r][c] = cov

    return GridEstimate(
        taps=taps,
        estimates=estimates,
        covariances=covariances,
        priors=base.priors,
        noise_vars=base.noise_vars,
        failed=failed,
        diagnostics={
            **base.diagnostics,
            "data_aided": True,
            "fallback_no_consensus": fallback,
            "n_reliable": n_reliable if n_reliable is not None else "adaptive",
            "agreements": agreements,
        },
    )
