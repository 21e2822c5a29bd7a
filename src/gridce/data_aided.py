"""Reliable-carrier selection and pilot+reliable re-estimation.

After a pilot-based grid estimate, each antenna equalizes its data
carriers and scores how firmly each detected symbol sits inside its
decision region, given the combined distortion (channel estimation error
plus noise).  Neighborhoods agree on carriers that every member ranks
reliable *and* decodes identically; those carriers then act as extra
pilots for one more estimation pass.
"""

from dataclasses import dataclass, field

import numpy as np

from .channels import AntennaGrid, neighbors
from .errors import ConfigurationError, IllConditionedSupportError, InvalidContextError
from .ofdm import OfdmFrame, SensingMatrix, equalize_and_slice, freq_response
from .posterior import ErrorCovariance, error_covariance, error_covariances
from .qam import QamAlphabet
from .sharing import GridEstimate, GridSolverConfig
from .solver import BernoulliPrior, greedy_search, greedy_search_batch

#: reliability ratios are capped here instead of overflowing to inf
RELIABILITY_CAP = 1e300

#: predicted relative error at which one pilot budget of reliable carriers is
#: requested; the default carrier budget scales linearly with the prediction
RHO_REFERENCE = 0.04

#: minimum per-antenna carrier budget (keeps refinement strictly active)
MIN_RELIABLE = 2

#: antennas whose augmented Gram matrices (L x L each) are held at once
#: during re-estimation; bounds memory, results do not depend on it
GRAM_CHUNK = 32


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
    reliabilities: np.ndarray = field(default=None, repr=False)


def distortion_covariance(
    sensing_full: SensingMatrix | np.ndarray,
    err_cov: ErrorCovariance | np.ndarray,
    noise_var: float,
) -> ReliabilityContext:
    """Variance of the combined distortion per carrier: diag(A R A^H) + sigma_w^2.

    An ``ErrorCovariance`` lives on its detected taps, so only those
    columns of A enter; a bare matrix is taken over all L columns.
    """
    a = sensing_full.rows if isinstance(sensing_full, SensingMatrix) else np.asarray(sensing_full)
    if isinstance(err_cov, ErrorCovariance):
        a, r = a[:, err_cov.taps], err_cov.matrix
    else:
        r = np.asarray(err_cov)
    diag = np.einsum("ij,ij->i", a @ r, a.conj()).real + noise_var
    return ReliabilityContext(per_carrier_var=diag)


def carrier_reliability(x_hat, variance, alphabet) -> np.ndarray:
    """Reliability of equalized symbols under a per-carrier Gaussian model.

    Ratio of the distortion density at the displacement to the nearest
    constellation point over the summed densities at the displacements to
    every other point.  Computed in the log domain; a symbol exactly on a
    point with vanishing variance returns the RELIABILITY_CAP rather than
    infinity.
    """
    x_hat = np.atleast_1d(np.asarray(x_hat, dtype=complex))
    variance = np.broadcast_to(np.asarray(variance, dtype=float), x_hat.shape)
    if np.any(variance <= 0):
        raise InvalidContextError("distortion variance must be positive")

    d2 = np.abs(x_hat[:, None] - alphabet.points[None, :]) ** 2
    loglik = -d2 / variance[:, None]
    nearest = alphabet.nearest_indices(x_hat)
    rows = np.arange(x_hat.shape[0])
    log_num = loglik[rows, nearest]

    others = loglik.copy()
    others[rows, nearest] = -np.inf
    peak = others.max(axis=1)
    log_den = peak + np.log(np.exp(others - peak[:, None]).sum(axis=1))

    out = np.exp(np.minimum(log_num - log_den, np.log(RELIABILITY_CAP)))
    return out


def top_reliable(reliability: np.ndarray, eligible: np.ndarray, count: int) -> np.ndarray:
    """Indices of the ``count`` most reliable eligible carriers (ties to the
    lower carrier index), sorted ascending."""
    idx = np.flatnonzero(eligible)
    if idx.size <= count:
        return np.sort(idx)
    order = np.lexsort((idx, -reliability[idx]))
    return np.sort(idx[order[:count]])


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
    grid: AntennaGrid,
    top_sets: list,
    hard_decisions: np.ndarray,
    pilot_indices: np.ndarray,
) -> list:
    """Neighborhood consensus per central antenna.

    ``top_sets[r][c]`` is each antenna's own top-U carrier index set.  The
    consensus keeps the intersection over the neighborhood, pruned to
    carriers where every member made the same hard decision.  An empty
    consensus is valid.
    """
    pilot_set = set(int(i) for i in pilot_indices)
    out = [[None] * grid.cols for _ in range(grid.rows)]
    for r, c in grid.antennas():
        members = [(r, c)] + neighbors(grid, (r, c))
        common = set(int(i) for i in top_sets[r][c])
        for mr, mc in members[1:]:
            common &= set(int(i) for i in top_sets[mr][mc])
        common -= pilot_set
        agreed = []
        for i in sorted(common):
            decisions = np.array([hard_decisions[mr, mc, i] for mr, mc in members])
            if np.all(decisions == decisions[0]):
                agreed.append(i)
        consensus = np.array(agreed, dtype=int)
        symbols = hard_decisions[r, c, consensus] if consensus.size else np.array([], complex)
        out[r][c] = ReliableSet(
            own_top=np.asarray(top_sets[r][c]),
            consensus=consensus,
            agreed_symbols=symbols,
        )
    return out


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
    agreed_budgets = budgets.copy()
    for r, c in grid.antennas():
        members = [(r, c)] + neighbors(grid, (r, c))
        agreed_budgets[r, c] = max(budgets[mr, mc] for mr, mc in members)

    hard = np.zeros((grid.rows, grid.cols, n_carriers), dtype=complex)
    top_sets = [[None] * grid.cols for _ in range(grid.rows)]
    for r, c in grid.antennas():
        resp = freq_response(base.taps[r, c], n_carriers)
        equalized, hard_rc, bad = equalize_and_slice(
            observations_full[r, c], resp, alphabet
        )
        hard[r, c] = hard_rc
        if base.failed[r, c] or base.covariances[r][c] is None:
            top_sets[r][c] = np.array([], dtype=int)
            continue
        ctx = distortion_covariance(
            rows_mat, base.covariances[r][c], base.noise_vars[r, c]
        )
        reliability = carrier_reliability(equalized, ctx.per_carrier_var, alphabet)
        top_sets[r][c] = top_reliable(
            reliability, data_mask & ~bad, int(agreed_budgets[r, c])
        )

    agreements = select_and_agree(grid, top_sets, hard, pilots)

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
