"""Monte-Carlo experiment driver, baselines, metrics and result emission.

Reproduces the five desk-scale experiments (pilot count sweep, marginal
vs integer comparison, baseline comparison, sparsity sweep, sharing-depth
sweep).  Every trial derives its own PCG64 streams from
(seed, sweep_point, trial, stream), so results are independent of worker
count and execution order.

SNR convention (recorded in the metadata sidecar): SNR = E||A h||^2 /
(N sigma_w^2).  With unit-energy symbols and unit-power taps this gives
sigma_w^2 = n / (N * snr_linear) analytically.
"""

import dataclasses
import json
import logging
import numbers
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .channels import (
    POWER_PROFILES,
    AntennaGrid,
    ArrayKind,
    generate_channels,
)
from .errors import ConfigurationError, IllConditionedSupportError
from .ofdm import (
    OfdmConfig,
    build_sensing_matrix,
    equalize,
    freq_response,
    make_rng,
    modulate_frame,
    place_pilots,
    synthesize_received,
)
from .data_aided import ANTENNA_CHUNK, run_data_aided
from .qam import build_qam_alphabet
from .sharing import (
    GridSolverConfig,
    run_integer_based,
    run_marginal_based,
    stencil_gather,
)
from .solver import check_conditioning

logger = logging.getLogger(__name__)

ALGORITHMS = ("MB-P", "IB-P", "MB-R", "IB-R", "oracle-LS", "SOMP")

#: per-trial NMSE ratios below this count as a successful recovery (-10 dB)
SUCCESS_RATIO = 0.1

#: ratio floor keeping NMSE logarithms finite (-300 dB)
NMSE_FLOOR = 1e-30

SNR_DEFINITION = "SNR = E||A h||^2 / (N sigma_w^2); sigma_w^2 = n / (N * snr_linear)"


def _is_number(value, kind=numbers.Integral) -> bool:
    """Whether ``value`` is a ``kind`` (numpy scalars included); bools are not."""
    return isinstance(value, kind) and not isinstance(value, bool)


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment: a sweep over (pilots, SNR, depth) at fixed dimensions."""

    experiment: int = 0
    grid_rows: int = 20
    grid_cols: int = 20
    n_carriers: int = 512
    channel_len: int = 64
    sparsity: int = 3
    n_pilots: tuple = (16,)
    qam_order: int = 4
    snr_db: tuple = (10.0,)
    depth: tuple = (3,)
    mode: str = "SIA"
    drift: float = 0.05
    power_profile: str = "flat"
    algorithms: tuple = ("MB-P", "IB-P", "MB-R", "IB-R")
    trials: int = 100
    seed: int = 0
    n_reliable: int | None = None
    lambda_small: float = 1e-3
    workers: int = 1

    def __post_init__(self):
        """Reject configurations that would otherwise fail inside a trial."""
        if not self.n_pilots or not self.snr_db or not self.depth:
            raise ConfigurationError("sweep axes must be nonempty")
        for name in ("grid_rows", "grid_cols", "n_carriers", "channel_len", "sparsity",
                     "qam_order", "trials", "workers", "seed"):
            value = getattr(self, name)
            if not _is_number(value):
                raise ConfigurationError(f"{name}={value!r} must be an integer")
        if self.n_reliable is not None and not _is_number(self.n_reliable):
            raise ConfigurationError(f"n_reliable={self.n_reliable!r} must be an integer")
        for name in ("n_pilots", "depth"):
            if not all(_is_number(v) for v in getattr(self, name)):
                raise ConfigurationError(f"{name} {getattr(self, name)} must hold integers")
        if not all(_is_number(v, numbers.Real) and np.isfinite(v) for v in self.snr_db):
            raise ConfigurationError(f"snr_db {self.snr_db} must hold finite numbers")
        for name in ("grid_rows", "grid_cols"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name}={getattr(self, name)} must be >= 1")
        if self.trials < 1:
            raise ConfigurationError("trials must be >= 1")
        if self.seed < 0:
            raise ConfigurationError(f"seed={self.seed!r} must be a non-negative integer")
        if self.mode not in ("SIA", "SVA"):
            raise ConfigurationError(f"mode must be SIA or SVA, got {self.mode!r}")
        unknown = set(self.algorithms) - set(ALGORITHMS)
        if unknown:
            raise ConfigurationError(f"unknown algorithms: {sorted(unknown)}")
        n = self.n_carriers
        if not all(1 <= k <= n for k in self.n_pilots):
            raise ConfigurationError(f"n_pilots {self.n_pilots} must lie in [1, {n}]")
        if not 1 <= self.channel_len <= n:
            raise ConfigurationError(f"channel_len={self.channel_len} must lie in [1, {n}]")
        if not 1 <= self.sparsity <= self.channel_len:
            raise ConfigurationError(
                f"sparsity={self.sparsity} must lie in [1, {self.channel_len}]")
        if "oracle-LS" in self.algorithms and min(self.n_pilots) < self.sparsity:
            raise ConfigurationError(
                f"oracle-LS needs n_pilots >= sparsity={self.sparsity} to solve on the "
                f"true support, got n_pilots {self.n_pilots}")
        n_data = n - max(self.n_pilots)
        aided = [a for a in self.algorithms if a.endswith("-R")]
        if aided and self.n_reliable is not None and not 1 <= self.n_reliable <= n_data:
            raise ConfigurationError(
                f"n_reliable={self.n_reliable} must lie in [1, {n_data}] (the data "
                f"carriers left by the largest n_pilots) for {aided}")
        if any(d < 0 for d in self.depth):
            raise ConfigurationError(f"depth {self.depth} must be nonnegative")
        build_qam_alphabet(self.qam_order)
        if self.workers < 1:
            raise ConfigurationError("workers must be >= 1")
        if not 0.0 < self.lambda_small < 1.0:
            raise ConfigurationError(f"lambda_small={self.lambda_small} must lie in (0, 1)")
        if not 0.0 <= self.drift <= 1.0:
            raise ConfigurationError(f"drift={self.drift} must lie in [0, 1]")
        if self.power_profile not in POWER_PROFILES:
            raise ConfigurationError(
                f"power_profile must be one of {POWER_PROFILES}, got {self.power_profile!r}")

    @property
    def kind(self) -> ArrayKind:
        return ArrayKind[self.mode]

    def grid(self) -> AntennaGrid:
        return AntennaGrid(rows=self.grid_rows, cols=self.grid_cols)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentSpec":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(f"unknown config fields: {sorted(unknown)}")
        for key in ("n_pilots", "snr_db", "depth", "algorithms"):
            if key in data and isinstance(data[key], list):
                data[key] = tuple(data[key])
        return cls(**data)

    @classmethod
    def from_file(cls, path) -> "ExperimentSpec":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


@dataclass(frozen=True)
class ResultRow:
    """One aggregated line of the output CSV.

    ``wall_time_s`` is informational and excluded from equality so that
    reruns with the same seed compare equal.
    """

    algorithm: str
    n_pilots: int
    snr_db: float
    depth: int
    mode: str
    nmse_db: float
    ber: float
    success_rate: float
    wall_time_s: float = field(compare=False)
    trials: int = 100


def experiment_presets(experiment: int, **overrides) -> list:
    """Full-scale specs for experiments 1-5 (lists: 4 and 5 need several runs)."""
    base = dict(experiment=experiment, seed=0, trials=100)
    base.update(overrides)
    if experiment == 1:
        # geometric tap powers: the pilot-count sweep replicates a setup whose
        # channels came from a physical scatterer geometry
        return [
            ExperimentSpec(
                n_pilots=tuple(range(2, 43, 4)), snr_db=(10.0,),
                channel_len=64, sparsity=3, qam_order=4, mode=mode,
                power_profile="geometric", **base,
            )
            for mode in ("SIA", "SVA")
        ]
    if experiment == 2:
        variants = [(4, "SIA"), (4, "SVA"), (16, "SIA")]
        return [
            ExperimentSpec(
                n_pilots=(16,), snr_db=(0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0),
                channel_len=64, sparsity=3, qam_order=q, mode=mode, **base,
            )
            for q, mode in variants
        ]
    if experiment == 3:
        return [
            ExperimentSpec(
                n_pilots=(8,), snr_db=(0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0),
                channel_len=32, sparsity=3, qam_order=q, mode="SIA",
                algorithms=("MB-R", "IB-R", "oracle-LS", "SOMP"), **base,
            )
            for q in (4, 16)
        ]
    if experiment == 4:
        return [
            ExperimentSpec(
                n_pilots=(16,), snr_db=(0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0),
                channel_len=64, sparsity=n, qam_order=4, mode="SIA",
                algorithms=("IB-R", "MB-R"), **base,
            )
            for n in (3, 5, 7)
        ]
    if experiment == 5:
        shared = dict(
            depth=(1, 2, 3, 4, 5), algorithms=("IB-P",),
            snr_db=(5.0, 10.0, 15.0, 20.0, 25.0, 30.0), qam_order=4,
        )
        return [
            ExperimentSpec(n_pilots=(8,), channel_len=32, sparsity=3,
                           mode="SIA", **shared, **base),
            ExperimentSpec(n_pilots=(16,), channel_len=64, sparsity=3,
                           mode="SVA", drift=0.05, **shared, **base),
        ]
    raise ConfigurationError(f"unknown experiment id {experiment}")


# ---------------------------------------------------------------------------
# benchmarks

def oracle_ls_estimate(sensing_rows: np.ndarray, observations: np.ndarray,
                       supports: np.ndarray) -> np.ndarray:
    """Least squares on known supports, zero elsewhere, for a stack of antennas.

    (..., K) observations and (..., S) support slots give (..., L) taps.
    Every antenna's S x S normal equations are gathered from the shared
    Gram A^H A and solved as one batch.  Raises IllConditionedSupportError
    when S > K or when any antenna's A_S is numerically collinear (one
    batched SVD).
    """
    a = np.asarray(sensing_rows)
    n_obs, length = a.shape
    slots = np.asarray(supports, dtype=int)
    lead = slots.shape[:-1]
    slots = slots.reshape(-1, slots.shape[-1])
    check_conditioning(np.moveaxis(a[:, slots], 0, 1))
    gram = a.conj().T @ a
    corr = np.asarray(observations).reshape(-1, n_obs) @ a.conj()
    coef = np.linalg.solve(gram[slots[:, :, None], slots[:, None, :]],
                           np.take_along_axis(corr, slots, axis=1)[..., None])
    taps = np.zeros((slots.shape[0], length), dtype=complex)
    np.put_along_axis(taps, slots, coef[..., 0], axis=1)
    return taps.reshape(lead + (length,))


def somp_baseline(grid: AntennaGrid, observations: np.ndarray,
                  sensing_rows: np.ndarray, n_taps: int,
                  mode: ArrayKind = ArrayKind.SIA) -> np.ndarray:
    """Simultaneous OMP (Tropp, Gilbert & Strauss 2006) over each antenna's
    neighborhood observations, for the whole grid at once.

    Assumes a common support inside the neighborhood (SIA); every member's
    pilot observations vote on the next tap, and the center's coefficients
    come from an LS debias on the selected support.  Returns (M, G, L) taps.
    """
    if mode == ArrayKind.SVA:
        warnings.warn("SOMP assumes a shared support; SVA violates that",
                      stacklevel=2)
    support, coef = somp_stack(observations, sensing_rows, n_taps)
    taps = np.zeros((grid.rows, grid.cols, np.shape(sensing_rows)[1]), dtype=complex)
    np.put_along_axis(taps, support, coef, axis=2)
    return taps


def somp_stack(observations: np.ndarray, sensing_rows: np.ndarray,
               n_taps: int) -> tuple:
    """SOMP picks and center coefficients of every antenna of an (M, G, K)
    grid: (M, G, s) taps in pick order and their (M, G, s) coefficients,
    s = min(n_taps, K).

    Runs in the Gram domain: with C = A^H y per member and G = A^H A, a
    stage scores tap j by sqrt(sum_members |C - G[:, S] coef|^2) / ||a_j||.
    The members are the stencil offsets (``stencil_gather``); a member
    outside the grid is a zero row, which adds nothing.  Picked taps score
    -1, and ``argmax`` takes the first maximum, so a tie goes to the
    smallest tap index.  coef then solves G_SS coef = C_S for every center
    and member in one batch.
    """
    a = np.ascontiguousarray(sensing_rows, dtype=complex)
    n_obs, length = a.shape
    col_norm = np.sqrt(np.einsum("ij,ij->j", a.conj(), a).real)
    gram = a.conj().T @ a
    members = stencil_gather(np.asarray(observations) @ a.conj())
    grid_shape = members.shape[:2]
    members = members.reshape(-1, members.shape[2], length)   # (B, 5, L)
    centers = np.arange(members.shape[0])[:, None]
    support = np.empty((members.shape[0], 0), dtype=int)
    coef = np.empty((members.shape[0], 0, members.shape[1]), dtype=complex)
    corr = members
    for _ in range(min(n_taps, n_obs)):
        score = np.sqrt((np.abs(corr) ** 2).sum(axis=1)) / col_norm
        score[centers, support] = -1.0
        support = np.concatenate([support, score.argmax(axis=1)[:, None]], axis=1)
        coef = np.linalg.solve(
            gram[support[:, :, None], support[:, None, :]],
            np.take_along_axis(members, support[:, None, :], axis=2).transpose(0, 2, 1),
        )
        corr = members - coef.transpose(0, 2, 1) @ gram[support].conj()
    size = support.shape[1]
    return (support.reshape(grid_shape + (size,)),
            coef[:, :, 0].reshape(grid_shape + (size,)))


# ---------------------------------------------------------------------------
# metrics

def nmse_db_from_ratios(ratios) -> float:
    """Trial-averaged NMSE in dB with a -300 dB floor."""
    mean = float(np.mean(ratios))
    return float(10.0 * np.log10(max(mean, NMSE_FLOOR)))


def error_ratio(true_taps: np.ndarray, estimated: np.ndarray) -> float:
    """||h_est - h||^2 / ||h||^2 with one trial's channels stacked.

    A grid trial pools every antenna's taps into one vector, so the ratio
    is energy weighted; a single faded antenna cannot dominate it.
    """
    diff = np.abs(estimated - true_taps) ** 2
    power = np.abs(true_taps) ** 2
    num = diff.reshape(-1, true_taps.shape[-1]).sum(axis=1)
    den = power.reshape(-1, true_taps.shape[-1]).sum(axis=1)
    good = den > 0
    if not good.any():
        raise ConfigurationError("all-zero channels cannot be scored")
    if not good.all():
        logger.warning("excluding %d all-zero channels from NMSE", (~good).sum())
    return float(num[good].sum() / den[good].sum())


def compute_metrics(true_channels, estimates, tx_bits=None, rx_bits=None) -> dict:
    """Aggregate trial lists into the ResultRow metric fields.

    ``true_channels`` and ``estimates`` are same-length lists of per-trial
    tap arrays; optional bit streams yield the BER.
    """
    ratios = [error_ratio(t, e) for t, e in zip(true_channels, estimates)]
    out = {
        "nmse_db": nmse_db_from_ratios(ratios),
        "success_rate": float(np.mean([r < SUCCESS_RATIO for r in ratios])),
    }
    if tx_bits is not None and rx_bits is not None:
        tx = np.concatenate([np.ravel(b) for b in tx_bits])
        rx = np.concatenate([np.ravel(b) for b in rx_bits])
        out["ber"] = float(np.count_nonzero(tx != rx) / tx.size)
    return out


def count_bit_errors(alphabet, true_indices, decided_indices, bad_mask) -> tuple:
    """Bit errors of decided symbol indices against the true ones, looked up
    in the alphabet's Hamming table; any shape, the true indices broadcast
    against the decided ones.  Undecodable carriers count every bit as
    wrong.  Returns (errors, total_bits)."""
    k = alphabet.bits_per_symbol
    wrong = np.where(bad_mask, k, alphabet.hamming[true_indices, decided_indices])
    return int(wrong.sum()), wrong.size * k


# ---------------------------------------------------------------------------
# per-trial execution

@dataclass
class TrialScene:
    grid: AntennaGrid
    channels: object
    frame: object
    sensing_full: object
    sensing_pilot: object
    observations: np.ndarray
    noise_var: float
    alphabet: object
    true_indices: np.ndarray     # transmitted symbol index per data carrier


def noise_var_for_snr(sparsity: int, n_carriers: int, snr_db: float) -> float:
    return sparsity / (n_carriers * 10.0 ** (snr_db / 10.0))


def scene_channels(spec: ExperimentSpec, point_index: int, trial: int):
    """The channel realization that trial ``trial`` of sweep point
    ``point_index`` draws (stream 0 of its key)."""
    return generate_channels(
        spec.grid(), spec.channel_len, spec.sparsity, spec.kind, spec.drift,
        make_rng(spec.seed, point_index, trial, 0),
        power_profile=spec.power_profile,
    )


def synthesize_scene(spec: ExperimentSpec, n_pilots: int, snr_db: float,
                     point_index: int, trial: int) -> TrialScene:
    grid = spec.grid()
    noise_var = noise_var_for_snr(spec.sparsity, spec.n_carriers, snr_db)
    config = OfdmConfig(
        n_carriers=spec.n_carriers, n_pilots=n_pilots, qam_order=spec.qam_order,
        channel_len=spec.channel_len, noise_var=noise_var, seed=spec.seed,
    )
    channels = scene_channels(spec, point_index, trial)
    pilots = place_pilots(
        spec.n_carriers, n_pilots, (spec.seed, point_index, trial, 1)
    )
    frame = modulate_frame(config, pilots, make_rng(spec.seed, point_index, trial, 2))
    sensing_full = build_sensing_matrix(frame, spec.channel_len)
    sensing_pilot = build_sensing_matrix(frame, spec.channel_len, restrict_to=pilots)
    observations = synthesize_received(
        sensing_full, channels.taps, noise_var,
        make_rng(spec.seed, point_index, trial, 3),
    )
    alphabet = config.alphabet
    return TrialScene(
        grid=grid, channels=channels, frame=frame, sensing_full=sensing_full,
        sensing_pilot=sensing_pilot, observations=observations,
        noise_var=noise_var, alphabet=alphabet,
        true_indices=alphabet.nearest_indices(frame.freq_symbols[frame.data_indices]),
    )


def _worst_case(scene, k_bits):
    n_data = scene.frame.data_indices.size * scene.grid.n_antennas
    return 1.0, n_data * k_bits, n_data * k_bits


def _score_algorithm(scene: TrialScene, taps: np.ndarray) -> tuple:
    """(trial error ratio, data-carrier bit errors, total bits) for one estimate.

    Detection runs ``ANTENNA_CHUNK`` antennas at a time: one FFT, one
    zero-forcing division and one nearest-point pass per chunk.
    """
    ratio = error_ratio(scene.channels.taps, taps)
    n_carriers = scene.frame.n_carriers
    data_idx = scene.frame.data_indices
    taps = taps.reshape(-1, taps.shape[-1])
    observations = scene.observations.reshape(-1, n_carriers)
    errors = total = 0
    for start in range(0, taps.shape[0], ANTENNA_CHUNK):
        chunk = slice(start, start + ANTENNA_CHUNK)
        resp = freq_response(taps[chunk], n_carriers)[:, data_idx]
        equalized, bad = equalize(observations[chunk, data_idx], resp)
        e, t = count_bit_errors(scene.alphabet, scene.true_indices,
                                scene.alphabet.nearest_indices(equalized), bad)
        errors += e
        total += t
    return ratio, errors, total


def run_point_trial(spec: ExperimentSpec, point_index: int, point: tuple,
                    trial: int) -> dict:
    """Run every requested algorithm on one synthesized trial.

    Returns {algorithm: (ratio, bit_errors, bit_total, seconds)}.  A data-
    aided algorithm reuses its pilot-only base estimate; the base solve time
    is included in both entries.
    """
    n_pilots, snr_db, depth = point
    scene = synthesize_scene(spec, n_pilots, snr_db, point_index, trial)
    y_pilot = scene.observations[..., scene.frame.pilot_indices]
    # the receiver noise floor is known hardware-side; estimating it from the
    # K pilot samples alone biases the posterior balance at small K
    solver_cfg = GridSolverConfig(
        lambda_init=spec.sparsity / spec.channel_len,
        noise_var=scene.noise_var,
        lambda_small=spec.lambda_small,
    )
    k_bits = scene.alphabet.bits_per_symbol

    wanted = set(spec.algorithms)
    results: dict = {}

    def record(name, fn):
        start = time.perf_counter()
        try:
            taps, extra = fn()
        except (IllConditionedSupportError, np.linalg.LinAlgError) as exc:
            logger.warning("trial %d %s failed: %s", trial, name, exc)
            ratio, errors, total = _worst_case(scene, k_bits)
            results[name] = (ratio, errors, total, time.perf_counter() - start)
            return None
        seconds = time.perf_counter() - start
        results[name] = (*_score_algorithm(scene, taps), seconds)
        return extra

    def base_chain(kind):
        runner = run_marginal_based if kind == "MB" else run_integer_based
        start = time.perf_counter()
        estimate = runner(scene.grid, y_pilot, scene.sensing_pilot.rows,
                          solver_cfg, depth)
        return estimate, time.perf_counter() - start

    for kind in ("MB", "IB"):
        pilot_name, aided_name = f"{kind}-P", f"{kind}-R"
        if pilot_name not in wanted and aided_name not in wanted:
            continue
        try:
            estimate, seconds = base_chain(kind)
        except (IllConditionedSupportError, np.linalg.LinAlgError) as exc:
            logger.warning("trial %d %s failed: %s", trial, kind, exc)
            ratio, errors, total = _worst_case(scene, k_bits)
            for name in (pilot_name, aided_name):
                if name in wanted:
                    results[name] = (ratio, errors, total, 0.0)
            continue
        if pilot_name in wanted:
            results[pilot_name] = (*_score_algorithm(scene, estimate.taps), seconds)
        if aided_name in wanted:
            start = time.perf_counter()
            try:
                refined = run_data_aided(
                    scene.grid, scene.frame, scene.sensing_full,
                    scene.observations, estimate, solver_cfg, scene.alphabet,
                    n_reliable=spec.n_reliable,
                )
                aided_seconds = seconds + time.perf_counter() - start
                results[aided_name] = (
                    *_score_algorithm(scene, refined.taps), aided_seconds,
                )
            except (IllConditionedSupportError, np.linalg.LinAlgError) as exc:
                logger.warning("trial %d %s failed: %s", trial, aided_name, exc)
                ratio, errors, total = _worst_case(scene, k_bits)
                results[aided_name] = (ratio, errors, total, 0.0)

    if "oracle-LS" in wanted:
        support = scene.channels.support
        slots = np.nonzero(support)[-1].reshape(
            support.shape[:-1] + (scene.channels.sparsity,))
        record("oracle-LS", lambda: (
            oracle_ls_estimate(scene.sensing_pilot.rows, y_pilot, slots), None,
        ))

    if "SOMP" in wanted:
        record("SOMP", lambda: (
            somp_baseline(scene.grid, y_pilot, scene.sensing_pilot.rows,
                          spec.sparsity, scene.channels.kind),
            None,
        ))

    return results


def _trial_worker(args):
    spec, point_index, point, trial = args
    return trial, run_point_trial(spec, point_index, point, trial)


def run_experiment(spec: ExperimentSpec) -> list:
    """Full sweep x algorithms x trials; returns aggregated ResultRows.

    Rows are ordered by sweep point then by the spec's algorithm order and
    are reproducible for a fixed seed regardless of worker count.  With
    several workers one process pool serves every sweep point.
    """
    rows: list[ResultRow] = []
    points = [
        (k, snr, d)
        for k in spec.n_pilots
        for snr in spec.snr_db
        for d in spec.depth
    ]
    parallel = spec.workers > 1
    with ProcessPoolExecutor(max_workers=spec.workers) if parallel else nullcontext() as pool:
        for point_index, point in enumerate(points):
            jobs = [(spec, point_index, point, t) for t in range(spec.trials)]
            outcomes = dict((pool.map if parallel else map)(_trial_worker, jobs))
            rows.extend(_point_rows(spec, point, outcomes))
    return rows


def _point_rows(spec: ExperimentSpec, point: tuple, outcomes: dict) -> list:
    """One ResultRow per algorithm from a sweep point's {trial: outcome}."""
    rows = []
    per_algorithm = {name: [] for name in spec.algorithms}
    for trial in range(spec.trials):  # fixed order: reduction is stable
        for name in spec.algorithms:
            per_algorithm[name].append(outcomes[trial][name])

    n_pilots, snr_db, depth = point
    for name in spec.algorithms:
        ratios = [entry[0] for entry in per_algorithm[name]]
        errors = sum(entry[1] for entry in per_algorithm[name])
        total = sum(entry[2] for entry in per_algorithm[name])
        seconds = sum(entry[3] for entry in per_algorithm[name])
        rows.append(
            ResultRow(
                algorithm=name,
                n_pilots=n_pilots,
                snr_db=snr_db,
                depth=depth,
                mode=spec.mode,
                nmse_db=nmse_db_from_ratios(ratios),
                ber=errors / total if total else 0.0,
                success_rate=float(np.mean([r < SUCCESS_RATIO for r in ratios])),
                wall_time_s=seconds,
                trials=spec.trials,
            )
        )
    return rows


# ---------------------------------------------------------------------------
# emission

CSV_HEADER = "algorithm,K,snr_db,D,mode,nmse_db,ber,success_rate,wall_time_s,trials"


def emit_results(rows: list, path, fmt: str = "csv",
                 spec: ExperimentSpec | None = None) -> list:
    """Write the result CSV plus a JSON metadata sidecar; byte-stable for
    fixed inputs.  Returns the written paths."""
    if fmt != "csv":
        raise ConfigurationError(f"unsupported format {fmt!r}")
    path = str(path)
    lines = [CSV_HEADER]
    for row in rows:
        lines.append(
            f"{row.algorithm},{row.n_pilots},{row.snr_db!r},{row.depth},"
            f"{row.mode},{row.nmse_db!r},{row.ber!r},{row.success_rate!r},"
            f"{row.wall_time_s!r},{row.trials}"
        )
    try:
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        sidecar = path.rsplit(".", 1)[0] + ".meta.json"
        metadata = {
            "snr_definition": SNR_DEFINITION,
            "rng": "numpy PCG64 seeded via SeedSequence((seed, point, trial, stream))",
            "versions": {"gridce": __version__, "numpy": np.__version__},
        }
        if spec is not None:
            metadata["spec"] = dataclasses.asdict(spec)
            metadata["seed"] = spec.seed
        with open(sidecar, "w") as fh:
            json.dump(metadata, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise OSError(f"failed writing results to {path}: {exc}") from exc
    return [path, sidecar]
