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
import os
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .channels import ARRAY_MODES, POWER_PROFILES, generate_channels
from .errors import ConfigurationError, IllConditionedSupportError
from .ofdm import (
    detect,
    make_rng,
    modulate_frame,
    pilot_rows,
    place_pilots,
    synthesize_received,
)
from .data_aided import ANTENNA_CHUNK, run_data_aided
from .qam import build_qam_alphabet
from .sharing import (
    BeliefKind,
    GridSolverConfig,
    first_pass,
    run_integer_based,
    run_marginal_based,
    stencil_gather,
)
from .solver import MAX_LATTICE_TAPS, check_conditioning, search_depth

logger = logging.getLogger(__name__)

#: every algorithm, in the order a trial runs and reports them
ALGORITHMS = ("MB-P", "MB-R", "IB-P", "IB-R", "oracle-LS", "SOMP")

#: per-trial NMSE ratios below this count as a successful recovery (-10 dB)
SUCCESS_RATIO = 0.1

#: ratio floor keeping NMSE logarithms finite (-300 dB)
NMSE_FLOOR = 1e-30

SNR_DEFINITION = "SNR = E||A h||^2 / (N sigma_w^2); sigma_w^2 = n / (N * snr_linear)"


def _is_number(value, kind=numbers.Integral) -> bool:
    """Whether ``value`` is a ``kind`` (numpy scalars included); bools are not."""
    return isinstance(value, kind) and not isinstance(value, bool)


def _plain(value):
    """A numpy scalar as the Python value it holds; anything else as given."""
    return value.item() if isinstance(value, np.generic) else value


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
    workers: int = 1

    def __post_init__(self):
        """Reject configurations that would otherwise fail inside a trial."""
        for name in ("n_pilots", "snr_db", "depth", "algorithms"):
            if not isinstance(getattr(self, name), (tuple, list)):
                raise ConfigurationError(
                    f"{name}={getattr(self, name)!r} must be a list of values")
        if not self.n_pilots or not self.snr_db or not self.depth or not self.algorithms:
            raise ConfigurationError("sweep axes and algorithms must be nonempty")
        if not all(isinstance(a, str) for a in self.algorithms):
            raise ConfigurationError(f"algorithms {self.algorithms} must hold names")
        if not _is_number(self.drift, numbers.Real):
            raise ConfigurationError(f"drift={self.drift!r} must be a number")
        for name in ("experiment", "grid_rows", "grid_cols", "n_carriers", "channel_len",
                     "sparsity", "qam_order", "trials", "workers", "seed"):
            value = getattr(self, name)
            if not _is_number(value):
                raise ConfigurationError(f"{name}={value!r} must be an integer")
        for name in ("n_pilots", "depth"):
            if not all(_is_number(v) for v in getattr(self, name)):
                raise ConfigurationError(f"{name} {getattr(self, name)} must hold integers")
        if not all(_is_number(v, numbers.Real) and np.isfinite(v) for v in self.snr_db):
            raise ConfigurationError(f"snr_db {self.snr_db} must hold finite numbers")
        # a numpy scalar would set the noise level in its own precision, write
        # its numpy repr into the CSV and fail the JSON sidecar
        for name, value in list(vars(self).items()):
            plain = tuple(map(_plain, value)) if isinstance(value, (tuple, list)) else _plain(value)
            object.__setattr__(self, name, plain)
        for name in ("grid_rows", "grid_cols"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name}={getattr(self, name)} must be >= 1")
        if self.trials < 1:
            raise ConfigurationError("trials must be >= 1")
        for name in ("experiment", "seed"):
            if getattr(self, name) < 0:
                raise ConfigurationError(
                    f"{name}={getattr(self, name)!r} must be a non-negative integer")
        if self.mode not in ARRAY_MODES:
            raise ConfigurationError(f"mode must be one of {ARRAY_MODES}, got {self.mode!r}")
        unknown = set(self.algorithms) - set(ALGORITHMS)
        if unknown:
            raise ConfigurationError(f"unknown algorithms: {sorted(unknown)}")
        for name in ("n_pilots", "snr_db", "depth", "algorithms"):
            values = getattr(self, name)
            if len(set(values)) < len(values):  # each would write its own row
                raise ConfigurationError(f"{name} {values} repeats an entry")
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
        for snr in self.snr_db:
            try:
                noise_var = noise_var_for_snr(self.sparsity, n, snr)
            except (OverflowError, ZeroDivisionError):  # 10 ** (snr / 10) out of range
                noise_var = 0.0
            # a trial sums the noise energy of M x G frames of N carriers
            if not 0.0 < noise_var * self.grid_rows * self.grid_cols * n < np.inf:
                raise ConfigurationError(
                    f"snr_db {snr} gives noise variance {noise_var:g}, past the "
                    f"float range of a {self.grid_rows}x{self.grid_cols} grid's trial")
        marginal = [a for a in self.algorithms if a.startswith("MB-")]
        t_max = search_depth(self.channel_len, self.sparsity / self.channel_len,
                             max(self.n_pilots))
        if marginal and t_max > MAX_LATTICE_TAPS:
            raise ConfigurationError(
                f"{marginal} search {t_max} taps at n_pilots={max(self.n_pilots)}, past "
                f"the marginal lattice's guard of {MAX_LATTICE_TAPS}; lower sparsity or "
                f"n_pilots, or run IB only")
        if any(d < 0 for d in self.depth):
            raise ConfigurationError(f"depth {self.depth} must be nonnegative")
        build_qam_alphabet(self.qam_order)
        if self.workers < 1:
            raise ConfigurationError("workers must be >= 1")
        if not 0.0 <= self.drift <= 1.0:
            raise ConfigurationError(f"drift={self.drift} must lie in [0, 1]")
        if self.power_profile not in POWER_PROFILES:
            raise ConfigurationError(
                f"power_profile must be one of {POWER_PROFILES}, got {self.power_profile!r}")

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentSpec":
        if not isinstance(data, dict):
            raise ConfigurationError(f"config must be a JSON object of fields, got {data!r}")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(f"unknown config fields: {sorted(unknown)}")
        return cls(**data)

    @classmethod
    def from_file(cls, path) -> "ExperimentSpec":
        """The spec a JSON config file (UTF-8 text) holds."""
        with open(path, encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except UnicodeDecodeError as exc:
                raise ConfigurationError(f"config {path} is not UTF-8 text: {exc}") from exc
        return cls.from_dict(data)


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


def experiment_presets(experiment: int) -> list:
    """Full-scale specs for experiments 1-5 (lists: 4 and 5 need several runs)."""
    base = dict(experiment=experiment, seed=0, trials=100)
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


def somp_baseline(observations: np.ndarray, sensing_rows: np.ndarray, n_taps: int,
                  mode: str) -> np.ndarray:
    """Simultaneous OMP (Tropp, Gilbert & Strauss 2006) over each antenna's
    neighborhood observations, for the whole grid at once.

    Assumes a common support inside the neighborhood (SIA); every member's
    pilot observations vote on the next tap, and the center's coefficients
    come from an LS debias on the selected support.  (M, G, K) observations
    give (M, G, L) taps.  ``mode`` is the scene's ``ARRAY_MODES`` entry;
    an "SVA" scene warns.
    """
    if mode == "SVA":
        warnings.warn("SOMP assumes a shared support; SVA violates that",
                      stacklevel=2)
    support, coef = somp_stack(observations, sensing_rows, n_taps)
    taps = np.zeros(support.shape[:2] + (np.shape(sensing_rows)[1],), dtype=complex)
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
    is energy weighted; a single faded antenna cannot dominate it, and an
    antenna without channel energy still adds its estimate's error.
    """
    num = (np.abs(estimated - true_taps) ** 2).reshape(-1, true_taps.shape[-1]).sum(axis=1)
    den = (np.abs(true_taps) ** 2).reshape(-1, true_taps.shape[-1]).sum(axis=1)
    if not den.any():
        raise ConfigurationError("all-zero channels cannot be scored")
    return float(num.sum() / den.sum())


def bit_errors(alphabet, true_indices, decided_indices, bad_mask) -> np.ndarray:
    """Bit errors of each decided symbol index against the true one; any
    shape, the true indices broadcast against the decided ones.  A point
    index is its bit word, so two indices differ in the popcount of their
    XOR.  Undecodable entries count every bit as wrong."""
    wrong = alphabet.popcount.take(np.bitwise_xor(decided_indices, true_indices))
    wrong[bad_mask] = alphabet.bits_per_symbol
    return wrong


# ---------------------------------------------------------------------------
# per-trial execution

@dataclass
class TrialScene:
    taps: np.ndarray             # (M, G, L) true channels, support = taps != 0
    frame: object
    pilot_rows: np.ndarray       # K x L rows diag(x_freq) @ F_L on the pilots
    observations: np.ndarray     # (M, G, N) received carriers
    noise_var: float
    alphabet: object
    true_indices: np.ndarray     # transmitted symbol index per carrier, pilots included


def noise_var_for_snr(sparsity: int, n_carriers: int, snr_db: float) -> float:
    return sparsity / (n_carriers * 10.0 ** (snr_db / 10.0))


def scene_channels(spec: ExperimentSpec, point_index: int, trial: int):
    """The (M, G, L) channel taps that trial ``trial`` of sweep point
    ``point_index`` draws (stream 0 of its key)."""
    return generate_channels(
        (spec.grid_rows, spec.grid_cols), spec.channel_len, spec.sparsity, spec.mode,
        spec.drift, make_rng(spec.seed, point_index, trial, 0),
        power_profile=spec.power_profile,
    )


def synthesize_scene(spec: ExperimentSpec, n_pilots: int, snr_db: float,
                     point_index: int, trial: int) -> TrialScene:
    noise_var = noise_var_for_snr(spec.sparsity, spec.n_carriers, snr_db)
    alphabet = build_qam_alphabet(spec.qam_order)
    taps = scene_channels(spec, point_index, trial)
    pilots = place_pilots(spec.n_carriers, n_pilots,
                          make_rng(spec.seed, point_index, trial, 1))
    frame = modulate_frame(alphabet, spec.n_carriers, pilots,
                           make_rng(spec.seed, point_index, trial, 2))
    observations = synthesize_received(
        frame, taps, noise_var, make_rng(spec.seed, point_index, trial, 3),
    )
    return TrialScene(
        taps=taps, frame=frame, pilot_rows=pilot_rows(frame, spec.channel_len),
        observations=observations, noise_var=noise_var, alphabet=alphabet,
        true_indices=alphabet.indices_from_levels(alphabet.nearest_levels(frame.freq_symbols)),
    )


def _score_algorithm(scene: TrialScene, taps: np.ndarray, detected=None) -> tuple:
    """(trial error ratio, data-carrier bit errors, total bits) for one estimate.

    Detection (``ofdm.detect``) runs on every carrier, ``ANTENNA_CHUNK``
    antennas at a time; the bit errors are summed per carrier over the
    chunks and counted on the data carriers once.  With ``detected``, the
    (decisions, undecodable) pair (M, G, N) that ``run_data_aided`` made
    for these taps with the same detection, the bits are counted from it
    instead.
    """
    ratio = error_ratio(scene.taps, taps)
    frame, alphabet = scene.frame, scene.alphabet
    n_carriers = frame.n_carriers
    taps = taps.reshape(-1, taps.shape[-1])
    observations = scene.observations.reshape(-1, n_carriers)
    if detected is not None:
        decisions, undecodable = (d.reshape(-1, n_carriers) for d in detected)
    per_carrier = np.zeros(n_carriers, dtype=np.intp)
    for start in range(0, taps.shape[0], ANTENNA_CHUNK):
        chunk = slice(start, start + ANTENNA_CHUNK)
        if detected is None:
            _, nearest, bad = detect(observations[chunk], taps[chunk], alphabet)
            decided = alphabet.indices_from_levels(nearest)
        else:
            decided, bad = decisions[chunk], undecodable[chunk]
        per_carrier += bit_errors(alphabet, scene.true_indices, decided, bad).sum(axis=0)
    errors = int(per_carrier[frame.data_mask].sum())
    # a Python int, so the row's BER is a Python float the CSV writes as such
    n_data = int(np.count_nonzero(frame.data_mask))
    return ratio, errors, taps.shape[0] * n_data * alphabet.bits_per_symbol


def run_point_trial(spec: ExperimentSpec, point_index: int, point: tuple,
                    trial: int) -> dict:
    """Run every requested algorithm on one synthesized trial.

    Returns {algorithm: (ratio, bit_errors, bit_total, seconds)} in
    ``ALGORITHMS`` order.  The MB and IB algorithms share one pilot-only
    first pass (``sharing.first_pass``), which computes the beliefs of
    each requested currency; every grid entry's seconds include that
    shared pass and its own rounds and final pass, and an R entry adds
    its data-aided stage.  When both run, the pilot-only entry is scored
    from the detection the data-aided stage made on the base.  A grid
    stage never raises: an antenna without a usable pilot column keeps
    zero taps.  Only the baselines solve a trial's system directly; one
    that LAPACK refuses logs a warning and scores zero taps, the worst
    case, in 0 s, and the trial goes on.
    """
    n_pilots, snr_db, depth = point
    scene = synthesize_scene(spec, n_pilots, snr_db, point_index, trial)
    y_pilot = scene.observations[..., scene.frame.pilot_indices]
    # the receiver noise floor is known hardware-side; estimating it from the
    # K pilot samples alone biases the posterior balance at small K
    solver_cfg = GridSolverConfig(
        lambda_init=spec.sparsity / spec.channel_len,
        noise_var=scene.noise_var,
    )
    results: dict = {}

    # MB and IB start from one pilot-only pass under the uniform prior
    pipelines = [stage for stage in (("MB-P", "MB-R", BeliefKind.MARGINAL, run_marginal_based),
                                     ("IB-P", "IB-R", BeliefKind.SCORE, run_integer_based))
                 if set(stage[:2]) & set(spec.algorithms)]
    if pipelines:
        start = time.perf_counter()
        first = first_pass(y_pilot, scene.pilot_rows, solver_cfg,
                           [kind for _, _, kind, _ in pipelines])
        first_seconds = time.perf_counter() - start
    for pilot_name, aided_name, _, runner in pipelines:
        start = time.perf_counter()
        estimate = runner(first, solver_cfg, depth)
        seconds = time.perf_counter() - start + first_seconds
        detected = None
        if aided_name in spec.algorithms:
            start = time.perf_counter()
            refined = run_data_aided(scene.frame, scene.observations, estimate, solver_cfg,
                                     scene.alphabet)
            aided_seconds = time.perf_counter() - start
            results[aided_name] = (*_score_algorithm(scene, refined.taps),
                                   seconds + aided_seconds)
            # the -R stage already detected the base estimate on every carrier
            detected = (refined.diagnostics["base_decisions"],
                        refined.diagnostics["base_undecodable"])
        if pilot_name in spec.algorithms:
            results[pilot_name] = (*_score_algorithm(scene, estimate.taps, detected),
                                   seconds)

    baselines = []
    if "oracle-LS" in spec.algorithms:  # the (M, G, n) true support slots
        slots = np.nonzero(scene.taps)[-1].reshape(y_pilot.shape[:2] + (-1,))
        baselines.append(("oracle-LS", oracle_ls_estimate, scene.pilot_rows, y_pilot, slots))
    if "SOMP" in spec.algorithms:
        baselines.append(("SOMP", somp_baseline, y_pilot, scene.pilot_rows, spec.sparsity,
                          spec.mode))
    for name, fn, *args in baselines:
        start = time.perf_counter()
        try:
            taps, seconds = fn(*args), time.perf_counter() - start
        except (IllConditionedSupportError, np.linalg.LinAlgError) as exc:
            logger.warning("seed %d point %d trial %d %s failed: %s", spec.seed, point_index,
                           trial, name, exc)
            # zero taps score the worst case: ratio 1.0 with every data bit wrong
            taps, seconds = np.zeros_like(scene.taps), 0.0
        results[name] = (*_score_algorithm(scene, taps), seconds)

    return {name: results[name] for name in ALGORITHMS if name in results}


def run_experiment(spec: ExperimentSpec) -> list:
    """Full sweep x algorithms x trials; returns aggregated ResultRows.

    Rows are ordered by sweep point then by the spec's algorithm order and
    are reproducible for a fixed seed regardless of worker count.  With
    several workers one process pool takes every (point, trial) job of the
    sweep in one map, so no point waits for the previous one to finish.
    """
    points = [
        (k, snr, d)
        for k in spec.n_pilots
        for snr in spec.snr_db
        for d in spec.depth
    ]
    jobs = [(spec, point_index, point, t)
            for point_index, point in enumerate(points) for t in range(spec.trials)]
    parallel = spec.workers > 1
    with ProcessPoolExecutor(max_workers=spec.workers) if parallel else nullcontext() as pool:
        outcomes = list((pool.map if parallel else map)(run_point_trial, *zip(*jobs)))
    rows: list[ResultRow] = []
    for start, point in zip(range(0, len(jobs), spec.trials), points):
        rows.extend(_point_rows(spec, point, outcomes[start:start + spec.trials]))
    return rows


def _point_rows(spec: ExperimentSpec, point: tuple, outcomes: list) -> list:
    """One ResultRow per algorithm from a sweep point's outcomes in trial
    order (a fixed order, so every sum reduces alike)."""
    n_pilots, snr_db, depth = point
    rows = []
    for name in spec.algorithms:
        ratios, errors, totals, seconds = zip(*(outcome[name] for outcome in outcomes))
        total = sum(totals)
        rows.append(ResultRow(
            algorithm=name, n_pilots=n_pilots, snr_db=snr_db, depth=depth, mode=spec.mode,
            nmse_db=nmse_db_from_ratios(ratios), ber=sum(errors) / total if total else 0.0,
            success_rate=float(np.mean([r < SUCCESS_RATIO for r in ratios])),
            wall_time_s=sum(seconds), trials=spec.trials))
    return rows


# ---------------------------------------------------------------------------
# emission

CSV_HEADER = "algorithm,K,snr_db,D,mode,nmse_db,ber,success_rate,wall_time_s,trials"


def emit_results(rows: list, path, spec: ExperimentSpec) -> list:
    """Write the result CSV plus a JSON metadata sidecar; byte-stable for
    fixed inputs.  Returns the written paths."""
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
        sidecar = os.path.splitext(path)[0] + ".meta.json"
        metadata = {
            "snr_definition": SNR_DEFINITION,
            "rng": "numpy PCG64 seeded via SeedSequence((seed, point, trial, stream))",
            "versions": {"gridce": __version__, "numpy": np.__version__},
            "spec": dataclasses.asdict(spec),
            "seed": spec.seed,
        }
        with open(sidecar, "w") as fh:
            json.dump(metadata, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise OSError(f"failed writing results to {path}: {exc}") from exc
    return [path, sidecar]
