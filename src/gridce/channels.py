"""Sparse multipath channels over a 2-D antenna grid.

Supports two spatial regimes.  In a space-invariant array (SIA) every
antenna shares one support set; tap values still fade independently.  In
a space-variant array (SVA) the support drifts slowly across the grid:
the default generator evolves it as a random walk indexed by the grid
diagonal (row + col), so every antenna and each of its 4-neighbors differ
by at most one migrated delay bin.  A geometric point-scatterer variant
is available for physically-derived SVA supports.

No assumption is made about the distribution of the nonzero taps; the
sampler is pluggable and defaults to unit-variance complex Gaussian
(Rayleigh magnitude).
"""

import csv
import enum
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

SPEED_OF_LIGHT = 2.998e8  # m/s

#: tap draws with magnitude below this are rejected to keep supports exact
MIN_TAP_MAGNITUDE = 1e-9

#: named per-scatterer power profiles accepted by ``generate_channels``
POWER_PROFILES = ("flat", "geometric")


class ArrayKind(enum.Enum):
    SIA = "SIA"
    SVA = "SVA"


@dataclass(frozen=True)
class AntennaGrid:
    """Rectangular M x G antenna layout with physical spacing and bandwidth."""

    rows: int
    cols: int
    spacing_m: float = 0.058
    bandwidth_hz: float = 20e6
    center_freq_hz: float = 2.6e9

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ConfigurationError("grid must have at least one row and column")
        if self.spacing_m <= 0 or self.bandwidth_hz <= 0:
            raise ConfigurationError("spacing and bandwidth must be positive")

    @property
    def n_antennas(self) -> int:
        return self.rows * self.cols

    def antennas(self):
        for r in range(self.rows):
            for c in range(self.cols):
                yield (r, c)


@dataclass(frozen=True)
class ArrayClass:
    kind: ArrayKind
    d_max_m: float


@dataclass
class ChannelRealization:
    """Per-antenna sparse impulse responses over the grid.

    ``taps`` has shape (rows, cols, L); ``support`` is the matching boolean
    mask with exactly ``sparsity`` True entries per antenna.
    """

    taps: np.ndarray
    support: np.ndarray
    sparsity: int
    kind: ArrayKind
    drift: float = 0.0

    def support_set(self, antenna) -> np.ndarray:
        r, c = antenna
        return np.flatnonzero(self.support[r, c])


def classify_array(grid: AntennaGrid) -> ArrayClass:
    """SIA when the farthest antennas cannot resolve distinct delays.

    Two taps are resolvable when their arrival-time difference exceeds
    1/(10*BW); the largest arrival-time difference across the array is
    d_max/C with d_max = (max(M, G) - 1) * d.
    """
    d_max = (max(grid.rows, grid.cols) - 1) * grid.spacing_m
    threshold = SPEED_OF_LIGHT / (10.0 * grid.bandwidth_hz)
    kind = ArrayKind.SIA if d_max <= threshold else ArrayKind.SVA
    return ArrayClass(kind=kind, d_max_m=d_max)


def recommended_D(spacing_m: float, bandwidth_hz: float) -> int:
    """Largest sharing depth whose whole neighborhood stays support-invariant:
    floor(C / (20 * d * BW))."""
    if spacing_m <= 0 or bandwidth_hz <= 0:
        raise ConfigurationError("spacing and bandwidth must be positive")
    return int(np.floor(SPEED_OF_LIGHT / (20.0 * spacing_m * bandwidth_hz)))


def lower_bound_D(sparsity: int, n_pilots: int) -> int:
    """Smallest integer depth D with D > sqrt(n - K/2 - 1/4) - 1/2.

    Guarantees the noise-free neighborhood observation count 2D(D+1)+1
    exceeds 2n - K; returns 0 when the radicand is nonpositive (bound
    vacuous).
    """
    radicand = sparsity - n_pilots / 2.0 - 0.25
    if radicand <= 0:
        return 0
    bound = np.sqrt(radicand) - 0.5
    return max(0, int(np.floor(bound)) + 1)


def tier_population(depth: int) -> int:
    """Antennas reached after ``depth`` sharing rounds, center included."""
    return 2 * depth * (depth + 1) + 1


# ---------------------------------------------------------------------------
# tap-value samplers (distribution-agnostic solver: any of these must work)

def _sample_rayleigh(rng, size):
    return (rng.normal(size=size) + 1j * rng.normal(size=size)) / np.sqrt(2.0)


def _sample_constant_magnitude(rng, size):
    return np.exp(2j * np.pi * rng.random(size=size))


def _sample_student_t(rng, size):
    # t(3) components scaled to unit symbol energy: var(t_3) = 3
    re = rng.standard_t(3, size=size)
    im = rng.standard_t(3, size=size)
    return (re + 1j * im) / np.sqrt(6.0)


TAP_SAMPLERS = {
    "rayleigh": _sample_rayleigh,
    "constant": _sample_constant_magnitude,
    "student_t": _sample_student_t,
}


def _draw_taps(rng, count, sampler):
    values = sampler(rng, count)
    for _ in range(64):
        weak = np.abs(values) < MIN_TAP_MAGNITUDE
        if not weak.any():
            return values
        values[weak] = sampler(rng, int(weak.sum()))
    raise RuntimeError("tap sampler keeps producing near-zero draws")


# ---------------------------------------------------------------------------
# support generation

def _walk_slots(grid, channel_len, sparsity, drift, rng):
    """Per-antenna ordered tap slots; one migration per diagonal w.p. drift.

    Indexing by the diagonal t = row + col makes every 4-neighbor pair
    exactly one walk step apart, so adjacent antennas differ in at most one
    delay bin.  Slot order is preserved across migrations so each slot
    keeps the identity (and power) of one scatterer.
    """
    n_diagonals = grid.rows + grid.cols - 1
    current = np.sort(rng.choice(channel_len, size=sparsity, replace=False))
    per_diagonal = [current.copy()]
    for _ in range(1, n_diagonals):
        if drift > 0 and rng.random() < drift:
            current = _migrate_one(current, channel_len, rng)
        per_diagonal.append(current.copy())

    slots = np.zeros((grid.rows, grid.cols, sparsity), dtype=int)
    for r, c in grid.antennas():
        slots[r, c] = per_diagonal[r + c]
    return slots


def _migrate_one(support, channel_len, rng):
    support = support.copy()
    occupied = set(support.tolist())
    order = rng.permutation(support.size)
    for pos in order:
        tap = support[pos]
        steps = [1, -1] if rng.random() < 0.5 else [-1, 1]
        for step in steps:
            dest = tap + step
            if 0 <= dest < channel_len and dest not in occupied:
                support[pos] = dest
                return support
    return support  # fully blocked; keep as-is


def _scatterer_slots(grid, channel_len, sparsity, rng):
    """Geometric variant: n point scatterers at random positions, per-antenna
    delays quantized to bins of width 1/BW.  Returns (slots, gains) where
    gains carry the free-space two-hop path loss per scatterer."""
    span = 50.0 * grid.spacing_m * max(grid.rows, grid.cols)
    tx = rng.uniform(-span, span, size=2)
    scatterers = rng.uniform(-span, span, size=(sparsity, 2))
    bin_width = 1.0 / grid.bandwidth_hz

    positions = np.zeros((grid.rows, grid.cols, 2))
    positions[..., 0] = np.arange(grid.rows)[:, None] * grid.spacing_m
    positions[..., 1] = np.arange(grid.cols)[None, :] * grid.spacing_m

    d_tx = np.maximum(np.linalg.norm(scatterers - tx, axis=1), grid.spacing_m)
    diff = positions[:, :, None, :] - scatterers[None, None, :, :]
    d_rx = np.maximum(np.linalg.norm(diff, axis=-1), grid.spacing_m)
    delays = (d_tx[None, None, :] + d_rx) / SPEED_OF_LIGHT
    bins = np.round((delays - delays.min()) / bin_width).astype(int)
    bins = np.clip(bins, 0, channel_len - 1)

    slots = np.zeros((grid.rows, grid.cols, sparsity), dtype=int)
    for r, c in grid.antennas():
        taken: list[int] = []
        for b in bins[r, c]:
            step = 1 if b < channel_len - 1 else -1
            while b in taken:
                if not 0 <= b + step < channel_len:
                    step = -step
                b += step
            taken.append(int(b))
        slots[r, c] = taken

    gains = 1.0 / (d_tx * d_rx.mean(axis=(0, 1)))
    return slots, gains


def geometric_gains(sparsity: int, rng: np.random.Generator) -> np.ndarray:
    """Two-hop path-loss amplitude profile for n point scatterers at random
    ranges, normalized so the total mean tap power equals the sparsity
    (keeps the analytic SNR calibration exact)."""
    d_tx = rng.uniform(30.0, 300.0, size=sparsity)
    d_rx = rng.uniform(30.0, 300.0, size=sparsity)
    gains = 1.0 / (d_tx * d_rx)
    return gains * np.sqrt(sparsity / np.sum(gains**2))


def generate_channels(
    grid: AntennaGrid,
    channel_len: int,
    sparsity: int,
    kind: ArrayKind = ArrayKind.SIA,
    drift: float = 0.05,
    rng: np.random.Generator | None = None,
    tap_dist="rayleigh",
    sva_model: str = "walk",
    power_profile="flat",
) -> ChannelRealization:
    """Draw one sparse channel realization over the whole grid.

    SIA: a single size-n support shared by all antennas.  SVA: the support
    drifts across the grid (``sva_model`` selects the random-walk default
    or the geometric scatterer variant).  Tap values are drawn per antenna
    from ``tap_dist`` (a TAP_SAMPLERS key or a callable ``f(rng, size)``).

    ``power_profile`` scales the per-scatterer amplitudes: "flat" keeps
    them equal, "geometric" draws two-hop path-loss gains (physical delay
    profiles concentrate most energy in the nearest scatterers), or pass an
    explicit length-n array.  Profiles are normalized so the expected total
    tap power stays equal to the sparsity.
    """
    if sparsity > channel_len:
        raise ConfigurationError(
            f"sparsity {sparsity} exceeds channel length {channel_len}"
        )
    if rng is None:
        rng = np.random.default_rng()
    sampler = TAP_SAMPLERS[tap_dist] if isinstance(tap_dist, str) else tap_dist

    gains = None
    if kind == ArrayKind.SIA or drift == 0.0:
        base = np.sort(rng.choice(channel_len, size=sparsity, replace=False))
        slots = np.broadcast_to(
            base, (grid.rows, grid.cols, sparsity)
        ).copy()
    elif sva_model == "walk":
        slots = _walk_slots(grid, channel_len, sparsity, drift, rng)
    elif sva_model == "scatterers":
        slots, gains = _scatterer_slots(grid, channel_len, sparsity, rng)
        gains = gains * np.sqrt(sparsity / np.sum(gains**2))
    else:
        raise ConfigurationError(f"unknown sva_model {sva_model!r}")

    if isinstance(power_profile, str):
        if power_profile == "flat":
            gains = np.ones(sparsity)
        elif power_profile == "geometric":
            if gains is None:
                gains = geometric_gains(sparsity, rng)
        else:
            raise ConfigurationError(f"unknown power_profile {power_profile!r}")
    else:
        gains = np.asarray(power_profile, dtype=float)
        if gains.shape != (sparsity,):
            raise ConfigurationError("explicit power profile must have length n")

    taps = np.zeros((grid.rows, grid.cols, channel_len), dtype=complex)
    support = np.zeros((grid.rows, grid.cols, channel_len), dtype=bool)
    draws = _draw_taps(rng, grid.rows * grid.cols * sparsity, sampler).reshape(
        grid.rows, grid.cols, sparsity
    )
    for r, c in grid.antennas():
        taps[r, c, slots[r, c]] = gains * draws[r, c]
        support[r, c, slots[r, c]] = True
    return ChannelRealization(
        taps=taps, support=support, sparsity=sparsity, kind=kind, drift=drift
    )


# ---------------------------------------------------------------------------
# serialization for replay

def channels_to_csv(realization: ChannelRealization, path) -> None:
    """Write nonzero taps as rows (antenna_row, antenna_col, tap_index, re, im)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["antenna_row", "antenna_col", "tap_index", "re", "im"])
        rows, cols, _ = realization.taps.shape
        for r in range(rows):
            for c in range(cols):
                for tap in np.flatnonzero(realization.support[r, c]):
                    value = realization.taps[r, c, tap]
                    writer.writerow(
                        [r, c, int(tap), repr(float(value.real)), repr(float(value.imag))]
                    )


def channels_from_csv(path, rows: int, cols: int, channel_len: int) -> ChannelRealization:
    taps = np.zeros((rows, cols, channel_len), dtype=complex)
    support = np.zeros((rows, cols, channel_len), dtype=bool)
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            r, c, t = int(row["antenna_row"]), int(row["antenna_col"]), int(row["tap_index"])
            taps[r, c, t] = float(row["re"]) + 1j * float(row["im"])
            support[r, c, t] = True
    counts = support.sum(axis=2)
    sparsity = int(counts.max())
    if counts.min() != sparsity:
        raise ConfigurationError("CSV does not describe a uniform-sparsity grid")
    same = bool(np.all(support == support[0, 0]))
    kind = ArrayKind.SIA if same else ArrayKind.SVA
    return ChannelRealization(
        taps=taps, support=support, sparsity=sparsity, kind=kind
    )
