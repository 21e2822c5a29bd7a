"""Sparse multipath channels over a 2-D antenna grid.

A draw is one (rows, cols, L) complex tap array for the whole grid.  Its
support is ``taps != 0``, exactly: the samplers' near-zero draws are
redrawn, so every antenna holds exactly ``sparsity`` nonzero taps.

Supports two spatial regimes.  In a space-invariant array (SIA) every
antenna shares one support set; tap values still fade independently.  In
a space-variant array (SVA) the support drifts slowly across the grid:
the generator evolves it as a random walk indexed by the grid
diagonal (row + col), so every antenna and each of its 4-neighbors differ
by at most one migrated delay bin.

No assumption is made about the distribution of the nonzero taps; the
sampler is one of ``TAP_SAMPLERS`` and defaults to unit-variance complex
Gaussian (Rayleigh magnitude).
"""

import csv
import enum

import numpy as np

from .errors import ConfigurationError

#: tap draws with magnitude below this are rejected to keep supports exact
MIN_TAP_MAGNITUDE = 1e-9

#: named per-scatterer power profiles accepted by ``generate_channels``
POWER_PROFILES = ("flat", "geometric")


class ArrayKind(enum.Enum):
    SIA = "SIA"
    SVA = "SVA"


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

def _walk_slots(shape, channel_len, sparsity, drift, rng):
    """Per-antenna ordered tap slots; one migration per diagonal w.p. drift.

    Indexing by the diagonal t = row + col makes every 4-neighbor pair
    exactly one walk step apart, so adjacent antennas differ in at most one
    delay bin.  Slot order is preserved across migrations so each slot
    keeps the identity (and power) of one scatterer.
    """
    rows, cols = shape
    n_diagonals = rows + cols - 1
    current = np.sort(rng.choice(channel_len, size=sparsity, replace=False))
    per_diagonal = [current]
    for _ in range(1, n_diagonals):
        if drift > 0 and rng.random() < drift:
            current = _migrate_one(current, channel_len, rng)
        per_diagonal.append(current)
    diagonal = np.add.outer(np.arange(rows), np.arange(cols))
    return np.array(per_diagonal)[diagonal]


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


def geometric_gains(sparsity: int, rng: np.random.Generator) -> np.ndarray:
    """Two-hop path-loss amplitude profile for n point scatterers at random
    ranges, normalized so the total mean tap power equals the sparsity
    (keeps the analytic SNR calibration exact)."""
    d_tx = rng.uniform(30.0, 300.0, size=sparsity)
    d_rx = rng.uniform(30.0, 300.0, size=sparsity)
    gains = 1.0 / (d_tx * d_rx)
    return gains * np.sqrt(sparsity / np.sum(gains**2))


def generate_channels(
    shape: tuple,
    channel_len: int,
    sparsity: int,
    kind: ArrayKind,
    drift: float,
    rng: np.random.Generator,
    tap_dist: str = "rayleigh",
    power_profile: str = "flat",
) -> np.ndarray:
    """Draw one sparse channel realization over a (rows, cols) grid: the
    (rows, cols, L) taps, ``sparsity`` of them nonzero per antenna.

    SIA: a single size-n support shared by all antennas.  SVA: the support
    drifts across the grid as a random walk along its diagonals.  Tap values
    are drawn per antenna from the ``TAP_SAMPLERS`` entry ``tap_dist``.

    ``power_profile`` (one of ``POWER_PROFILES``) scales the per-scatterer
    amplitudes: "flat" keeps them equal, "geometric" draws two-hop
    path-loss gains (physical delay profiles concentrate most energy in the
    nearest scatterers).  Profiles are normalized so the expected total tap
    power stays equal to the sparsity.
    """
    if len(shape) != 2 or min(shape) < 1:
        raise ConfigurationError(f"grid shape must hold two sides >= 1, got {shape}")
    if sparsity > channel_len:
        raise ConfigurationError(
            f"sparsity {sparsity} exceeds channel length {channel_len}"
        )
    if tap_dist not in TAP_SAMPLERS:
        raise ConfigurationError(
            f"tap_dist must be one of {tuple(TAP_SAMPLERS)}, got {tap_dist!r}")
    if power_profile not in POWER_PROFILES:
        raise ConfigurationError(
            f"power_profile must be one of {POWER_PROFILES}, got {power_profile!r}")

    if kind == ArrayKind.SIA or drift == 0.0:
        base = np.sort(rng.choice(channel_len, size=sparsity, replace=False))
        slots = np.broadcast_to(base, shape + (sparsity,))
    else:
        slots = _walk_slots(shape, channel_len, sparsity, drift, rng)
    if power_profile == "geometric":
        gains = geometric_gains(sparsity, rng)
    else:
        gains = np.ones(sparsity)

    draws = _draw_taps(rng, slots.size, TAP_SAMPLERS[tap_dist]).reshape(slots.shape)
    taps = np.zeros(shape + (channel_len,), dtype=complex)
    np.put_along_axis(taps, slots, gains * draws, axis=2)
    return taps


# ---------------------------------------------------------------------------
# serialization for replay

def channels_to_csv(taps: np.ndarray, path) -> None:
    """Write nonzero taps as rows (antenna_row, antenna_col, tap_index, re, im)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["antenna_row", "antenna_col", "tap_index", "re", "im"])
        index = np.nonzero(taps)
        for r, c, tap, value in zip(*(axis.tolist() for axis in index), taps[index].tolist()):
            writer.writerow([r, c, tap, repr(value.real), repr(value.imag)])
