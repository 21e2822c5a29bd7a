"""OFDM frame construction, pilot placement, sensing matrices and detection.

The frequency-domain model per receive antenna is

    y = diag(x_freq) @ F_L @ h + w

where F_L holds the first L columns of the unitary N-point DFT matrix,
h is the length-L impulse response and w is circular complex Gaussian
noise with per-entry variance ``noise_var``.

All randomness flows through explicit numpy Generators.  Seeded streams
are created with :func:`make_rng`, which pins PCG64 so pilot placement,
frames and noise are reproducible across runs and platforms.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigurationError
from .qam import QamAlphabet, build_qam_alphabet

#: carriers with |H| below this are flagged undecodable instead of divided
ZF_MIN_GAIN = 1e-12


def make_rng(*key) -> np.random.Generator:
    """Seeded PCG64 generator from an integer key tuple.

    Distinct keys give statistically independent streams, so trial workers
    can derive their own stream from (seed, trial, ...) without sharing
    state.
    """
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(key)))


@dataclass(frozen=True)
class OfdmConfig:
    """System dimensions shared by every operation in a run."""

    n_carriers: int
    n_pilots: int
    qam_order: int
    channel_len: int
    noise_var: float
    seed: int = 0

    def __post_init__(self):
        if self.n_carriers < 1:
            raise ConfigurationError("n_carriers must be positive")
        if not 1 <= self.n_pilots <= self.n_carriers:
            raise ConfigurationError(
                f"n_pilots={self.n_pilots} must lie in [1, n_carriers={self.n_carriers}]"
            )
        if self.channel_len < 1 or self.channel_len > self.n_carriers:
            raise ConfigurationError(
                f"channel_len={self.channel_len} must lie in [1, n_carriers]"
            )
        if self.noise_var < 0:
            raise ConfigurationError("noise_var must be nonnegative")
        build_qam_alphabet(self.qam_order)  # validates the order

    @property
    def alphabet(self) -> QamAlphabet:
        return build_qam_alphabet(self.qam_order)


@dataclass(frozen=True)
class OfdmFrame:
    """One transmitted OFDM symbol: N frequency-domain symbols plus the
    sorted pilot index set."""

    freq_symbols: np.ndarray
    pilot_indices: np.ndarray

    @property
    def n_carriers(self) -> int:
        return self.freq_symbols.shape[0]

    @property
    def data_indices(self) -> np.ndarray:
        mask = np.ones(self.n_carriers, dtype=bool)
        mask[self.pilot_indices] = False
        return np.flatnonzero(mask)


@dataclass(frozen=True)
class SensingMatrix:
    """rows = diag(x_freq) @ F_L, either full (N x L) or row-restricted."""

    rows: np.ndarray
    restriction: np.ndarray | None = None

    @property
    def shape(self):
        return self.rows.shape


@lru_cache(maxsize=8)
def _truncated_dft(n_carriers: int, channel_len: int) -> np.ndarray:
    """First ``channel_len`` columns of the unitary N-point DFT matrix."""
    k = np.arange(n_carriers)[:, None]
    l = np.arange(channel_len)[None, :]
    return np.exp(-2j * np.pi * k * l / n_carriers) / np.sqrt(n_carriers)


def truncated_dft(n_carriers: int, channel_len: int) -> np.ndarray:
    return _truncated_dft(n_carriers, channel_len).copy()


def freq_response(h: np.ndarray, n_carriers: int) -> np.ndarray:
    """Length-N channel frequency response F_L @ h of a length-L CIR; a
    stack (..., L) of CIRs gives (..., N) in one FFT."""
    return np.fft.fft(h, n=n_carriers) / np.sqrt(n_carriers)


def place_pilots(n_carriers: int, n_pilots: int, rng_seed: int) -> np.ndarray:
    """Draw n_pilots distinct carrier indices uniformly, returned sorted."""
    if n_pilots > n_carriers:
        raise ConfigurationError(
            f"cannot place {n_pilots} pilots on {n_carriers} carriers"
        )
    rng = make_rng(rng_seed)
    idx = rng.choice(n_carriers, size=n_pilots, replace=False)
    return np.sort(idx)


def modulate_frame(
    config: OfdmConfig, pilots: np.ndarray, rng: np.random.Generator
) -> OfdmFrame:
    """Random data symbols off the pilot set, fixed pilot symbols on it.

    Pilot symbols are drawn (deterministically from ``rng``) from the
    constant-modulus corner points of the alphabet; at Q=4 these are the
    unit-magnitude points.  One frame is shared by the whole antenna grid.
    """
    alphabet = config.alphabet
    pilots = np.asarray(pilots)
    n = config.n_carriers

    symbols = np.empty(n, dtype=complex)
    corners = alphabet.max_magnitude_points()
    symbols[pilots] = corners[rng.integers(0, corners.size, size=pilots.size)]

    data_mask = np.ones(n, dtype=bool)
    data_mask[pilots] = False
    n_data = int(data_mask.sum())
    if n_data:
        symbols[data_mask] = alphabet.points[
            rng.integers(0, alphabet.order, size=n_data)
        ]
    return OfdmFrame(freq_symbols=symbols, pilot_indices=pilots)


def build_sensing_matrix(
    frame: OfdmFrame, channel_len: int, restrict_to: np.ndarray | None = None
) -> SensingMatrix:
    """diag(x_freq) @ F_L, optionally restricted to a row subset."""
    n = frame.n_carriers
    if channel_len > n:
        raise ConfigurationError("channel_len exceeds carrier count")
    full = frame.freq_symbols[:, None] * _truncated_dft(n, channel_len)
    if restrict_to is None:
        return SensingMatrix(rows=full)
    restrict_to = np.asarray(restrict_to)
    if restrict_to.size and (restrict_to.min() < 0 or restrict_to.max() >= n):
        raise IndexError("restriction index out of range")
    return SensingMatrix(rows=full[restrict_to], restriction=restrict_to)


def synthesize_received(
    sensing: SensingMatrix,
    h: np.ndarray,
    noise_var: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """y = A h + w with circular complex Gaussian noise of variance noise_var."""
    a = sensing.rows
    h = np.asarray(h)
    if h.shape[-1] != a.shape[1]:
        raise ValueError(
            f"channel length {h.shape[-1]} does not match sensing columns {a.shape[1]}"
        )
    clean = h @ a.T
    if noise_var == 0.0:
        return clean
    sigma = np.sqrt(noise_var / 2.0)
    noise = rng.normal(0.0, sigma, size=clean.shape) + 1j * rng.normal(
        0.0, sigma, size=clean.shape
    )
    return clean + noise


def equalize(received: np.ndarray, freq_resp: np.ndarray):
    """Zero-forcing per-carrier division, for one antenna or a stack.

    Returns (equalized, undecodable_mask).  Carriers whose estimated gain
    falls below ZF_MIN_GAIN are flagged rather than divided and equalize
    to 0; callers count their bits as errors.
    """
    received = np.asarray(received)
    freq_resp = np.asarray(freq_resp)
    if received.shape != freq_resp.shape:
        raise ValueError("received and frequency response shapes differ")
    bad = np.abs(freq_resp) < ZF_MIN_GAIN
    equalized = received / np.where(bad, 1.0, freq_resp)
    equalized[bad] = 0.0
    return equalized, bad


def equalize_and_slice(
    received: np.ndarray, freq_resp: np.ndarray, alphabet: QamAlphabet
):
    """Zero-forcing detection: ``equalize`` then nearest-point slicing.

    Returns (equalized, hard_decisions, undecodable_mask).
    """
    equalized, bad = equalize(received, freq_resp)
    return equalized, alphabet.slice(equalized), bad
