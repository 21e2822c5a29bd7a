"""OFDM frame construction, pilot placement, synthesis and detection.

The frequency-domain model per receive antenna is

    y = diag(x_freq) @ F_L @ h + w

where F_L holds the first L columns of the unitary N-point DFT matrix,
h is the length-L impulse response and w is circular complex Gaussian
noise with per-entry variance ``noise_var``.  F_L @ h is one FFT
(:func:`freq_response`), which synthesis and detection share; only the
K pilot rows of diag(x_freq) @ F_L are ever formed as a matrix
(:func:`pilot_rows`), for the estimators.

All randomness flows through explicit numpy Generators.  Seeded streams
are created with :func:`make_rng`, which pins PCG64 so pilot placement,
frames and noise are reproducible across runs and platforms.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .qam import QamAlphabet

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


def freq_response(h: np.ndarray, n_carriers: int) -> np.ndarray:
    """Length-N channel frequency response F_L @ h of a length-L CIR; a
    stack (..., L) of CIRs gives (..., N) in one FFT.  The unitary scale
    multiplies the float view by 1/sqrt(N), which is what dividing the
    complex values by sqrt(N) computes."""
    response = np.fft.fft(h, n=n_carriers)
    parts = response.view(float)
    np.multiply(parts, 1.0 / np.sqrt(n_carriers), out=parts)
    return response


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
    alphabet: QamAlphabet, n_carriers: int, pilots: np.ndarray,
    rng: np.random.Generator,
) -> OfdmFrame:
    """Random data symbols off the pilot set, fixed pilot symbols on it.

    Pilot symbols are drawn (deterministically from ``rng``) from the
    constant-modulus corner points of the alphabet; at Q=4 these are the
    unit-magnitude points.  One frame is shared by the whole antenna grid.
    """
    pilots = np.asarray(pilots)
    symbols = np.empty(n_carriers, dtype=complex)
    corners = alphabet.max_magnitude_points()
    symbols[pilots] = corners[rng.integers(0, corners.size, size=pilots.size)]

    data_mask = np.ones(n_carriers, dtype=bool)
    data_mask[pilots] = False
    n_data = int(data_mask.sum())
    if n_data:
        symbols[data_mask] = alphabet.points[
            rng.integers(0, alphabet.order, size=n_data)
        ]
    return OfdmFrame(freq_symbols=symbols, pilot_indices=pilots)


def pilot_rows(frame: OfdmFrame, channel_len: int) -> np.ndarray:
    """The K x L rows diag(x_freq) @ F_L of a frame at its pilot carriers."""
    n = frame.n_carriers
    if channel_len > n:
        raise ConfigurationError(f"channel length {channel_len} exceeds carrier count {n}")
    k = frame.pilot_indices[:, None]
    l = np.arange(channel_len)[None, :]
    return frame.freq_symbols[frame.pilot_indices, None] * (
        np.exp(-2j * np.pi * k * l / n) / np.sqrt(n))


def synthesize_received(
    frame: OfdmFrame,
    taps: np.ndarray,
    noise_var: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """y = diag(x_freq) @ F_L @ h + w for one (L,) CIR or a (..., L) stack,
    with circular complex Gaussian noise of variance noise_var.

    The noise is drawn into one standard-normal buffer and scaled by
    sigma = sqrt(noise_var / 2), for the real parts and then the imaginary
    parts: the values two ``rng.normal(0, sigma)`` calls draw.  An L > N
    channel is refused: the N-point FFT would crop it silently."""
    n, length = frame.n_carriers, np.shape(taps)[-1]
    if length > n:
        raise ConfigurationError(f"channel length {length} exceeds carrier count {n}")
    received = freq_response(taps, n)
    received *= frame.freq_symbols
    sigma = np.sqrt(noise_var / 2.0)
    noise = np.empty(received.shape)
    for part in (received.real, received.imag):
        rng.standard_normal(out=noise)
        noise *= sigma
        part += noise
    return received


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
    equalized = np.zeros(received.shape, dtype=np.result_type(received, freq_resp))
    np.divide(received, freq_resp, out=equalized, where=~bad)
    return equalized, bad


def detect(received: np.ndarray, taps: np.ndarray, alphabet: QamAlphabet):
    """Zero-forcing detection of a (B, N) stack of antennas on every carrier
    with their (B, L) estimated CIRs: one FFT, one division and one
    per-axis slicing pass.

    Returns (equalized, nearest (I, Q) level indices, undecodable mask).
    Every step is per carrier, so any subset of carriers detects alike.
    """
    equalized, bad = equalize(received, freq_response(taps, received.shape[-1]))
    return equalized, alphabet.nearest_levels(equalized), bad
