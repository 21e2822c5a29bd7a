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
from functools import cached_property

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
    sorted pilot index set.  The frame keeps a read-only copy of the
    pilots, so ``data_mask``, which marks the data carriers (those off the
    pilots), is computed once and stays read-only and current."""

    freq_symbols: np.ndarray
    pilot_indices: np.ndarray

    def __post_init__(self):
        pilots = np.array(self.pilot_indices)
        pilots.flags.writeable = False
        object.__setattr__(self, "pilot_indices", pilots)

    @property
    def n_carriers(self) -> int:
        return self.freq_symbols.shape[0]

    @cached_property
    def data_mask(self) -> np.ndarray:
        mask = np.ones(self.n_carriers, dtype=bool)
        mask[self.pilot_indices] = False
        mask.flags.writeable = False
        return mask


def freq_response(h: np.ndarray, n_carriers: int) -> np.ndarray:
    """Length-N channel frequency response F_L @ h of a length-L CIR; a
    stack (..., L) of CIRs gives (..., N) in one FFT, zero-padded and
    transformed in the output buffer.  The unitary scale multiplies the
    float view by 1/sqrt(N), which is what dividing the complex values by
    sqrt(N) computes.  An L > N channel is refused: the N-point FFT would
    crop it silently."""
    h = np.asarray(h)
    if h.shape[-1] > n_carriers:
        raise ConfigurationError(
            f"channel length {h.shape[-1]} exceeds carrier count {n_carriers}")
    response = np.zeros((*h.shape[:-1], n_carriers), dtype=complex)
    response[..., :h.shape[-1]] = h
    np.fft.fft(response, out=response)
    parts = response.view(float)
    np.multiply(parts, 1.0 / np.sqrt(n_carriers), out=parts)
    return response


def place_pilots(n_carriers: int, n_pilots: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n_pilots distinct carrier indices uniformly from ``rng`` (a
    trial's stream 1), returned sorted."""
    if n_pilots > n_carriers:
        raise ConfigurationError(
            f"cannot place {n_pilots} pilots on {n_carriers} carriers"
        )
    return np.sort(rng.choice(n_carriers, size=n_pilots, replace=False))


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
    frame = OfdmFrame(freq_symbols=symbols, pilot_indices=pilots)
    corners = alphabet.corners
    symbols[pilots] = corners[rng.integers(0, corners.size, size=pilots.size)]
    symbols[frame.data_mask] = alphabet.points[
        rng.integers(0, alphabet.order, size=np.count_nonzero(frame.data_mask))]
    return frame


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
    channel is refused (``freq_response``)."""
    received = freq_response(taps, frame.n_carriers)
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
    falls below ZF_MIN_GAIN are flagged and equalize to 0: every carrier is
    divided, with no mask, and the flagged quotients (inf or nan where the
    gain is 0) are overwritten.  Callers count their bits as errors.
    """
    received = np.asarray(received)
    freq_resp = np.asarray(freq_resp)
    if received.shape != freq_resp.shape:
        raise ValueError("received and frequency response shapes differ")
    bad = np.abs(freq_resp) < ZF_MIN_GAIN
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        equalized = received / freq_resp
    equalized[bad] = 0.0
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
