"""Gray-coded square QAM alphabets, bit mapping and hard slicing.

Bit convention (documented so BER is reproducible): a symbol carries
k = log2(Q) bits, MSB first.  The first k/2 bits select the I level, the
last k/2 bits the Q level.  A bit group with integer value v selects level
index t where gray(t) = t ^ (t >> 1) = v, and level index t maps to the
odd amplitude 2*t - (m - 1), m = sqrt(Q).  Amplitudes are scaled so the
constellation has unit average symbol energy.

4-QAM bit-to-symbol table (scale 1/sqrt(2)):

    00 -> -1-1j    01 -> -1+1j    10 -> +1-1j    11 -> +1+1j
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConfigurationError


def _is_square_qam_order(order: int) -> bool:
    if order < 4:
        return False
    root = round(order ** 0.5)
    return root * root == order and (root & (root - 1)) == 0


def _gray_decode(v: np.ndarray) -> np.ndarray:
    # invert g = t ^ (t >> 1); word lengths here are tiny (<= 8 bits)
    t = v.copy()
    shift = 1
    while shift < 16:
        t ^= t >> shift
        shift <<= 1
    return t


@dataclass(frozen=True)
class QamAlphabet:
    """Square Gray-mapped QAM constellation with unit average energy.

    ``points[v]`` is the symbol whose bit word (MSB first) has integer
    value ``v``.
    """

    order: int
    points: np.ndarray
    bits_per_symbol: int = field(init=False)
    _lex_order: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "bits_per_symbol", int(np.log2(self.order)))
        lex = np.lexsort((self.points.imag, self.points.real))
        object.__setattr__(self, "_lex_order", lex)

    def symbols_from_indices(self, idx: np.ndarray) -> np.ndarray:
        return self.points[np.asarray(idx)]

    def indices_from_bits(self, bits: np.ndarray) -> np.ndarray:
        """Pack bits (..., k) MSB-first into symbol indices."""
        k = self.bits_per_symbol
        b = np.asarray(bits).reshape(-1, k)
        weights = 1 << np.arange(k - 1, -1, -1)
        return b @ weights

    def bits_from_indices(self, idx: np.ndarray) -> np.ndarray:
        """Unpack symbol indices into bits (..., k) MSB-first."""
        k = self.bits_per_symbol
        idx = np.asarray(idx).reshape(-1)
        shifts = np.arange(k - 1, -1, -1)
        return ((idx[:, None] >> shifts) & 1).astype(np.int8)

    def sq_distances(self, symbols: np.ndarray) -> np.ndarray:
        """|x - points[v]|^2 for every symbol x and index v, shape (..., Q)."""
        x = np.asarray(symbols)
        d2 = np.empty(x.shape + (self.order,))
        for v, point in enumerate(self.points):  # temporaries stay symbol-sized
            d2[..., v] = np.abs(x - point) ** 2
        return d2

    def nearest_indices(self, symbols: np.ndarray, sq_distances=None) -> np.ndarray:
        """Index of the nearest constellation point for each input symbol.

        Ties break toward the point with lexicographically smaller
        (real, imag), so slicing is deterministic.  A caller that already
        holds ``self.sq_distances(symbols)`` passes it to skip recomputing.
        """
        x = np.asarray(symbols)
        nearest = np.full(x.shape, self._lex_order[0])
        best = np.full(x.shape, np.inf)
        # visiting points in lex order, a strict improvement keeps the
        # lex-smallest of equally near points
        for v in self._lex_order:
            d2 = np.abs(x - self.points[v]) ** 2 if sq_distances is None else sq_distances[..., v]
            closer = d2 < best
            nearest[closer] = v
            np.minimum(best, d2, out=best)
        return nearest

    def slice(self, symbols: np.ndarray) -> np.ndarray:
        """Hard decisions: nearest constellation point per symbol."""
        return self.points[self.nearest_indices(symbols)]

    @cached_property
    def hamming(self) -> np.ndarray:
        """(Q, Q) table: bits differing between the words of two indices."""
        bits = self.bits_from_indices(np.arange(self.order))
        return (bits[:, None, :] != bits[None, :, :]).sum(axis=-1)

    def max_magnitude_points(self) -> np.ndarray:
        """The constant-modulus corner points (used for pilot symbols)."""
        mags = np.abs(self.points)
        return self.points[np.isclose(mags, mags.max())]


def build_qam_alphabet(order: int) -> QamAlphabet:
    """Gray-mapped square QAM of the given order, unit average energy.

    Raises ConfigurationError for orders without a square constellation
    (anything other than 4, 16, 64, ...).
    """
    if not _is_square_qam_order(order):
        raise ConfigurationError(
            f"QAM order {order} is not a square constellation (need 4, 16, 64, ...)"
        )
    m = round(order ** 0.5)
    half_bits = int(np.log2(m))
    scale = 1.0 / np.sqrt(2.0 * (m * m - 1) / 3.0)
    levels = scale * (2.0 * np.arange(m) - (m - 1))

    v = np.arange(order)
    v_i = v >> half_bits
    v_q = v & (m - 1)
    points = levels[_gray_decode(v_i)] + 1j * levels[_gray_decode(v_q)]
    return QamAlphabet(order=order, points=points)
