"""Gray-coded square QAM alphabets, bit mapping and hard slicing.

Bit convention (documented so BER is reproducible): a symbol carries
k = log2(Q) bits, MSB first.  The first k/2 bits select the I level, the
last k/2 bits the Q level.  A bit group with integer value v selects level
index t where gray(t) = t ^ (t >> 1) = v, and level index t maps to the
odd amplitude 2*t - (m - 1), m = sqrt(Q).  Amplitudes are scaled so the
constellation has unit average symbol energy.

4-QAM bit-to-symbol table (scale 1/sqrt(2)):

    00 -> -1-1j    01 -> -1+1j    10 -> +1-1j    11 -> +1+1j

Slicing is per axis.  |x - (a + jb)|^2 = (x_I - a)^2 + (x_Q - b)^2, so the
nearest point pairs the nearest I level with the nearest Q level, and a
lookup table maps the pair to the point index.  Each axis is a running
minimum of |u - a_k| over the m levels in ascending order that only a
strict improvement replaces: an exact tie keeps the lower level, which is
the lexicographic (real, imag) tie rule over the whole constellation.
Near a decision boundary both differences u - a_k are exact (Sterbenz), so
a float midpoint that is not an exact tie goes to the strictly nearer level.
"""

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

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


def as_axes(symbols) -> np.ndarray:
    """(..., 2) float view of complex symbols: real parts at [..., 0] and
    imaginary parts at [..., 1] (a copy only for non-complex128 or
    non-contiguous input)."""
    x = np.ascontiguousarray(symbols, dtype=complex)
    return x.view(float).reshape(*x.shape, 2)


@dataclass(frozen=True)
class QamAlphabet:
    """Square Gray-mapped QAM constellation with unit average energy.

    ``points[v]`` is the symbol whose bit word (MSB first) has integer
    value ``v``.  The alphabet keeps a read-only copy of the points, and
    its tables are read-only too, so one instance can be shared:
    ``build_qam_alphabet`` returns the same one for every call of an order.
    """

    order: int
    points: np.ndarray
    bits_per_symbol: int = field(init=False)
    #: the m = sqrt(Q) PAM amplitudes of either axis, ascending
    levels: np.ndarray = field(init=False, repr=False)
    #: (m, m) point index of (I level, Q level)
    level_table: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "bits_per_symbol", int(np.log2(self.order)))
        points = np.array(self.points)
        # the real parts of the bottom row are the m levels (np.unique
        # would import numpy.ma)
        levels = np.sort(points.real[points.imag == points.imag.min()])
        table = np.empty((levels.size, levels.size), dtype=np.intp)
        table[np.searchsorted(levels, points.real),
              np.searchsorted(levels, points.imag)] = np.arange(self.order)
        for name, value in (("points", points), ("levels", levels), ("level_table", table)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    def nearest_levels(self, symbols: np.ndarray) -> np.ndarray:
        """(..., 2) indices into ``levels`` of each symbol's nearest I and Q
        levels.

        Both axes slice at once on the interleaved (real, imag) view of
        the symbols: a running minimum of |u - levels[k]| over the m levels
        in ascending order, where only a strict improvement replaces the
        pick, so an exact tie keeps the lower level.
        """
        axes = as_axes(symbols)
        dtype = np.min_scalar_type(self.levels.size - 1)
        best = np.abs(axes - self.levels[0])
        dist = np.abs(axes - self.levels[1])
        nearest = (dist < best).astype(dtype)
        for k in range(2, self.levels.size):
            np.minimum(best, dist, out=best)
            dist = np.abs(axes - self.levels[k])
            # the pick is the last level that improved: a branch-free max
            np.maximum(nearest, np.multiply(dist < best, k, dtype=dtype), out=nearest)
        return nearest

    def indices_from_levels(self, nearest_levels: np.ndarray) -> np.ndarray:
        """Point indices of (..., 2) (I level, Q level) index pairs."""
        flat = np.multiply(nearest_levels[..., 0], self.levels.size, dtype=np.intp)
        flat += nearest_levels[..., 1]
        return self.level_table.take(flat)

    @cached_property
    def popcount(self) -> np.ndarray:
        """(Q,) table: the set bits of each index's word, so indices a and
        b differ in ``popcount[a ^ b]`` bits."""
        table = np.array([bin(v).count("1") for v in range(self.order)], dtype=np.intp)
        table.flags.writeable = False
        return table

    @cached_property
    def corners(self) -> np.ndarray:
        """The constant-modulus corner points, read-only (the pilot symbols)."""
        mags = np.abs(self.points)
        corners = self.points[np.isclose(mags, mags.max())]
        corners.flags.writeable = False
        return corners


@lru_cache
def build_qam_alphabet(order: int) -> QamAlphabet:
    """Gray-mapped square QAM of the given order, unit average energy.

    Built once per order: every call with that order returns the same
    read-only instance.  Raises ConfigurationError for orders without a
    square constellation (anything other than 4, 16, 64, ...).
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
