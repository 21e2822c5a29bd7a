"""Reference forms that production code replaced, kept for the tests.

``sq_distances_oracle`` and ``nearest_indices_oracle`` are the
constellation-wide slicer: a (..., Q) array of squared distances and Q
masked passes in lexicographic (real, imag) point order, where only a
strict improvement replaces the pick.  ``QamAlphabet.nearest_indices``
slices each axis on its own instead.
"""

import numpy as np


def sq_distances_oracle(alphabet, symbols):
    """|x - points[v]|^2 for every symbol x and index v, shape (..., Q)."""
    x = np.asarray(symbols)
    d2 = np.empty(x.shape + (alphabet.order,))
    for v, point in enumerate(alphabet.points):
        d2[..., v] = np.abs(x - point) ** 2
    return d2


def nearest_indices_oracle(alphabet, symbols, sq_distances=None):
    """Nearest point index per symbol from Q passes over the points in
    lexicographic (real, imag) order, so the lex-smallest of equally near
    points wins; ``sq_distances`` is ``sq_distances_oracle`` of the symbols
    when the caller already holds it."""
    x = np.asarray(symbols)
    if sq_distances is None:
        sq_distances = sq_distances_oracle(alphabet, x)
    lex_order = np.lexsort((alphabet.points.imag, alphabet.points.real))
    nearest = np.full(x.shape, lex_order[0])
    best = np.full(x.shape, np.inf)
    for v in lex_order:
        d2 = sq_distances[..., v]
        nearest[d2 < best] = v
        np.minimum(best, d2, out=best)
    return nearest
