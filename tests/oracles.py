"""Reference forms that production code replaced, kept for the tests.

``sq_distances_oracle`` and ``nearest_indices_oracle`` are the
constellation-wide slicer: a (..., Q) array of squared distances and Q
masked passes in lexicographic (real, imag) point order, where only a
strict improvement replaces the pick.  ``QamAlphabet.nearest_indices``
slices each axis on its own instead.

``neighbors`` is the set-based 4-neighborhood that the array stencils
(``sharing.stencil_reduce`` and ``stencil_gather``) replaced.
``somp_loop_oracle`` and ``oracle_ls_loop_oracle`` are the per-antenna
baselines that ``experiments.somp_baseline`` and ``oracle_ls_estimate``
replaced with one Gram-domain batch: SOMP refits every stage with
``lstsq`` on the member observations, and oracle-LS calls
``blue_estimate`` per antenna.
"""

import numpy as np

from gridce.solver import blue_estimate


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


def neighbors(grid, antenna) -> list:
    """In-grid 4-neighborhood (up, down, left, right) of an antenna."""
    r, c = antenna
    if not (0 <= r < grid.rows and 0 <= c < grid.cols):
        raise IndexError(f"antenna {antenna} outside {grid.rows}x{grid.cols} grid")
    out = []
    if r > 0:
        out.append((r - 1, c))
    if r < grid.rows - 1:
        out.append((r + 1, c))
    if c > 0:
        out.append((r, c - 1))
    if c < grid.cols - 1:
        out.append((r, c + 1))
    return out


def somp_loop_oracle(grid, observations, sensing_rows, n_taps):
    """Per-antenna SOMP over the in-grid neighborhood; returns ((M, G, L)
    taps, [row][col] selected tap lists in pick order)."""
    a = np.ascontiguousarray(sensing_rows, dtype=complex)
    n_obs, length = a.shape
    col_norm = np.sqrt(np.einsum("ij,ij->j", a.conj(), a).real)
    taps = np.zeros((grid.rows, grid.cols, length), dtype=complex)
    picks = [[[] for _ in range(grid.cols)] for _ in range(grid.rows)]
    for r, c in grid.antennas():
        members = [(r, c)] + neighbors(grid, (r, c))
        ys = np.ascontiguousarray(
            np.stack([observations[mr, mc] for mr, mc in members], axis=1)
        )
        residual = ys.copy()
        selected = picks[r][c]
        for _ in range(min(n_taps, n_obs)):
            corr = a.conj().T @ residual
            score = np.sqrt((np.abs(corr) ** 2).sum(axis=1)) / col_norm
            score[selected] = -1.0
            selected.append(int(np.argmax(score)))
            coef, *_ = np.linalg.lstsq(a[:, selected], ys, rcond=None)
            residual = ys - a[:, selected] @ coef
        if selected:
            taps[r, c, selected] = coef[:, 0]
    return taps, picks


def oracle_ls_loop_oracle(sensing_rows, observations, supports):
    """``blue_estimate`` on each antenna's support: (..., K) observations
    and (..., S) supports give (..., L) taps."""
    a = np.asarray(sensing_rows)
    supports = np.asarray(supports, dtype=int)
    y = np.asarray(observations).reshape(-1, a.shape[0])
    slots = supports.reshape(-1, supports.shape[-1])
    taps = np.zeros((slots.shape[0], a.shape[1]), dtype=complex)
    for b, support in enumerate(slots):
        taps[b, support] = blue_estimate(a[:, support], y[b])
    return taps.reshape(supports.shape[:-1] + (a.shape[1],))
