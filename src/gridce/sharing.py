"""Distributed belief sharing across the antenna grid.

Each antenna first estimates its channel on its own, then exchanges per-tap
beliefs with its 4-neighbors over ``depth`` bulk-synchronous rounds.  Two
belief currencies are supported: real-valued activity marginals, and
integer scores that rank the detected taps by amplitude (cheaper to
communicate, no marginal lattice needed).  After sharing, the averaged
beliefs become Bernoulli priors for a final estimation pass.

Rounds are double-buffered: round t+1 is computed entirely from round-t
values, so results do not depend on antenna evaluation order and after D
rounds an antenna's state depends only on antennas within Manhattan
distance D.
"""

import csv
import enum
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .errors import ConfigurationError
from .posterior import error_covariances, lattice_marginals
from .solver import PRIOR_EPS, ChainStack, search_depth, search_rows

DEFAULT_LAMBDA_SMALL = 1e-3


class BeliefKind(enum.Enum):
    MARGINAL = "marginal"
    SCORE = "score"


@dataclass
class GridSolverConfig:
    """Knobs shared by the grid estimation algorithms.

    ``lambda_init`` is the uniform tap-activity probability every antenna
    starts from; with the pilot count it sets the search depth t_max
    (``solver.search_depth``), identical at every antenna.  ``noise_var``
    is the noise level every antenna assumes.  ``lambda_small`` is the
    lowest prior the final pass gives a tap, and the belief of a tap that
    no neighbor detected.  With ``trace_path`` set, every averaging round's
    beliefs are written to that CSV.
    """

    lambda_init: float
    noise_var: float
    lambda_small: float = DEFAULT_LAMBDA_SMALL
    trace_path: str | None = None


@dataclass
class GridEstimate:
    """Final per-antenna estimates plus everything downstream passes need.

    ``support`` holds each antenna's detected taps in selection order and
    ``error_cov`` their T x T error covariance (``error_covariances``).
    A chain shorter than T is zero-padded, and an antenna whose final pass
    failed is zero throughout.
    """

    taps: np.ndarray                       # (M, G, L) combined estimates
    support: np.ndarray                    # (M, G, T) int detected taps
    error_cov: np.ndarray                  # (M, G, T, T)
    priors: np.ndarray                     # (M, G, L) priors used in the final pass
    failed: np.ndarray                     # (M, G) bool
    diagnostics: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# neighborhood stencils (self + in-grid 4-neighbors)

#: (receiving antennas, their neighbor) slices of the grid axes, one pair per
#: stencil offset in the order up, down, left, right
_NEIGHBOR_SLICES = (
    (np.s_[1:], np.s_[:-1]),
    (np.s_[:-1], np.s_[1:]),
    (np.s_[:, 1:], np.s_[:, :-1]),
    (np.s_[:, :-1], np.s_[:, 1:]),
)


def stencil_reduce(x: np.ndarray, op) -> np.ndarray:
    """Fold each antenna's neighborhood with the binary ufunc ``op`` over
    the grid axes (the first two); trailing axes are carried along."""
    out = x.copy()
    for dst, src in _NEIGHBOR_SLICES:
        op(out[dst], x[src], out=out[dst])
    return out


def stencil_gather(x: np.ndarray) -> np.ndarray:
    """Each antenna's neighborhood members stacked on a new third axis in
    the order self, up, down, left, right: (M, G, ...) -> (M, G, 5, ...).
    A member outside the grid is a zero row."""
    out = np.zeros(x.shape[:2] + (1 + len(_NEIGHBOR_SLICES),) + x.shape[2:],
                   dtype=x.dtype)
    out[:, :, 0] = x
    for member, (dst, src) in enumerate(_NEIGHBOR_SLICES, start=1):
        out[dst][:, :, member] = x[src]
    return out


def _stencil_sum(x: np.ndarray) -> np.ndarray:
    return stencil_reduce(x.astype(float), np.add)


def _stencil_any(mask: np.ndarray) -> np.ndarray:
    return stencil_reduce(mask, np.logical_or)


def _member_counts(rows: int, cols: int) -> np.ndarray:
    """|N+| per antenna: 5 interior, 4 edge, 3 corner (3 and 2 on a line)."""
    ones = np.ones((rows, cols))
    return _stencil_sum(ones)


# ---------------------------------------------------------------------------
# belief currencies

def _rank_scores(stack: ChainStack) -> np.ndarray:
    """Integer scores of every row of a stack over all L taps, (B, L): a
    chain of n taps scores n for its largest combined amplitude down to 1
    for its smallest, zero off the chain.  Equal amplitudes rank the lower
    tap index higher."""
    active = stack.active()
    amplitudes = np.abs(np.take_along_axis(stack.taps, stack.chosen, axis=1))
    order = np.lexsort((stack.chosen, np.where(active, -amplitudes, np.inf)), axis=-1)
    rank = np.empty_like(order)
    np.put_along_axis(rank, order, np.arange(order.shape[1]), axis=1)
    return stack.scatter((stack.lengths[:, None] - rank).astype(float))


def _neighborhood_mean(values: np.ndarray, gate: np.ndarray) -> np.ndarray:
    """Mean over N+ of (M, G, L) ``values``.  The (M, G, L) ``gate`` marks
    the taps each antenna tracks, the union of the first-pass detections
    over its N+; members contribute their value only for taps inside their
    own gate (a member that never saw a tap adds 0)."""
    total = _stencil_sum(np.where(gate, values, 0.0))
    return total / _member_counts(*gate.shape[:2])[:, :, None]


def average_marginals_round(values: np.ndarray, gate: np.ndarray,
                            lambda_small: float) -> np.ndarray:
    """One simultaneous neighborhood-averaging round for marginal beliefs;
    taps nobody in the neighborhood detected read lambda_small."""
    return np.where(gate, _neighborhood_mean(values, gate), lambda_small)


def average_scores_round(values: np.ndarray, gate: np.ndarray,
                         final: bool = False) -> np.ndarray:
    """One simultaneous score-averaging round; the average is rounded up to
    keep scores integer except on the final round, where the raw average is
    kept (no further sharing follows, so nothing forces integrality)."""
    mean = _neighborhood_mean(values, gate)
    if not final:
        mean = np.ceil(mean)
    return np.where(gate, mean, 0.0)


def scores_to_beliefs(
    scores: np.ndarray, t_max: int, lambda_small: float = DEFAULT_LAMBDA_SMALL
) -> np.ndarray:
    """b = score / T_max, clamped into [lambda_small, 1 - eps] so it can act
    as a Bernoulli prior.  Marginals are beliefs already: they pass a scale
    of 1 for the clamp alone."""
    return np.clip(np.asarray(scores, dtype=float) / t_max, lambda_small, 1 - PRIOR_EPS)


# ---------------------------------------------------------------------------
# grid algorithms

def _trace_rounds(path, rounds, detected):
    """One CSV line per round, antenna and detected tap: the belief values
    of every round, round 0 being the first pass."""
    r, c, tap = (index.tolist() for index in np.nonzero(detected))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["round", "antenna_row", "antenna_col", "tap", "value"])
        for i, values in enumerate(rounds):
            writer.writerows(zip(repeat(i), r, c, tap, map(repr, values[r, c, tap].tolist())))


def _search_grid(ys, sensing_rows, lambdas, config, t_max) -> ChainStack:
    """One chain per antenna of the (M*G, K) observations ``ys`` under the
    (M*G, L) priors ``lambdas`` and the noise level ``config`` assumes."""
    return search_rows(sensing_rows, ys, lambdas, np.full(ys.shape[0], config.noise_var),
                       t_max)


def _run_grid(kind, observations, sensing_rows, config, depth) -> GridEstimate:
    """The grid pipeline for one belief currency: first pass, ``depth``
    averaging rounds, beliefs to priors, final pass.

    An antenna tracks beliefs only for the taps its neighborhood detected
    in the first pass (its gate, fixed across rounds).  Every antenna
    searches the same pilot rows, and a chain fails exactly when none of
    their columns is nonzero, whatever the observation and priors; so the
    final pass fails where the first did.
    """
    if depth < 0:
        raise ConfigurationError("depth must be nonnegative")
    sensing_rows = np.asarray(sensing_rows)
    n_obs, length = sensing_rows.shape
    grid = observations.shape[:2]
    t_max = search_depth(length, config.lambda_init, n_obs)
    ys = np.ascontiguousarray(observations, dtype=complex).reshape(-1, n_obs)

    lambdas = np.full((ys.shape[0], length), config.lambda_init)
    first = _search_grid(ys, sensing_rows, lambdas, config, t_max)
    if kind is BeliefKind.MARGINAL:
        values = first.scatter(lattice_marginals(first, sensing_rows, ys, lambdas))
    else:
        values = _rank_scores(first)
    detected = first.scatter(np.ones(first.chosen.shape, dtype=bool)).reshape(*grid, length)
    del first, lambdas  # only the beliefs outlive the first pass

    gate = _stencil_any(detected)
    rounds = [values.reshape(*grid, length)]
    for i in range(depth):
        if kind is BeliefKind.MARGINAL:
            rounds.append(average_marginals_round(rounds[-1], gate, config.lambda_small))
        else:
            rounds.append(average_scores_round(rounds[-1], gate, final=(i == depth - 1)))
    if config.trace_path:
        _trace_rounds(config.trace_path, rounds, detected)

    # off-gate values are zero (or lambda_small) and clamp to lambda_small
    scale = t_max if kind is BeliefKind.SCORE else 1
    priors = scores_to_beliefs(rounds[-1], scale, config.lambda_small)
    final = _search_grid(ys, sensing_rows, priors.reshape(-1, length), config, t_max)
    return GridEstimate(
        taps=final.taps.reshape(*grid, length), support=final.chosen.reshape(*grid, t_max),
        error_cov=error_covariances(final).reshape(*grid, t_max, t_max), priors=priors,
        failed=final.failed.reshape(grid),
        diagnostics={"t_max": t_max},
    )


def run_marginal_based(
    observations: np.ndarray,
    sensing_rows: np.ndarray,
    config: GridSolverConfig,
    depth: int,
) -> GridEstimate:
    """Marginal-based grid estimation.

    Every antenna runs the solver with the uniform prior and computes its
    per-tap marginals; the grid then averages marginals over neighborhoods
    for ``depth`` rounds, and each antenna re-estimates with the averaged
    marginals as its Bernoulli prior.
    """
    return _run_grid(BeliefKind.MARGINAL, observations, sensing_rows, config, depth)


def run_integer_based(
    observations: np.ndarray,
    sensing_rows: np.ndarray,
    config: GridSolverConfig,
    depth: int,
) -> GridEstimate:
    """Integer-based grid estimation.

    Like the marginal variant but antennas exchange integer tap scores
    (no marginal lattice is computed), the last averaging round keeps the
    raw average, and scores are rescaled into beliefs before the final
    estimation pass.
    """
    return _run_grid(BeliefKind.SCORE, observations, sensing_rows, config, depth)
