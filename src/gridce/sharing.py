"""Distributed belief sharing across the antenna grid.

Each antenna first estimates its channel on its own, from its pilots under
the uniform prior (``first_pass``), then exchanges per-tap beliefs with its
4-neighbors over ``depth`` bulk-synchronous rounds.  Two belief currencies
are supported: real-valued activity marginals, and integer scores that rank
the detected taps by amplitude (cheaper to communicate, no marginal lattice
needed).  Both start from the same first pass, so one ``FirstPass`` record
serves both runners, ``run_marginal_based`` and ``run_integer_based``.
After sharing, the averaged beliefs become Bernoulli priors for a final
estimation pass.

Rounds are double-buffered: round t+1 is computed entirely from round-t
values, so results do not depend on antenna evaluation order and after D
rounds an antenna's state depends only on antennas within Manhattan
distance D.
"""

import csv
import enum
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .errors import ConfigurationError
from .posterior import error_covariances, lattice_marginals
from .solver import PRIOR_EPS, ChainStack, search_depth, search_rows

#: the belief of a tap that no neighbor detected, and the lowest prior the
#: final pass gives a tap
LAMBDA_SMALL = 1e-3


class BeliefKind(enum.Enum):
    MARGINAL = "marginal"
    SCORE = "score"


@dataclass
class GridSolverConfig:
    """Knobs shared by the grid estimation algorithms.

    ``lambda_init`` is the uniform tap-activity probability every antenna
    starts from; with the pilot count it sets the search depth t_max
    (``solver.search_depth``), identical at every antenna.  ``noise_var``
    is the noise level every antenna assumes.  With ``trace_path`` set,
    every averaging round's beliefs are written to that CSV.
    """

    lambda_init: float
    noise_var: float
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
    own gate (a member that never saw a tap adds 0).  The divisor is |N+|:
    5 interior, 4 edge, 3 corner (3 and 2 on a line)."""
    total = stencil_reduce(np.where(gate, values, 0.0), np.add)
    return total / stencil_reduce(np.ones(gate.shape[:2]), np.add)[:, :, None]


def average_marginals_round(values: np.ndarray, gate: np.ndarray) -> np.ndarray:
    """One simultaneous neighborhood-averaging round for marginal beliefs;
    taps nobody in the neighborhood detected read LAMBDA_SMALL."""
    return np.where(gate, _neighborhood_mean(values, gate), LAMBDA_SMALL)


def average_scores_round(values: np.ndarray, gate: np.ndarray,
                         final: bool = False) -> np.ndarray:
    """One simultaneous score-averaging round; the average is rounded up to
    keep scores integer except on the final round, where the raw average is
    kept (no further sharing follows, so nothing forces integrality)."""
    mean = _neighborhood_mean(values, gate)
    if not final:
        mean = np.ceil(mean)
    return np.where(gate, mean, 0.0)


def scores_to_beliefs(scores: np.ndarray, t_max: int) -> np.ndarray:
    """b = score / T_max, clamped into [LAMBDA_SMALL, 1 - eps] so it can act
    as a Bernoulli prior.  Marginals are beliefs already: they pass a scale
    of 1 for the clamp alone."""
    return np.clip(np.asarray(scores, dtype=float) / t_max, LAMBDA_SMALL, 1 - PRIOR_EPS)


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


@dataclass(frozen=True)
class FirstPass:
    """What the grid runners read of the pilot-only first pass, arrays only.

    ``values`` holds each requested currency's first-pass beliefs: lattice
    marginals under ``BeliefKind.MARGINAL``, rank scores under
    ``BeliefKind.SCORE``, zero off the detected taps.  The chains
    themselves are not kept.
    """

    ys: np.ndarray            # (M, G, K) pilot observations
    pilot_rows: np.ndarray    # (K, L)
    t_max: int
    detected: np.ndarray      # (M, G, L) bool, every antenna's detected taps
    values: dict              # {BeliefKind: (M, G, L) first-pass beliefs}


def first_pass(observations, sensing_rows, config: GridSolverConfig, kinds) -> FirstPass:
    """Every antenna's own estimate from its pilots under the uniform prior
    ``config.lambda_init``, the step both belief currencies start from,
    with the first-pass beliefs of each currency in ``kinds``.

    One chain per antenna of the (M, G, K) ``observations`` on the shared
    (K, L) ``sensing_rows``, at the search depth t_max of every antenna.
    The rank scores are taken before the marginal lattice runs, and the
    chains are dropped on return.
    """
    sensing_rows = np.asarray(sensing_rows)
    n_obs, length = sensing_rows.shape
    grid = observations.shape[:2]
    t_max = search_depth(length, config.lambda_init, n_obs)
    ys = np.ascontiguousarray(observations, dtype=complex).reshape(-1, n_obs)
    lambdas = np.full(length, config.lambda_init)
    stack = search_rows(sensing_rows, ys, lambdas, config.noise_var, t_max)
    values = {}
    if BeliefKind.SCORE in kinds:
        values[BeliefKind.SCORE] = _rank_scores(stack)
    if BeliefKind.MARGINAL in kinds:
        values[BeliefKind.MARGINAL] = stack.scatter(
            lattice_marginals(stack, lambdas))
    detected = stack.scatter(np.ones(stack.chosen.shape, dtype=bool))
    return FirstPass(
        ys=ys.reshape(*grid, n_obs), pilot_rows=sensing_rows, t_max=t_max,
        detected=detected.reshape(*grid, length),
        values={kind: v.reshape(*grid, length) for kind, v in values.items()},
    )


def _run_grid(kind, first: FirstPass, config, depth) -> GridEstimate:
    """The grid pipeline for one belief currency after the first pass:
    ``depth`` averaging rounds, beliefs to priors, final pass.

    An antenna tracks beliefs only for the taps its neighborhood detected
    in the first pass (its gate, fixed across rounds).  Every antenna
    searches the same pilot rows, and a chain fails exactly when none of
    their columns is nonzero, whatever the observation and priors; so the
    final pass fails where the first did.
    """
    if depth < 0:
        raise ConfigurationError("depth must be nonnegative")
    grid = first.detected.shape[:2]
    n_obs, length = first.pilot_rows.shape
    t_max = first.t_max
    gate = stencil_reduce(first.detected, np.logical_or)
    rounds = [first.values[kind]]
    for i in range(depth):
        if kind is BeliefKind.MARGINAL:
            rounds.append(average_marginals_round(rounds[-1], gate))
        else:
            rounds.append(average_scores_round(rounds[-1], gate, final=(i == depth - 1)))
    if config.trace_path:
        _trace_rounds(config.trace_path, rounds, first.detected)

    # off-gate values are zero (or LAMBDA_SMALL) and clamp to LAMBDA_SMALL
    scale = t_max if kind is BeliefKind.SCORE else 1
    priors = scores_to_beliefs(rounds[-1], scale)
    final = search_rows(first.pilot_rows, first.ys.reshape(-1, n_obs),
                        priors.reshape(-1, length), config.noise_var, t_max)
    return GridEstimate(
        taps=final.taps.reshape(*grid, length), support=final.chosen.reshape(*grid, t_max),
        error_cov=error_covariances(final).reshape(*grid, t_max, t_max), priors=priors,
        failed=final.failed.reshape(grid),
    )


def run_marginal_based(first: FirstPass, config: GridSolverConfig,
                       depth: int) -> GridEstimate:
    """Marginal-based grid estimation from a first pass that holds the
    marginals (``first_pass`` with ``BeliefKind.MARGINAL``).

    The grid averages every antenna's per-tap marginals over
    neighborhoods for ``depth`` rounds, and each antenna re-estimates with
    the averaged marginals as its Bernoulli prior.
    """
    return _run_grid(BeliefKind.MARGINAL, first, config, depth)


def run_integer_based(first: FirstPass, config: GridSolverConfig,
                      depth: int) -> GridEstimate:
    """Integer-based grid estimation from a first pass that holds the rank
    scores (``first_pass`` with ``BeliefKind.SCORE``).

    Like the marginal variant but antennas exchange integer tap scores
    (no marginal lattice is computed), the last averaging round keeps the
    raw average, and scores are rescaled into beliefs before the final
    estimation pass.
    """
    return _run_grid(BeliefKind.SCORE, first, config, depth)
