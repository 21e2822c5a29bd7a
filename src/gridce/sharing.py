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

import numpy as np

from .errors import ConfigurationError
from .posterior import error_covariances, lattice_marginals
from .solver import PRIOR_EPS, ChainStack, dml_support_size, search_rows

DEFAULT_LAMBDA_SMALL = 1e-3


class BeliefKind(enum.Enum):
    MARGINAL = "marginal"
    SCORE = "score"


@dataclass
class BeliefState:
    """Grid-wide belief buffers: values and detected masks are (M, G, L).

    ``detected`` marks each antenna's originally detected taps and stays
    fixed across rounds; an antenna only tracks values for taps somebody in
    its neighborhood detected (its gate).  Taps outside the gate read
    ``lambda_small`` for marginals and zero for scores, and contribute
    nothing to neighbors' averages.
    """

    kind: BeliefKind
    values: np.ndarray
    detected: np.ndarray
    round: int = 0

    def gate(self) -> np.ndarray:
        """Taps each antenna tracks: union of detections over its N+."""
        return _stencil_any(self.detected)


@dataclass
class GridSolverConfig:
    """Knobs shared by the grid estimation algorithms.

    ``lambda_init`` is the uniform tap-activity probability every antenna
    starts from; it sets the search depth t_max, identical at every
    antenna.  ``noise_var`` is the noise level every antenna assumes.
    """

    lambda_init: float
    noise_var: float
    lambda_small: float = DEFAULT_LAMBDA_SMALL
    trace_path: str | None = None

    def resolve_t_max(self, channel_len: int, n_obs: int) -> int:
        return max(1, min(dml_support_size(channel_len, self.lambda_init), n_obs))


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
    noise_vars: np.ndarray                 # (M, G)
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


def _neighborhood_mean(state: BeliefState):
    """(gate, mean over N+): members contribute their value only for taps
    inside their own gate (a member that never saw a tap adds 0)."""
    gate = state.gate()
    total = _stencil_sum(np.where(gate, state.values, 0.0))
    return gate, total / _member_counts(*gate.shape[:2])[:, :, None]


def average_marginals_round(state: BeliefState, lambda_small: float) -> BeliefState:
    """One simultaneous neighborhood-averaging round for marginal beliefs;
    taps nobody in the neighborhood detected read lambda_small."""
    gate, mean = _neighborhood_mean(state)
    return BeliefState(
        kind=BeliefKind.MARGINAL, values=np.where(gate, mean, lambda_small),
        detected=state.detected, round=state.round + 1,
    )


def average_scores_round(state: BeliefState, final: bool = False) -> BeliefState:
    """One simultaneous score-averaging round; the average is rounded up to
    keep scores integer except on the final round, where the raw average is
    kept (no further sharing follows, so nothing forces integrality)."""
    gate, mean = _neighborhood_mean(state)
    if not final:
        mean = np.ceil(mean)
    return BeliefState(
        kind=BeliefKind.SCORE, values=np.where(gate, mean, 0.0),
        detected=state.detected, round=state.round + 1,
    )


def scores_to_beliefs(
    scores: np.ndarray, t_max: int, lambda_small: float = DEFAULT_LAMBDA_SMALL
) -> np.ndarray:
    """b = score / T_max, clamped into [lambda_small, 1 - eps] so it can act
    as a Bernoulli prior.  Marginals are beliefs already: they pass a scale
    of 1 for the clamp alone."""
    return np.clip(np.asarray(scores, dtype=float) / t_max, lambda_small, 1 - PRIOR_EPS)


# ---------------------------------------------------------------------------
# grid algorithms

def _trace_rounds(path, states):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["round", "antenna_row", "antenna_col", "tap", "value"])
        for state in states:
            rows, cols, _ = state.values.shape
            for r in range(rows):
                for c in range(cols):
                    for tap in np.flatnonzero(state.detected[r, c]):
                        writer.writerow(
                            [state.round, r, c, int(tap),
                             repr(float(state.values[r, c, tap]))]
                        )


def _first_pass(observations, sensing_rows, config, t_max, kind):
    """Uniform-prior estimation at every antenna and its initial beliefs:
    (values, detected, noise_vars, failed), the first two (M, G, L)."""
    rows, cols, n_obs = observations.shape
    length = sensing_rows.shape[1]
    ys = np.ascontiguousarray(observations, dtype=complex).reshape(-1, n_obs)
    noise_vars = np.full(ys.shape[0], config.noise_var)
    lambdas = np.full((ys.shape[0], length), config.lambda_init)
    stack, gram, corr, y_norm2 = search_rows(sensing_rows, ys, lambdas, noise_vars, t_max)
    if kind is BeliefKind.MARGINAL:
        values = stack.scatter(lattice_marginals(stack, gram, corr, y_norm2, lambdas))
    else:
        values = _rank_scores(stack)
    detected = stack.scatter(np.ones(stack.chosen.shape, dtype=bool))
    shape = (rows, cols)
    return (values.reshape(*shape, length), detected.reshape(*shape, length),
            noise_vars.reshape(shape), stack.failed.reshape(shape))


def _final_pass(observations, sensing_rows, priors, noise_vars, t_max):
    """Estimation with the shared beliefs as priors at every antenna:
    (taps, support, error_cov, failed) in grid layout."""
    rows, cols, n_obs = observations.shape
    length = sensing_rows.shape[1]
    n = rows * cols
    ys = np.ascontiguousarray(observations, dtype=complex).reshape(n, n_obs)
    stack, *_ = search_rows(sensing_rows, ys, priors.reshape(n, length),
                            noise_vars.reshape(n), t_max)
    return (stack.taps.reshape(rows, cols, length), stack.chosen.reshape(rows, cols, t_max),
            error_covariances(stack).reshape(rows, cols, t_max, t_max),
            stack.failed.reshape(rows, cols))


def _run_grid(kind, observations, sensing_rows, config, depth) -> GridEstimate:
    """The grid pipeline for one belief currency: first pass, ``depth``
    averaging rounds, beliefs to priors, final pass."""
    if depth < 0:
        raise ConfigurationError("depth must be nonnegative")
    sensing_rows = np.asarray(sensing_rows)
    n_obs, length = sensing_rows.shape
    t_max = config.resolve_t_max(length, n_obs)
    values, detected, noise_vars, first_failed = _first_pass(
        observations, sensing_rows, config, t_max, kind
    )

    states = [BeliefState(kind, values, detected)]
    for i in range(depth):
        if kind is BeliefKind.MARGINAL:
            states.append(average_marginals_round(states[-1], config.lambda_small))
        else:
            states.append(average_scores_round(states[-1], final=(i == depth - 1)))
    if config.trace_path:
        _trace_rounds(config.trace_path, states)

    # off-gate values are zero (or lambda_small) and clamp to lambda_small
    scale = t_max if kind is BeliefKind.SCORE else 1
    priors = scores_to_beliefs(states[-1].values, scale, config.lambda_small)
    taps, support, error_cov, failed = _final_pass(
        observations, sensing_rows, priors, noise_vars, t_max
    )
    return GridEstimate(
        taps=taps, support=support, error_cov=error_cov, priors=priors,
        noise_vars=noise_vars, failed=failed | first_failed,
        diagnostics={"depth": depth, "t_max": t_max, "kind": kind.value},
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
