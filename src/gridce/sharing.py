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

from .channels import AntennaGrid
from .errors import ConfigurationError, IllConditionedSupportError
from .posterior import (
    ErrorCovariance,
    compute_marginals,
    error_covariance,
    error_covariances,
    lattice_marginals,
)
from .solver import (
    NOISE_VAR_SCALE,
    PRIOR_EPS,
    BernoulliPrior,
    ChainStack,
    SparseEstimate,
    dml_support_size,
    greedy_search,
    greedy_search_batch,
)

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
    starts from; keeping it grid-wide makes the search depth t_max
    identical at every antenna.  ``noise_var`` of None estimates the noise
    level per antenna from its own observations.
    """

    lambda_init: float
    t_max: int | None = None
    noise_var: float | None = None
    lambda_small: float = DEFAULT_LAMBDA_SMALL
    compute_covariance: bool = True
    trace_path: str | None = None

    def resolve_t_max(self, channel_len: int, n_obs: int) -> int:
        t = self.t_max or dml_support_size(channel_len, self.lambda_init)
        return max(1, min(t, n_obs))


@dataclass
class GridEstimate:
    """Final per-antenna estimates plus everything downstream passes need."""

    taps: np.ndarray                       # (M, G, L) combined estimates
    estimates: list                        # [row][col] -> SparseEstimate | None
    covariances: list | None               # [row][col] -> ErrorCovariance | None
    priors: np.ndarray                     # (M, G, L) priors used in the final pass
    noise_vars: np.ndarray                 # (M, G)
    failed: np.ndarray                     # (M, G) bool
    diagnostics: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# neighborhood stencils (self + in-grid 4-neighbors)

def stencil_reduce(x: np.ndarray, op) -> np.ndarray:
    """Fold each antenna's neighborhood with the binary ufunc ``op`` over
    the grid axes (the first two); trailing axes are carried along."""
    out = x.copy()
    op(out[1:], x[:-1], out=out[1:])
    op(out[:-1], x[1:], out=out[:-1])
    op(out[:, 1:], x[:, :-1], out=out[:, 1:])
    op(out[:, :-1], x[:, 1:], out=out[:, :-1])
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

def assign_scores(estimate: SparseEstimate) -> np.ndarray:
    """Integer scores over all L taps: T_max for the largest detected
    amplitude down to 1 for the smallest, zero off the detected set.
    Equal amplitudes rank the lower tap index higher."""
    taps = estimate.detected_taps
    return _rank_scores(
        taps[None], np.abs(estimate.h_ammse[taps])[None], estimate.channel_len
    )[0]


def _rank_scores(taps: np.ndarray, amplitudes: np.ndarray, length: int) -> np.ndarray:
    """``assign_scores`` for a stack of detected-tap rows (B, T) -> (B, L)."""
    order = np.lexsort((taps, -amplitudes), axis=-1)
    rows = np.arange(taps.shape[0])[:, None]
    scores = np.zeros((taps.shape[0], length))
    scores[rows, taps[rows, order]] = np.arange(taps.shape[1], 0, -1)
    return scores


def average_marginals_round(
    grid: AntennaGrid, state: BeliefState, lambda_small: float
) -> BeliefState:
    """One simultaneous neighborhood-averaging round for marginal beliefs.

    Members contribute their current value only for taps inside their own
    gate (a member that never saw a tap adds 0, not lambda_small); taps
    nobody in the neighborhood detected read lambda_small.
    """
    gate = state.gate()
    contrib = np.where(gate, state.values, 0.0)
    total = _stencil_sum(contrib)
    counts = _member_counts(grid.rows, grid.cols)[:, :, None]
    values = np.where(gate, total / counts, lambda_small)
    return BeliefState(
        kind=BeliefKind.MARGINAL, values=values, detected=state.detected,
        round=state.round + 1,
    )


def average_scores_round(
    grid: AntennaGrid, state: BeliefState, final: bool = False
) -> BeliefState:
    """One simultaneous score-averaging round; the average is rounded up to
    keep scores integer except on the final round, where the raw average is
    kept (no further sharing follows, so nothing forces integrality)."""
    gate = state.gate()
    contrib = np.where(gate, state.values, 0.0)
    total = _stencil_sum(contrib)
    counts = _member_counts(grid.rows, grid.cols)[:, :, None]
    avg = total / counts
    if not final:
        avg = np.ceil(avg)
    values = np.where(gate, avg, 0.0)
    return BeliefState(
        kind=BeliefKind.SCORE, values=values, detected=state.detected,
        round=state.round + 1,
    )


def scores_to_beliefs(
    scores: np.ndarray, t_max: int, lambda_small: float = DEFAULT_LAMBDA_SMALL
) -> np.ndarray:
    """b = score / T_max, clamped into [lambda_small, 1 - eps] so it can act
    as a Bernoulli prior."""
    return np.clip(np.asarray(scores, dtype=float) / t_max, lambda_small, 1 - PRIOR_EPS)


# ---------------------------------------------------------------------------
# grid algorithms

def _estimate_noise(y: np.ndarray, configured: float | None) -> float:
    if configured is not None:
        return configured
    est = NOISE_VAR_SCALE * float(np.var(y))
    return est if est > 0 else PRIOR_EPS


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


@dataclass
class _GridSearch:
    """Greedy chains of every antenna (flattened row-major) on shared pilot rows.

    ``stack`` holds the batched chains of the antennas listed in ``rows``;
    every other antenna has its ``greedy_search`` estimate in ``singles``
    (None where the solver failed).  The pilot products are kept for the
    marginal lattice.
    """

    stack: ChainStack | None
    rows: np.ndarray
    singles: dict
    gram: np.ndarray
    corr: np.ndarray
    y_norm2: np.ndarray


def _search_grid(sensing_rows, ys, lambdas, noise_vars, t_max) -> _GridSearch:
    """One batched chain search for the whole grid.

    Two kinds of antenna go through ``greedy_search`` instead: all of them
    when t_max fills the K pilot rows (every free candidate then ties at a
    zero residual in the last stage, and greedy_search's own rounding
    settles the pick), and those whose batched chain stopped early.
    """
    a = np.ascontiguousarray(sensing_rows, dtype=complex)
    gram = a.conj().T @ a
    corr = ys @ a.conj()
    y_norm2 = np.einsum("bk,bk->b", ys.conj(), ys).real
    stack, batched, rest = None, np.arange(0), np.arange(ys.shape[0])
    if t_max < a.shape[0]:
        stack = greedy_search_batch(gram, corr, y_norm2, lambdas, noise_vars, t_max)
        batched, rest = np.flatnonzero(~stack.failed), np.flatnonzero(stack.failed)
        stack = stack.take(batched)
    singles = {}
    for i in rest:
        try:
            singles[i] = greedy_search(
                a, ys[i], BernoulliPrior(lambdas[i]), noise_vars[i], t_max
            )
        except IllConditionedSupportError:
            singles[i] = None
    return _GridSearch(stack, batched, singles, gram, corr, y_norm2)


def _first_pass(observations, sensing_rows, config, t_max, kind):
    """Uniform-prior estimation at every antenna and its initial beliefs:
    (values, detected, noise_vars, failed), the first two (M, G, L)."""
    rows, cols, n_obs = observations.shape
    length = sensing_rows.shape[1]
    ys = np.ascontiguousarray(observations, dtype=complex).reshape(-1, n_obs)
    noise_vars = np.array([_estimate_noise(y, config.noise_var) for y in ys])
    lambdas = np.full((ys.shape[0], length), config.lambda_init)
    search = _search_grid(sensing_rows, ys, lambdas, noise_vars, t_max)

    values = np.zeros((ys.shape[0], length))
    detected = np.zeros((ys.shape[0], length), dtype=bool)
    failed = np.zeros(ys.shape[0], dtype=bool)
    stack, batched = search.stack, search.rows[:, None]
    if stack is not None:
        if kind is BeliefKind.MARGINAL:
            values[batched, stack.chosen] = lattice_marginals(
                stack, search.gram, search.corr[search.rows],
                search.y_norm2[search.rows], lambdas[search.rows],
            )
        else:
            amplitudes = np.abs(np.take_along_axis(stack.taps, stack.chosen, axis=1))
            values[search.rows] = _rank_scores(stack.chosen, amplitudes, length)
        detected[batched, stack.chosen] = True
    for i, est in search.singles.items():
        if est is None:
            failed[i] = True
            continue
        if kind is BeliefKind.MARGINAL:
            ms = compute_marginals(est, sensing_rows, ys[i], BernoulliPrior(lambdas[i]))
            values[i] = ms.marginal_vector(length)
        else:
            values[i] = assign_scores(est)
        detected[i, est.detected_taps] = True
    shape = (rows, cols)
    return (values.reshape(*shape, length), detected.reshape(*shape, length),
            noise_vars.reshape(shape), failed.reshape(shape))


def _final_pass(observations, sensing_rows, priors, noise_vars, t_max,
                with_covariance):
    """Estimation with the shared beliefs as priors at every antenna:
    (taps, estimates, covariances, failed) in grid layout."""
    rows, cols, n_obs = observations.shape
    length = sensing_rows.shape[1]
    n = rows * cols
    ys = np.ascontiguousarray(observations, dtype=complex).reshape(n, n_obs)
    search = _search_grid(sensing_rows, ys, priors.reshape(n, length),
                          noise_vars.reshape(n), t_max)
    taps = np.zeros((n, length), dtype=complex)
    estimates = [None] * n
    covariances = [None] * n
    failed = np.zeros(n, dtype=bool)
    stack = search.stack
    if stack is not None:
        taps[search.rows] = stack.taps
        blocks = error_covariances(stack) if with_covariance else None
        for k, (i, est) in enumerate(zip(search.rows, stack.estimates())):
            estimates[i] = est
            if with_covariance:
                covariances[i] = ErrorCovariance(taps=stack.chosen[k], matrix=blocks[k])
    for i, est in search.singles.items():
        if est is None:
            failed[i] = True
            continue
        estimates[i] = est
        taps[i] = est.h_ammse
        if with_covariance:
            covariances[i] = error_covariance(est)
    return (
        taps.reshape(rows, cols, length),
        [estimates[r * cols:(r + 1) * cols] for r in range(rows)],
        [covariances[r * cols:(r + 1) * cols] for r in range(rows)]
        if with_covariance else None,
        failed.reshape(rows, cols),
    )


def run_marginal_based(
    grid: AntennaGrid,
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
    if depth < 0:
        raise ConfigurationError("depth must be nonnegative")
    sensing_rows = np.asarray(sensing_rows)
    n_obs, length = sensing_rows.shape
    t_max = config.resolve_t_max(length, n_obs)
    values, detected, noise_vars, first_failed = _first_pass(
        observations, sensing_rows, config, t_max, BeliefKind.MARGINAL
    )

    state = BeliefState(BeliefKind.MARGINAL, values, detected)
    trace = [state] if config.trace_path else None
    for _ in range(depth):
        state = average_marginals_round(grid, state, config.lambda_small)
        if trace is not None:
            trace.append(state)
    if trace is not None:
        _trace_rounds(config.trace_path, trace)

    if depth == 0:
        held = np.where(state.detected, state.values, config.lambda_small)
    else:
        held = state.values  # rounds already floor off-gate taps at lambda_small
    priors = np.clip(held, config.lambda_small, 1 - PRIOR_EPS)
    taps, estimates, covariances, failed = _final_pass(
        observations, sensing_rows, priors, noise_vars, t_max,
        config.compute_covariance,
    )
    return GridEstimate(
        taps=taps,
        estimates=estimates,
        covariances=covariances,
        priors=priors,
        noise_vars=noise_vars,
        failed=failed | first_failed,
        diagnostics={"depth": depth, "t_max": t_max, "kind": "marginal"},
    )


def run_integer_based(
    grid: AntennaGrid,
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
    if depth < 0:
        raise ConfigurationError("depth must be nonnegative")
    sensing_rows = np.asarray(sensing_rows)
    n_obs, length = sensing_rows.shape
    t_max = config.resolve_t_max(length, n_obs)
    values, detected, noise_vars, first_failed = _first_pass(
        observations, sensing_rows, config, t_max, BeliefKind.SCORE
    )

    state = BeliefState(BeliefKind.SCORE, values, detected)
    trace = [state] if config.trace_path else None
    for i in range(depth):
        state = average_scores_round(grid, state, final=(i == depth - 1))
        if trace is not None:
            trace.append(state)
    if trace is not None:
        _trace_rounds(config.trace_path, trace)

    # off-gate scores are zero and clamp to lambda_small
    priors = scores_to_beliefs(state.values, t_max, config.lambda_small)
    taps, estimates, covariances, failed = _final_pass(
        observations, sensing_rows, priors, noise_vars, t_max,
        config.compute_covariance,
    )
    return GridEstimate(
        taps=taps,
        estimates=estimates,
        covariances=covariances,
        priors=priors,
        noise_vars=noise_vars,
        failed=failed | first_failed,
        diagnostics={"depth": depth, "t_max": t_max, "kind": "score"},
    )
