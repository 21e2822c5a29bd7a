"""Distributed sparse channel estimation on massive MIMO-OFDM antenna grids."""

import os

__version__ = "0.1.0"

# One BLAS thread per process unless the user set a count: a trial's small
# products gain nothing from BLAS threads, which in a parallel sweep compete
# with the other workers for the cores.  Set before numpy loads, so it
# reaches every process that imports gridce first: the CLI and the sweep
# workers it forks.
_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if not any(name in os.environ for name in _BLAS_THREADS):
    os.environ.update(dict.fromkeys(_BLAS_THREADS, "1"))

from .channels import ARRAY_MODES, generate_channels
from .data_aided import (
    ReliableSet,
    carrier_reliability,
    distortion_covariance,
    run_data_aided,
    select_and_agree,
)
from .errors import ConfigurationError, IllConditionedSupportError, InvalidContextError
from .ofdm import (
    OfdmFrame,
    freq_response,
    make_rng,
    modulate_frame,
    pilot_rows,
    place_pilots,
    synthesize_received,
)
from .posterior import error_covariances, lattice_marginals
from .qam import QamAlphabet, build_qam_alphabet
from .sharing import (
    BeliefKind,
    FirstPass,
    GridEstimate,
    GridSolverConfig,
    average_marginals_round,
    average_scores_round,
    first_pass,
    run_integer_based,
    run_marginal_based,
    scores_to_beliefs,
)
from .solver import (
    ChainStack,
    greedy_search_batch,
    search_rows,
)
from .experiments import (
    ExperimentSpec,
    ResultRow,
    emit_results,
    experiment_presets,
    oracle_ls_estimate,
    run_experiment,
    somp_baseline,
)
