"""Distributed sparse channel estimation on massive MIMO-OFDM antenna grids."""

__version__ = "0.1.0"

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
