"""Distributed sparse channel estimation on massive MIMO-OFDM antenna grids."""

import os

__version__ = "0.1.0"

# One BLAS thread per process unless the user set a count: a trial's small
# products gain nothing from BLAS threads, which in a parallel sweep compete
# with the other workers for the cores.  Python runs this file before any
# gridce module, so the default is set before numpy loads in every process
# that imports a gridce module first: the CLI and the sweep workers it forks.
_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if not any(name in os.environ for name in _BLAS_THREADS):
    os.environ.update(dict.fromkeys(_BLAS_THREADS, "1"))
