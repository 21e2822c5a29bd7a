"""Distributed sparse channel estimation on massive MIMO-OFDM antenna grids."""

import ctypes
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

# glibc's mallopt parameters (malloc.h) and the fixed thresholds: 32 MiB is
# the ceiling of glibc's own dynamic mmap threshold on 64-bit, and its
# dynamic rule keeps the trim threshold at twice the mmap threshold
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD = 32 << 20
_TRIM_THRESHOLD = 2 * _MMAP_THRESHOLD


def _fix_malloc_thresholds(environ, libc):
    """Fix glibc's mmap and trim thresholds through ``libc``'s mallopt
    unless the user tuned malloc (a ``MALLOC_*`` variable in ``environ``,
    or a ``glibc.malloc`` tunable in its ``GLIBC_TUNABLES``); off glibc,
    do nothing.

    Under glibc's dynamic default a large temporary is mmapped until a
    freed one has raised the threshold past its size, and the heap top is
    handed back to the OS whenever more than twice that lies free there;
    either way the next trial faults the pages in again, and how often
    depends on where imports left the heap top.  With the thresholds
    fixed, up to 64 MiB of freed heap stays mapped and a trial reuses it.
    Sweep workers inherit the setting through fork."""
    try:
        on_glibc = bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):
        on_glibc = False
    tuned = (any(name.startswith("MALLOC_") for name in environ)
             or "glibc.malloc." in environ.get("GLIBC_TUNABLES", ""))
    if on_glibc and not tuned:
        mallopt = libc.mallopt
        mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
        mallopt.restype = ctypes.c_int
        mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
        mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


if os.name == "posix":
    _fix_malloc_thresholds(os.environ, ctypes.CDLL(None))
