"""A fixed calibration kernel that tracks how fast the machine runs right now.

On a shared machine the same gridce trial has taken anywhere from 0.7 s to
1.4 s within minutes, in process CPU time as well as wall time, with no
other work of ours running.  Neither longer runs nor medians remove a
slowdown that lasts minutes.  The benchmark therefore times a probe between
its units and scales their times to the speed the probe shows on a quiet
machine.

The kernel uses no gridce code, so a change to the package cannot move it.
It mixes what a trial does: small complex products and reductions driven
from a Python loop (the greedy-search shape) plus one 512-point FFT and a
512 x 64 product per round (the scene and scoring shape).  Its inputs are
fixed, so every call does identical work.

Each probe has the shape of the unit it calibrates.  An in-process unit is
one process on one core, so its probe is the kernel run in this process.
A sweep unit builds a process pool per sweep point and keeps every worker
busy, so its probe builds a pool of the same size and runs the kernel in
each worker: it slows down when any core does, or when starting workers
does.
"""

import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

#: kernel seconds on the reference machine when quiet (2-core Intel Xeon,
#: Python 3.11.7, numpy 2.4.6), rounded from the fastest calls seen
REFERENCE_S = 0.020

#: kernel runs per in-process probe.  One run's time scatters by about 20%
#: from call to call; five keep the probe's own noise small against a
#: trial's
PROBE_REPEATS = 5

#: kernel runs per pool worker in a pool probe
POOL_REPEATS = 3

#: pool_kernel_seconds(2) on the same machine at the speed where
#: kernel_seconds() takes REFERENCE_S, rounded
POOL_REFERENCE_S = 0.085

_RNG = np.random.default_rng(12345)
_A = _RNG.standard_normal((16, 64)) + 1j * _RNG.standard_normal((16, 64))
_Y = _RNG.standard_normal(16) + 1j * _RNG.standard_normal(16)
_F = _RNG.standard_normal((512, 64)) + 1j * _RNG.standard_normal((512, 64))
_H = _RNG.standard_normal(64) + 1j * _RNG.standard_normal(64)


def kernel_seconds(repeats: int = 1) -> float:
    """Run the kernel ``repeats`` times; returns the wall time."""
    start = time.perf_counter()
    for _ in range(120 * repeats):
        b, r = _A.copy(), _Y.copy()
        for _ in range(6):
            b2 = np.einsum("ij,ij->j", b.conj(), b).real + 1e-12
            j = int(np.argmax(np.abs(b.conj().T @ r) ** 2 / b2))
            q = b[:, j] / np.sqrt(b2[j])
            r = r - q * np.vdot(q, r)
            b = b - np.outer(q, q.conj() @ b)
        np.fft.fft(_H, n=512)
        _F @ _H
    return time.perf_counter() - start


def pool_kernel_seconds(workers: int) -> float:
    """Start a ``workers``-process pool, run the kernel POOL_REPEATS times in
    each worker and shut the pool down; returns the wall time of all of it."""
    start = time.perf_counter()
    with ProcessPoolExecutor(max_workers=workers) as pool:
        for future in [pool.submit(kernel_seconds, POOL_REPEATS) for _ in range(workers)]:
            future.result()
    return time.perf_counter() - start


class Probe:
    """The speed probe matching a unit that keeps ``workers`` processes busy."""

    def __init__(self, workers: int):
        self.workers = workers
        self.reference_s = (POOL_REFERENCE_S if workers > 1
                            else REFERENCE_S * PROBE_REPEATS)

    def seconds(self) -> float:
        if self.workers > 1:
            return pool_kernel_seconds(self.workers)
        return kernel_seconds(PROBE_REPEATS)

    def at_reference_speed(self, seconds: float, probe_s: float) -> float:
        """A time measured while the probe took ``probe_s`` seconds, scaled
        to the time it would have taken at reference speed."""
        return seconds * self.reference_s / probe_s
