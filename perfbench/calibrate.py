"""Scaling of the end-to-end timings to a reference machine speed.

On the shared machine this benchmark was built on, the speed available to
one process drifts by up to a quarter over tens of seconds to minutes.  CPU
time drifts with wall time, so neither removes it.  The benchmark therefore
times a fixed numpy kernel, which does not depend on the program, before
and after each round and after each set-up.  The *slowdown* is the mean
kernel time over REFERENCE_S, and a round's or a set-up's time is divided
by it, so a figure reads as it would at the reference speed.  The raw
figures are printed alongside.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# mean kernel pass on the reference machine (see README.md)
REFERENCE_S = 1.5e-3
PASSES = 4  # timed passes per call, after one that only warms the caches

# bound at import, before a tracer can wrap the module attributes
_eigvalsh = np.linalg.eigvalsh
_svd = np.linalg.svd


class Kernel:
    """Batched complex Hermitian eigenvalues plus small-matrix calls, like the
    program's own mix of eigensolver flops and per-call overhead."""

    def __init__(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((32, 16, 16)) + 1j * rng.standard_normal((32, 16, 16))
        self.herm = m + np.conj(np.swapaxes(m, -1, -2))
        self.small = rng.standard_normal((40, 4, 4))

    def _run(self) -> None:
        _eigvalsh(self.herm)
        for s in self.small:
            _svd(s @ s.T, compute_uv=False)

    def __call__(self) -> list[float]:
        """Seconds of each of PASSES passes, after a first pass that only warms the caches."""
        self._run()
        times = []
        for _ in range(PASSES):
            start = time.perf_counter()
            self._run()
            times.append(time.perf_counter() - start)
        return times


def slowdown(samples: list[float]) -> float:
    """How much slower than the reference speed the kernel ran, on average.

    The mean, not the median: pass times cluster around two speeds, and the
    median jumps between them where the mean follows their mix.
    """
    return statistics.fmean(samples) / REFERENCE_S
