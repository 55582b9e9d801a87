"""Host-speed reference for normalising timings.

The benchmark shares its host with other work, which slows everything
it runs by up to about 2x for seconds at a time. A fixed kernel that
does not touch c4xai (small float32 matmuls and a pure-Python loop, the
same mix of BLAS and interpreter work as the workloads) is timed next
to the workload calls. Its time over REFERENCE_NOMINAL_S is the host
factor, and dividing a timing by it expresses the timing at the speed
of an unloaded host.
"""

import time

import numpy as np

# the kernel's time on an unloaded 2-core x86-64 host (OpenBLAS, 1 thread)
REFERENCE_NOMINAL_S = 0.0021
SAMPLE_INTERVAL_S = 0.25  # at most one reference sample per interval

_MATRIX = np.random.default_rng(0).random((96, 96), dtype=np.float32)


def reference_seconds() -> float:
    """Wall time of one run of the fixed reference kernel."""
    t0 = time.perf_counter()
    b = _MATRIX
    for _ in range(40):
        b = np.maximum(b @ _MATRIX, 0.0) * np.float32(0.01)
    acc = 0
    for i in range(16000):
        acc += i * i % 7
    return time.perf_counter() - t0


class HostClock:
    """Reference samples taken between timed calls."""

    def __init__(self):
        self.samples = []
        self._last = -float("inf")

    def sample(self, force=False):
        now = time.perf_counter()
        if force or now - self._last >= SAMPLE_INTERVAL_S:
            self.samples.append(reference_seconds())
            self._last = time.perf_counter()

    def factor_between(self, i) -> float:
        """Host factor of the interval between samples ``i`` and ``i + 1``."""
        return (self.samples[i] + self.samples[i + 1]) / 2 / REFERENCE_NOMINAL_S
