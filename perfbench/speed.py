"""Machine-speed reference for the bounded timings.

The CPU speed of a shared VM drifts: on the 2-core host this benchmark was
built on, identical commands took 33% more or less CPU time within one
minute, with no steal involved.  A fixed reference kernel, timed after
every measured piece of work, drifts with it.  The bounded timings are CPU
time rescaled to the speed at which the kernel takes NOMINAL_S:

    normalized = cpu * NOMINAL_S / median(the five reference timings
                                          nearest to the measurement)

The median of five keeps the reference's own jitter out while following a
drift that takes longer than a few operations.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

NOMINAL_S = 0.032
# Small enough (1 MB of temporaries) not to move the corpus worker's peak RSS.
_A = np.random.default_rng(0).random((64, 64))


def reference_cpu() -> float:
    """CPU seconds of a fixed mix of interpreter and numpy work (~32 ms)."""
    start = time.process_time()
    total = 0
    for i in range(200_000):
        total += i * i
    for _ in range(36):
        (_A[:, None, :32] * _A[None, :, :32]).sum(-1)
    return time.process_time() - start


class SpeedTracker:
    """Reference timings taken after each measurement, in order."""

    def __init__(self, samples: list[float] | None = None):
        self.samples = [] if samples is None else list(samples)

    def sample(self) -> int:
        """Time the reference now; returns the index of this timing."""
        self.samples.append(reference_cpu())
        return len(self.samples) - 1

    def factor(self, k: int) -> float:
        """Rescaling for CPU time measured just before timing ``k``."""
        return NOMINAL_S / statistics.median(self.samples[max(0, k - 2):k + 3])
