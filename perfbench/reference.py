"""Reference kernel that measures how fast the box is running right now.

The benchmark box shares its cores with other machines' work, and its speed
drifts by tens of percent over tens of seconds, far more than a real change
to lecollapse moves a run. ``probe`` does a fixed amount of work of the same
kinds the workloads do (a Philox Poisson draw, stencil arithmetic on small
arrays, a small sparse matvec, interpreted Python) without touching
lecollapse, so no change to the package can speed it up or slow it down.
The run loop times one probe just before every op and scales the op's time
by ``PROBE_REF_S`` over that probe's time, so timing metrics are reported
in seconds of a box running at reference speed; the traced run scales its
layer times by the median probe time of the run.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np
from scipy import sparse

__all__ = ["PROBE_REF_S", "Probe"]

# median probe time on the 2-core Xeon (2.0 GHz) box the bounds were set on
PROBE_REF_S = 0.0065


class Probe:
    """Fixed inputs built once; ``__call__`` returns one probe's seconds."""

    def __init__(self):
        self.mu = np.full((100, 3, 128), 0.02)
        self.field = np.linspace(0.0, 1.0, 3600).reshape(60, 60)
        n = 729
        rows = np.repeat(np.arange(n), 6)
        cols = (rows * 7 + np.tile(np.arange(6), n) * 97) % n
        self.matrix = sparse.csr_matrix(
            (np.full(rows.size, 0.1), (rows, cols)), shape=(n, n))
        self.vector = np.ones(n, dtype=np.complex128)

    def __call__(self) -> float:
        start = perf_counter()
        rng = np.random.Generator(np.random.Philox(key=1))
        rng.poisson(self.mu)
        rng.poisson(self.mu)
        f = self.field
        for _ in range(40):
            lap = np.roll(f, 1, 0) - 2.0 * f + np.roll(f, -1, 0)
            f = np.clip(f + 0.1 * lap + 0.01 * f * (1.0 - f), 0.0, 1.0)
        v = self.vector
        for _ in range(80):
            v = v - 0.01j * (self.matrix @ v)
        total = 0.0
        for i in range(6000):
            total += i * 0.5
        return perf_counter() - start
