"""A fixed reference kernel, timed between requests to gauge the host's speed.

On a shared host the same code runs 20 to 40 % faster or slower from one
minute to the next, which no statistic over a 20 s run can remove.  The
benchmark therefore times slices of this kernel between its requests and
scales the run's times by ``host_scale``: the kernel's speed in the run
relative to the reference box.  A scaled time is the time the request
would have taken on the reference box.

The kernel mixes three kinds of work coherence-forge does (see
``Kernel``).  It calls nothing in coherence_forge, so no change to the
program can move it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Median time of each part of a slice at one BLAS thread on the reference
# box (2-CPU x86-64, numpy 2.4, OpenBLAS 0.3.31), over 42 runs of the four
# workloads.
PART_REF_S = {"small": 0.0216, "dense": 0.0213, "stream": 0.0168}
ALL_PARTS = tuple(PART_REF_S)
# Parts whose speed stands for a workload's rounds, where not all three.
# Spectral spends its time in LAPACK and BLAS on operands of up to 16 MB,
# not in calls from Python: the small part swings with the host twice as
# much as spectral does, and scaling by it doubled spectral's spread.
# Set-up (imports, input files, one small request) is scaled by all three.
PARTS = {"spectral": ("dense", "stream")}
# Request time between two slices.  Slices spread evenly over the run's
# time sample the host's speed where the requests met it; slices bunched
# before long requests would not.
EVERY_S = 0.5


def host_scale(slices, parts=ALL_PARTS) -> float:
    """Reference time over the median time of the given parts."""
    return (sum(PART_REF_S[p] for p in parts)
            / statistics.median(sum(sl[p] for p in parts) for sl in slices))


class Kernel:
    """Three parts: many small numpy calls from Python, LAPACK and BLAS on
    a 64 x 64 matrix, and streaming over 16 MB.  The parts allocate
    nothing above glibc's mmap threshold (128 KiB), so their time does not
    depend on what the process allocated before."""

    def __init__(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        self.small = a + a.conj().T
        b = rng.normal(size=(64, 64))
        self.dense = b + b.T
        self.stream = rng.random(1_000_000)
        self.buf = np.empty_like(self.stream)

    def slice(self) -> dict:
        """Seconds taken by each part of one fixed slice of work."""
        t0 = time.perf_counter()
        for _ in range(1000):
            w, v = np.linalg.eigh(self.small)
            (v * w) @ v.conj().T
            sum(range(40))
        t1 = time.perf_counter()
        for _ in range(40):
            np.linalg.eigh(self.dense)
            self.dense @ self.dense
        t2 = time.perf_counter()
        for _ in range(8):
            np.multiply(self.stream, 1.0001, out=self.buf)
            np.add(self.buf, self.stream, out=self.buf)
            self.buf.sum()
        t3 = time.perf_counter()
        return {"small": t1 - t0, "dense": t2 - t1, "stream": t3 - t2}
