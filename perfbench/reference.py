"""A fixed computation that measures how fast the machine runs right now.

The benchmark's host is shared: the same work ran up to twice as slow in
phases lasting from seconds to minutes. Each timed call is bracketed by
runs of this computation, and its wall time is scaled by
`REFERENCE_SECONDS / (median reference time)`, giving seconds at the speed
of the host the benchmark was calibrated on. The computation shares no
code with spdalign, so no change to the program moves the scale. Like the
program's inner loops, it runs small symmetric eigendecompositions and
elementwise NumPy work from a Python loop.
"""

import statistics
import time

import numpy as np

_A = np.random.default_rng(20161608).standard_normal((256, 10, 10))
MATRICES = _A @ np.transpose(_A, (0, 2, 1)) + 10.0 * np.eye(10)

# median time of seconds() on the calibration host in its fast phase
REFERENCE_SECONDS = 0.008


def seconds():
    """Wall time of one pass of the reference computation."""
    start = time.perf_counter()
    total = 0.0
    for M in MATRICES:
        w, Q = np.linalg.eigh(M)
        total += float(np.sum(np.log(w) ** 2)) + float(((Q / np.sqrt(w)) @ Q.T)[0, 1])
    return time.perf_counter() - start


def scale(samples):
    """Factor that turns wall seconds into calibration-host seconds."""
    return REFERENCE_SECONDS / statistics.median(samples)
