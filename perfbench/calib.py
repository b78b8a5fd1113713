"""Machine-speed calibration.

The benchmark host's speed drifts by up to 1.5x over tens of seconds for
all kinds of work (pure Python, small NumPy arrays, BLAS).  Every timed
interval is therefore paired with a run of a fixed calibration kernel made
around it, and reported rescaled to a reference speed:
rescaled = measured * REFERENCE_S / kernel time.

The kernel shares no code with riskshare, so a change to the package
cannot change it.
"""

from time import perf_counter

import numpy as np
from scipy.special import logsumexp

# median kernel time on the reference host (2-core Intel Xeon, Python
# 3.11, NumPy 2.4); rescaled times read as times on that host at its
# typical speed
REFERENCE_S = 0.004


def kernel():
    """SciPy logsumexp calls on short vectors (interpreter-bound, like the
    law-invariant searches) and a Gauss-Jordan sweep over a 40 x 80 array
    (like a simplex tableau).  Of the kernels tried this one tracked the
    workloads' speed best."""
    a = np.linspace(-1.0, 1.0, 8)
    b = np.full(8, 0.125)
    total = 0.0
    for i in range(25):
        total += float(logsumexp(a * (1.0 + 0.01 * i), b=b))
    T = np.linspace(0.0, 1.0, 40 * 80).reshape(40, 80) + np.eye(40, 80)
    rows = np.arange(40)
    for r in range(40):
        T[r] /= T[r, r]
        T -= np.outer(T[:, r] * (rows != r), T[r])
    return total + float(T[0, -1])


def kernel_seconds(runs=1):
    """Median time of `runs` kernel runs.  The first run in a process is
    slow; callers run `kernel()` once before timing it."""
    times = []
    for _ in range(runs):
        start = perf_counter()
        kernel()
        times.append(perf_counter() - start)
    return sorted(times)[len(times) // 2]


def rescale(seconds, kernel):
    """An interval rescaled by the kernel time measured around it."""
    return seconds * REFERENCE_S / kernel
