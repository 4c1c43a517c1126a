"""Reference kernel that measures how fast the host runs right now.

On a host whose cores are shared with other tenants, speed drifts in
phases of tens of seconds to minutes: on a 2-core x86-64 VM the median
``run_s`` of 28-second runs moved by up to 40% between runs.  Medians within
one run cannot remove that drift, so each sample also times a fixed
reference kernel just before and just after its CLI call, and the benchmark
reports times rescaled by the run's speed factor, ``NOMINAL_S`` over the
median of the run's kernel times.  Raw wall times are printed next to the
rescaled ones.

The kernel mixes the kinds of work pexstab does - interpreted Python loops,
exact ``Fraction`` sums, small dense eigenproblems and matrix exponentials -
and uses only numpy and scipy, never pexstab, so no change to the program
can move it.
"""

from __future__ import annotations

import time
from fractions import Fraction

import numpy as np
from scipy.linalg import expm  # bound before tracing rebinds scipy.linalg.expm

# Median kernel wall time measured on a 2-core x86-64 VM (Python 3.11, numpy
# 2.4, scipy 1.17, OpenBLAS 0.3.31).  It only sets the scale: comparisons
# between runs depend on the measured kernel times alone.
NOMINAL_S = 0.14


def kernel_s() -> float:
    """Wall seconds of one pass of the fixed reference kernel."""
    t0 = time.perf_counter()
    acc, table = 0.0, {}
    for i in range(150000):
        acc += (i * 0.5) % 7.0
        table[i & 1023] = acc
    for _ in range(3):
        f = Fraction(0)
        for i in range(1, 1500):
            f += Fraction(1, i)
    rng = np.random.default_rng(0)
    M = rng.standard_normal((16, 16))
    A = M - M.T
    S = M + M.T
    for _ in range(1500):
        w, V = np.linalg.eigh(S)
        S = S + 1e-12 * (V @ V.T)
    for k in range(100):
        expm(A * (0.01 * (k + 1)))

    return time.perf_counter() - t0
