"""A fixed reference computation that measures the machine's current speed.

The hosts this benchmark runs on drift in speed by 10-30 % over seconds to
minutes (frequency changes and neighbours on shared cores), far more than
the differences a change to the program should be judged on.  The worker
times `reference_work()` right before and after every job; the ratio of
`NOMINAL_S` to that time rescales the job's time to a machine running at
nominal speed.  The reference lives in the benchmark, not in the program,
so no change to the program can move it.

Its mix copies the kinds of work the program's hot paths do: Python float
arithmetic on numpy scalars (the Runge-Kutta and Gauss-Kronrod loops),
calls on small numpy arrays (profile interpolation) and 17-digit float
formatting (the CSV and JSON writers).
"""

from __future__ import annotations

import math
import time

import numpy as np

# typical time of one reference_work() call on a 2-CPU x86-64 container
NOMINAL_S = 0.015

_COEF = np.array([[0.2, 0.0, 0.0, 0.0],
                  [0.075, 0.225, 0.0, 0.0],
                  [0.98, -3.7, 3.6, 0.0],
                  [2.9, -11.6, 9.8, -0.29]])
_XS = np.linspace(0.0, 1.0, 64)
_YS = _XS * _XS


def reference_work() -> float:
    k = np.empty(4)
    acc = 0.0
    for rep in range(1200):
        x = 0.5 + 1e-3 * rep
        for i in range(4):
            a = 0.0
            for j in range(i):
                a += _COEF[i, j] * k[j]
            k[i] = math.sin(x + a) * 0.5
        acc += k[3]
    for rep in range(800):
        acc += float(np.interp(0.3 + 1e-3 * rep, _XS, _YS))
    for rep in range(3300):
        acc += len(f"{acc * 1.000001 + rep:.17g}")
    return acc


def reference_time() -> float:
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0
