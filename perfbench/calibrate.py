"""The calibration work that unit times are divided by.

CALIBRATION_S is the fastest time of ``calibration()`` on the machine the
README's figures come from, so a normalized time reads in seconds at that
machine's quiet speed.
"""

import math
import time

import numpy as np

CALIBRATION_S = 0.0054


def calibration() -> float:
    """Fixed interpreter-bound work; returns the seconds it took.

    Scalar bisections over short float lists, and building, sorting and
    checking small numpy arrays: the two kinds of work the program's solvers
    and measure constructors spend their time on.
    """
    t = time.perf_counter()
    xs = [0.1 * i for i in range(1, 9)]
    acc = 0.0
    for _ in range(100):
        lo, hi = 0.0, 1.0
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            if sum(x / (1.0 + mid * x) for x in xs) > 2.0:
                lo = mid
            else:
                hi = mid
        acc += math.log1p(lo)
    values = [0.7, 0.1, 0.4, 0.9, 0.2]
    for k in range(150):
        v = np.asarray(values, dtype=float)
        w = np.asarray([0.2] * 5, dtype=float)
        order = np.argsort(v, kind="stable")
        v, w = v[order], w[order]
        ordered = bool(np.all(np.diff(v) > 0)) and bool(np.all(np.isfinite(w)))
        acc += float(w.sum()) + float(np.sum(w / (k + 1.0 + v))) + ordered
    return time.perf_counter() - t
