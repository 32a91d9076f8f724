"""Time one call of a path-generation kernel: the helper perfbench's kernel rate uses.

perfbench/run.py imports `bench` from here to report kernels.euler_steps_per_s.
Kernel backends are compared by the simulate_* stages of bench_pipeline.py,
which call them the way `simulate` does, with numpy-scalar coefficients.
"""

from __future__ import annotations

import math
import time

import numpy as np


def bench(fn, dw1, dw2, repeats):
    """(best wall time of `repeats` calls, out1, out2) of kernel fn on increments dw1, dw2."""
    n = dw1.shape[0]
    out1 = np.empty(n + 1)
    out2 = np.empty(n + 1)
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        fn(out1, out2, dw1, dw2, 0.0, 0.0, -1.0, 0.5, 0.0, -1.0, 0.1, 0.1, 1e-3, 1.0, 2.0)
        best = min(best, time.perf_counter() - start)
    return best, out1.copy(), out2.copy()
