"""The path-generation hot loop, and the choice of its backend.

The compiled extension (built from _kernels.c) is used whenever it imports;
otherwise the pure-Python kernel below runs. Both produce bit-identical paths:
keep its update expressions identical to _kernels.c.
"""

from __future__ import annotations

import numpy as np


def _euler_path_2d_python(out1, out2, dw1, dw2, f1, f2, a11, a12, a21, a22, b1, b2, dt, x01, x02):
    """Fill out1/out2 (length n+1) with the forward-Euler recursion.

    The scalars are converted to Python floats on entry, as the C kernel's
    "d" argument format converts them, so the loop runs on plain floats even
    when the caller passes numpy float64 scalars (unpacked from a model's
    arrays, say). The conversion is exact and both types round each add and
    multiply the same way, so it changes only the speed, about 2x. The noise
    terms b1 * dw1 and b2 * dw2 are formed in numpy: one rounded multiply
    each, as in the C loop.
    """
    f1, f2, a11, a12, a21, a22, b1, b2, dt, x1, x2 = map(
        float, (f1, f2, a11, a12, a21, a22, b1, b2, dt, x01, x02)
    )
    o1 = [x1]
    o2 = [x2]
    noise1 = (b1 * np.asarray(dw1, dtype=float)).tolist()
    noise2 = (b2 * np.asarray(dw2, dtype=float)).tolist()
    for s1, s2 in zip(noise1, noise2):
        x1, x2 = (
            x1 + (f1 + a11 * x1 + a12 * x2) * dt + s1,
            x2 + (f2 + a21 * x1 + a22 * x2) * dt + s2,
        )
        o1.append(x1)
        o2.append(x2)
    out1[:] = o1
    out2[:] = o2


try:
    from ._kernels import euler_path_2d

    BACKEND = "compiled"
except ImportError:
    euler_path_2d = _euler_path_2d_python
    BACKEND = "python"


def available_backends() -> dict[str, object]:
    """Map backend name -> kernel function, for benchmarks and tests."""
    backends: dict[str, object] = {"python": _euler_path_2d_python}
    if BACKEND == "compiled":
        backends["compiled"] = euler_path_2d
    return backends
