"""Kernel backend selection.

The compiled extension (built from _kernels.c) is used whenever it imports;
otherwise the pure-Python fallback in _kernels_py runs. Both produce
bit-identical paths.
"""

from __future__ import annotations

from . import _kernels_py

try:
    from . import _kernels as _impl  # type: ignore[no-redef]

    BACKEND = "compiled"
except ImportError:
    _impl = _kernels_py
    BACKEND = "python"

euler_path_2d = _impl.euler_path_2d


def available_backends() -> dict[str, object]:
    """Map backend name -> kernel function, for benchmarks and tests."""
    backends: dict[str, object] = {"python": _kernels_py.euler_path_2d}
    if BACKEND == "compiled":
        backends["compiled"] = euler_path_2d
    return backends
