from __future__ import annotations

import numpy as np
import pytest

from infoflow.kernels import BACKEND, available_backends


COEFFS = (0.0, 0.0, -1.0, 0.5, 0.0, -1.0, 0.1, 0.1, 1e-3, 1.0, 2.0)


def run_kernel(fn, n=50_000, seed=3, coeffs=COEFFS):
    rng = np.random.default_rng(seed)
    dw = rng.standard_normal((n, 2)) * np.sqrt(1e-3)
    out1 = np.empty(n + 1)
    out2 = np.empty(n + 1)
    fn(
        out1,
        out2,
        np.ascontiguousarray(dw[:, 0]),
        np.ascontiguousarray(dw[:, 1]),
        *coeffs,
    )
    return out1, out2


def test_backend_reported():
    assert BACKEND in ("compiled", "python")
    assert "python" in available_backends()


def test_backends_bit_identical():
    backends = available_backends()
    if "compiled" not in backends:
        pytest.skip("compiled kernel not built")
    c1, c2 = run_kernel(backends["compiled"])
    p1, p2 = run_kernel(backends["python"])
    assert np.array_equal(c1, p1)
    assert np.array_equal(c2, p2)


def test_python_kernel_gives_float_bits_for_numpy_scalars():
    fn = available_backends()["python"]
    coeffs = (0.3, -0.2, -1.0, 0.5, 0.4, -2.0, 0.1, 0.25, 1e-3, 1.0, 2.0)
    p1, p2 = run_kernel(fn, coeffs=coeffs)
    n1, n2 = run_kernel(fn, coeffs=tuple(np.float64(c) for c in coeffs))
    assert p1.tobytes() == n1.tobytes() and p2.tobytes() == n2.tobytes()


@pytest.mark.parametrize("defect", ["short_out", "short_dw2", "float32_dw1", "strided_out1"])
def test_compiled_kernel_rejects_bad_buffers(defect):
    backends = available_backends()
    if "compiled" not in backends:
        pytest.skip("compiled kernel not built")
    n = 8
    sentinel = -7.0
    # out1 is a view into a larger sentinel-filled array, so a write past its
    # end would show in the tail
    store = np.full(2 * n + 2, sentinel)
    out1 = store[: n + 1]
    out2 = np.full(n + 1, sentinel)
    dw1 = np.ones(n)
    dw2 = np.ones(n)
    if defect == "short_out":
        out1 = store[:n]
    elif defect == "short_dw2":
        dw2 = np.ones(n - 1)
    elif defect == "float32_dw1":
        dw1 = np.ones(n, dtype=np.float32)
    else:
        out1 = store[::2]
    with pytest.raises((ValueError, TypeError)):
        backends["compiled"](
            out1, out2, dw1, dw2, 0.0, 0.0, -1.0, 0.5, 0.0, -1.0, 0.1, 0.1, 1e-3, 1.0, 2.0
        )
    assert np.all(store == sentinel)
    assert np.all(out2 == sentinel)


def test_python_kernel_matches_reference_recursion():
    # independent NumPy re-statement of the update rule
    fn = available_backends()["python"]
    n = 200
    rng = np.random.default_rng(9)
    dw = rng.standard_normal((n, 2)) * np.sqrt(0.05)
    out1 = np.empty(n + 1)
    out2 = np.empty(n + 1)
    fn(out1, out2, dw[:, 0].copy(), dw[:, 1].copy(),
       0.1, -0.2, -1.0, 0.4, 0.3, -2.0, 0.5, 0.7, 0.05, 1.0, -1.0)
    x = np.array([1.0, -1.0])
    f = np.array([0.1, -0.2])
    a = np.array([[-1.0, 0.4], [0.3, -2.0]])
    b = np.array([0.5, 0.7])
    for i in range(n):
        x = x + (f + a @ x) * 0.05 + b * dw[i]
        assert out1[i + 1] == pytest.approx(x[0], rel=1e-12)
        assert out2[i + 1] == pytest.approx(x[1], rel=1e-12)
