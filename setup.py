"""Build script: compiles the optional Euler-path accelerator, src/infoflow/_kernels.c.

The extension is optional: if it fails to build (no working C toolchain),
setuptools warns and the build still succeeds. The package works without it;
infoflow.kernels falls back to the pure-Python kernel when it does not import.
"""

from setuptools import Extension, setup

setup(
    ext_modules=[
        # -ffp-contract=off: no FMA contraction, so the compiled kernel stays
        # bit-identical to the pure-Python fallback.
        Extension(
            "infoflow._kernels",
            ["src/infoflow/_kernels.c"],
            extra_compile_args=["-O3", "-ffp-contract=off"],
            optional=True,
        )
    ],
)
