"""Build script: compiles the optional Euler-path accelerator, src/infoflow/_kernels.c.

The package installs and works without the extension; infoflow.kernels falls
back to the pure-Python kernel when it does not import.
"""

import warnings

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext


class OptionalBuildExt(build_ext):
    """Degrade to the pure-Python kernel when no working C toolchain exists."""

    def run(self):
        try:
            super().run()
        except Exception as exc:
            warnings.warn(f"compiled kernel build failed ({exc}); using pure-Python fallback")

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:
            warnings.warn(f"compiled kernel build failed ({exc}); using pure-Python fallback")


setup(
    ext_modules=[
        # -ffp-contract=off: no FMA contraction, so the compiled kernel stays
        # bit-identical to the pure-Python fallback.
        Extension(
            "infoflow._kernels",
            ["src/infoflow/_kernels.c"],
            extra_compile_args=["-O3", "-ffp-contract=off"],
        )
    ],
    cmdclass={"build_ext": OptionalBuildExt},
)
