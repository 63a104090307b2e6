from setuptools import Extension, setup

# The optional C kernels: a plain shared library with no Python API, loaded
# through ctypes by gdcscan._kernels (build in place with
# `python setup.py build_ext --inplace`).  -ffp-contract=off keeps every
# multiply-add rounded twice, as in the NumPy twin, so both give the same bits.
setup(
    ext_modules=[
        Extension(
            "gdcscan._ckernels",
            ["src/gdcscan/_ckernels.c"],
            extra_compile_args=["-O3", "-ffp-contract=off"],
        )
    ]
)
