from setuptools import Extension, setup

# The compiled kernel is one hand-written C file against the CPython API, so a
# build needs only a C compiler and the Python headers.
setup(
    ext_modules=[
        Extension(
            "primekit._kernel64",
            ["src/primekit/_kernel64.c"],
            extra_compile_args=["-O3"],
            # keep the install usable on toolchain-less hosts; the package
            # falls back to the pure-Python kernel at import time
            optional=True,
        )
    ]
)
