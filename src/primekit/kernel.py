"""Backend selection: compiled extension when built, pure Python otherwise.

Set PRIMEKIT_BACKEND=py to force the pure kernel, or =c to require the
compiled one (ImportError if it is missing). Default is auto.
"""

import os
import warnings

FUNC_NAMES = {
    "ge": "ge_is_prime",
    "mrge": "mrge_is_prime",
    "first": "first_attempt_is_prime",
    "mr7": "mr7_is_prime",
    "oracle": "oracle_is_prime",
}

# algorithms whose kernel entry point takes a search-cap argument
CAPPED = frozenset(("ge", "mrge", "first"))


def load_backend(name: str = "auto"):
    """Return the kernel module for ``name`` in {auto, c, py}."""
    if name in ("py", "python"):
        from . import _pykernel

        return _pykernel
    if name == "c":
        from . import _kernel64  # ImportError here means it was never built

        return _kernel64
    if name != "auto":
        warnings.warn(f"unknown kernel backend {name!r}; using auto")
    try:
        from . import _kernel64

        return _kernel64
    except ImportError:
        from . import _pykernel

        return _pykernel


def available_backends() -> tuple[str, ...]:
    names = []
    try:
        load_backend("c")
        names.append("c")
    except ImportError:
        pass
    names.append("py")
    return tuple(names)


_impl = load_backend(os.environ.get("PRIMEKIT_BACKEND", "auto"))

BACKEND = _impl.BACKEND_NAME

mulmod = _impl.mulmod
powmod = _impl.powmod
isqrt64 = _impl.isqrt64
ge_is_prime = _impl.ge_is_prime
mrge_is_prime = _impl.mrge_is_prime
first_attempt_is_prime = _impl.first_attempt_is_prime
mr7_is_prime = _impl.mr7_is_prime
oracle_is_prime = _impl.oracle_is_prime

ALGORITHMS = {key: getattr(_impl, fn) for key, fn in FUNC_NAMES.items()}
