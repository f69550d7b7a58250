"""Backend selection: compiled extension when built, pure Python otherwise.

PRIMEKIT_BACKEND is the one choice: =py (or =python) forces the pure kernel,
=c requires the compiled one (ImportError if it is missing; the command line
exits 2), and auto is the default. ``BACKEND`` names the kernel loaded.

``ALGOS`` is the one table of the 64-bit algorithms; every list of them is
derived from it. ``oracle_is_prime`` is no algorithm: it answers through
``bpsw_is_prime`` and is kept only for the benchmark's tracer.
"""

import os
import warnings
from collections.abc import Callable
from dataclasses import dataclass

from . import detprime64, sprp
from .verdicts import Verdict

BACKEND_CHOICES = ("auto", "c", "py", "python")


@dataclass(frozen=True)
class AlgoSpec:
    """The kernel entry point (the same name in both backends), the rich
    stage-carrying test, and whether the test walks the nonresidue search
    (its checkpoints then record the search cap)."""

    entry: str
    rich: Callable[..., Verdict]
    capped: bool


ALGOS = {
    "ge": AlgoSpec("ge_is_prime", detprime64.gauss_euler, capped=True),
    "mrge": AlgoSpec("mrge_is_prime", detprime64.mr_ge, capped=True),
    "first": AlgoSpec(
        "first_attempt_is_prime", detprime64.mr_ge_first_attempt, capped=True
    ),
    "mr7": AlgoSpec("mr7_is_prime", sprp.seven_base_variant, capped=False),
    "bpsw": AlgoSpec("bpsw_is_prime", sprp.bpsw, capped=False),
}


def load_backend(name: str = "auto"):
    """Return the kernel module for ``name``, one of BACKEND_CHOICES."""
    if name in ("py", "python"):
        from . import _pykernel

        return _pykernel
    if name == "c":
        try:
            from . import _kernel64
        except ImportError as exc:
            raise ImportError(
                "the compiled kernel primekit._kernel64 is not built "
                "(python setup.py build_ext --inplace builds it)"
            ) from exc
        return _kernel64
    if name not in BACKEND_CHOICES:
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
bpsw_is_prime = _impl.bpsw_is_prime

ALGORITHMS = {key: getattr(_impl, spec.entry) for key, spec in ALGOS.items()}


# kept for the benchmark's tracer, which wraps it by name (perfbench/tracing.py);
# a function of its own, so that wrapping it leaves ALGORITHMS["bpsw"] alone
def oracle_is_prime(n, /):
    return bpsw_is_prime(n)
