"""Modular arithmetic and exact integer square roots on plain Python ints.

Python integers never wrap, so one set of functions serves both full-range
64-bit operands and arbitrary-precision candidates. The compiled kernel in
``primekit._kernel64`` reimplements the 64-bit cases with 128-bit
intermediates; these functions are the reference semantics it is tested
against.
"""

import math
import operator

U64_MAX = 2**64 - 1


def mulmod(a: int, b: int, m: int) -> int:
    """Return ``(a * b) % m``, exact for any operand width.

    ``m`` must be >= 1; callers normally reduce a and b first but the result
    is exact either way.
    """
    if m < 1:
        raise ValueError("modulus must be >= 1")
    return a * b % m


def require_u64(n) -> int:
    """``n`` as a plain int; TypeError unless it is an integer (a float is
    refused, ``numpy.uint64`` converted), OverflowError unless
    0 <= n < 2**64. The same rules as the kernels."""
    n = operator.index(n)
    if not 0 <= n <= U64_MAX:
        raise OverflowError("n must fit in an unsigned 64-bit integer")
    return n


def powmod(a: int, e: int, m: int) -> int:
    """Return ``a**e % m`` by square-and-multiply; ``e == 0`` gives ``1 % m``."""
    if m < 1:
        raise ValueError("modulus must be >= 1")
    if e < 0:
        raise ValueError("exponent must be >= 0")
    return pow(a, e, m)


# kept for the benchmark's tracer, which wraps it by name (perfbench/tracing.py)
def isqrt(n: int) -> int:
    """Largest k with k*k <= n, in exact integer arithmetic.

    Floating-point sqrt misrounds near 2**64, which would silently change
    derived test bases, so everything here routes through math.isqrt.
    """
    return math.isqrt(n)
