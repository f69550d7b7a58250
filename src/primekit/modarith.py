"""Modular arithmetic and exact integer square roots on plain Python ints.

Python integers never wrap, so one set of functions serves both full-range
64-bit operands and arbitrary-precision candidates. The compiled kernel in
``primekit._kernel64`` reimplements the 64-bit cases with 128-bit
intermediates; these functions are the reference semantics it is tested
against.
"""

import math

U64_MAX = 2**64 - 1

# divisors i admitted under the integer part of sqrt(n/i)
SQRT_DIVISORS = (1, 2, 3, 5, 7)


def mulmod(a: int, b: int, m: int) -> int:
    """Return ``(a * b) % m``, exact for any operand width.

    ``m`` must be >= 1; callers normally reduce a and b first but the result
    is exact either way.
    """
    if m < 1:
        raise ValueError("modulus must be >= 1")
    return a * b % m


def require_u64(n: int) -> None:
    """Raise OverflowError unless 0 <= n < 2**64."""
    if not 0 <= n <= U64_MAX:
        raise OverflowError("n must fit in an unsigned 64-bit integer")


def powmod(a: int, e: int, m: int) -> int:
    """Return ``a**e % m`` by square-and-multiply; ``e == 0`` gives ``1 % m``."""
    if m < 1:
        raise ValueError("modulus must be >= 1")
    if e < 0:
        raise ValueError("exponent must be >= 0")
    return pow(a, e, m)


def isqrt(n: int) -> int:
    """Largest k with k*k <= n, in exact integer arithmetic.

    Floating-point sqrt misrounds near 2**64, which would silently change
    derived test bases, so everything here routes through math.isqrt.
    """
    return math.isqrt(n)


def sqrt_base(n: int, divisor: int, offset: int) -> int:
    """Test base ``isqrt(n // divisor) + offset``.

    For odd n and the admitted divisors, ``isqrt(n // divisor)`` equals the
    integer part of sqrt(n / divisor): the dropped fractional part of the
    quotient is < 1 and cannot cross a square boundary. The caller must
    check the result lands in (0, n) before using it as a base.
    """
    if divisor not in SQRT_DIVISORS:
        raise ValueError(f"divisor must be one of {SQRT_DIVISORS}")
    return math.isqrt(n // divisor) + offset


def is_perfect_square(n: int) -> bool:
    """True iff n is k*k for some integer k >= 0."""
    if n < 0:
        return False
    r = math.isqrt(n)
    return r * r == n
