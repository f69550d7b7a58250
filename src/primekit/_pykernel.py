"""Pure-Python 64-bit kernel.

Import-time fallback when the compiled extension is unavailable. Exposes
the same functions as ``primekit._kernel64`` with identical semantics:
boolean verdicts only, no stages. The rich, stage-carrying implementations
live in ``detprime64``/``sprp``; parity between all three is covered by
tests.
"""

import math
from operator import index

from .modarith import U64_MAX
from .residues import DEFAULT_SEARCH_CAP, is_small_prime

BACKEND_NAME = "python"

_ORACLE_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _u64(n):
    # __index__ rejects floats instead of truncating them
    n = index(n)
    if not 0 <= n <= U64_MAX:
        raise OverflowError("value out of uint64 range")
    return n


def mulmod(a, b, m, /):
    a, b, m = _u64(a), _u64(b), _u64(m)
    if m == 0:
        raise ValueError("modulus must be >= 1")
    return a * b % m


def powmod(a, e, m, /):
    a, e, m = _u64(a), _u64(e), _u64(m)
    if m == 0:
        raise ValueError("modulus must be >= 1")
    return pow(a, e, m)


def isqrt64(n, /):
    return math.isqrt(_u64(n))


def _search(n, first, step, cap):
    # returns (status, p): 1 found, 2 divisor of n, 3 candidate == n (prime),
    # 0 exhausted
    c = first
    seen = 0
    while seen < cap:
        seen += 1
        if is_small_prime(c):
            v = pow(n % c, (c - 1) >> 1, c)
            if v == c - 1:
                return 1, c
            if v == 0:
                return (3, c) if c == n else (2, c)
        c += step
    return 0, 0


def _sprp(n, a, s, t):
    b = pow(a, t, n)
    for _ in range(s):
        k = b * b % n
        if k == 1 and b != 1 and b != n - 1:
            return False
        b = k
    return b == 1


def _decompose(n):
    t = n - 1
    s = (t & -t).bit_length() - 1
    return s, t >> s


def _raise_exhausted():
    raise RuntimeError("nonresidue search exceeded its candidate cap")


def ge_is_prime(n, cap=DEFAULT_SEARCH_CAP, /):
    n, cap = _u64(n), index(cap)
    if n < 2:
        return False
    if n == 2:
        return True
    if n % 2 == 0:
        return False
    if n < 100:
        return is_small_prime(n)
    e = (n - 1) >> 1
    want = 1 if n % 8 in (1, 7) else n - 1
    if pow(2, e, n) != want:
        return False
    m = math.isqrt(n)
    h = math.isqrt(n >> 1)
    for a in (m, m + 1, h, h + 1):
        q = pow(a, e, n)
        if q != 1 and q != n - 1:
            return False
    for first in (5, 17):  # 8k+5 then 8k+1
        status, p = _search(n, first, 8, cap)
        if status == 0:
            _raise_exhausted()
        if status == 2:
            return False
        if status == 3:
            return True
        if pow(p, e, n) != n - 1:
            return False
    return True


def mrge_is_prime(n, cap=DEFAULT_SEARCH_CAP, /):
    n, cap = _u64(n), index(cap)
    if n < 2:
        return False
    if n == 2:
        return True
    if n % 2 == 0:
        return False
    if n < 9:
        return True  # 3, 5, 7
    m = math.isqrt(n)
    if m * m == n:
        return False
    h = math.isqrt(n >> 1)
    s, t = _decompose(n)
    for a in (2, m - 1, m + 1, h - 1, h + 1):
        if not _sprp(n, a, s, t):
            return False
    status, p = _search(n, 3, 4, cap)
    if status == 0:
        _raise_exhausted()
    if status == 2:
        return False
    if status == 3:
        return True
    need = n - 1 if n % 4 == 1 else 1
    return pow(p, (n - 1) >> 1, n) == need


def first_attempt_is_prime(n, cap=DEFAULT_SEARCH_CAP, /):
    n, cap = _u64(n), index(cap)
    if n < 2:
        return False
    if n == 2:
        return True
    if n % 2 == 0:
        return False
    if n < 9:
        return True
    m = math.isqrt(n)
    h = math.isqrt(n >> 1)
    s, t = _decompose(n)
    for a in (2, m, m + 1, h, h + 1):
        if not _sprp(n, a, s, t):
            return False
    status, p = _search(n, 5, 4, cap)
    if status == 0:
        _raise_exhausted()
    if status == 2:
        return False
    if status == 3:
        return True
    return pow(p, (n - 1) >> 1, n) == n - 1


def mr7_is_prime(n, /):
    n = _u64(n)
    if n == 17:
        return True
    if n < 9:
        return n in (2, 3, 5, 7)
    if n % 2 == 0:
        return False
    m = math.isqrt(n)
    h = math.isqrt(n >> 1)
    s, t = _decompose(n)
    for a in (2, 5, 17, m, m + 1, h, h + 1):
        if not _sprp(n, a % n, s, t):
            return False
    return True


def oracle_is_prime(n, /):
    n = _u64(n)
    if n < 2:
        return False
    for p in _ORACLE_BASES:
        if n % p == 0:
            return n == p
    s, t = _decompose(n)
    for a in _ORACLE_BASES:
        if not _sprp(n, a, s, t):
            return False
    return True
