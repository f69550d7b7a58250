"""Legendre symbols against small primes and residue-class prime searches.

The deterministic tests repeatedly need the smallest prime p in an
arithmetic progression (4k+1, 8k+5, ...) such that n is a quadratic
non-residue mod p. The search walks a table of the progression's primes
below 8,192, built once per form from a sieve; candidates beyond the
table, reachable only with a cap above the default, are checked by trial
division. The symbol (n/p) is evaluated by Euler's criterion modulo the
small p, which is cheap because p stays tiny in practice.
"""

import math
from dataclasses import dataclass
from functools import cached_property

DEFAULT_SEARCH_CAP = 1000

# divisor_policy values for smallest_nonresidue_prime
SKIP = "skip"
ABORT = "abort"

# SearchResult.status values
FOUND = "found"
DIVISOR = "divisor"
SELF_PRIME = "self-prime"
EXHAUSTED = "exhausted"


# With the default cap and a step of at most 8 from a first candidate of at
# most 17, no candidate exceeds 8,009, so the table covers every default search.
_TABLE_LIMIT = 8192


def prime_flags(limit: int) -> bytearray:
    """The package's one sieve: flags[n] == 1 iff n is prime, 0 <= n <= limit."""
    flags = bytearray([1]) * (limit + 1)
    flags[:2] = bytes(min(2, limit + 1))
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    return flags


_PRIME_FLAGS = prime_flags(_TABLE_LIMIT - 1)


def is_small_prime(p: int) -> bool:
    """Primality from a sieve table below 8,192, by trial division
    up to isqrt(p) above it. Meant for small p."""
    if p < _TABLE_LIMIT:
        return p >= 2 and _PRIME_FLAGS[p] == 1
    if p % 2 == 0:
        return p == 2
    lim = math.isqrt(p)
    d = 3
    while d <= lim:
        if p % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class Form:
    """Arithmetic progression modulus*k + residue that auxiliary primes are
    drawn from, starting at its smallest prime member."""

    modulus: int
    residue: int
    first_candidate: int

    def __post_init__(self):
        if self.modulus not in (4, 8):
            raise ValueError("form modulus must be 4 or 8")
        if not 0 < self.residue < self.modulus or self.residue % 2 == 0:
            raise ValueError("form residue must be odd and < modulus")
        if self.first_candidate % self.modulus != self.residue:
            raise ValueError("first candidate not in the progression")
        if not is_small_prime(self.first_candidate):
            raise ValueError("first candidate must be prime")

    def __str__(self) -> str:
        return f"{self.modulus}k+{self.residue}"

    @cached_property
    def _table_primes(self) -> tuple[int, ...]:
        # the progression's primes from the first candidate to below _TABLE_LIMIT
        return tuple(
            p for p in range(self.first_candidate, _TABLE_LIMIT, self.modulus)
            if _PRIME_FLAGS[p]
        )


FORM_4K1 = Form(4, 1, 5)
FORM_4K3 = Form(4, 3, 3)
FORM_8K1 = Form(8, 1, 17)
FORM_8K3 = Form(8, 3, 3)
FORM_8K5 = Form(8, 5, 5)
FORM_8K7 = Form(8, 7, 7)


def legendre(n: int, p: int) -> int:
    """Legendre symbol (n/p) for an odd prime p: +1, -1, or 0 when p | n.

    Evaluated as (n mod p)^((p-1)/2) mod p; the caller guarantees p is an
    odd prime (see is_small_prime).
    """
    if p < 3 or p % 2 == 0:
        raise ValueError("p must be an odd prime")
    v = pow(n % p, (p - 1) // 2, p)
    if v == p - 1:
        return -1
    return v  # 0 or +1 for prime p


@dataclass(frozen=True)
class SearchResult:
    """Outcome of a residue-class nonresidue-prime search.

    status:
      found      -- prime with (n/prime) = -1
      divisor    -- candidate prime divides n and is < n (so n is composite)
      self-prime -- the candidate reached n itself; trial division has then
                    proven n prime
      exhausted  -- cap candidates inspected without a hit (pathological
                    input, e.g. an undetected perfect square)
    """

    status: str
    prime: int | None
    inspected: int

    @property
    def found(self) -> bool:
        return self.status == FOUND


def smallest_nonresidue_prime(
    n: int,
    form: Form,
    divisor_policy: str = SKIP,
    cap: int = DEFAULT_SEARCH_CAP,
) -> SearchResult:
    """Smallest prime p in the form's progression with legendre(n, p) = -1.

    Expects odd n > 1 that is not a perfect square. Candidates with
    legendre(n, p) = 0 (p divides n) are passed over under policy ``skip``;
    under policy ``abort`` they end the search immediately, as a ``divisor``
    outcome when p < n or as ``self-prime`` when p = n. ``exhausted`` after
    ``cap`` inspected candidates must be treated as a hard failure by
    callers, never as a verdict.
    """
    if divisor_policy not in (SKIP, ABORT):
        raise ValueError(f"unknown divisor policy: {divisor_policy!r}")
    return SearchResult(*_search(n, form, divisor_policy == ABORT, cap))


def _search(n: int, form: Form, abort: bool, cap: int) -> tuple[str, int | None, int]:
    """smallest_nonresidue_prime as a (status, prime, inspected) tuple;
    ``abort`` selects policy ``abort`` over ``skip``."""
    modulus = form.modulus
    first = form.first_candidate
    limit = first + cap * modulus  # candidates past the cap start here
    for p in form._table_primes:
        if p >= limit:
            return EXHAUSTED, None, max(cap, 0)
        symbol = pow(n % p, p >> 1, p)
        if symbol == p - 1:
            return FOUND, p, (p - first) // modulus + 1
        if symbol == 0 and abort:
            return SELF_PRIME if p == n else DIVISOR, p, (p - first) // modulus + 1
    # past the table: the first candidate at or above _TABLE_LIMIT onwards
    inspected = max(0, -((first - _TABLE_LIMIT) // modulus))
    candidate = first + inspected * modulus
    while inspected < cap:
        inspected += 1
        if is_small_prime(candidate):
            symbol = pow(n % candidate, candidate >> 1, candidate)
            if symbol == candidate - 1:
                return FOUND, candidate, inspected
            if symbol == 0 and abort:
                return SELF_PRIME if candidate == n else DIVISOR, candidate, inspected
        candidate += modulus
    return EXHAUSTED, None, max(cap, 0)
