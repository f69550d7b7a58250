"""Strong-probable-prime rounds, the opening screen of every test, the
seven-base variant and the Baillie-PSW referee.

A round follows the squaring-chain form: compute b = a^t mod n for
n - 1 = 2^s * t with t odd, square s times, and reject n on any nontrivial
square root of 1 or when the chain does not end at 1. That is the usual
strong-probable-prime condition, and the chain may stop at n - 1 (a pass)
or 1 (a failure). It is written once per role, ``strong_rounds`` for the
tests and ``sprp_round`` for their referees, so that no one fault can pass
a composite in a test and in its referee.
"""

from collections.abc import Iterable
from dataclasses import dataclass
from itertools import combinations
from math import gcd, isqrt, lcm, prod

from .modarith import powmod, require_u64
from .residues import is_small_prime
from .verdicts import Stage, TraceStep, Verdict

_SMALL_PRIME_SCREEN = Stage.small_prime_screen()
_BASE2_ROUND = Stage.mr_round(2)
_BASE2_FAILURE = Verdict(False, _BASE2_ROUND, 2)
# the two trace steps of a base-2 round, shared by every traced call
_BASE2_PASSED = TraceStep(_BASE2_ROUND, None, True)
_BASE2_FAILED = TraceStep(_BASE2_ROUND, None, False)
# the screen's outcomes that do not depend on n
_UNIT = Verdict(False, Stage.even_or_unit())
_TWO = Verdict(True, _SMALL_PRIME_SCREEN, 2)
_EVEN = Verdict(False, Stage.even_or_unit(), 2)


def _prime_product(lo: int, hi: int) -> tuple[int, int]:
    # the product of the primes lo <= p < hi and lcm(p - 1), a multiple of
    # the order of 2 modulo that product
    primes = [p for p in range(lo, hi) if is_small_prime(p)]
    return prod(primes), lcm(*(p - 1 for p in primes))


# The odd primes below 150 are tried on every n (189 bits, lcm 55 bits), those
# from 150 to 1024 from 2^30 on (1.2 kbits, lcm 349 bits), and those from 1024
# to 4096 only above 2^64 (4.4 kbits, lcm 1133 bits): each from where its gcd
# costs less than the pows it saves.
_SMALL_PRIME_PRODUCT, _SMALL_PRIME_LCM = _prime_product(3, 150)
_MID_PRIME_PRODUCT, _MID_PRIME_LCM = _prime_product(150, 1024)
_HIGH_PRIME_PRODUCT, _HIGH_PRIME_LCM = _prime_product(1024, 4096)
# below 2^30, n is one CPython digit, and a pow mod n is too cheap for the
# second gcd to pay for itself
_MID_PRIMES_FROM = 2**30


def _carmichael_table() -> dict[int, int]:
    # lambda(g) = lcm(p - 1 : p | g) for the commonest gcds: each screen prime
    # and each product of two or three primes below 150 (7,108 entries).
    # Reduced mod lambda(g), the exponent has at most 20 bits, against 55, 349
    # or 1133 mod L.
    primes = [p for p in range(3, 4096) if is_small_prime(p)]
    table = {p: p - 1 for p in primes}
    low = [p for p in primes if p < 150]
    pairs = {p * q: lcm(p - 1, q - 1) for p, q in combinations(low, 2)}
    table.update(pairs)
    for p, q, r in combinations(low, 3):
        table[p * q * r] = lcm(pairs[p * q], r - 1)
    return table


_CARMICHAEL = _carmichael_table()


# kept for the benchmark's tracer, which wraps it by name (perfbench/tracing.py)
@dataclass(frozen=True)
class Decomposition:
    """n - 1 = 2^s * t with t odd."""

    s: int
    t: int


# kept for the benchmark's tracer, which wraps it by name (perfbench/tracing.py)
def decompose(n: int) -> Decomposition:
    """Split odd n >= 3 as n - 1 = 2^s * t, t odd."""
    if n < 3 or n % 2 == 0:
        raise ValueError("n must be odd and >= 3")
    t = n - 1
    s = (t & -t).bit_length() - 1
    return Decomposition(s, t >> s)


def sprp_round(n: int, a: int) -> bool:
    """One strong-probable-prime round to base a, 1 <= a < n, odd n >= 3.

    The referees' round, written apart from ``strong_rounds``: ``bpsw``
    runs it to base 2, ``verification.random_base_sprp`` to random bases.
    """
    if n < 3 or n % 2 == 0:
        raise ValueError("n must be odd and >= 3")
    n1 = n - 1
    s = (n1 & -n1).bit_length() - 1
    b = powmod(a, n1 >> s, n)
    if b == 1 or b == n1:
        return True
    for _ in range(s - 1):
        b = b * b % n
        if b == n1:
            return True
        if b == 1:
            return False
    return False


def small_screen(n: int, prime_below: int, factor_below: int) -> Verdict | None:
    """The opening screen of every test; None sends n on to its stages.

    n < 2 and even n are settled here. An odd prime below ``prime_below``
    is proved prime, and an odd composite below ``factor_below`` is refuted
    by its smallest factor; any other n goes on.
    """
    if n < 2:
        return _UNIT
    if not n & 1:
        return _TWO if n == 2 else _EVEN
    if n < prime_below and is_small_prime(n):
        return Verdict(True, _SMALL_PRIME_SCREEN, n)
    if n < factor_below and not is_small_prime(n):
        return Verdict(False, _SMALL_PRIME_SCREEN, next(
            d for d in range(3, n, 2) if n % d == 0))
    return None


def base2_refuted_by_small_factor(n: int) -> bool:
    """True when the odd primes p < 150 dividing odd n >= 3 (from 2^30 on
    also the primes 150 <= p < 1024, and above 2^64 those up to 4096)
    prove that n fails the base-2 Euler-Jacobi check 2^((n-1)/2) = (2/n)
    (mod n), so every base-2 check must fail on n.

    That check is the mod-8 stage of gauss_euler, and a base-2 strong
    round passes only where it holds (Pomerance, Selfridge and Wagstaff
    1980). g = gcd(n, P) is the product of the primes of P that divide n.
    The order of 2 mod g divides lambda(g) = lcm(p - 1 : p | g), which
    divides L = lcm(p - 1 : p | P), so 2^((n-1)/2) is 2^(((n-1)/2) mod
    lambda(g)) (mod g). lambda(g) is read from a table when g is one prime
    or two or three primes below 150, and L stands in for it otherwise. A
    residue other than (2/n) there rules the congruence out mod n. The
    congruence holds mod n only if it holds mod each prime of n, so each
    product can be tried on its own.

    A square factor p^2 of n with p < 150, seen as gcd(n // g, g) > 1,
    settles it too. No such p is a Wieferich prime, so the order of 2 mod
    p^2 is p times its order mod p, and p cannot divide n - 1: even the
    Fermat check 2^(n-1) = 1 fails mod p^2. The rule stays off the other
    products; the last holds the Wieferich primes 1093 and 3511. False
    proves nothing: the check must run.
    """
    g = gcd(n, _SMALL_PRIME_PRODUCT)
    if g > 1 and (_euler_jacobi_fails_mod(n, g, _SMALL_PRIME_LCM)
                  or gcd(n // g, g) > 1):
        return True
    if n < _MID_PRIMES_FROM:
        return False
    g = gcd(n, _MID_PRIME_PRODUCT)
    if g > 1 and _euler_jacobi_fails_mod(n, g, _MID_PRIME_LCM):
        return True
    if n >> 64:
        g = gcd(n, _HIGH_PRIME_PRODUCT)
        return g > 1 and _euler_jacobi_fails_mod(n, g, _HIGH_PRIME_LCM)
    return False


def _euler_jacobi_fails_mod(n: int, g: int, order_multiple: int) -> bool:
    sign = 1 if n % 8 in (1, 7) else g - 1
    order_multiple = _CARMICHAEL.get(g, order_multiple)
    return pow(2, ((n - 1) >> 1) % order_multiple, g) != sign


def strong_rounds(
    n: int, bases: Iterable[int], trace: list[TraceStep] | None = None
) -> Verdict | None:
    """Rounds to each base in order, reduced mod n, for odd n >= 3.

    Returns the composite verdict of the first failing round, or None when
    every round passes. No base may be a multiple of n. A base-2 round that
    a small factor of n settles is failed without its pow.
    """
    if n < 3 or n % 2 == 0:
        raise ValueError("n must be odd and >= 3")
    n1 = n - 1
    s = 0  # n - 1 = 2^s * t, split when the first round needs its pow
    for base in bases:
        if base == 2 and base2_refuted_by_small_factor(n):
            ok = False
        else:
            if not s:
                s = (n1 & -n1).bit_length() - 1
                t = n1 >> s
            # the chain of sprp_round, written apart from the referees' copy
            b = powmod(base, t, n)
            ok = b == 1 or b == n1
            if not ok:
                for _ in range(s - 1):
                    b = b * b % n
                    if b == n1:
                        ok = True
                        break
                    if b == 1:
                        break
        if trace is not None:
            if base == 2:
                trace.append(_BASE2_PASSED if ok else _BASE2_FAILED)
            else:
                trace.append(TraceStep(Stage.mr_round(base), None, ok))
        if not ok:
            if base == 2:
                return _BASE2_FAILURE
            return Verdict(False, Stage.mr_round(base), base)
    return None


def seven_base_variant(n: int, *, trace: list[TraceStep] | None = None) -> Verdict:
    """Rounds with bases 2, 5, 17 and the four sqrt-derived bases
    isqrt(n), isqrt(n)+1, isqrt(n//2), isqrt(n//2)+1.

    Accurate for every 64-bit integer except documented false positives
    (33077785078626881 passes despite being composite).
    """
    n = require_u64(n)
    if n == 17:
        return Verdict(True, _SMALL_PRIME_SCREEN, 17)
    v = small_screen(n, 9, 9)
    if v is not None:
        return v
    # for odd n >= 9 but 17, no base is 0 or a multiple of n
    m = isqrt(n)
    h = isqrt(n >> 1)
    v = strong_rounds(n, (2, 5, 17, m, m + 1, h, h + 1), trace)
    # a prime's verdict names its last round
    return Verdict(True, Stage.mr_round(h + 1)) if v is None else v


# --- Baillie-PSW: the referee of the random and search sweeps ----------------

# every prime below 41, so that n < 41^2 with none of them as a factor is prime
_TRIAL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_TRIAL_DIVISORS = {p: Verdict(False, Stage.divisor_found(p), p) for p in _TRIAL_PRIMES}
_STRONG_LUCAS = Stage.strong_lucas()
_BPSW_PRIME = Verdict(True, _STRONG_LUCAS)
# no prime factor <= 37 and n < 41^2 proves n prime
_NO_SMALL_FACTOR = Verdict(True, _SMALL_PRIME_SCREEN)


def bpsw(n: int, *, trace: list[TraceStep] | None = None) -> Verdict:
    """Baillie-PSW verdict for 0 <= n < 2^64: trial division by the primes
    up to 37, one base-2 strong round, then a strong Lucas test with P = 1,
    Q = (1 - D)/4 and Selfridge's D, the first of 5, -7, 9, -11, ... with
    (D/n) = -1 (Baillie & Wagstaff 1980). It is reported exact below 2^64.

    Its base-2 round is ``sprp_round``, the referees' round: it runs none
    of the strong-round code (``strong_rounds``) of the tests it referees.
    It shares two pieces with them. One is the small-factor screen
    ``base2_refuted_by_small_factor``, which settles its base-2 round
    without the pow when a prime 41 <= p < 1024 divides n. Its prime or
    composite answers cannot depend on that screen: the screen refutes only
    an n with such a factor, and n >= 41^2 > 1023 is not that factor, so n
    is composite; a fault in the screen could change the stage that rejects
    n, never whether n is called prime. The other is ``powmod``, the pow of
    its base-2 round; the Lucas ladder does its own arithmetic. A square
    fails at ``divisor-found(isqrt(n))`` before the D search, which would
    never end on it; a composite that passes base 2 fails at
    ``strong-lucas`` with D as the witness.
    """
    n = require_u64(n)
    v = _trial_division(n)
    if v is not None:
        return v
    if n < 1681:
        return _NO_SMALL_FACTOR
    ok = not base2_refuted_by_small_factor(n) and sprp_round(n, 2)
    if trace is not None:
        trace.append(_BASE2_PASSED if ok else _BASE2_FAILED)
    if not ok:
        return _BASE2_FAILURE
    # the composite verdicts past the base-2 round are built per call: each
    # needs a base-2 strong pseudoprime, which is rare
    m = isqrt(n)
    if m * m == n:
        return _divisor(m, trace)
    d = 5
    while (j := _jacobi(d, n)) != -1:
        if j == 0:  # 1 < gcd(|D|, n) < n, as |D| stays far below n >= 41^2
            return _divisor(gcd(d, n), trace)
        d = -d - 2 if d > 0 else 2 - d
    ok = _strong_lucas(n, d)
    if trace is not None:
        trace.append(TraceStep(_STRONG_LUCAS, d, ok))
    return _BPSW_PRIME if ok else Verdict(False, _STRONG_LUCAS, d)


# kept for the benchmark's workloads, which take their expected outputs from
# it (perfbench/workloads.py); bpsw is exact below 2^64
reference_oracle64 = bpsw


def _trial_division(n: int) -> Verdict | None:
    # the verdict of n < 2 and of n with a prime factor <= 37; None otherwise
    if n < 2:
        return _UNIT
    for p in _TRIAL_PRIMES:
        if n % p == 0:
            if n == p:
                return Verdict(True, _SMALL_PRIME_SCREEN, p)
            return _TRIAL_DIVISORS[p]
    return None


def _divisor(p: int, trace: list | None) -> Verdict:
    stage = Stage.divisor_found(p)
    if trace is not None:
        trace.append(TraceStep(stage, p, False))
    return Verdict(False, stage, p)


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n >= 3, by binary reciprocity."""
    a %= n
    j = 1
    while a:
        while not a & 1:
            a >>= 1
            if n & 7 in (3, 5):
                j = -j
        a, n = n, a
        if a & 3 == 3 and n & 3 == 3:
            j = -j
        a %= n
    return j if n == 1 else 0


def _strong_lucas(n: int, d: int) -> bool:
    """The strong Lucas test of odd n with P = 1, Q = (1 - d)/4, (d/n) = -1.

    With n + 1 = 2^s * t, t odd, n passes when U_t = 0 or V_(t*2^r) = 0
    (mod n) for some 0 <= r < s. The ladder carries (V_k, V_(k+1), Q^k) up
    the bits of t: V_2k = V_k^2 - 2Q^k and V_(2k+1) = V_k V_(k+1) - Q^k.
    U_t comes from d U_t = 2 V_(t+1) - V_t, and d is a unit mod n.
    """
    q = (1 - d) >> 2  # small and signed: cheaper products than q mod n
    q2 = 2 * q
    n1 = n + 1
    s = (n1 & -n1).bit_length() - 1
    t = n1 >> s
    v, w, qk = 1, (1 - q2) % n, q % n  # V_1, V_2, Q^1
    for bit in bin(t)[3:]:
        if bit == "1":
            v = (v * w - qk) % n
            w = (w * w - qk * q2) % n
            qk = qk * qk * q % n
        else:
            w = (v * w - qk) % n
            v = (v * v - 2 * qk) % n
            qk = qk * qk % n
    if v == 0 or (2 * w - v) % n == 0:
        return True
    for _ in range(s - 1):
        v = (v * v - 2 * qk) % n
        if v == 0:
            return True
        qk = qk * qk % n
    return False
