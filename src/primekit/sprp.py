"""Strong-probable-prime rounds with configurable base schedules.

A round follows the squaring-chain form: compute b = a^t mod n for
n - 1 = 2^s * t with t odd, square s times, and reject n on any nontrivial
square root of 1 or when the chain does not end at 1. That is equivalent to
the usual strong-probable-prime condition.
"""

from dataclasses import dataclass

from .modarith import isqrt, mulmod, powmod, require_u64
from .verdicts import Stage, TraceStep, Verdict


@dataclass(frozen=True)
class Decomposition:
    """n - 1 = 2^s * t with t odd."""

    s: int
    t: int


def decompose(n: int) -> Decomposition:
    """Split odd n >= 3 as n - 1 = 2^s * t, t odd."""
    if n < 3 or n % 2 == 0:
        raise ValueError("n must be odd and >= 3")
    t = n - 1
    s = (t & -t).bit_length() - 1
    return Decomposition(s, t >> s)


def sprp_round(n: int, a: int, d: Decomposition | None = None) -> bool:
    """One strong-probable-prime round to base a, 1 <= a < n, odd n >= 3."""
    if d is None:
        d = decompose(n)
    b = powmod(a, d.t, n)
    for _ in range(d.s):
        k = mulmod(b, b, n)
        if k == 1 and b != 1 and b != n - 1:
            return False
        b = k
    return b == 1


@dataclass(frozen=True)
class Literal:
    """A fixed base."""

    value: int


@dataclass(frozen=True)
class SqrtDerived:
    """Base isqrt(n // divisor) + offset, resolved against n at test time."""

    divisor: int
    offset: int


BaseSpec = Literal | SqrtDerived


def resolve_base(spec: BaseSpec, n: int) -> int:
    if isinstance(spec, Literal):
        return spec.value
    return isqrt(n // spec.divisor) + spec.offset


SEVEN_BASE_SCHEDULE: tuple[BaseSpec, ...] = (
    Literal(2),
    Literal(5),
    Literal(17),
    SqrtDerived(1, 0),
    SqrtDerived(1, 1),
    SqrtDerived(2, 0),
    SqrtDerived(2, 1),
)

MR_GE_SCHEDULE: tuple[BaseSpec, ...] = (
    Literal(2),
    SqrtDerived(1, -1),
    SqrtDerived(1, 1),
    SqrtDerived(2, -1),
    SqrtDerived(2, 1),
)

FIRST_ATTEMPT_SCHEDULE: tuple[BaseSpec, ...] = (
    Literal(2),
    SqrtDerived(1, 0),
    SqrtDerived(1, 1),
    SqrtDerived(2, 0),
    SqrtDerived(2, 1),
)

# Deterministic below 2^64 per prior literature on fixed Miller-Rabin base
# sets; external knowledge, independent of the tests under study here.
ORACLE_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def mr_with_schedule(
    n: int, schedule: tuple[BaseSpec, ...], trace: list[TraceStep] | None = None
) -> Verdict:
    """Run the schedule's rounds in order; composite on the first failure.

    Works for any integer width. Resolved bases are reduced mod n; a base
    that resolves to <= 0 or to a multiple of n is skipped (its round would
    be vacuous). A base that resolves to 1 legitimately passes.
    """
    if n < 2:
        return Verdict(False, Stage.even_or_unit())
    if n == 2:
        return Verdict(True, Stage.small_prime_screen(), 2)
    if n % 2 == 0:
        return Verdict(False, Stage.even_or_unit(), 2)
    d = decompose(n)
    last_stage = Stage.small_prime_screen()
    for spec in schedule:
        base = resolve_base(spec, n)
        if base <= 0 or base % n == 0:
            continue
        stage = Stage.mr_round(base)
        ok = sprp_round(n, base % n, d)
        if trace is not None:
            trace.append(TraceStep(stage, None, ok))
        if not ok:
            return Verdict(False, stage, base)
        last_stage = stage
    return Verdict(True, last_stage)


def seven_base_variant(n: int, trace: list[TraceStep] | None = None) -> Verdict:
    """Rounds with bases 2, 5, 17 and the four sqrt-derived bases
    isqrt(n), isqrt(n)+1, isqrt(n//2), isqrt(n//2)+1.

    Accurate for every 64-bit integer except documented false positives
    (33077785078626881 passes despite being composite).
    """
    require_u64(n)
    if n == 17:
        return Verdict(True, Stage.small_prime_screen(), 17)
    if n < 9:
        return _small_screen(n)
    if n % 2 == 0:
        return Verdict(False, Stage.even_or_unit(), 2)
    return mr_with_schedule(n, SEVEN_BASE_SCHEDULE, trace)


def reference_oracle64(n: int, trace: list[TraceStep] | None = None) -> Verdict:
    """Exact primality verdict for any n < 2^64, via the fixed twelve-prime
    base set. Used as trusted ground truth by the verification drivers."""
    require_u64(n)
    if n < 2:
        return Verdict(False, Stage.even_or_unit())
    for p in ORACLE_BASES:
        if n % p == 0:
            if n == p:
                return Verdict(True, Stage.small_prime_screen(), p)
            return Verdict(False, Stage.divisor_found(p), p)
    d = decompose(n)
    for a in ORACLE_BASES:
        stage = Stage.mr_round(a)
        ok = sprp_round(n, a, d)
        if trace is not None:
            trace.append(TraceStep(stage, None, ok))
        if not ok:
            return Verdict(False, stage, a)
    return Verdict(True, Stage.mr_round(ORACLE_BASES[-1]))


def _small_screen(n: int) -> Verdict:
    # n < 9 only
    if n in (2, 3, 5, 7):
        return Verdict(True, Stage.small_prime_screen(), n)
    if n < 2:
        return Verdict(False, Stage.even_or_unit())
    return Verdict(False, Stage.even_or_unit(), 2)
