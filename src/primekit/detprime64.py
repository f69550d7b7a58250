"""The two deterministic-up-to-2^64 tests plus the rejected first design.

gauss_euler: Euler's-criterion pipeline -- a mod-8 sign check on base 2,
four sqrt-derived bases that must give a residue of +-1, then two
quadratic-reciprocity checks with the smallest 8k+5 and 8k+1 primes p
having (n/p) = -1, each required to give residue n-1.

mr_ge: strong rounds with bases 2, isqrt(n)+-1, isqrt(n//2)+-1, then one
reciprocity check with the smallest 4k+3 prime, whose required residue
depends on n mod 4.

mr_ge_first_attempt: the earlier design (bases 2, isqrt(n), isqrt(n)+1,
isqrt(n//2), isqrt(n//2)+1 and a 4k+1 reciprocity check), kept because it
has a documented 20-digit false positive worth reproducing.

Both shipped tests are exact for everything we can check at desk scale;
full 64-bit exactness is a conjecture the verification module probes, not
a proven fact.
"""

from math import isqrt

from .modarith import powmod, require_u64
from .residues import (
    DEFAULT_SEARCH_CAP,
    DIVISOR,
    FORM_4K1,
    FORM_4K3,
    FORM_8K1,
    FORM_8K5,
    FOUND,
    SELF_PRIME,
    Form,
    _search,
)
from .sprp import base2_refuted_by_small_factor, small_screen, strong_rounds
from .verdicts import Stage, TraceStep, Verdict

_SMALL_PRIME_SCREEN = Stage.small_prime_screen()
_MOD8_EULER = Stage.mod8_euler()
_MOD8_FAILURE = Verdict(False, _MOD8_EULER, 2)


class SearchCapExceeded(RuntimeError):
    """The nonresidue search ran out of candidates: a hard failure, never a
    verdict. Every walk stops after ``DEFAULT_SEARCH_CAP`` (1,000) candidates;
    on 200,000 seeded random 64-bit primes the longest walks took 37 (8k+5),
    53 (8k+1) and 42 (4k+3)."""


def gauss_euler(n: int, *, trace: list[TraceStep] | None = None) -> Verdict:
    """Gauss-Euler primality verdict for 0 <= n < 2^64.

    Candidates below 100 go to trial division: the reciprocity search
    misbehaves when the searched prime can reach n itself, so tiny inputs
    are screened rather than special-cased downstream.
    """
    n = require_u64(n)
    v = small_screen(n, 100, 100)
    if v is not None:
        return v
    e = (n - 1) >> 1

    # a traced run records the mod-8 residue, so it always computes it
    if trace is None and base2_refuted_by_small_factor(n):
        return _MOD8_FAILURE
    r = powmod(2, e, n)
    # (2/n) = +1 iff n = 8k+1 or 8k+7
    ok = r == (1 if (n & 7) in (1, 7) else n - 1)
    if trace is not None:
        trace.append(TraceStep(_MOD8_EULER, r, ok))
    if not ok:
        return _MOD8_FAILURE

    m = isqrt(n)
    h = isqrt(n >> 1)
    n1 = n - 1
    for a in (m, m + 1, h, h + 1):
        r = powmod(a, e, n)
        ok = r == 1 or r == n1
        if trace is not None:
            trace.append(TraceStep(Stage.sqrt_base(a), r, ok))
        if not ok:
            return Verdict(False, Stage.sqrt_base(a), a)

    return reciprocity_checks(n, (FORM_8K5, FORM_8K1), trace)


def mr_ge(n: int, *, trace: list[TraceStep] | None = None) -> Verdict:
    """MR-GE primality verdict for 0 <= n < 2^64.

    Perfect squares are rejected up front: none of the five round bases is
    isqrt(n) itself, so squares are not structurally excluded, and the
    4k+3 search cannot terminate with -1 on a square.
    """
    n = require_u64(n)
    v = small_screen(n, 9, 9)
    if v is not None:
        return v

    m = isqrt(n)
    if m * m == n:
        stage = Stage.divisor_found(m)
        if trace is not None:
            trace.append(TraceStep(stage, m, False))
        return Verdict(False, stage, m)
    h = isqrt(n >> 1)
    v = strong_rounds(n, (2, m - 1, m + 1, h - 1, h + 1), trace)
    if v is not None:
        return v
    return reciprocity_checks(n, (FORM_4K3,), trace)


def mr_ge_first_attempt(n: int, *, trace: list[TraceStep] | None = None) -> Verdict:
    """The rejected first MR-GE design; 17364052083370132981 (composite)
    passes it. Retained so that falsification stays reproducible."""
    n = require_u64(n)
    v = small_screen(n, 9, 9)
    if v is not None:
        return v

    m = isqrt(n)
    h = isqrt(n >> 1)
    v = strong_rounds(n, (2, m, m + 1, h, h + 1), trace)
    if v is not None:
        return v
    return reciprocity_checks(n, (FORM_4K1,), trace)


def reciprocity_checks(
    n: int, forms: tuple[Form, ...], trace: list[TraceStep] | None = None
) -> Verdict:
    """The form searches and their Euler checks; the final verdict.

    For each form (at least one), the smallest prime p with (n/p) = -1
    must give p^((n-1)/2) = (p/n) mod n. Composite at the first failing
    check or at a divisor the search meets; prime when every check passes,
    or when the search reaches n itself and thereby proves it prime. Each
    search walks at most ``DEFAULT_SEARCH_CAP`` candidates, read at call time.
    """
    e = (n - 1) >> 1
    for form in forms:
        status, p, _ = _search(n, form, True, DEFAULT_SEARCH_CAP)
        if status == FOUND:
            r = powmod(p, e, n)
            # by reciprocity, (p/n) = +1 only when p and n are both 4k+3
            ok = r == (1 if p & 3 == 3 and n & 3 == 3 else n - 1)
            # keyed on the form's fields: a Form's generated __hash__ runs in Python
            key = (form.modulus, form.residue, form.first_candidate, p, ok)
            v = _RECIPROCITY_VERDICTS.get(key)
            if v is None:
                v = Verdict(ok, Stage.reciprocity(form, p), p)
                _RECIPROCITY_VERDICTS[key] = v
            if trace is not None:
                trace.append(TraceStep(v.stage, r, ok))
            if not ok:
                return v
        elif status == SELF_PRIME:
            if trace is not None:
                trace.append(TraceStep(_SMALL_PRIME_SCREEN, p, True))
            return Verdict(True, _SMALL_PRIME_SCREEN, p)
        elif status == DIVISOR:
            stage = Stage.divisor_found(p)
            if trace is not None:
                trace.append(TraceStep(stage, p, False))
            return Verdict(False, stage, p)
        else:
            raise SearchCapExceeded(
                f"no {form} prime with (n/p) = -1 within {DEFAULT_SEARCH_CAP} "
                f"candidates for n={n}"
            )
    return v


# reciprocity verdicts depend on the form and p only; p is a small prime (the
# first nonresidue in its progression), so the table stays small
_RECIPROCITY_VERDICTS: dict[tuple[int, int, int, int, bool], Verdict] = {}
