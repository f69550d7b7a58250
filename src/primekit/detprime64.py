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

from . import residues
from .modarith import isqrt, powmod, require_u64
from .residues import (
    ABORT,
    DEFAULT_SEARCH_CAP,
    DIVISOR,
    EXHAUSTED,
    FORM_4K1,
    FORM_4K3,
    FORM_8K1,
    FORM_8K5,
    SELF_PRIME,
    Form,
    legendre_two,
    required_euler_residue,
)
from .sprp import decompose, sprp_round
from .verdicts import Stage, TraceStep, Verdict


class SearchCapExceeded(RuntimeError):
    """The nonresidue search ran out of candidates: a hard failure, never a
    verdict (legitimate inputs find a prime within a handful of tries)."""


class _StepLog:
    """Collects trace steps and the first failure.

    With keep_going the caller evaluates later stages after a failure (for
    diagnostics); the verdict stays pinned to the first failing stage.
    """

    def __init__(self, trace: list[TraceStep] | None, keep_going: bool):
        self.trace = trace
        self.keep_going = keep_going
        self.failure: Verdict | None = None
        self.final_stage: Stage = Stage.small_prime_screen()
        self.final_witness: int | None = None

    def step(self, stage: Stage, value, ok: bool, witness: int | None = None) -> bool:
        """Record one stage; returns False when evaluation should stop."""
        if self.trace is not None:
            self.trace.append(TraceStep(stage, value, ok))
        if ok:
            self.final_stage = stage
            self.final_witness = witness
        elif self.failure is None:
            self.failure = Verdict(False, stage, witness)
        return ok or self.keep_going

    def finish(self) -> Verdict:
        return self.failure or Verdict(True, self.final_stage, self.final_witness)


def euler_criterion_check(n: int, a: int) -> tuple[int, int]:
    """Classify a^((n-1)/2) mod n for odd n and 0 < a < n.

    Returns (sign, residue): sign +1 for residue 1, -1 for residue n-1, and
    0 for anything else. A prime n gives +-1 for every base coprime to it.
    """
    r = powmod(a, (n - 1) >> 1, n)
    if r == 1:
        return 1, r
    if r == n - 1:
        return -1, r
    return 0, r


def gauss_euler(
    n: int,
    cap: int = DEFAULT_SEARCH_CAP,
    divisor_policy: str = ABORT,
    trace: list[TraceStep] | None = None,
    keep_going: bool = False,
) -> Verdict:
    """Gauss-Euler primality verdict for 0 <= n < 2^64.

    Candidates below 100 go to trial division: the reciprocity search
    misbehaves when the searched prime can reach n itself, so tiny inputs
    are screened rather than special-cased downstream.
    """
    n = require_u64(n)
    v = _screen(n, small_limit=100)
    if v is not None:
        return v
    log = _StepLog(trace, keep_going)
    e = (n - 1) >> 1

    want = 1 if legendre_two(n) == 1 else n - 1
    r = powmod(2, e, n)
    if not log.step(Stage.mod8_euler(), r, r == want, witness=2):
        return log.finish()

    m = isqrt(n)
    h = isqrt(n >> 1)
    for a in (m, m + 1, h, h + 1):
        sign, r = euler_criterion_check(n, a)
        if not log.step(Stage.sqrt_base(a), r, sign != 0, witness=a):
            return log.finish()

    short = _reciprocity_stages(n, (FORM_8K5, FORM_8K1), cap, divisor_policy, log)
    if short is not None:
        return short
    return log.finish()


def mr_ge(
    n: int,
    cap: int = DEFAULT_SEARCH_CAP,
    divisor_policy: str = ABORT,
    trace: list[TraceStep] | None = None,
    keep_going: bool = False,
) -> Verdict:
    """MR-GE primality verdict for 0 <= n < 2^64.

    Perfect squares are rejected up front: none of the five round bases is
    isqrt(n) itself, so squares are not structurally excluded, and the
    4k+3 search cannot terminate with -1 on a square.
    """
    n = require_u64(n)
    v = _screen(n, small_limit=9)
    if v is not None:
        return v
    log = _StepLog(trace, keep_going)

    m = isqrt(n)
    if m * m == n:
        if not log.step(Stage.divisor_found(m), m, False, witness=m):
            return log.finish()
    h = isqrt(n >> 1)
    d = decompose(n)
    for a in (2, m - 1, m + 1, h - 1, h + 1):
        ok = sprp_round(n, a, d)
        if not log.step(Stage.mr_round(a), None, ok, witness=a):
            return log.finish()

    short = _reciprocity_stages(n, (FORM_4K3,), cap, divisor_policy, log)
    if short is not None:
        return short
    return log.finish()


def mr_ge_first_attempt(
    n: int,
    cap: int = DEFAULT_SEARCH_CAP,
    divisor_policy: str = ABORT,
    trace: list[TraceStep] | None = None,
    keep_going: bool = False,
) -> Verdict:
    """The rejected first MR-GE design; 17364052083370132981 (composite)
    passes it. Retained so that falsification stays reproducible."""
    n = require_u64(n)
    v = _screen(n, small_limit=9)
    if v is not None:
        return v
    log = _StepLog(trace, keep_going)

    m = isqrt(n)
    h = isqrt(n >> 1)
    d = decompose(n)
    for a in (2, m, m + 1, h, h + 1):
        ok = sprp_round(n, a, d)
        if not log.step(Stage.mr_round(a), None, ok, witness=a):
            return log.finish()

    short = _reciprocity_stages(n, (FORM_4K1,), cap, divisor_policy, log)
    if short is not None:
        return short
    return log.finish()


def _reciprocity_stages(
    n: int,
    forms: tuple[Form, ...],
    cap: int,
    divisor_policy: str,
    log: _StepLog,
) -> Verdict | None:
    """Run the form searches and their Euler checks through the log.

    Returns a verdict only when evaluation must end early (short-circuited
    failure, or a search that reached n itself and thereby proved it
    prime); otherwise returns None and the caller finishes the log.
    """
    e = (n - 1) >> 1
    for form in forms:
        res = residues.smallest_nonresidue_prime(n, form, divisor_policy, cap)
        if res.status == EXHAUSTED:
            if log.failure is not None:
                # already composite (e.g. a square under keep_going); the
                # stalled search is expected there, not a hard failure
                continue
            raise SearchCapExceeded(
                f"no {form} prime with (n/p) = -1 within {cap} candidates for n={n}"
            )
        if res.status == SELF_PRIME:
            # the trial-division walk reached n: n is prime
            log.step(Stage.small_prime_screen(), res.prime, True, witness=res.prime)
            return log.failure or Verdict(True, Stage.small_prime_screen(), res.prime)
        if res.status == DIVISOR:
            if not log.step(Stage.divisor_found(res.prime), res.prime, False, witness=res.prime):
                return log.finish()
            continue  # keep_going: no reciprocity prime to check for this form
        p = res.prime
        r = powmod(p, e, n)
        need = required_euler_residue(n, p)
        if not log.step(Stage.reciprocity(form, p), r, r == need, witness=p):
            return log.finish()
    return None


def _screen(n: int, small_limit: int) -> Verdict | None:
    """Shared plumbing screens; None means n proceeds to the main stages."""
    if n < 2:
        return Verdict(False, Stage.even_or_unit())
    if n == 2:
        return Verdict(True, Stage.small_prime_screen(), 2)
    if n % 2 == 0:
        return Verdict(False, Stage.even_or_unit(), 2)
    if n < small_limit:
        if residues.is_small_prime(n):
            return Verdict(True, Stage.small_prime_screen(), n)
        return Verdict(False, Stage.small_prime_screen(), _smallest_odd_factor(n))
    return None


def _smallest_odd_factor(n: int) -> int:
    d = 3
    while d * d <= n:
        if n % d == 0:
            return d
        d += 2
    return n
