import random

import pytest

from primekit import detprime64, harness, kernel
from primekit.bigrecipes import recipe256
from primekit.detprime64 import (
    SearchCapExceeded,
    gauss_euler,
    mr_ge,
    mr_ge_first_attempt,
)
from primekit.sprp import base2_refuted_by_small_factor
from primekit.verdicts import (
    DIVISOR_FOUND,
    EVEN_OR_UNIT,
    MOD8_EULER,
    MR_ROUND,
    RECIPROCITY,
    SMALL_PRIME_SCREEN,
    SQRT_BASE,
)


def test_ge_plumbing_screens():
    assert not gauss_euler(0).is_prime
    assert gauss_euler(0).stage.kind == EVEN_OR_UNIT
    assert not gauss_euler(1).is_prime
    assert gauss_euler(2).is_prime
    assert not gauss_euler(10**12).is_prime  # even
    assert gauss_euler(97).is_prime
    assert gauss_euler(97).stage.kind == SMALL_PRIME_SCREEN
    v = gauss_euler(91)
    assert not v.is_prime and v.stage.kind == SMALL_PRIME_SCREEN and v.witness == 7


@pytest.mark.parametrize(
    "n, kind, detail",
    [
        (341, MOD8_EULER, 2),
        (561, SQRT_BASE, 23),
        (1729, SQRT_BASE, 42),
        (172081, SQRT_BASE, 294),
        (46657, RECIPROCITY, ("8k+5", 5)),
        (6164578258027337, RECIPROCITY, ("8k+1", 17)),
        (33077785078626881, RECIPROCITY, ("8k+5", 13)),
        (17364052083370132981, RECIPROCITY, ("8k+5", 53)),
    ],
)
def test_ge_composite_stages(n, kind, detail):
    v = gauss_euler(n)
    assert not v.is_prime
    assert v.stage.kind == kind
    if kind == RECIPROCITY:
        form, p = detail
        assert str(v.stage.form) == form and v.stage.prime == p
    else:
        assert v.stage.base == detail


def test_ge_large_prime():
    v = gauss_euler(10**18 + 3)
    assert v.is_prime
    assert v.stage.kind == RECIPROCITY and str(v.stage.form) == "8k+1"


def test_mrge_small_screens():
    assert mr_ge(2).is_prime
    for n in (3, 5, 7):
        v = mr_ge(n)
        assert v.is_prime and v.stage.kind == SMALL_PRIME_SCREEN
    assert not mr_ge(1).is_prime
    assert not mr_ge(4).is_prime


def test_mrge_square_screen():
    v = mr_ge(9)
    assert not v.is_prime
    assert v.stage.kind == DIVISOR_FOUND and v.stage.prime == 3
    v = mr_ge(1093 * 1093)
    assert not v.is_prime and v.stage.prime == 1093


@pytest.mark.parametrize(
    "n, base",
    [
        (33077785078626881, 181872990),  # isqrt(n) - 1
        (17364052083370132981, 2946527793),  # isqrt(n // 2) - 1
    ],
)
def test_mrge_kills_the_big_composites(n, base):
    v = mr_ge(n)
    assert not v.is_prime
    assert v.stage.kind == MR_ROUND and v.stage.base == base


def test_mrge_large_prime():
    v = mr_ge(10**18 + 3)
    assert v.is_prime
    assert v.stage.kind == RECIPROCITY and str(v.stage.form) == "4k+3"


def test_first_attempt_documented_false_positive():
    n = 17364052083370132981
    assert n > 2**63  # exercises full-width arithmetic
    assert mr_ge_first_attempt(n).is_prime  # wrongly
    assert not mr_ge(n).is_prime


def test_first_attempt_ordinary_cases():
    v = mr_ge_first_attempt(341)
    assert not v.is_prime and v.stage.kind == MR_ROUND and v.stage.base == 2
    assert mr_ge_first_attempt(13).is_prime


def test_sieve_agreement_small(sieve_bytes):
    bm = sieve_bytes(10**5)
    for fn in (gauss_euler, mr_ge, mr_ge_first_attempt):
        assert fn(2).is_prime
        for n in range(3, 10**5, 2):
            assert fn(n).is_prime == (bm[n] == 1), (fn.__name__, n)


def test_untraced_ge_shortcut_matches_the_traced_verdict(sieve_bytes):
    # untraced gauss_euler settles the mod-8 check by a small factor when it
    # can; a traced run always computes it, so the two must agree
    bm = sieve_bytes(10**6)
    psp = [n for n in range(3, 10**6, 2) if bm[n] != 1 and pow(2, n - 1, n) == 1]
    assert len(psp) == 245
    assert sum(map(base2_refuted_by_small_factor, psp)) == 70
    rng = random.Random(11)
    multiples_of_3 = [3 * (2 * rng.randrange(2**60, 2**63 // 3) + 1)
                      for _ in range(2000)]
    for n in [*range(3, 10**5, 2), *psp, *multiples_of_3]:
        assert gauss_euler(n) == gauss_euler(n, trace=[]), n


def test_perfect_squares_rejected_quickly():
    for k in range(3, 300):
        assert not gauss_euler(k * k).is_prime
        assert not mr_ge(k * k).is_prime


def test_trace_short_circuits_by_default():
    trace = []
    v = gauss_euler(341, trace=trace)
    assert not v.is_prime
    assert len(trace) == 1
    assert trace[0].stage.kind == MOD8_EULER and not trace[0].passed


def test_trace_shows_passed_stages_before_failure():
    trace = []
    v = gauss_euler(6164578258027337, trace=trace)
    assert not v.is_prime
    # mod-8 check, four sqrt bases, and the 8k+5 check all pass first
    assert [t.passed for t in trace] == [True] * 6 + [False]
    assert trace[5].stage.kind == RECIPROCITY and str(trace[5].stage.form) == "8k+5"
    assert trace[6].stage.kind == RECIPROCITY and str(trace[6].stage.form) == "8k+1"


def test_exhausted_search_is_an_error_not_a_verdict(monkeypatch, capsys):
    # a walk that may inspect no candidate exhausts on every n that reaches it
    monkeypatch.setattr(detprime64, "DEFAULT_SEARCH_CAP", 0)
    pure = kernel.load_backend("py")
    for test in (gauss_euler, mr_ge, mr_ge_first_attempt, recipe256,
                 pure.ge_is_prime, pure.mrge_is_prime, pure.first_attempt_is_prime):
        with pytest.raises(SearchCapExceeded, match="within 0 candidates"):
            test(101)
    assert harness.main(["test", "101"]) == 2
    assert capsys.readouterr().err.startswith("error: no 8k+5 prime")


def test_u64_range_enforced():
    for fn in (gauss_euler, mr_ge, mr_ge_first_attempt):
        with pytest.raises(OverflowError):
            fn(2**64)


def test_stage_descriptions_render():
    assert gauss_euler(341).stage.describe() == "mod8-euler(base=2)"
    assert gauss_euler(46657).stage.describe() == "reciprocity(8k+5,p=5)"
    assert mr_ge(9).stage.describe() == "divisor-found(3)"
