import math
import random
import tracemalloc

import pytest

from primekit.detprime64 import reciprocity_checks
from primekit.residues import (
    ABORT,
    DIVISOR,
    EXHAUSTED,
    FORM_4K1,
    FORM_4K3,
    FORM_8K1,
    FORM_8K3,
    FORM_8K5,
    FORM_8K7,
    FOUND,
    SELF_PRIME,
    SKIP,
    Form,
    is_small_prime,
    legendre,
    prime_flags,
    smallest_nonresidue_prime,
)


def test_is_small_prime_examples():
    assert is_small_prime(2)
    assert not is_small_prime(1)
    assert not is_small_prime(9)
    assert is_small_prime(29)
    assert not is_small_prime(91)  # 7 * 13


def test_is_small_prime_matches_sieve(sieve_bytes):
    bm = sieve_bytes(10**4)
    for n in range(10**4 + 1):
        assert is_small_prime(n) == (bm[n] == 1)


def _trial_division_prime(p):
    return p >= 2 and all(p % d for d in range(2, math.isqrt(p) + 1))


def test_is_small_prime_matches_trial_division_across_the_table_edge():
    # the sieve table answers below 8,192, trial division above it
    for p in range(-5, 20001):
        assert is_small_prime(p) == _trial_division_prime(p), p


def _reference_flags(limit):
    # the sieve that struck every multiple of every prime, even ones included
    flags = bytearray([1]) * (limit + 1)
    flags[:2] = bytes(min(2, limit + 1))
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    return flags


def test_prime_flags_match_the_sieve_of_every_multiple(sieve_bytes):
    for limit in range(2001):
        assert prime_flags(limit) == _reference_flags(limit), limit
    # segments: every window up to 300, and seeded windows below 10^6
    for limit in range(301):
        reference = _reference_flags(limit)
        for start in range(limit + 1):
            assert prime_flags(limit, start) == reference[start:], (start, limit)
    reference = _reference_flags(10**6 - 1)
    rng = random.Random(20)
    for _ in range(2000):
        start, limit = sorted(rng.randrange(10**6) for _ in range(2))
        assert prime_flags(limit, start) == reference[start : limit + 1], (start, limit)
    for start, limit in ((-1, 5), (6, 5)):
        with pytest.raises(ValueError, match="need 0 <= start <= limit"):
            prime_flags(limit, start)
    assert sieve_bytes(10**7).count(1) == 664579


def test_prime_flags_peak_stays_near_the_table():
    # the table from 0, and a segment far from 0
    for start, limit in ((0, 3 * 10**6), (10**9, 10**9 + 10**6 - 1)):
        tracemalloc.start()
        try:
            prime_flags(limit, start)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * (limit - start + 1), start


def test_form_rendering_and_candidates():
    assert str(FORM_8K5) == "8k+5"
    assert str(FORM_4K3) == "4k+3"
    assert FORM_4K1.first_candidate == 5
    assert FORM_4K3.first_candidate == 3
    assert FORM_8K1.first_candidate == 17
    assert FORM_8K5.first_candidate == 5


def test_form_validation():
    with pytest.raises(ValueError):
        Form(6, 1, 7)  # modulus not 4 or 8
    with pytest.raises(ValueError):
        Form(8, 2, 2)  # even residue
    with pytest.raises(ValueError):
        Form(8, 5, 7)  # 7 not congruent 5 mod 8
    with pytest.raises(ValueError):
        Form(8, 1, 33)  # 33 = 3 * 11 not prime


def test_legendre_known_values():
    assert legendre(1729, 5) == 1
    assert legendre(1729, 13) == 0
    assert legendre(1729, 17) == -1
    assert legendre(46657, 5) == -1
    assert legendre(6164578258027337, 17) == -1
    assert legendre(6164578258027337, 5) == -1


def test_legendre_rejects_even_modulus():
    with pytest.raises(ValueError):
        legendre(10, 2)


def test_legendre_against_explicit_residue_sets(sieve_bytes):
    # quick version; the full sweep over p < 10^4 runs in the acceptance suite
    bm = sieve_bytes(300)
    for p in range(3, 300, 2):
        if bm[p] != 1:
            continue
        squares = {x * x % p for x in range(1, p)}
        assert len(squares) == (p - 1) // 2
        for a in range(1, p):
            want = 1 if a in squares else -1
            assert legendre(a, p) == want


def test_reciprocity_product_small(sieve_bytes):
    bm = sieve_bytes(100)
    primes = [p for p in range(3, 100, 2) if bm[p] == 1]
    for p in primes:
        for q in primes:
            if p == q:
                continue
            sign = (-1) ** (((p - 1) // 2) * ((q - 1) // 2))
            assert legendre(p, q) * legendre(q, p) == sign


def test_search_walk_1729():
    # candidates 5 (+1), 13 (0, passed over), 17 (-1)
    res = smallest_nonresidue_prime(1729, FORM_4K1, SKIP)
    assert res.status == FOUND and res.prime == 17


def test_search_known_hits():
    assert smallest_nonresidue_prime(46657, FORM_8K5, SKIP).prime == 5
    assert smallest_nonresidue_prime(6164578258027337, FORM_8K1, SKIP).prime == 17


def test_search_square_exhausts():
    for form in (FORM_4K1, FORM_4K3, FORM_8K5, FORM_8K1):
        res = smallest_nonresidue_prime(25, form, SKIP, cap=50)
        assert res.status == EXHAUSTED
        assert res.inspected == 50


def test_search_abort_reports_divisor():
    res = smallest_nonresidue_prime(1729, FORM_4K1, ABORT)
    assert res.status == DIVISOR and res.prime == 13


def test_search_abort_self_prime():
    res = smallest_nonresidue_prime(5, FORM_8K5, ABORT)
    assert res.status == SELF_PRIME and res.prime == 5


def test_search_skip_walks_past_n():
    res = smallest_nonresidue_prime(5, FORM_4K1, SKIP)
    assert res.status == FOUND and res.prime == 13


def test_search_rejects_unknown_policy():
    with pytest.raises(ValueError):
        smallest_nonresidue_prime(35, FORM_4K1, "maybe")


def test_abort_found_never_divides(sieve_bytes):
    # an abort search must never report "found" for a prime dividing n
    bm = sieve_bytes(3000)
    for n in range(9, 3000, 2):
        if bm[n] == 1 or is_small_prime(n):
            continue
        for form in (FORM_4K1, FORM_4K3, FORM_8K5, FORM_8K1):
            res = smallest_nonresidue_prime(n, form, ABORT, cap=200)
            if res.status == FOUND:
                assert n % res.prime != 0


def test_required_euler_residue_matches_actual_primes(sieve_bytes):
    # for genuine primes n with (n/p) = -1, reciprocity fixes the half-power
    # p^((n-1)/2) mod n: 1 when p and n are both 4k+3, else n-1
    bm = sieve_bytes(2000)
    small = [p for p in range(3, 60, 2) if bm[p] == 1]
    for n in range(9, 2000, 2):
        if bm[n] != 1:
            continue
        for p in small:
            if p != n and legendre(n, p) == -1:
                required = 1 if p % 4 == 3 and n % 4 == 3 else n - 1
                assert pow(p, (n - 1) // 2, n) == required


_trial_prime_cached = {}


def _reference_search(n, form, policy, cap):
    # the candidate-by-candidate walk with trial division that the prime
    # table replaced, kept as the reference for status, prime and inspected
    candidate = form.first_candidate
    inspected = 0
    while inspected < cap:
        inspected += 1
        prime = _trial_prime_cached.get(candidate)
        if prime is None:
            prime = _trial_prime_cached[candidate] = _trial_division_prime(candidate)
        if prime:
            symbol = pow(n % candidate, candidate >> 1, candidate)
            if symbol == candidate - 1:
                return FOUND, candidate, inspected
            if symbol == 0 and policy == ABORT:
                return SELF_PRIME if candidate == n else DIVISOR, candidate, inspected
        candidate += form.modulus
    return EXHAUSTED, None, inspected


SEARCH_FORMS = (FORM_4K1, FORM_4K3, FORM_8K1, FORM_8K3, FORM_8K5, FORM_8K7,
                Form(8, 5, 13))  # the last differs from FORM_8K5 only in its start
# past the table: 1024 from 8k+1 and Form(8, 5, 13), 1100 from every 8k form,
# 2050 from the 4k forms too
SEARCH_CAPS = (-1, 0, 1, 2, 50, 1000, 1024, 1100, 2050)


def _search_inputs():
    rng = random.Random(8)
    yield from range(1, 3000, 2)
    yield from (rng.randrange(1 << 63, 1 << 64) | 1 for _ in range(3000))
    yield from (k * k for k in range(1, 200, 2))  # exhaust every cap
    yield from ((rng.randrange(1 << 31, 1 << 32) | 1) ** 2 for _ in range(20))
    # every table prime, so each form meets n itself (self-prime)
    table_primes = [p for p in range(3, 8192, 2) if _trial_division_prime(p)]
    yield from table_primes
    # residues of every table prime, so the walk goes on past the table
    yield from (2 * j * math.prod(table_primes) + 1 for j in range(1, 11))


def test_table_search_matches_the_candidate_walk():
    searches = 0
    for n in _search_inputs():
        for form in SEARCH_FORMS:
            for policy in (SKIP, ABORT):
                for cap in SEARCH_CAPS:
                    res = smallest_nonresidue_prime(n, form, policy, cap)
                    want = _reference_search(n, form, policy, cap)
                    assert (res.status, res.prime, res.inspected) == want, (
                        n, form, policy, cap)
                    searches += 1
    assert searches > 600_000


def test_reciprocity_verdict_carries_its_own_form():
    # 1000121 is prime, a residue mod 5 and a nonresidue mod 13, so 8k+5
    # searches from 5 and from 13 both stop at p = 13; each verdict must
    # name the form it was asked for, not one cached for the other
    n = 1000121
    assert _trial_division_prime(n)
    late_8k5 = Form(8, 5, 13)
    for form in (FORM_8K5, late_8k5, FORM_8K5):
        v = reciprocity_checks(n, (form,))
        assert v.is_prime and v.witness == 13
        assert v.stage.form == form and v.stage.form.first_candidate == form.first_candidate
