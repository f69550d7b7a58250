import random
from itertools import combinations
from math import gcd, lcm, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primekit import bigrecipes, sprp
from primekit.modarith import U64_MAX
from primekit.residues import is_small_prime
from primekit.sprp import (
    base2_refuted_by_small_factor,
    bpsw,
    decompose,
    seven_base_variant,
    small_screen,
    sprp_round,
    strong_rounds,
)
from primekit.verdicts import (
    MR_ROUND,
    SMALL_PRIME_SCREEN,
    STRONG_LUCAS,
    Stage,
    TraceStep,
    Verdict,
)


def test_decompose_examples():
    assert (decompose(9).s, decompose(9).t) == (3, 1)
    assert (decompose(561).s, decompose(561).t) == (4, 35)
    assert (decompose(341).s, decompose(341).t) == (2, 85)


def test_decompose_rejects_bad_input():
    for n in (0, 1, 2, 4, 100):
        with pytest.raises(ValueError):
            decompose(n)
        # strong_rounds decomposes lazily, so it checks n before any round
        with pytest.raises(ValueError):
            strong_rounds(n, (2,))
        with pytest.raises(ValueError):
            sprp_round(n, 2)


def test_decompose_recompose_random():
    rng = random.Random(7)
    for _ in range(10**6):
        n = 2 * rng.randrange(1, 1 << 63) + 1
        d = decompose(n)
        assert d.t % 2 == 1
        assert (d.t << d.s) + 1 == n


def test_sprp_round_known_cases():
    assert sprp_round(2047, 2)  # 23 * 89, the classic base-2 strong liar
    assert not sprp_round(341, 2)
    assert not sprp_round(561, 2)


def _euler_jacobi_holds(n):
    # (2/n) = +1 iff n = 8k+1 or 8k+7
    return pow(2, (n - 1) // 2, n) == (1 if n % 8 in (1, 7) else n - 1)


def test_small_factor_refutation_is_exact_to_1e6():
    # True is a proof: no odd n it flags passes the base-2 Euler-Jacobi
    # check or the base-2 strong round
    flagged = 0
    for n in range(3, 10**6 + 1, 2):
        if base2_refuted_by_small_factor(n):
            assert not _euler_jacobi_holds(n), n
            assert not sprp_round(n, 2), n
            flagged += 1
    # the primes 3 <= p < 150 settle 68.8% of these odd n: 65.5% by the
    # Euler-Jacobi residue mod g, the rest by a square factor
    assert flagged == 343888


SMALL_ODD_PRIMES = tuple(p for p in range(3, 150) if is_small_prime(p))
MID_PRIMES = tuple(p for p in range(150, 1024) if is_small_prime(p))
HIGH_PRIMES = tuple(p for p in range(1024, 4096) if is_small_prime(p))
SCREEN_PRIMES = SMALL_ODD_PRIMES + MID_PRIMES + HIGH_PRIMES


def _refuted_by_definition(n):
    # the Euler-Jacobi congruence, unreduced, mod g: the product of the
    # primes 3 <= p < 150 dividing n, from n >= 2^30 on of the primes
    # 150 <= p < 1024 as well, and from n >= 2^64 on of the primes
    # 1024 <= p < 4096 too; or p^2 dividing n for one of the primes below 150
    primes = (SMALL_ODD_PRIMES + (MID_PRIMES if n >= 2**30 else ())
              + (HIGH_PRIMES if n >= 2**64 else ()))
    g = prod(p for p in primes if n % p == 0)
    sign = 1 if n % 8 in (1, 7) else g - 1
    squared = any(n % (p * p) == 0 for p in SMALL_ODD_PRIMES)
    return squared or (g > 1 and pow(2, (n - 1) // 2, g) != sign)


def test_small_factor_refutation_is_exact_across_2_30():
    # the primes 150..1023 join the screen at 2^30: on either side of it the
    # screen is its definition, and True is still a proof
    flagged = {False: 0, True: 0}
    for n in range(2**30 - 10**5 + 1, 2**30 + 10**5, 2):
        refuted = base2_refuted_by_small_factor(n)
        assert refuted == _refuted_by_definition(n), n
        if refuted:
            assert not _euler_jacobi_holds(n), n
            assert not sprp_round(n, 2), n
            flagged[n >= 2**30] += 1
    # 68.6% of the odd n below 2^30, 76.8% above it (68.6% from the primes
    # below 150 alone)
    assert flagged == {False: 34315, True: 38413}


def test_a_square_factor_below_150_fails_base_2():
    # no prime below 150 is a Wieferich prime, so p^2 | n rules out
    # 2^(n-1) = 1 mod p^2; 1093 and 3511 of the third product are
    wieferich = [p for p in SCREEN_PRIMES if pow(2, p - 1, p * p) == 1]
    assert wieferich == [1093, 3511]
    rng = random.Random(2)
    for p in SMALL_ODD_PRIMES:
        for _ in range(20):
            n = p * p * (2 * rng.getrandbits(60) + 1)
            assert base2_refuted_by_small_factor(n), n
            assert pow(2, n - 1, n) != 1, n


@pytest.mark.parametrize("p", (1093, 3511))
def test_the_square_rule_stays_off_the_wieferich_primes(p):
    # their squares pass base 2, and so does n = p^2 * c mod p^2 when
    # n = 1 mod 8(p - 1): the screen must leave such n to the residue mod g
    assert sprp_round(p * p, 2) and not base2_refuted_by_small_factor(p * p)
    m = 8 * (p - 1)
    c0 = pow(p * p, -1, m)
    rng = random.Random(p)
    outcomes = set()
    for _ in range(200):
        n = p * p * (c0 + m * rng.getrandbits(100))
        assert n % m == 1 and n >= 2**64
        refuted = base2_refuted_by_small_factor(n)
        assert refuted == _refuted_by_definition(n), n
        outcomes.add(refuted)
    assert outcomes == {False, True}


@pytest.mark.parametrize("bits", (64, 256, 2048))
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_small_factor_refutation_is_exact_on_wide_draws(bits, data):
    n = data.draw(st.integers(2 ** (bits - 1), 2**bits - 1)) | 1
    if data.draw(st.booleans()):
        # for n = p(1 + 4j(p - 1)), 2^((n-1)/2) = (2/p) = (2/n) mod p, so p
        # alone proves nothing
        p = data.draw(st.sampled_from(SCREEN_PRIMES))
        m = 4 * (p - 1)
        n = p * (1 + n // p // m * m)
    refuted = base2_refuted_by_small_factor(n)
    # above 2^55 the exponent is reduced mod L, so this checks L and the
    # 2^64 gate of the third product
    assert refuted == _refuted_by_definition(n), n
    if refuted:
        assert not _euler_jacobi_holds(n), n


def test_carmichael_table_is_exact():
    # lambda(g) for each screen prime and each product of two or three primes
    # below 150; any other gcd falls back to its product's L
    table = sprp._CARMICHAEL
    low = SMALL_ODD_PRIMES
    expected = {p: p - 1 for p in SCREEN_PRIMES}
    for k in (2, 3):
        expected.update((prod(c), lcm(*(p - 1 for p in c))) for c in combinations(low, k))
    assert table == expected
    assert len(table) == 563 + 561 + 5984 == 7108
    products = ((sprp._SMALL_PRIME_PRODUCT, sprp._SMALL_PRIME_LCM),
                (sprp._MID_PRIME_PRODUCT, sprp._MID_PRIME_LCM),
                (sprp._HIGH_PRIME_PRODUCT, sprp._HIGH_PRIME_LCM))
    for g, lam in table.items():
        assert pow(2, lam, g) == 1, g
        assert [L % lam for P, L in products if P % g == 0] == [0], g


# Euler-Jacobi pseudoprimes to base 2 made of four primes below 150, of two
# primes from 150..1023 and of two from 1024..4095: gcds the table leaves to L
EULER_JACOBI_SMALL = (18705, 41041, 62745, 75361, 126217, 129921, 172081)
EULER_JACOBI_MID = (151 * 601, 157 * 313, 229 * 457, 257 * 641)
EULER_JACOBI_HIGH = (1061 * 3181, 1069 * 2137, 1103 * 2089, 1153 * 3457)


@pytest.mark.parametrize("bits", (64, 256))
def test_small_factor_refutation_is_exact_outside_the_table(bits):
    # n = k(1 + 4 lambda(k) j) meets the congruence mod k exactly when k
    # does: k = 3*5*7*q mostly fails it, the pseudoprimes above meet it
    ks = [(105 * q, "small") for q in SMALL_ODD_PRIMES[3:]]
    ks += [(k, "small") for k in EULER_JACOBI_SMALL]
    ks += [(k, "mid") for k in EULER_JACOBI_MID]
    if bits > 64:
        ks += [(k, "high") for k in EULER_JACOBI_HIGH]
    products = {"small": sprp._SMALL_PRIME_PRODUCT, "mid": sprp._MID_PRIME_PRODUCT,
                "high": sprp._HIGH_PRIME_PRODUCT}
    rng = random.Random(bits)
    outcomes = {"small": set(), "mid": set(), "high": set()}
    for _ in range(3000):
        k, product = rng.choice(ks)
        m = 4 * lcm(*(p - 1 for p in SCREEN_PRIMES if k % p == 0))
        n = k * (1 + m * rng.getrandbits(bits - k.bit_length() - m.bit_length()))
        g = gcd(n, products[product])
        assert g % k == 0 and g not in sprp._CARMICHAEL, n
        refuted = base2_refuted_by_small_factor(n)
        assert refuted == _refuted_by_definition(n), n
        outcomes[product].add(refuted)
    assert outcomes["small"] == outcomes["mid"] == {False, True}
    assert outcomes["high"] == ({False, True} if bits > 64 else set())


def _base2_fermat_pseudoprimes(limit, sieve):
    return [n for n in range(3, limit, 2) if sieve[n] != 1 and pow(2, n - 1, n) == 1]


def test_small_factor_refutation_passes_every_euler_jacobi_pseudoprime(sieve_bytes):
    psp = [n for n in _base2_fermat_pseudoprimes(10**6, sieve_bytes(10**6))
           if _euler_jacobi_holds(n)]
    assert len(psp) == 114 and psp[:3] == [561, 1105, 1729]
    # the strong base-2 pseudoprimes are among them (Pomerance, Selfridge
    # and Wagstaff 1980)
    assert sum(sprp_round(n, 2) for n in psp) == 46
    for n in psp:
        assert not base2_refuted_by_small_factor(n), n
    # 341 = 11 * 31 passes base-2 Fermat, but 2^170 = 1 mod 11 where
    # (2/341) = -1
    assert base2_refuted_by_small_factor(341)


def test_strong_rounds_base2_matches_sprp_round(sieve_bytes):
    # the verdict is the round's own, on the Fermat pseudoprimes (the helper
    # settles 70 of them, the round decides the rest) and on every odd n below
    # 10^5 (where the helper mostly does)
    psp = _base2_fermat_pseudoprimes(10**6, sieve_bytes(10**6))
    failed = Verdict(False, Stage.mr_round(2), 2)
    for n in psp + list(range(3, 10**5, 2)):
        assert strong_rounds(n, (2,)) == (None if sprp_round(n, 2) else failed), n


def _assert_rounds_agree(n, a):
    passed = sprp_round(n, a)
    assert (strong_rounds(n, (a,)) is None) == passed, (n, a)
    trace = []
    strong_rounds(n, (a,), trace)
    assert trace == [TraceStep(Stage.mr_round(a), None, passed)], (n, a)


@pytest.mark.parametrize("bits", (64, 256))
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_strong_rounds_loop_matches_sprp_round(bits, data):
    if data.draw(st.booleans()):
        # n - 1 = 2^k * t: a squaring chain of k steps
        k = data.draw(st.integers(1, 40))
        n = (data.draw(st.integers(1, 2 ** (bits - k) - 1)) | 1) << k | 1
    else:
        n = data.draw(st.integers(2 ** (bits - 1), 2**bits - 1)) | 1
    if n < 5:
        return
    _assert_rounds_agree(n, data.draw(st.integers(2, n - 2)))


def test_strong_rounds_loop_on_primes_and_strong_pseudoprimes(sieve_bytes):
    # primes and base-2 strong pseudoprimes reach -1 late in the chain
    bm = sieve_bytes(10**6)
    spsp = [n for n in _base2_fermat_pseudoprimes(10**6, bm) if sprp_round(n, 2)]
    assert len(spsp) == 46
    primes = [p for p in range(5, 10**6, 2) if bm[p] == 1]
    for n in spsp + primes:
        for a in (2, 3, n - 2):
            _assert_rounds_agree(n, a)


def test_plus_minus_one_always_pass():
    for n in range(3, 10**4, 2):
        assert sprp_round(n, 1)
        assert sprp_round(n, n - 1)
        assert strong_rounds(n, (1, n - 1)) is None


def test_primes_pass_every_base(sieve_bytes):
    bm = sieve_bytes(300)
    for p in range(3, 300, 2):
        if bm[p] != 1:
            continue
        for a in range(1, p):
            assert sprp_round(p, a)


def test_primes_pass_sampled_bases(sieve_bytes):
    bm = sieve_bytes(10**4)
    rng = random.Random(3)
    for p in range(301, 10**4, 2):
        if bm[p] != 1:
            continue
        for _ in range(20):
            assert sprp_round(p, rng.randrange(1, p))


def _seven_base_rounds(n):
    trace = []
    v = seven_base_variant(n, trace=trace)
    assert all(step.stage.kind == MR_ROUND for step in trace), n
    return v, [step.stage.base for step in trace]


def test_schedule_shapes():
    # a prime runs all seven rounds: 2, 5, 17, isqrt(n), isqrt(n) + 1,
    # isqrt(n // 2), isqrt(n // 2) + 1
    _, bases = _seven_base_rounds(10**18 + 3)
    assert bases == [2, 5, 17, 10**9, 10**9 + 1, 707106781, 707106782]


def test_seven_base_large_prime():
    # the prime 10^18 + 3 passes all seven rounds; its verdict names the last
    v, _ = _seven_base_rounds(10**18 + 3)
    assert v == Verdict(True, Stage.mr_round(707106782))


def test_resolve_base():
    # the sqrt-derived bases are resolved against n in exact integer
    # arithmetic, at the top of the 64-bit range and on wide n
    _, bases = _seven_base_rounds(2**64 - 59)
    assert bases[3:] == [2**32 - 1, 2**32, 3037000499, 3037000500]
    assert list(bigrecipes._bases(46657, bigrecipes.RECIPE_256)) == [
        2, 215, 216, 217, 151, 152, 153, 123, 124, 125]


def test_strong_rounds_base2_kills_561():
    assert strong_rounds(561, (2,)) == Verdict(False, Stage.mr_round(2), 2)


def test_seven_base_documented_false_positive():
    # composite, yet it passes all seven rounds
    v, bases = _seven_base_rounds(33077785078626881)
    assert bases == [2, 5, 17, 181872991, 181872992, 128603625, 128603626]
    assert v == Verdict(True, Stage.mr_round(128603626))


def test_small_screen_bounds():
    assert small_screen(0, 0, 0) == Verdict(False, Stage.even_or_unit())
    assert small_screen(2, 0, 0) == Verdict(True, Stage.small_prime_screen(), 2)
    assert small_screen(2**70, 0, 0) == Verdict(False, Stage.even_or_unit(), 2)
    assert small_screen(97, 100, 0) == Verdict(True, Stage.small_prime_screen(), 97)
    assert small_screen(91, 100, 100) == Verdict(False, Stage.small_prime_screen(), 7)
    assert small_screen(91, 100, 0) is None  # odd composites can go on
    assert small_screen(97, 0, 100) is None  # a prime is never refuted
    for n in (101, 2**64 + 1):
        assert small_screen(n, 100, 100) is None


def test_seven_base_small_screens():
    assert seven_base_variant(17).is_prime
    assert seven_base_variant(17).stage.kind == SMALL_PRIME_SCREEN
    for n in (2, 3, 5, 7):
        assert seven_base_variant(n).is_prime
    for n in (0, 1, 4, 6, 8, 9, 100):
        assert not seven_base_variant(n).is_prime


def test_seven_base_matches_sieve(sieve_bytes):
    bm = sieve_bytes(10**5)
    for n in range(10**5):
        assert seven_base_variant(n).is_prime == (bm[n] == 1), n


def test_strong_rounds_first_four_primes_vs_sieve(sieve_bytes):
    # the classic bases 2, 3, 5, 7 are exact far beyond this range; from 9
    # on, no base is a multiple of n
    bm = sieve_bytes(10**6)
    for n in range(9, 10**6, 2):
        assert (strong_rounds(n, (2, 3, 5, 7)) is None) == (bm[n] == 1), n


def test_bpsw_trial_primes_are_the_primes_below_41():
    # bpsw calls n < 41^2 prime once trial division finds no factor
    assert sprp._TRIAL_PRIMES == tuple(p for p in range(41) if is_small_prime(p))


def test_u64_range_enforced():
    with pytest.raises(OverflowError):
        seven_base_variant(2**64)
    with pytest.raises(OverflowError):
        bpsw(2**64)
    with pytest.raises(TypeError):
        bpsw(97.0)


def test_bpsw_matches_sieve(sieve_bytes):
    bm = sieve_bytes(10**5)
    for n in range(10**5):
        assert bpsw(n).is_prime == (bm[n] == 1), n


def test_bpsw_lucas_rejects_base2_strong_pseudoprimes():
    for n in (8321, 42799, 49141, 65281, 80581):
        assert all(n % p for p in sprp._TRIAL_PRIMES), n
        assert sprp_round(n, 2), n
        trace = []
        v = bpsw(n, trace=trace)
        assert not v.is_prime and v.stage.kind == STRONG_LUCAS, (n, v)
        assert [step.passed for step in trace] == [True, False], n


def _smallest_factor(n):
    return next(p for p in range(3, n + 1, 2) if n % p == 0)


def test_bpsw_small_factor_screen_only_refutes_what_base2_fails():
    # past trial division to 37, the screen settles bpsw's base-2 round from
    # the primes 41..1023; each n it settles fails that round and has such a
    # factor, which is not n itself, as n >= 41^2 > 1023
    refuted = {}
    for lo, hi in ((1681, 2 * 10**5 + 1), (2**40 + 1, 2**40 + 2 * 10**5)):
        refuted[lo] = 0
        for n in range(lo, hi, 2):
            if all(n % p for p in sprp._TRIAL_PRIMES) and base2_refuted_by_small_factor(n):
                assert not sprp_round(n, 2), n
                assert bpsw(n) == Verdict(False, Stage.mr_round(2), 2), n
                assert any(n % p == 0 for p in range(41, 1024, 2)), n
                refuted[lo] += 1
    # below 2*10^5, from the primes 41..149 alone: 7,790 by the residue mod g,
    # 28 more by a square factor 41^2..149^2
    assert refuted == {1681: 7818, 2**40 + 1: 13370}


def test_bpsw_screen_passes_strong_pseudoprimes_to_the_lucas_test(sieve_bytes):
    # a factor below 150 is no shortcut to a verdict: a base-2 strong
    # pseudoprime with one still reaches the Lucas test
    bm = sieve_bytes(10**6)
    spsp = [n for n in _base2_fermat_pseudoprimes(10**6, bm) if sprp_round(n, 2)]
    with_factor = [n for n in spsp if 41 <= _smallest_factor(n) < 150]
    assert len(with_factor) == 13 and with_factor[0] == 8321  # 53 * 157
    for n in with_factor:
        trace = []
        v = bpsw(n, trace=trace)
        assert not v.is_prime and v.stage.kind == STRONG_LUCAS, (n, v)
        assert [step.passed for step in trace] == [True, False], n


def test_bpsw_base2_round_rejects_strong_lucas_pseudoprimes():
    # OEIS A217255: they pass the strong Lucas test alone
    for n in (5459, 5777, 10877, 16109, 18971):
        v = bpsw(n)
        assert v == Verdict(False, Stage.mr_round(2), 2), (n, v)


def test_bpsw_rejects_squares_before_the_d_search():
    # 1093 and 3511 are Wieferich primes, so their squares pass base 2
    for m in (1093, 3511, 2**32 - 5, 2**32 - 1):
        v = bpsw(m * m)
        assert not v.is_prime and v.stage.kind != STRONG_LUCAS, m
    assert bpsw(1093**2) == Verdict(False, Stage.divisor_found(1093), 1093)
    assert bpsw(3511**2) == Verdict(False, Stage.divisor_found(3511), 3511)


def test_bpsw_at_the_top_of_the_range():
    assert bpsw(U64_MAX) == Verdict(False, Stage.divisor_found(3), 3)
    v = bpsw(2**64 - 59)  # the largest 64-bit prime
    assert v.is_prime and v.stage.kind == STRONG_LUCAS
    assert bpsw(2**64 - 59) is v  # a module constant: no verdict per call
