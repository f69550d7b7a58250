import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from primekit.modarith import (
    U64_MAX,
    isqrt,
    mulmod,
    powmod,
)

wide_ints = st.integers(min_value=0, max_value=2**130)


def test_mulmod_zero_annihilates():
    for x in (0, 1, 7, 96, U64_MAX % 97):
        assert mulmod(0, x, 97) == 0


def test_mulmod_small():
    assert mulmod(3, 4, 5) == 2


def test_mulmod_full_width_operands():
    # frozen from a direct big-int product
    a, b, m = 2**63 + 1, 2**63 + 3, 2**64 - 59
    assert mulmod(a % m, b % m, m) == 13835058055282164659
    assert mulmod(a, b, m) == 13835058055282164659


def test_mulmod_rejects_zero_modulus():
    with pytest.raises(ValueError):
        mulmod(1, 1, 0)


@given(a=wide_ints, b=wide_ints, m=st.integers(min_value=1, max_value=2**130))
def test_mulmod_matches_direct_product(a, b, m):
    assert mulmod(a, b, m) == (a * b) % m


def test_powmod_zero_exponent_is_one():
    for a in (0, 1, 5, U64_MAX):
        for m in (2, 3, 561, U64_MAX):
            assert powmod(a, 0, m) == 1


def test_powmod_known_half_powers():
    assert powmod(2, 280, 561) == 1
    # 341 is a Fermat liar to base 2 but its half-power is 1, not 340
    assert powmod(2, 170, 341) == 1
    assert powmod(23, 280, 561) == 67


def test_powmod_rejects_bad_arguments():
    with pytest.raises(ValueError):
        powmod(2, 1, 0)
    with pytest.raises(ValueError):
        powmod(2, -1, 5)


@given(
    a=st.integers(min_value=0, max_value=2**70),
    e=st.integers(min_value=0, max_value=300),
    m=st.integers(min_value=1, max_value=2**70),
)
def test_powmod_matches_pow(a, e, m):
    assert powmod(a, e, m) == pow(a, e, m)


def test_isqrt_known_values():
    assert isqrt(0) == 0
    assert isqrt(46657) == 216
    assert isqrt(46657 // 2) == 152
    assert isqrt(172081) == 414
    assert isqrt(172081 // 2) == 293


def test_isqrt_floor_property_exhaustive_small():
    for n in range(10**6):
        r = isqrt(n)
        assert r * r <= n < (r + 1) * (r + 1)


def test_isqrt_boundaries_near_word_size():
    k = 2**32 - 1
    assert isqrt(k * k - 1) == k - 1
    assert isqrt(k * k) == k
    assert isqrt(k * k + 1) == k
    assert isqrt(U64_MAX) == k


@given(n=wide_ints)
def test_isqrt_floor_property(n):
    r = isqrt(n)
    assert r * r <= n < (r + 1) * (r + 1)


def test_sqrt_base_halving_matches_true_root():
    # for odd n, isqrt(n // 2) is the integer part of sqrt(n / 2):
    # k = isqrt(n // 2) must satisfy 2k^2 <= n < 2(k+1)^2
    for n in range(3, 10**6, 2):
        k = isqrt(n >> 1)
        assert 2 * k * k <= n < 2 * (k + 1) * (k + 1)
