import decimal
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from primekit import modarith
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
    # 2^31 - 1 and 10^18 + 9 take libmpdec's path, whose power refuses 0^0
    for a in (0, 1, 5, U64_MAX):
        for m in (2, 3, 561, 2**31 - 1, 10**18 + 9, U64_MAX):
            assert powmod(a, 0, m) == 1
    assert powmod(0, 0, 1) == powmod(7, 0, 1) == 0


# each width band's edges: one CPython digit ends at 2^30, one libmpdec
# word at 10^19
BAND_EDGES = (2**30 - 1, 2**30, 2**30 + 1, 10**19 - 1, 10**19, 10**19 + 1,
              U64_MAX - 1, U64_MAX)


@pytest.mark.parametrize("m", BAND_EDGES)
def test_powmod_matches_pow_at_the_band_edges(m):
    rng = random.Random(m)
    bases = (0, 1, 2, 3, m - 2, m - 1, m, m + 1, 2 * m + 5, m * m + 2, -1,
             -2, -m, -m - 3, -(m**3) - 7)
    exponents = (0, 1, 2, 3, (m - 1) >> 1, m - 1, m, 2**64 - 1, 2**70 + 1)
    for a in bases + tuple(rng.randrange(-(m**2), m**2) for _ in range(20)):
        for e in exponents + (rng.randrange(2**64),):
            assert powmod(a, e, m) == pow(a, e, m), (a, e, m)


def test_powmod_uses_the_c_decimal_module():
    # libmpdec's power, never the pure-Python _pydecimal, on this host
    _decimal = pytest.importorskip("_decimal")
    assert type(modarith._POWER.__self__) is _decimal.Context
    assert modarith._ONE_WORD == 10**19


def test_powmod_keeps_builtin_pow_without_the_c_decimal_module():
    # the pure-Python _pydecimal would be far slower than builtin pow
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import sys; sys.modules['_decimal'] = None\n"
            "from primekit import modarith\n"
            "assert modarith._POWER is None\n"
            "assert '_pydecimal' not in sys.modules\n"
            "m = 10**18 + 9\n"
            "assert modarith.powmod(-3, m - 2, m) == pow(-3, m - 2, m)\n"
            "from primekit.detprime64 import gauss_euler\n"
            "assert gauss_euler(m).is_prime\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=str(src)),
                          timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_powmod_ignores_the_callers_decimal_context():
    cases = [(a, e, m) for m in BAND_EDGES for a in (2, m - 1, -3)
             for e in (0, 1, (m - 1) >> 1)]
    expected = [pow(a, e, m) for a, e, m in cases]
    with decimal.localcontext() as ctx:
        ctx.prec = 3
        ctx.Emax = ctx.Emin = 0
        ctx.traps = dict.fromkeys(ctx.traps, True)
        ctx.clear_flags()
        assert [powmod(a, e, m) for a, e, m in cases] == expected
        assert decimal.getcontext() is ctx and ctx.prec == 3
        assert not any(ctx.flags.values())


def test_powmod_known_half_powers():
    assert powmod(2, 280, 561) == 1
    # 341 is a Fermat liar to base 2 but its half-power is 1, not 340
    assert powmod(2, 170, 341) == 1
    assert powmod(23, 280, 561) == 67


def test_powmod_rejects_bad_arguments():
    with pytest.raises(ValueError):
        powmod(2, 1, 0)
    for m in (5, 10**18 + 9, U64_MAX):
        with pytest.raises(ValueError):
            powmod(2, -1, m)
    with pytest.raises(TypeError):
        powmod(2, 3, 10.0**18)


@given(
    a=st.integers(min_value=-(2**80), max_value=2**80),
    e=st.one_of(st.integers(min_value=0, max_value=300),
                st.integers(min_value=0, max_value=2**66)),
    m=st.one_of(st.integers(min_value=1, max_value=2**70),
                st.integers(2**30 - 2, 2**30 + 2), st.integers(2**30, 10**19 - 1),
                st.integers(10**19 - 2, 10**19 + 2)),
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
