import random
import warnings
from math import isqrt

import numpy as np
import pytest

from primekit.bigrecipes import (
    RECIPE_256,
    RECIPE_2048,
    Recipe,
    recipe256,
    recipe2048,
    run_recipe,
)
from primekit.verdicts import MR_ROUND
from primekit.verification import random_base_sprp


def test_recipe_shapes():
    assert (RECIPE_256.sqrt_divisors, RECIPE_256.sqrt_offsets) == ((1, 2, 3), (-1, 0, 1))
    assert (RECIPE_2048.sqrt_divisors, RECIPE_2048.sqrt_offsets) == (
        (1, 2, 3, 5, 7), (-2, -1, 0, 1, 2))
    # a prime runs every round: 2, then isqrt(n // i) + j, i outer, j inner
    n = 2**127 - 1
    for recipe, fn, count in ((RECIPE_256, recipe256, 10), (RECIPE_2048, recipe2048, 26)):
        trace = []
        assert fn(n, trace=trace).is_prime
        bases = [step.stage.base for step in trace if step.stage.kind == MR_ROUND]
        assert bases == [2] + [isqrt(n // i) + j for i in recipe.sqrt_divisors
                               for j in recipe.sqrt_offsets]
        assert len(bases) == count
    assert [str(f) for f in RECIPE_256.reciprocity_forms] == ["4k+1", "4k+3"]
    assert [str(f) for f in RECIPE_2048.reciprocity_forms] == [
        "8k+1",
        "8k+3",
        "8k+5",
        "8k+7",
    ]
    # amendable definitions stay identifiable
    assert RECIPE_256.revision == 1 and RECIPE_2048.revision == 1


def test_recipe_needs_a_reciprocity_form():
    with pytest.raises(ValueError, match="reciprocity form"):
        Recipe("none", 1, (1,), (0,), ())


def test_recipe_needs_sqrt_divisors_of_at_least_one():
    for divisors in ((0,), (1, -3)):
        with pytest.raises(ValueError, match="sqrt divisor"):
            Recipe("bad", 1, divisors, (0,), RECIPE_256.reciprocity_forms)


def test_recipe_bases_skip_vacuous_rounds():
    # for the prime 101, isqrt(101) = 10: the offsets -11 and -10 give the
    # bases -1 and 0, and 91 gives 101 itself, so their rounds are skipped;
    # -9 gives 1, a legal, trivially passing base
    recipe = Recipe("grid", 1, (1,), (-11, -10, -9, 91), RECIPE_256.reciprocity_forms)
    trace = []
    assert run_recipe(101, recipe, trace=trace).is_prime
    assert [step.stage.base for step in trace if step.stage.kind == MR_ROUND] == [2, 1]


def test_small_screens():
    for fn in (recipe256, recipe2048):
        assert not fn(0).is_prime
        assert not fn(1).is_prime
        assert fn(2).is_prime
        assert not fn(10**40 + 2).is_prime  # even
        for n in (3, 5, 7):
            assert fn(n).is_prime
    with pytest.raises(ValueError):
        recipe256(-5)


def test_sound_on_all_small_primes(sieve_bytes):
    bm = sieve_bytes(10**6)
    assert recipe256(2).is_prime and recipe2048(2).is_prime
    for n in range(3, 10**6, 2):
        if bm[n] == 1:
            assert recipe256(n).is_prime, n
            assert recipe2048(n).is_prime, n


def test_known_64bit_composites_caught():
    v = recipe256(33077785078626881)
    assert not v.is_prime
    assert v.stage.kind == MR_ROUND and v.stage.base == 181872990
    v = recipe2048(6164578258027337)
    assert not v.is_prime
    assert v.stage.kind == MR_ROUND and v.stage.base == 2
    assert not recipe256(6164578258027337).is_prime
    assert not recipe2048(33077785078626881).is_prime
    assert not recipe256(17364052083370132981).is_prime
    assert not recipe2048(17364052083370132981).is_prime


def _probable_prime(bits: int, rng: random.Random) -> int:
    while True:
        cand = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if random_base_sprp(cand, rounds=40, seed=rng.randrange(2**32)):
            return cand


def test_constructed_semiprime_is_caught():
    rng = random.Random(2024)
    p = _probable_prime(128, rng)
    q = _probable_prime(128, rng)
    assert not recipe256(p * q).is_prime
    assert recipe256(p).is_prime and recipe256(q).is_prime


def test_oracle_agreement_sample_256():
    # quick slice of the acceptance check
    rng = random.Random(11)
    for _ in range(30):
        n = rng.getrandbits(256) | (1 << 255) | 1
        assert recipe256(n).is_prime == random_base_sprp(n, rounds=64, seed=5)


def test_squares_structurally_rejected():
    rng = random.Random(8)
    for _ in range(10):
        k = rng.getrandbits(100) | 1
        assert not recipe256(k * k).is_prime
        assert not recipe2048(k * k).is_prime


def test_wider_than_nominal_accepted():
    n = (1 << 300) + 7
    v = recipe256(n)  # soft bound: wider inputs are fine
    assert v.label in ("prime", "composite")


def test_recipes_validate_input_like_the_64bit_paths():
    for fn in (recipe256, recipe2048):
        for bad in (5.0, 1e18 + 9.0):
            with pytest.raises(TypeError):
                fn(bad)
        with pytest.raises(TypeError):
            fn(101, 5)  # no search cap: the one cap is a constant
        with pytest.raises(ValueError):
            fn(np.int64(-5))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy overflow on the way
            for n in (97, 1000000007, 33077785078626881, 2**64 - 59):
                assert fn(np.uint64(n)) == fn(n), (fn.__name__, n)
