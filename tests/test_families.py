"""Hard composite families across the 64-bit range, on the pure path.

Random draws almost never hit a base-2 pseudoprime, so the stages after
the base-2 checks see few of them above the exhaustive sweep's 10^7. These
families are built to reach those stages; every member is composite.
"""

from collections import Counter
from math import isqrt, prod

from primekit import kernel
from primekit.detprime64 import gauss_euler, mr_ge
from primekit.residues import prime_flags
from primekit.sprp import bpsw
from primekit.verdicts import MR_ROUND
from primekit.verification import RICH_ALGORITHMS

# (6k+1)(12k+1)(18k+1) < 2^64 exactly when k < 242,348
CHERNICK_K_LIMIT = 242348


def chernick_carmichaels() -> list[int]:
    """Every (6k+1)(12k+1)(18k+1) below 2^64 whose three factors are prime
    (Chernick 1939, Bull. AMS 45:269): each is a Carmichael number. The
    factors are checked against the sieve, not against a test under check."""
    flags = prime_flags(18 * CHERNICK_K_LIMIT + 1)
    out = []
    for k in range(1, CHERNICK_K_LIMIT):
        a, b, c = 6 * k + 1, 12 * k + 1, 18 * k + 1
        if flags[a] and flags[b] and flags[c]:
            out.append(a * b * c)
    return out


def _mr_ge_base(n: int, stage) -> str:
    # the round's base, named by its place in the MR-GE schedule
    assert stage.kind == MR_ROUND, stage
    m, h = isqrt(n), isqrt(n >> 1)
    names = {2: "2", m - 1: "m-1", m + 1: "m+1", h - 1: "h-1", h + 1: "h+1"}
    return names[stage.base]


def test_chernick_carmichaels_are_composite_with_pinned_stages():
    ns = chernick_carmichaels()
    assert len(ns) == 1675 and max(ns) < 2**64
    for algo, rich in RICH_ALGORITHMS.items():
        entry = kernel.ALGORITHMS[algo]
        assert [n for n in ns if rich(n).is_prime or entry(n)] == [], algo

    ge = Counter()
    for n in ns:
        stage = gauss_euler(n).stage
        ge[stage.kind if stage.form is None else f"{stage.kind}({stage.form})"] += 1
    assert ge == {"sqrt-base": 778, "reciprocity(8k+5)": 897}

    mrge = Counter(_mr_ge_base(n, mr_ge(n).stage) for n in ns)
    assert mrge == {"2": 1424, "m-1": 225, "m+1": 23, "h-1": 3}

    assert Counter(bpsw(n).stage.kind for n in ns) == {
        "mr-round": 1422, "strong-lucas": 251, "divisor-found": 2}


# Jaeschke's psi_k below 2^64 (Jaeschke 1993, Math. Comp. 61:915): the least
# n that is a strong probable prime to each of the first k prime bases.
# psi_7 = psi_8, and psi_9 = psi_10 = psi_11: the twelfth prime, 37, is the
# first prime base that rejects it.
# (k, n, factors, the first prime base that rejects n)
JAESCHKE = (
    (1, 2047, (23, 89), 3),
    (2, 1373653, (829, 1657), 5),
    (3, 25326001, (2251, 11251), 7),
    (4, 3215031751, (151, 751, 28351), 11),
    (5, 2152302898747, (6763, 10627, 29947), 13),
    (6, 3474749660383, (1303, 16927, 157543), 17),
    (7, 341550071728321, (10670053, 32010157), 23),
    (9, 3825123056546413051, (149491, 747451, 34233211), 37),
)
PRIMES_TO_37 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# the stage at which each test rejects psi_k, pinned from the rich tests
JAESCHKE_ALGOS = ("ge", "mrge", "first", "mr7", "bpsw")
JAESCHKE_STAGES = {
    2047: ("sqrt-base(base=45)", "mr-round(base=46)", "mr-round(base=45)",
           "mr-round(base=5)", "divisor-found(23)"),
    1373653: ("sqrt-base(base=1172)", "mr-round(base=1171)", "mr-round(base=1172)",
              "mr-round(base=5)", "strong-lucas"),
    25326001: ("sqrt-base(base=5032)", "mr-round(base=5031)", "mr-round(base=5032)",
               "mr-round(base=17)", "strong-lucas"),
    3215031751: ("sqrt-base(base=56701)", "mr-round(base=56702)",
                 "mr-round(base=56701)", "mr-round(base=17)", "strong-lucas"),
    2152302898747: ("sqrt-base(base=1467073)", "mr-round(base=1467071)",
                    "mr-round(base=1467073)", "mr-round(base=17)", "strong-lucas"),
    3474749660383: ("sqrt-base(base=1864068)", "mr-round(base=1864067)",
                    "mr-round(base=1864068)", "mr-round(base=17)", "strong-lucas"),
    341550071728321: ("sqrt-base(base=18481073)", "mr-round(base=18481072)",
                      "mr-round(base=18481073)", "mr-round(base=18481073)",
                      "strong-lucas"),
    3825123056546413051: ("sqrt-base(base=1955792181)", "mr-round(base=1955792180)",
                          "mr-round(base=1955792181)", "mr-round(base=1955792181)",
                          "strong-lucas"),
}


def _strong_probable_prime(n: int, a: int) -> bool:
    # one strong round to base a, written apart from the package's rounds
    s = ((n - 1) & (1 - n)).bit_length() - 1
    b = pow(a, (n - 1) >> s, n)
    if b in (1, n - 1):
        return True
    for _ in range(s - 1):
        b = b * b % n
        if b == n - 1:
            return True
    return False


def test_jaeschke_psi_k_are_composite_with_pinned_stages():
    for k, n, factors, witness in JAESCHKE:
        assert prod(factors) == n and min(factors) > 1, n
        below = [p for p in PRIMES_TO_37 if p < witness]
        assert len(below) >= k and all(_strong_probable_prime(n, p) for p in below), n
        assert not _strong_probable_prime(n, witness), n
        verdicts = [RICH_ALGORITHMS[algo](n) for algo in JAESCHKE_ALGOS]
        assert tuple(v.stage.describe() for v in verdicts) == JAESCHKE_STAGES[n], n
        assert not any(v.is_prime for v in verdicts), n
        assert not any(kernel.ALGORITHMS[algo](n) for algo in JAESCHKE_ALGOS), n
