"""Hard composite families across the 64-bit range, on the pure path.

Random draws almost never hit a base-2 pseudoprime, so the stages after
the base-2 checks see few of them above the exhaustive sweep's 10^7. These
families are built to reach those stages; every member is composite.
"""

from collections import Counter
from math import isqrt

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
