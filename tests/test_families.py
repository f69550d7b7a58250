"""Hard families across the 64-bit range.

Random draws almost never hit a base-2 pseudoprime, so the stages after
the base-2 checks see few of them above the exhaustive sweep's 10^7. The
composite families are built to reach those stages, except the near squares
p(p + 2d), which show that closeness to a square does not get past base 2.
The prime families are quadratic residues modulo many small primes, which
forces long nonresidue walks. The rich tests pin the stages and walks, and
both kernels must give every member the rich tests' verdicts.
"""

import random
from collections import Counter
from math import isqrt, prod

import pytest

from primekit import kernel
from primekit.detprime64 import gauss_euler, mr_ge
from primekit.residues import FORM_4K3, FORM_8K1, FORM_8K5, prime_flags, smallest_nonresidue_prime
from primekit.sprp import bpsw
from primekit.verdicts import RECIPROCITY
from primekit.verification import RICH_ALGORITHMS

# the factors' multipliers of Chernick's U_3(k) and U_4(k)
CHERNICK_3 = (6, 12, 18)
CHERNICK_4 = (6, 12, 18, 36)


def chernick_carmichaels(multipliers: tuple[int, ...]) -> dict[int, tuple[int, ...]]:
    """Every n = prod(c k + 1 for c in multipliers) below 2^64 whose factors
    are all prime, mapped to its factors (Chernick 1939, Bull. AMS 45:269):
    for CHERNICK_3 and CHERNICK_4 each is a Carmichael number. The factors
    are checked against the sieve, not against a test under check."""
    k_limit = 1  # the first k whose product reaches 2^64
    while prod(c * k_limit + 1 for c in multipliers) < 2**64:
        k_limit += 1
    flags = prime_flags(multipliers[-1] * k_limit)
    out = {}
    for k in range(1, k_limit):
        factors = tuple(c * k + 1 for c in multipliers)
        if all(flags[f] for f in factors):
            out[prod(factors)] = factors
    return out


def _stage_key(n: int, stage) -> str:
    # the stage, with a round's base named by its place in the schedules
    # (m = isqrt(n), h = isqrt(n // 2)) and a reciprocity check by its form
    if stage.kind == RECIPROCITY:
        return f"{stage.kind}({stage.form})"
    if stage.base is None:
        return stage.kind
    m, h = isqrt(n), isqrt(n >> 1)
    names = {2: "2", 5: "5", 17: "17", m - 1: "m-1", m: "m", m + 1: "m+1",
             h - 1: "h-1", h: "h", h + 1: "h+1"}
    return f"{stage.kind}({names[stage.base]})"


def test_chernick_carmichaels_are_composite_with_pinned_stages():
    ns = list(chernick_carmichaels(CHERNICK_3))
    assert len(ns) == 1675 and max(ns) < 2**64
    for algo, rich in RICH_ALGORITHMS.items():
        assert [n for n in ns if rich(n).is_prime] == [], algo

    ge = Counter()
    for n in ns:
        stage = gauss_euler(n).stage
        ge[stage.kind if stage.form is None else f"{stage.kind}({stage.form})"] += 1
    assert ge == {"sqrt-base": 778, "reciprocity(8k+5)": 897}

    mrge = Counter(_stage_key(n, mr_ge(n).stage) for n in ns)
    assert mrge == {"mr-round(2)": 1424, "mr-round(m-1)": 225, "mr-round(m+1)": 23,
                    "mr-round(h-1)": 3}

    assert Counter(bpsw(n).stage.kind for n in ns) == {
        "mr-round": 1422, "strong-lucas": 251, "divisor-found": 2}


# the stages at which each test rejects the four-factor Chernick numbers,
# pinned from the rich tests
CHERNICK_4_STAGES = {
    "ge": {"mod8-euler(2)": 15, "sqrt-base(m)": 13},
    "mrge": {"mr-round(2)": 26, "mr-round(m-1)": 2},
    "first": {"mr-round(2)": 26, "mr-round(m)": 2},
    "mr7": {"mr-round(2)": 26, "mr-round(5)": 2},
    "bpsw": {"mr-round(2)": 25, "strong-lucas": 2, "divisor-found": 1},
}


def test_four_factor_chernick_carmichaels_are_composite_with_pinned_stages():
    found = chernick_carmichaels(CHERNICK_4)
    ns = sorted(found)
    assert len(ns) == 28 and ns[0] == 63973 and ns[-1] == 17905475062325518273
    for n, factors in found.items():
        # Korselt: n is squarefree and p - 1 divides n - 1 for every prime p | n
        assert len(set(factors)) == 4 and all((n - 1) % (p - 1) == 0 for p in factors), n
    for algo, rich in RICH_ALGORITHMS.items():
        assert [n for n in ns if rich(n).is_prime] == [], algo
    stages = {algo: dict(Counter(_stage_key(n, rich(n).stage) for n in ns))
              for algo, rich in RICH_ALGORITHMS.items()}
    assert stages == CHERNICK_4_STAGES


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


def _is_prime(q: int) -> bool:
    # exact below 3.8 * 10^18 (psi_9): strong rounds to the primes up to 23
    # suffice there, and a factor below 2^33 is far below it
    if q <= 37:
        return q in PRIMES_TO_37
    return all(_strong_probable_prime(q, a) for a in PRIMES_TO_37)


def doubled_semiprimes(count: int, seed: int) -> list[int]:
    """The first ``count`` distinct n = p(2p - 1) < 2^64 with p = 1 (mod 4)
    and both factors prime, met by a seeded walk that draws a bit length,
    then p of that length. h + 1 = p divides n, where h = isqrt(n // 2) =
    p - 1: every test's last sqrt-derived base shares a factor with n."""
    rng = random.Random(seed)
    out = set()
    while len(out) < count:
        bits = rng.randrange(3, 33)
        p = rng.randrange(2 ** (bits - 1), 2**bits) | 1
        p += (1 - p) % 4
        n = p * (2 * p - 1)
        if n < 2**64 and _is_prime(p) and _is_prime(2 * p - 1):
            out.add(n)
    return sorted(out)


def near_square_semiprimes(count: int, seed: int) -> list[int]:
    """The first ``count`` distinct n = p(p + 2d) < 2^64 with 1 <= d <= 64
    and both factors prime, met by a seeded walk that draws a bit length,
    then p of that length, then d. n = (p + d)^2 - d^2 sits just below a
    square. Since n - 1 = 2d (mod p - 1) and n - 1 = -2d (mod p + 2d - 1),
    n passes a base-2 check only when the order of 2 modulo each factor
    divides 2d, so few members reach the sqrt-derived bases."""
    rng = random.Random(seed)
    out = set()
    while len(out) < count:
        bits = rng.randrange(3, 33)
        p = rng.randrange(2 ** (bits - 1), 2**bits) | 1
        d = rng.randrange(1, 65)
        n = p * (p + 2 * d)
        if n < 2**64 and _is_prime(p) and _is_prime(p + 2 * d):
            out.add(n)
    return sorted(out)


def _form_primes(form) -> list[int]:
    # the primes of the form's progression, from its first candidate on,
    # while their product stays below 2^58
    primes = []
    p = form.first_candidate
    while prod(primes) * p < 2**58:
        if _is_prime(p):
            primes.append(p)
        p += form.modulus
    return primes


def square_class_primes(form, count: int, seed: int) -> list[int]:
    """The first ``count`` distinct primes n in [2^62, 2^64) that are quadratic
    residues modulo every prime of ``_form_primes(form)``, met by a seeded
    walk: the CRT gives a random class of squares modulo their product m,
    and a walk up the odd members of the class from a random start stops at
    the first that ``bpsw`` calls prime (Lukes, Patterson & Williams 1996,
    Math. Comp. 65:361). The search for the form's smallest nonresidue prime
    must walk past every prime of the list."""
    primes = _form_primes(form)
    m = prod(primes)
    rng = random.Random(seed)
    out = set()
    while len(out) < count:
        r = sum(rng.randrange(1, q) ** 2 * (m // q) * pow(m // q, -1, q) for q in primes)
        n = r % m + m * rng.randrange(-(-(2**62) // m), 2**64 // m)
        n += m * (n % 2 == 0)  # m is odd
        while n < 2**64 and not bpsw(n).is_prime:
            n += 2 * m
        if n < 2**64:
            out.add(n)
    return sorted(out)


SQUARE_CLASS_FORMS = {f"squares mod {f} primes": f for f in (FORM_8K5, FORM_8K1, FORM_4K3)}


@pytest.fixture(scope="module")
def families(sieve_bytes) -> dict[str, list[int]]:
    """The inputs that reach the late stages, by family: composites, and
    primes that force long nonresidue walks."""
    flags = sieve_bytes(10**6)
    fermat = [n for n in range(3, 10**6, 2) if not flags[n] and pow(2, n - 1, n) == 1]
    assert len(fermat) == 245  # the base-2 Fermat pseudoprimes below 10^6
    return {
        "chernick": list(chernick_carmichaels(CHERNICK_3)),
        "four-factor chernick": list(chernick_carmichaels(CHERNICK_4)),
        "jaeschke": [n for _, n, _, _ in JAESCHKE],
        "fermat base 2": fermat,
        "odd prime squares": [p * p for p in range(3, 10**4, 2) if flags[p]],
        "p(2p - 1)": doubled_semiprimes(1000, seed=23),
        "p(p + 2d)": near_square_semiprimes(1000, seed=29),
    } | {name: square_class_primes(form, 1000, seed=7)
         for name, form in SQUARE_CLASS_FORMS.items()}


# the stages at which each test rejects doubled_semiprimes(1000, seed=23),
# pinned from the rich tests
DOUBLED_STAGES = {
    "ge": {"mod8-euler(2)": 468, "sqrt-base(m)": 393, "sqrt-base(m+1)": 98,
           "sqrt-base(h)": 20, "sqrt-base(h+1)": 21},
    "mrge": {"mr-round(2)": 626, "mr-round(m-1)": 306, "mr-round(m+1)": 54,
             "mr-round(h-1)": 7, "mr-round(h+1)": 7},
    "first": {"mr-round(2)": 626, "mr-round(m)": 312, "mr-round(m+1)": 47,
              "mr-round(h)": 14, "mr-round(h+1)": 1},
    "mr7": {"mr-round(2)": 626, "mr-round(5)": 351, "mr-round(17)": 21, "mr-round(m)": 2},
    "bpsw": {"mr-round(2)": 625, "strong-lucas": 374, "divisor-found": 1},
}


def test_doubled_semiprimes_are_composite_with_pinned_stages(families):
    ns = families["p(2p - 1)"]
    assert len(ns) == 1000 and max(ns) < 2**64
    for n in ns:
        p = isqrt(n >> 1) + 1
        assert n == p * (2 * p - 1) and p % 4 == 1, n
    for algo, rich in RICH_ALGORITHMS.items():
        assert [n for n in ns if rich(n).is_prime] == [], algo
    stages = {algo: dict(Counter(_stage_key(n, rich(n).stage) for n in ns))
              for algo, rich in RICH_ALGORITHMS.items()}
    assert stages == DOUBLED_STAGES


# the stages at which each test rejects near_square_semiprimes(1000, seed=29),
# pinned from the rich tests; the seven members below 100 are ge's small-n screen
NEAR_SQUARE_STAGES = {
    "ge": {"small-prime-screen": 7, "mod8-euler(2)": 990, "sqrt-base(m)": 3},
    "mrge": {"mr-round(2)": 997, "mr-round(m-1)": 1, "mr-round(m+1)": 1,
             "mr-round(h-1)": 1},
    "first": {"mr-round(2)": 997, "mr-round(m)": 3},
    "mr7": {"mr-round(2)": 997, "mr-round(5)": 3},
    "bpsw": {"mr-round(2)": 773, "strong-lucas": 1, "divisor-found": 226},
}


def test_near_square_semiprimes_are_composite_with_pinned_stages(families):
    ns = families["p(p + 2d)"]
    assert len(ns) == 1000 and max(ns) < 2**64
    for n in ns:
        # n + d^2 = (p + d)^2 for the d of n = p(p + 2d)
        roots = [(isqrt(n + d * d), d) for d in range(1, 65)]
        assert any(r * r == n + d * d and _is_prime(r - d) and _is_prime(r + d)
                   for r, d in roots), n
    for algo, rich in RICH_ALGORITHMS.items():
        assert [n for n in ns if rich(n).is_prime] == [], algo
    stages = {algo: dict(Counter(_stage_key(n, rich(n).stage) for n in ns))
              for algo, rich in RICH_ALGORITHMS.items()}
    assert stages == NEAR_SQUARE_STAGES


# the shortest and longest walks of smallest_nonresidue_prime(n, form) over
# square_class_primes(form, 1000, seed=7), pinned from the rich search
SQUARE_CLASS_WALKS = {
    "squares mod 8k+5 primes": (22, 47),
    "squares mod 8k+1 primes": (28, 55),
    "squares mod 4k+3 primes": (21, 48),
}


def test_square_class_primes_force_long_walks(families):
    for name, form in SQUARE_CLASS_FORMS.items():
        ns = families[name]
        primes = _form_primes(form)
        assert len(ns) == 1000 and min(ns) >= 2**62 and max(ns) < 2**64, name
        assert all(pow(n % q, q >> 1, q) == 1 for n in ns for q in primes), name
        walks = [smallest_nonresidue_prime(n, form).inspected for n in ns]
        # every member of the progression up to the last listed prime is passed over
        assert min(walks) > (primes[-1] - form.first_candidate) // form.modulus + 1, name
        assert (min(walks), max(walks)) == SQUARE_CLASS_WALKS[name]
        assert [n for n in ns if not (gauss_euler(n).is_prime and mr_ge(n).is_prime)] == [], name


def test_kernels_agree_with_the_rich_tests_on_every_family(impl, families):
    for algo, spec in kernel.ALGOS.items():
        entry = getattr(impl, spec.entry)
        for family, ns in families.items():
            assert [n for n in ns if entry(n) != spec.rich(n).is_prime] == [], (
                algo, family)
