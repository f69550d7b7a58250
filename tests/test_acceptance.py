"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report inline.
"""

import os
import random

from primekit.detprime64 import gauss_euler, mr_ge, mr_ge_first_attempt
from primekit.bigrecipes import recipe256, recipe2048
from primekit.harness import run_bench
from primekit.residues import (
    FORM_4K1,
    FORM_8K5,
    SKIP,
    legendre,
    smallest_nonresidue_prime,
)
from primekit.sprp import reference_oracle64, seven_base_variant
from primekit.verdicts import MOD8_EULER, RECIPROCITY, SQRT_BASE
from primekit.verification import (
    PrimeSieve,
    exhaustive_verify,
    random_base_sprp,
    random_verify,
)

JOBS = min(4, os.cpu_count() or 1)


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_exhaustive_exactness_to_1e7():
    mm_ge = exhaustive_verify("ge", 10**7, jobs=JOBS)
    mm_mrge = exhaustive_verify("mrge", 10**7, jobs=JOBS)
    _report(
        1,
        mm_ge == [] and mm_mrge == [],
        f"gauss_euler and mr_ge agree with the sieve below 10^7 "
        f"({len(mm_ge)} + {len(mm_mrge)} mismatches)",
    )


def test_criterion_2_corpus_reproduction():
    problems = []

    v = gauss_euler(341)
    if v.is_prime or v.stage.kind != MOD8_EULER:
        problems.append(f"341: {v}")

    trace = []
    v = gauss_euler(561, trace=trace)
    if v.is_prime or not trace[0].passed or trace[0].stage.kind != MOD8_EULER:
        problems.append(f"561 must pass the mod-8 step yet be composite: {v}")

    v = gauss_euler(172081)
    if v.is_prime or v.stage.kind != SQRT_BASE or v.stage.base != 294:
        problems.append(f"172081: {v}")

    v = gauss_euler(1729)
    res = smallest_nonresidue_prime(1729, FORM_4K1, SKIP)
    if v.is_prime or res.prime != 17:
        problems.append(f"1729: {v}, 4k+1 search found {res.prime}")

    v = gauss_euler(46657)
    if (
        v.is_prime
        or v.stage.kind != RECIPROCITY
        or str(v.stage.form) != "8k+5"
        or v.stage.prime != 5
    ):
        problems.append(f"46657: {v}")

    n = 6164578258027337
    trace = []
    v = gauss_euler(n, trace=trace)
    steps_pass = [t.passed for t in trace]
    # mod-8, four sqrt bases, and the 8k+5 reciprocity check all pass
    if steps_pass[:6] != [True] * 6:
        problems.append(f"{n}: early steps {steps_pass}")
    if v.is_prime or v.stage.kind != RECIPROCITY or str(v.stage.form) != "8k+1" or v.stage.prime != 17:
        problems.append(f"{n}: {v}")
    res5 = smallest_nonresidue_prime(n, FORM_8K5, SKIP)
    res41 = smallest_nonresidue_prime(n, FORM_4K1, SKIP)
    e = (n - 1) // 2
    if not (res5.prime == 5 and pow(5, e, n) == n - 1):
        problems.append(f"{n}: 8k+5 single check broke")
    if not (res41.prime == 5 and pow(res41.prime, e, n) == n - 1):
        problems.append(f"{n}: 4k+1 single check broke")

    _report(2, not problems, f"worked-example corpus reproduces exactly {problems}")


def test_criterion_3_documented_false_positives():
    fp7 = seven_base_variant(33077785078626881)
    oracle7 = reference_oracle64(33077785078626881)
    n = 17364052083370132981
    fp1 = mr_ge_first_attempt(n)
    fixed = mr_ge(n)
    oracle1 = reference_oracle64(n)
    ok = (
        fp7.is_prime
        and not oracle7.is_prime
        and fp1.is_prime
        and not fixed.is_prime
        and not oracle1.is_prime
    )
    _report(
        3,
        ok,
        "seven-base passes 33077785078626881 and first-attempt passes "
        "17364052083370132981 while the oracle and mr_ge reject them",
    )


def test_criterion_4_random_sample_agreement():
    mm_ge = random_verify("ge", 10**6, seed=42, jobs=JOBS)
    mm_mrge = random_verify("mrge", 10**6, seed=42, jobs=JOBS)
    _report(
        4,
        mm_ge == [] and mm_mrge == [],
        f"10^6 seeded random odd 64-bit draws agree with the bpsw referee "
        f"({len(mm_ge)} + {len(mm_mrge)} mismatches)",
    )


def test_criterion_5_benchmark_orderings():
    reps = 3
    lines = []
    for set_id in (1, 2, 3, 4):
        ge = run_bench(set_id, "ge", reps=reps)
        mr7 = run_bench(set_id, "mr7", reps=reps)
        if set_id in (2, 4):  # all-prime sets: correctness side-check
            assert ge.primes == 100000 and mr7.primes == 100000
        ratio = ge.median_seconds / mr7.median_seconds
        soft_ok = abs(ratio - 1) <= 0.25
        lines.append(
            f"  set {set_id}: GE {ge.median_seconds:.3f}s vs seven-base "
            f"{mr7.median_seconds:.3f}s, ratio {ratio:.3f} "
            f"({'within' if soft_ok else 'OUTSIDE'} the soft 25% band)"
        )
    ge4 = run_bench(4, "ge", reps=reps)
    mrge4 = run_bench(4, "mrge", reps=reps)
    assert mrge4.primes == 100000
    lines.append(
        f"  set 4: MR-GE {mrge4.median_seconds:.3f}s vs GE {ge4.median_seconds:.3f}s"
    )
    print("\n".join(lines))
    hard_ok = mrge4.median_seconds <= 1.10 * ge4.median_seconds
    _report(
        5,
        hard_ok,
        f"MR-GE does not exceed GE by >10% on set 4 "
        f"({mrge4.median_seconds:.3f}s vs {ge4.median_seconds:.3f}s, median of {reps})",
    )


def test_criterion_6_theorem_invariants(sieve_bytes):
    # sign of (2/p) follows the mod-8 rule for every prime below 10^6
    bm = sieve_bytes(10**6)
    mod8_ok = all(
        (legendre(2, p) == 1) == (p % 8 in (1, 7))
        for p in range(3, 10**6, 2)
        if bm[p] == 1
    )

    # Euler's criterion matches brute-force residue sets, and each prime has
    # exactly (p-1)/2 residues, below 10^4
    euler_ok = True
    for p in range(3, 10**4, 2):
        if bm[p] != 1:
            continue
        squares = {x * x % p for x in range(1, p)}
        if len(squares) != (p - 1) // 2:
            euler_ok = False
            break
        for a in range(1, p):
            if legendre(a, p) != (1 if a in squares else -1):
                euler_ok = False
                break
        if not euler_ok:
            break

    # reciprocity over all distinct odd prime pairs below 500
    primes = [p for p in range(3, 500, 2) if bm[p] == 1]
    recip_ok = all(
        legendre(p, q) * legendre(q, p) == (-1) ** (((p - 1) // 2) * ((q - 1) // 2))
        for p in primes
        for q in primes
        if p != q
    )

    _report(
        6,
        mod8_ok and euler_ok and recip_ok,
        f"mod-8 rule below 10^6: {mod8_ok}; Euler criterion + residue counts "
        f"below 10^4: {euler_ok}; reciprocity below 500: {recip_ok}",
    )


def test_criterion_7_wide_recipe_oracle_agreement():
    rng = random.Random(256)
    bad = 0
    for _ in range(200):
        n = rng.getrandbits(256) | (1 << 255) | 1
        if recipe256(n).is_prime != random_base_sprp(n, rounds=64, seed=77):
            bad += 1
    rng = random.Random(1024)
    for _ in range(20):
        n = rng.getrandbits(1024) | (1 << 1023) | 1
        if recipe2048(n).is_prime != random_base_sprp(n, rounds=64, seed=78):
            bad += 1
    _report(
        7,
        bad == 0,
        f"recipe256 (200 x 256-bit) and recipe2048 (20 x 1024-bit) match the "
        f"64-round random-base oracle ({bad} mismatches)",
    )


def test_criterion_8_perfect_square_robustness():
    bad = []
    for k in range(3, 10**4 + 1):
        n = k * k
        try:
            if gauss_euler(n).is_prime or mr_ge(n).is_prime:
                bad.append(n)
        except RuntimeError:
            bad.append(n)  # search cap must never be reached
    _report(
        8,
        not bad,
        f"squares k^2 for k in [3, 10^4] are rejected without hitting the "
        f"search cap ({len(bad)} failures)",
    )
