import json
import math
import re
import warnings

import numpy as np
import pytest

from primekit import kernel, verification
from primekit.residues import is_small_prime
from primekit.verification import (
    CORPUS,
    CheckpointError,
    MismatchRecord,
    RICH_ALGORITHMS,
    PrimeSieve,
    corpus_verify,
    exhaustive_verify,
    random_base_sprp,
    random_odd_u64,
    random_verify,
    search_counterexamples,
    sieve,
)
import random


def test_sieve_tiny():
    for limit, primes in ((0, []), (1, []), (2, [2]), (10, [2, 3, 5, 7])):
        sv = sieve(limit)
        assert sv.primes() == primes, limit
        sv.is_prime(limit)
        with pytest.raises(ValueError):
            sv.is_prime(limit + 1)
        assert sv.count() == len(primes), limit


def test_sieve_known_counts():
    assert PrimeSieve(1299709).count() == 100000
    assert PrimeSieve(10**6).count() == 78498


def test_sieve_matches_trial_division():
    sv = PrimeSieve(10**5)
    for n in range(10**5 + 1):
        assert sv.is_prime(n) == is_small_prime(n)


def test_sieve_bounds_and_memory_guard():
    sv = PrimeSieve(100)
    with pytest.raises(ValueError):
        sv.is_prime(101)
    with pytest.raises(ValueError):
        PrimeSieve(10**7, memory_limit_bytes=10**6)


def test_exhaustive_verify_clean_small():
    for algo in ("ge", "mrge", "mr7", "first", "oracle"):
        assert exhaustive_verify(algo, 10**5) == []


def test_exhaustive_verify_clean_to_1e6():
    for algo in ("ge", "mrge", "mr7", "first", "oracle"):
        assert exhaustive_verify(algo, 10**6) == []


def test_exhaustive_verify_parallel_agrees():
    assert exhaustive_verify("ge", 3 * 10**4, jobs=2) == []


def test_sweeps_keep_only_the_last_sieve():
    limits = (10**5, 2 * 10**5, 3 * 10**5)
    for limit in limits:
        assert exhaustive_verify("ge", limit) == []
    cached = verification._sieve_flags
    info = cached.cache_info()
    assert (info.maxsize, info.currsize) == (1, 1)
    # the last limit's table is held: asking again builds nothing
    assert len(cached(limits[-1])) == limits[-1] + 1
    assert cached.cache_info().misses == info.misses
    # an earlier one was dropped: asking again builds it anew
    cached(limits[0])
    assert cached.cache_info().misses == info.misses + 1


def test_search_clean_range():
    report = search_counterexamples("ge", 3, 10**6, 4)
    assert report.mismatches == []
    assert report.shards_run == 4
    assert report.checked == len(range(3, 10**6 + 1, 2))


def test_exhaustive_verify_unknown_algo():
    with pytest.raises(ValueError):
        exhaustive_verify("bogus", 100)


def test_random_verify_deterministic():
    a = random_verify("ge", 300, seed=7)
    b = random_verify("ge", 300, seed=7)
    assert a == b == []
    rng1 = random.Random(123)
    rng2 = random.Random(123)
    seq1 = [random_odd_u64(rng1) for _ in range(1000)]
    seq2 = [random_odd_u64(rng2) for _ in range(1000)]
    assert seq1 == seq2


def test_random_odd_u64_range():
    rng = random.Random(1)
    for _ in range(10000):
        n = random_odd_u64(rng)
        assert 3 <= n < 2**64 and n % 2 == 1


def test_random_verify_clean_sample():
    assert random_verify("ge", 20000, seed=42) == []
    assert random_verify("mrge", 20000, seed=42, jobs=2) == []


def test_search_finds_seven_base_false_positive():
    report = search_counterexamples(
        "mr7", 33077785078626880, 33077785078626882, 1
    )
    assert len(report.mismatches) == 1
    rec = report.mismatches[0]
    assert rec.n == 33077785078626881
    assert rec.expected == "composite" and rec.actual == "prime"


def test_search_finds_first_attempt_false_positive():
    n = 17364052083370132981
    report = search_counterexamples("first", n - 2, n + 2, 2)
    assert [r.n for r in report.mismatches] == [n]
    assert report.mismatches[0].algo == "first"


def test_search_rejects_zero_shards(tmp_path):
    with pytest.raises(ValueError):
        search_counterexamples("mrge", 3, 100, 0)
    # nor does any sweep run with fewer than one job: it refuses before work
    ck = tmp_path / "search.ckpt"
    for jobs in (0, -3):
        with pytest.raises(ValueError):
            exhaustive_verify("ge", 100, jobs=jobs)
        with pytest.raises(ValueError):
            exhaustive_verify("ge", 1, jobs=jobs)
        with pytest.raises(ValueError):
            random_verify("ge", 100, seed=1, jobs=jobs)
        with pytest.raises(ValueError):
            search_counterexamples("ge", 3, 101, 2, checkpoint_path=str(ck), jobs=jobs)
        assert not ck.exists()


def test_search_rejects_bad_range():
    with pytest.raises(ValueError):
        search_counterexamples("ge", 100, 3, 1)
    with pytest.raises(ValueError):
        search_counterexamples("ge", 3, 2**64, 1)


def test_mismatch_json_fields():
    rec = MismatchRecord(
        n=33077785078626881,
        algo="mr7",
        expected="composite",
        actual="prime",
        stage="mr-round(base=181872991)",
    )
    obj = json.loads(rec.to_json())
    assert set(obj) == {"n", "algo", "expected", "actual", "stage"}
    assert obj["n"] == "33077785078626881"  # decimal string, not a number
    assert isinstance(obj["n"], str)


def test_checkpoint_resume_accounting(tmp_path):
    ck = str(tmp_path / "search.ckpt")
    odd_total = len(range(3, 20002, 2))

    first = search_counterexamples("ge", 3, 20001, 8, checkpoint_path=ck,
                                   stop_after_shards=3)
    assert first.shards_run == 3 and first.shards_skipped == 0

    second = search_counterexamples("ge", 3, 20001, 8, checkpoint_path=ck)
    assert second.shards_skipped == 3 and second.shards_run == 5

    # between the two runs every odd n was visited exactly once
    assert first.checked + second.checked == odd_total

    third = search_counterexamples("ge", 3, 20001, 8, checkpoint_path=ck)
    assert third.shards_run == 0 and third.checked == 0


def test_checkpoint_lines_format(tmp_path):
    ck = str(tmp_path / "search.ckpt")
    search_counterexamples("ge", 3, 1001, 2, checkpoint_path=ck)
    lines = open(ck).read().splitlines()
    assert len(lines) == 2
    for line in lines:
        obj = json.loads(line)
        assert set(obj) == {"shard_start", "shard_end", "algo", "cap", "completed_at"}
        assert obj["algo"] == "ge" and obj["cap"] == 1000
        assert re.match(r"\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}", obj["completed_at"])


def test_checkpoint_corruption_refuses_resume(tmp_path):
    ck = tmp_path / "search.ckpt"
    ck.write_text('{"shard_start": 3, "shard_end":\n')
    with pytest.raises(CheckpointError):
        search_counterexamples("ge", 3, 1001, 2, checkpoint_path=str(ck))


def test_checkpoint_layout_mismatch_refuses_resume(tmp_path):
    ck = str(tmp_path / "search.ckpt")
    search_counterexamples("ge", 3, 1001, 2, checkpoint_path=ck)
    with pytest.raises(CheckpointError):
        search_counterexamples("ge", 3, 1001, 4, checkpoint_path=ck)
    with pytest.raises(CheckpointError):
        search_counterexamples("ge", 3, 2001, 2, checkpoint_path=ck)


def test_checkpoint_from_another_run_refuses_resume(tmp_path):
    ck = str(tmp_path / "search.ckpt")
    search_counterexamples("ge", 3, 1001, 2, checkpoint_path=ck)
    for algo, cap in (("mr7", None), ("mrge", None), ("ge", 5)):
        with pytest.raises(CheckpointError):
            search_counterexamples(algo, 3, 1001, 2, checkpoint_path=ck, cap=cap)
    # cap=None is the default cap the CLI passes explicitly
    again = search_counterexamples("ge", 3, 1001, 2, checkpoint_path=ck, cap=1000)
    assert again.shards_skipped == 2 and again.checked == 0

    # a cap-less algorithm records cap null and resumes only under itself
    ck7 = str(tmp_path / "mr7.ckpt")
    search_counterexamples("mr7", 3, 1001, 2, checkpoint_path=ck7, cap=1000)
    assert [json.loads(line)["cap"] for line in open(ck7)] == [None, None]
    assert search_counterexamples("mr7", 3, 1001, 2, checkpoint_path=ck7).shards_skipped == 2
    with pytest.raises(CheckpointError):
        search_counterexamples("ge", 3, 1001, 2, checkpoint_path=ck7)


def test_checkpoint_without_run_fields_refuses_resume(tmp_path):
    fields = {"shard_start": 3, "shard_end": 502, "algo": "ge", "cap": 1000,
              "completed_at": "2024-01-01T00:00:00"}
    for missing in ("algo", "cap"):
        ck = tmp_path / f"no-{missing}.ckpt"
        ck.write_text(json.dumps({k: v for k, v in fields.items() if k != missing}) + "\n")
        with pytest.raises(CheckpointError):
            search_counterexamples("ge", 3, 1001, 2, checkpoint_path=str(ck))


def test_checkpoint_resume_with_a_process_pool(tmp_path):
    ck = str(tmp_path / "search.ckpt")
    first = search_counterexamples("ge", 3, 20001, 8, checkpoint_path=ck, jobs=2,
                                   stop_after_shards=3)
    lines = [json.loads(line) for line in open(ck)]
    assert len({(e["shard_start"], e["shard_end"]) for e in lines}) == len(lines) == 3

    second = search_counterexamples("ge", 3, 20001, 8, checkpoint_path=ck, jobs=2)
    assert second.shards_skipped == 3 and second.shards_run == 5
    assert first.checked + second.checked == len(range(3, 20002, 2))

    third = search_counterexamples("ge", 3, 20001, 8, checkpoint_path=ck, jobs=2)
    assert third.shards_run == 0 and third.checked == 0


@pytest.mark.parametrize("algo", sorted(RICH_ALGORITHMS))
def test_rich_tests_validate_input_like_the_kernels(algo):
    fn = RICH_ALGORITHMS[algo]
    for bad in (5.0, 1e18 + 9.0):
        with pytest.raises(TypeError):
            fn(bad)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy overflow on the way
        for n in (97, 341, 1000000007, 33077785078626881, 17364052083370132981,
                  2**64 - 59):
            want, got = fn(n), fn(np.uint64(n))
            assert (got.is_prime, got.stage.describe()) == (
                want.is_prime, want.stage.describe()), (algo, n)
    if kernel.ALGOS[algo].capped:
        with pytest.raises(TypeError):
            fn(101, 5.0)
        for n in (101, 341, 10**18 + 3):
            assert fn(n, np.int64(50)) == fn(n, 50), (algo, n)


def test_corpus_entries_reproduce():
    for report in corpus_verify():
        assert report.ok, (report.n, report.problems)


def test_corpus_factorizations_multiply_back():
    for entry in CORPUS:
        assert entry.factors
        assert math.prod(entry.factors) == entry.n


def test_corpus_covers_the_worked_examples():
    ns = {entry.n for entry in CORPUS}
    assert ns == {
        341,
        561,
        1729,
        46657,
        172081,
        6164578258027337,
        33077785078626881,
        17364052083370132981,
    }


def test_random_base_sprp():
    assert random_base_sprp(2) and random_base_sprp(3)
    assert not random_base_sprp(1)
    assert random_base_sprp(10**18 + 3, rounds=20, seed=4)
    for n in (341, 561, 33077785078626881, 17364052083370132981):
        assert not random_base_sprp(n, rounds=64, seed=4)


def test_oracle_kernel_matches_sieve_to_1e7(sieve_bytes):
    bm = sieve_bytes(10**7)
    oracle = kernel.oracle_is_prime
    assert oracle(2)
    for n in range(3, 10**7, 2):
        if oracle(n) != (bm[n] == 1):
            raise AssertionError(f"oracle disagrees with sieve at {n}")
