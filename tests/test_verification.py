import json
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc
import warnings
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from primekit import kernel, verification
from primekit.harness import main
from primekit.residues import is_small_prime, prime_flags
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
    # one byte per flag, so the budget refuses limit 2^31 before allocating
    with pytest.raises(ValueError, match="exceeds the memory budget"):
        PrimeSieve(2**31)


def test_exhaustive_verify_clean_small():
    for algo in ("ge", "mrge", "mr7", "first"):
        assert exhaustive_verify(algo, 10**5) == []


def test_exhaustive_verify_clean_to_1e6():
    for algo in ("ge", "mrge", "mr7", "first"):
        assert exhaustive_verify(algo, 10**6) == []


def test_exhaustive_verify_parallel_agrees():
    assert exhaustive_verify("ge", 3 * 10**4, jobs=2) == []


def test_each_task_sieves_only_its_own_range(monkeypatch):
    # jobs=1 splits [3, 3*10^4] into 4 tasks and jobs=2 into 8; a full table
    # is wider than any of them
    widest = 3 * 10**4 // 4 + 1

    def segment_only(limit, start=0):
        if limit - start > widest:
            raise AssertionError(f"sieved [{start}, {limit}], wider than a task")
        return prime_flags(limit, start)

    verification._drop_pool()
    monkeypatch.setattr(verification, "prime_flags", segment_only)
    # the workers fork here, with the patch
    assert random_verify("ge", 1000, seed=3, jobs=2) == []
    for limit in (3 * 10**4, 10**4):
        assert exhaustive_verify("ge", limit, jobs=2) == exhaustive_verify("ge", limit)


def test_no_worker_outlives_the_interpreter():
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("from primekit import verification\n"
            "assert verification.random_verify('mrge', 2000, 1, jobs=2) == []\n"
            "print(*verification._pool._processes)")
    proc = subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    pids = [int(pid) for pid in proc.stdout.split()]
    assert len(pids) == 2
    deadline = time.monotonic() + 5
    for pid in pids:
        while True:
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                break
            assert time.monotonic() < deadline, f"worker {pid} outlived its parent"
            time.sleep(0.05)


def test_an_early_exit_leaves_no_pending_task(monkeypatch):
    futures = []
    submit = ProcessPoolExecutor.submit

    def recorded(pool, *args):
        futures.append(submit(pool, *args))
        return futures[-1]

    monkeypatch.setattr(ProcessPoolExecutor, "submit", recorded)
    tasks = [("ge", range(lo, lo + 4000, 2), None) for lo in range(3, 80003, 4000)]
    results = verification._dispatch(tasks, 2)
    assert next(results)[1] == []
    results.close()
    assert len(futures) == len(tasks) and all(f.done() for f in futures)
    assert verification._pool is None
    assert random_verify("mrge", 1000, seed=4, jobs=2) == []
    assert exhaustive_verify("ge", 10**4, jobs=2) == []


def test_an_exhaustive_sweep_holds_no_table_after_it_returns(monkeypatch, sieve_bytes):
    limit = 3 * 10**6
    table = sieve_bytes(limit)  # built before tracing starts
    monkeypatch.setitem(kernel.ALGORITHMS, "ge", lambda n: table[n] == 1)
    tracemalloc.start()
    try:
        assert exhaustive_verify("ge", limit) == []
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a task's segment is a quarter of the 3 MB table
    assert peak < 1.5 * 10**6
    assert held < 0.1 * 10**6


def test_large_limits_share_the_sieve_memory_budget():
    with pytest.raises(ValueError, match="exceeds the memory budget"):
        exhaustive_verify("ge", 2**31)
    assert main(["verify", "--algo", "ge", "--limit", str(2**31)]) == 2


def test_sweeps_under_forkserver():
    # forkserver workers import the package afresh and inherit nothing
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import multiprocessing\n"
            "multiprocessing.set_start_method('forkserver')\n"
            "from primekit import verification\n"
            "assert verification.exhaustive_verify('ge', 3 * 10**4, jobs=2) == []\n"
            "assert verification.random_verify('mrge', 2000, 1, jobs=2) == []\n")
    proc = subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


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


def test_random_verify_holds_a_bounded_chunk_of_draws(monkeypatch):
    # every seeded draw is checked once, in order, no more than RANDOM_CHUNK
    # at a time per job, and a disagreement from any chunk is reported
    monkeypatch.setattr(verification, "RANDOM_CHUNK", 7)
    checked = []

    def first_disagrees(algo, ns, limit):
        assert len(ns) <= 7
        checked.extend(ns)
        return ns[:1]

    monkeypatch.setattr(verification, "_disagreements", first_disagrees)
    records = random_verify("ge", 40, seed=5)
    rng = random.Random(5)
    draws = [random_odd_u64(rng) for _ in range(40)]
    assert checked == draws
    assert [r.n for r in records] == sorted(draws[::7])


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


def test_sweeps_refuse_negative_sizes(tmp_path):
    # each refuses before any work, where it once ran a smaller sweep and
    # reported it clean
    with pytest.raises(ValueError, match="limit"):
        exhaustive_verify("ge", -5)
    with pytest.raises(ValueError, match="count"):
        random_verify("mrge", -5, seed=1)
    ck = tmp_path / "search.ckpt"
    with pytest.raises(ValueError, match="stop_after_shards"):
        search_counterexamples("ge", 3, 1001, 4, checkpoint_path=str(ck),
                               stop_after_shards=-1)
    assert not ck.exists()
    assert exhaustive_verify("ge", 0) == random_verify("mrge", 0, seed=1) == []
    assert search_counterexamples("ge", 3, 1001, 4, stop_after_shards=0).shards_run == 0


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
    # the cap is the one the kernel applies: the default for the tests that
    # search, null for the others
    for algo, cap in (("ge", 1000), ("mrge", 1000), ("first", 1000), ("mr7", None)):
        ck = str(tmp_path / f"{algo}.ckpt")
        search_counterexamples(algo, 3, 1001, 2, checkpoint_path=ck)
        lines = open(ck).read().splitlines()
        assert len(lines) == 2
        for line in lines:
            obj = json.loads(line)
            assert set(obj) == {"shard_start", "shard_end", "algo", "cap",
                                "completed_at"}
            assert obj["algo"] == algo and obj["cap"] == cap
            assert re.match(r"\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}",
                            obj["completed_at"])


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
    ck = tmp_path / "search.ckpt"
    search_counterexamples("ge", 3, 1001, 2, checkpoint_path=str(ck))
    for algo in ("mr7", "mrge"):
        with pytest.raises(CheckpointError):
            search_counterexamples(algo, 3, 1001, 2, checkpoint_path=str(ck))
    again = search_counterexamples("ge", 3, 1001, 2, checkpoint_path=str(ck))
    assert again.shards_skipped == 2 and again.checked == 0

    # a shard searched under another cap, written by hand
    first, second = (json.loads(line) for line in ck.read_text().splitlines())
    ck.write_text(json.dumps(first) + "\n" + json.dumps({**second, "cap": 5}) + "\n")
    with pytest.raises(CheckpointError, match="cap=5"):
        search_counterexamples("ge", 3, 1001, 2, checkpoint_path=str(ck))

    # a cap-less algorithm records cap null and resumes only under itself
    ck7 = str(tmp_path / "mr7.ckpt")
    search_counterexamples("mr7", 3, 1001, 2, checkpoint_path=ck7)
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
    # no search cap, and the trace is passed by keyword only
    with pytest.raises(TypeError):
        fn(101, 5)


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


def test_bpsw_kernel_matches_sieve_to_1e7(sieve_bytes):
    bm = sieve_bytes(10**7)
    fn = kernel.ALGORITHMS["bpsw"]
    assert fn(2)
    for n in range(3, 10**7, 2):
        if fn(n) != (bm[n] == 1):
            raise AssertionError(f"bpsw disagrees with sieve at {n}")


def test_the_referee_is_bpsw_and_never_referees_itself():
    # against a negated referee every draw and every odd n disagree
    with pytest.MonkeyPatch.context() as mp:
        bpsw = kernel.ALGORITHMS["bpsw"]
        mp.setitem(kernel.ALGORITHMS, "bpsw", lambda n: not bpsw(n))
        rng = random.Random(1)
        draws = sorted(random_odd_u64(rng) for _ in range(50))
        assert [r.n for r in random_verify("ge", 50, seed=1)] == draws
        report = search_counterexamples("ge", 3, 99, 1)
        assert [r.n for r in report.mismatches] == list(range(3, 100, 2))
    with pytest.raises(ValueError, match="'bpsw' is the referee"):
        random_verify("bpsw", 10, seed=1)
    with pytest.raises(ValueError, match="'bpsw' is the referee"):
        search_counterexamples("bpsw", 3, 99, 1)
    # the sieve referees bpsw itself
    assert exhaustive_verify("bpsw", 10**5) == []


def _raise_wherever_held(mp, fn):
    # every primekit module that holds fn by name calls a stand-in that raises
    def broken(*args, **kwargs):
        raise AssertionError(f"{fn.__name__} was called")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "primekit":
            for attr, value in list(vars(module).items()):
                if value is fn:
                    mp.setattr(module, attr, broken)


def test_the_referees_share_no_strong_round_with_the_tests(sieve_bytes):
    from primekit import bigrecipes, detprime64, sprp

    rng = random.Random(22)
    primes = []
    while len(primes) < 200:
        n = random_odd_u64(rng)
        if detprime64.gauss_euler(n).is_prime and sprp.bpsw(n).is_prime:
            primes.append(n)
    bm = sieve_bytes(10**6)
    spsp = [n for n in range(3, 10**6, 2)
            if bm[n] != 1 and pow(2, n - 1, n) == 1 and sprp.sprp_round(n, 2)]
    assert len(spsp) == 46
    sample = list(range(2000)) + [random_odd_u64(rng) for _ in range(500)]
    sample += [entry.n for entry in CORPUS] + primes + spsp
    bpsw_verdicts = [sprp.bpsw(n) for n in sample]
    # a fault in the tests' round cannot reach the referees
    with pytest.MonkeyPatch.context() as mp:
        _raise_wherever_held(mp, sprp.strong_rounds)
        with pytest.raises(AssertionError, match="strong_rounds"):
            detprime64.mr_ge(primes[0])
        assert [sprp.bpsw(n) for n in sample] == bpsw_verdicts
        for i, p in enumerate(primes):
            assert sprp.bpsw(p).is_prime and random_base_sprp(p, 8, seed=i), p
        for n in spsp:
            assert not sprp.bpsw(n).is_prime and not random_base_sprp(n, 16, seed=n), n
    # nor a fault in the referees' round reach the tests
    wide = [rng.getrandbits(256) | (1 << 255) | 1 for _ in range(100)]
    tests = (detprime64.gauss_euler, detprime64.mr_ge, detprime64.mr_ge_first_attempt,
             sprp.seven_base_variant, bigrecipes.recipe256)
    verdicts = [[fn(n) for n in sample] for fn in tests] + [
        [bigrecipes.recipe256(n) for n in wide]]
    with pytest.MonkeyPatch.context() as mp:
        _raise_wherever_held(mp, sprp.sprp_round)
        with pytest.raises(AssertionError, match="sprp_round"):
            sprp.bpsw(primes[0])
        with pytest.raises(AssertionError, match="sprp_round"):
            random_base_sprp(primes[0])
        assert [[fn(n) for n in sample] for fn in tests] + [
            [bigrecipes.recipe256(n) for n in wide]] == verdicts


def test_mismatch_records_call_the_kernel_once_per_n(monkeypatch):
    calls = []
    ge = kernel.ALGORITHMS["ge"]

    def counted(n):
        calls.append(n)
        return ge(n)

    monkeypatch.setitem(kernel.ALGORITHMS, "ge", counted)
    records = verification._records("ge", [97, 91, 97])
    assert sorted(calls) == [91, 97]
    assert [(r.n, r.expected, r.actual) for r in records] == [
        (91, "prime", "composite"), (97, "composite", "prime")]
