"""Ground truth and systematic cross-checking.

Ground truth comes from a sieve (the exhaustive sweep) or from the
Baillie-PSW test ``bpsw`` (the random and search sweeps), which runs none
of the strong-round code of the tests it referees. No algorithm is its own
referee: the random and search sweeps refuse ``bpsw``. Mismatches are emitted as JSON
lines with fields {"n", "algo", "expected", "actual", "stage"}, n as a
decimal string.
"""

import json
import math
import os
import random
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from itertools import compress

from . import kernel
from .bigrecipes import recipe256, recipe2048
from .modarith import U64_MAX
from .residues import DEFAULT_SEARCH_CAP, prime_flags
from .sprp import sprp_round

# rich (stage-carrying) implementations, for diagnosing any mismatch
RICH_ALGORITHMS = {key: spec.rich for key, spec in kernel.ALGOS.items()}


class CheckpointError(RuntimeError):
    """Checkpoint file is corrupt or belongs to a different search layout;
    resuming is refused and an explicit restart is required."""


@dataclass(frozen=True)
class MismatchRecord:
    n: int
    algo: str
    expected: str  # "prime" | "composite"
    actual: str
    stage: str

    def to_json(self) -> str:
        return json.dumps(
            {
                "n": str(self.n),
                "algo": self.algo,
                "expected": self.expected,
                "actual": self.actual,
                "stage": self.stage,
            }
        )


# one byte per flag: the largest sieve is limit 2^31 - 1
SIEVE_MEMORY_LIMIT_BYTES = 2**31


def _check_sieve_limit(limit: int) -> None:
    if limit < 0:
        raise ValueError(f"limit must be >= 0, not {limit}")
    if limit + 1 > SIEVE_MEMORY_LIMIT_BYTES:
        raise ValueError(
            f"sieve of limit {limit} exceeds the memory budget "
            f"({SIEVE_MEMORY_LIMIT_BYTES} bytes)"
        )


class PrimeSieve:
    """Eratosthenes primality bitmap for all n <= limit."""

    def __init__(self, limit: int):
        _check_sieve_limit(limit)
        self.limit = limit
        self._flags = prime_flags(limit)

    def is_prime(self, n: int) -> bool:
        if not 0 <= n <= self.limit:
            raise ValueError("n outside the sieved range")
        return self._flags[n] == 1

    def count(self) -> int:
        return self._flags.count(1)

    def primes(self) -> list[int]:
        return list(compress(range(self.limit + 1), self._flags))


sieve = PrimeSieve


# the ground truth of the sweeps that have no sieve
REFEREE = "bpsw"


def _check_sweep(algo: str, jobs: int) -> None:
    if algo not in kernel.ALGOS:
        raise ValueError(f"unknown algorithm: {algo!r}")
    if jobs < 1:
        raise ValueError(f"need at least one job, not {jobs}")


def _check_refereed_sweep(algo: str, jobs: int) -> None:
    # checked against itself, the referee would report no mismatch and
    # prove nothing
    _check_sweep(algo, jobs)
    if algo == REFEREE:
        raise ValueError(
            f"{algo!r} is the referee of the random and search sweeps; "
            "check it with an exhaustive sweep against the sieve instead"
        )


def _disagreements(algo: str, ns, sieved: bool) -> list[int]:
    """Worker: the n in ``ns`` where the kernel verdict differs from the
    ground truth: when ``sieved``, a sieve of ns's own range [ns[0], ns[-1]]
    built here (an empty ns needs none), else the referee."""
    fn = kernel.ALGORITHMS[algo]
    if sieved and ns:
        start = ns[0]
        flags = prime_flags(ns[-1], start)
        return [n for n in ns if fn(n) != flags[n - start]]
    truth = kernel.ALGORITHMS[REFEREE]
    return [n for n in ns if fn(n) != truth(n)]


# the process's worker pool, and what its workers inherited when they were
# forked: (jobs, the kernel.ALGORITHMS entries)
_pool: ProcessPoolExecutor | None = None
_pool_state: tuple | None = None


def _drop_pool() -> None:
    """Shut the worker pool down, cancelling the tasks not yet started."""
    global _pool, _pool_state
    pool, _pool, _pool_state = _pool, None, None
    if pool is not None:
        pool.shutdown(cancel_futures=True)


def _worker_pool(jobs: int) -> ProcessPoolExecutor:
    """The pool of ``jobs`` workers. It is kept while its workers hold the
    parent's ``kernel.ALGORITHMS`` entries; otherwise it is replaced by a
    new pool, whose workers fork on its first task and so inherit the
    parent's entries. The workers hold no sieve: each task builds its own."""
    global _pool, _pool_state
    state = (jobs, tuple(kernel.ALGORITHMS.items()))
    if _pool is None or _pool_state != state:
        _drop_pool()
        _pool, _pool_state = ProcessPoolExecutor(max_workers=jobs), state
    return _pool


def _dispatch(tasks: list[tuple], jobs: int):
    """Run ``(algo, ns, sieved)`` tasks through ``_disagreements`` and
    yield (task index, disagreements) as each one finishes: in turn in this
    process when ``jobs == 1``, else in the process's pool of ``jobs``
    workers, forked on the first such call and reused by later ones (see
    ``_worker_pool``). A sieved task sieves its own range wherever it runs,
    so no table is built here for the workers to share. An exception or an
    early exit, a crashed worker included, drops the pool and cancels its
    pending tasks."""
    if jobs == 1:
        for i, task in enumerate(tasks):
            yield i, _disagreements(*task)
        return
    pool = _worker_pool(jobs)
    try:
        futs = {pool.submit(_disagreements, *task): i for i, task in enumerate(tasks)}
        for fut in as_completed(futs):
            yield futs[fut], fut.result()
    except BaseException:
        _drop_pool()
        raise


def _records(algo: str, ns) -> list[MismatchRecord]:
    # each n disagrees with its ground truth, so the truth is the opposite
    # of the kernel's verdict
    fn = kernel.ALGORITHMS[algo]
    rich = RICH_ALGORITHMS[algo]
    labels = ("composite", "prime")
    return [
        MismatchRecord(n, algo, labels[not actual], labels[actual],
                       rich(n).stage.describe())
        for n in sorted(set(ns))
        for actual in (bool(fn(n)),)
    ]


# --- exhaustive sweep against the sieve -----------------------------------


def exhaustive_verify(algo: str, limit: int, jobs: int = 1) -> list[MismatchRecord]:
    """Run ``algo`` on n = 2 and every odd n in [3, limit]; compare each
    verdict with the sieve. The odd n are split into ``jobs * 4`` tasks,
    each of which sieves only its own range of about limit / (4 * jobs)
    values, so no table outlives the sweep. Returns all mismatches
    (expected: none)."""
    _check_sweep(algo, jobs)
    _check_sieve_limit(limit)
    if limit < 2:
        return []
    bad = _disagreements(algo, (2,), True)
    tasks = [(algo, range(lo | 1, hi + 1, 2), True)
             for lo, hi in _split_range(3, limit, jobs * 4)]
    for _, part in _dispatch(tasks, jobs):
        bad.extend(part)
    return _records(algo, bad)


# --- random sampling against the referee ------------------------------------


def random_odd_u64(rng: random.Random) -> int:
    """Uniform odd integer in [3, 2^64)."""
    return 2 * rng.randrange(1, 1 << 63) + 1


# draws held per job at a time by random_verify
RANDOM_CHUNK = 2**16


def random_verify(
    algo: str, count: int, seed: int, jobs: int = 1
) -> list[MismatchRecord]:
    """Compare ``algo`` with the referee ``bpsw`` on ``count`` seeded random
    odd 64-bit integers. The draw sequence depends only on the seed (Python's
    Mersenne Twister via random.Random), so runs are reproducible. The draws
    are made and checked ``RANDOM_CHUNK * jobs`` at a time, each batch split
    evenly between the jobs, so memory stays bounded for any count."""
    _check_refereed_sweep(algo, jobs)
    if count < 0:
        raise ValueError(f"count must be >= 0, not {count}")
    rng = random.Random(seed)
    bad = []
    batch = RANDOM_CHUNK * jobs
    for done in range(0, count, batch):
        size = min(batch, count - done)
        step = -(-size // jobs)
        tasks = [(algo, [random_odd_u64(rng) for _ in range(min(step, size - i))], False)
                 for i in range(0, size, step)]
        for _, part in _dispatch(tasks, jobs):
            bad.extend(part)
    return _records(algo, bad)


# --- sharded counterexample search with checkpointing -----------------------


@dataclass(frozen=True)
class SearchReport:
    mismatches: list[MismatchRecord]
    shards_total: int
    shards_skipped: int
    shards_run: int
    checked: int


def _split_range(start: int, end: int, parts: int) -> list[tuple[int, int]]:
    """Contiguous inclusive sub-ranges covering [start, end] exactly."""
    width = end - start + 1
    parts = min(parts, width) or 1
    base, extra = divmod(width, parts)
    out = []
    lo = start
    for i in range(parts):
        hi = lo + base - 1 + (1 if i < extra else 0)
        out.append((lo, hi))
        lo = hi + 1
    return out


def _load_checkpoint(path: str, shards: list[tuple[int, int]], algo: str,
                     cap: int | None) -> set[tuple[int, int]]:
    valid = set(shards)
    done: set[tuple[int, int]] = set()
    with open(path, encoding="utf-8") as f:
        for idx, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
                key = (int(entry["shard_start"]), int(entry["shard_end"]))
                run = (entry["algo"], entry["cap"])
            except (ValueError, KeyError, TypeError) as exc:
                raise CheckpointError(
                    f"{path}:{idx}: unreadable checkpoint line (needs "
                    "shard_start, shard_end, algo and cap); refusing to resume "
                    "-- restart explicitly (delete the file)"
                ) from exc
            if run != (algo, cap):
                raise CheckpointError(
                    f"{path}:{idx}: shard was searched with algo={run[0]!r}, "
                    f"cap={run[1]!r}, not algo={algo!r}, cap={cap!r}; refusing "
                    "to resume"
                )
            if key not in valid:
                raise CheckpointError(
                    f"{path}:{idx}: shard {key} does not belong to this "
                    "range/shard layout; refusing to resume"
                )
            done.add(key)
    return done


def _append_checkpoint(path: str, lo: int, hi: int, algo: str,
                       cap: int | None) -> None:
    line = json.dumps(
        {
            "shard_start": lo,
            "shard_end": hi,
            "algo": algo,
            "cap": cap,
            "completed_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        }
    )
    with open(path, "a", encoding="utf-8") as f:
        f.write(line + "\n")
        f.flush()
        os.fsync(f.fileno())


def search_counterexamples(
    algo: str,
    start: int,
    end: int,
    shard_count: int,
    checkpoint_path: str | None = None,
    jobs: int = 1,
    stop_after_shards: int | None = None,
) -> SearchReport:
    """Compare ``algo`` against the referee ``bpsw`` on every odd n in
    [start, end], in ``shard_count`` shards.

    With a checkpoint path, each completed shard is appended as a JSON line
    (fsynced) as soon as it finishes, and a rerun skips shards already on
    file -- provided the file matches the requested algorithm, the search
    cap its kernel applies (``DEFAULT_SEARCH_CAP`` for ``ge``, ``mrge`` and
    ``first``, None for the others), the range and the shard layout exactly.
    ``stop_after_shards`` limits how many pending shards this call runs
    (used to exercise interruption/resume).
    """
    _check_refereed_sweep(algo, jobs)
    if shard_count < 1:
        raise ValueError("shard_count must be >= 1")
    if not 0 <= start <= end <= U64_MAX:
        raise ValueError("need 0 <= start <= end < 2**64")
    if stop_after_shards is not None and stop_after_shards < 0:
        raise ValueError(f"stop_after_shards must be >= 0, not {stop_after_shards}")
    run_cap = DEFAULT_SEARCH_CAP if kernel.ALGOS[algo].capped else None
    shards = _split_range(start, end, shard_count)
    done: set[tuple[int, int]] = set()
    if checkpoint_path and os.path.exists(checkpoint_path):
        done = _load_checkpoint(checkpoint_path, shards, algo, run_cap)
    pending = [sh for sh in shards if sh not in done]
    if stop_after_shards is not None:
        pending = pending[:stop_after_shards]

    tasks = [(algo, range(lo | 1, hi + 1, 2), False) for lo, hi in pending]
    bad_ns: list[int] = []
    checked = 0
    for i, part in _dispatch(tasks, jobs):
        bad_ns.extend(part)
        checked += len(tasks[i][1])
        if checkpoint_path:
            _append_checkpoint(checkpoint_path, *pending[i], algo, run_cap)
    return SearchReport(
        mismatches=_records(algo, bad_ns),
        shards_total=len(shards),
        shards_skipped=len(done),
        shards_run=len(pending),
        checked=checked,
    )


# --- worked-example corpus ---------------------------------------------------


@dataclass(frozen=True)
class CorpusEntry:
    n: int
    factors: tuple[int, ...]  # empty when prime (none here)
    note: str
    expected: dict  # algo key -> is_prime
    stages: dict  # algo key -> pinned stage description


_CORPUS_ALGOS = {**RICH_ALGORITHMS, "recipe256": recipe256, "recipe2048": recipe2048}


def _expect(weak=None):
    # every corpus entry is composite; only a documented false positive
    # reports prime, on its weak algorithm
    return {key: key == weak for key in _CORPUS_ALGOS}


CORPUS: tuple[CorpusEntry, ...] = (
    CorpusEntry(
        341,
        (11, 31),
        "base-2 Fermat pseudoprime; dies at the mod-8 sign check",
        _expect(),
        {"ge": "mod8-euler(base=2)", "mrge": "mr-round(base=2)"},
    ),
    CorpusEntry(
        561,
        (3, 11, 17),
        "Carmichael number; passes the mod-8 check, dies at base isqrt(561)=23",
        _expect(),
        {"ge": "sqrt-base(base=23)"},
    ),
    CorpusEntry(
        1729,
        (7, 13, 19),
        "smallest absolute Euler pseudoprime; base isqrt+1=42 shares factor 7",
        _expect(),
        {"ge": "sqrt-base(base=42)"},
    ),
    CorpusEntry(
        46657,
        (13, 37, 97),
        "absolute Euler pseudoprime that survives the sqrt bases; the 8k+5 "
        "reciprocity check with p=5 kills it",
        _expect(),
        {"ge": "reciprocity(8k+5,p=5)"},
    ),
    CorpusEntry(
        172081,
        (7, 13, 31, 61),
        "Carmichael number caught by sqrt base isqrt(n//2)+1 = 294",
        _expect(),
        {"ge": "sqrt-base(base=294)"},
    ),
    CorpusEntry(
        6164578258027337,
        (64107089, 96160633),
        "semiprime passing the mod-8 check, all four sqrt bases, and the "
        "8k+5/4k+1 single checks; only the 8k+1 check with p=17 rejects it",
        _expect(),
        {"ge": "reciprocity(8k+1,p=17)"},
    ),
    CorpusEntry(
        33077785078626881,
        (105004421, 315013261),
        "documented false positive of the seven-base variant",
        _expect("mr7"),
        {"ge": "reciprocity(8k+5,p=13)", "mrge": "mr-round(base=181872990)"},
    ),
    CorpusEntry(
        17364052083370132981,
        (548893, 1646677, 19211221),
        "documented false positive of the first-attempt design; larger than "
        "2^63, so it also exercises full-width arithmetic",
        _expect("first"),
        {"ge": "reciprocity(8k+5,p=53)", "mrge": "mr-round(base=2946527793)"},
    ),
)


@dataclass(frozen=True)
class EntryReport:
    n: int
    note: str
    ok: bool
    problems: tuple[str, ...]


def corpus_verify() -> list[EntryReport]:
    """Run every algorithm over every corpus entry; check verdicts, pinned
    stages, and that the stored factorizations multiply back to n."""
    reports = []
    for entry in CORPUS:
        problems = []
        if entry.factors:
            prod = math.prod(entry.factors)
            if prod != entry.n:
                problems.append(f"factors multiply to {prod}, not {entry.n}")
        for key, expected_prime in entry.expected.items():
            verdict = _CORPUS_ALGOS[key](entry.n)
            if verdict.is_prime != expected_prime:
                problems.append(
                    f"{key}: expected {'prime' if expected_prime else 'composite'}, "
                    f"got {verdict.label} at {verdict.stage.describe()}"
                )
            pinned = entry.stages.get(key)
            if pinned is not None and verdict.stage.describe() != pinned:
                problems.append(
                    f"{key}: expected stage {pinned}, got {verdict.stage.describe()}"
                )
        reports.append(
            EntryReport(entry.n, entry.note, not problems, tuple(problems))
        )
    return reports


# --- random-base strong-probable-prime oracle (for the wide recipes) --------


def random_base_sprp(n: int, rounds: int = 64, seed: int | None = None) -> bool:
    """Strong-probable-prime test with ``rounds`` uniformly drawn bases in
    [2, n-2]. The acceptance oracle for the wide recipes; not used by any
    production 64-bit path."""
    if n < 2:
        return False
    if n < 4:
        return True  # 2, 3
    if n % 2 == 0:
        return False
    rng = random.Random(seed)
    for _ in range(rounds):
        if not sprp_round(n, rng.randrange(2, n - 1)):
            return False
    return True
