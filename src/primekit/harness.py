"""Command-line front end and benchmark runner.

Benchmarks time a full pass over one of four fixed input sets (100,000
values each) with a monotonic clock, reporting the median of R repetitions
after one discarded warm-up pass. Absolute seconds depend on the machine;
only orderings and ratios are comparable across runs.

Exit codes: 0 success / no mismatch, 1 mismatch found, 2 usage error,
3 a worker process of a ``--jobs`` sweep crashed. Every command, ``bench``
too, runs the kernel PRIMEKIT_BACKEND selected; ``primekit.__main__.main``
exits 2 when that is a forced kernel that is not built.
"""

import argparse
import statistics
import sys
import time
import warnings
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

from . import kernel
from .bigrecipes import recipe256, recipe2048
from .verification import (
    CheckpointError,
    REFEREE,
    PrimeSieve,
    RICH_ALGORITHMS,
    corpus_verify,
    exhaustive_verify,
    random_verify,
    search_counterexamples,
)

CSV_HEADER = "set,algo,reps,median_seconds,ns_per_call,primes,composites"

SET4_FIRST = 1000000000000000003
SET4_EXPECTED_LAST = 1000000000004133179


# set id -> what the set holds
BENCH_SETS: dict[int, str] = {
    1: "odd 1..199999 (the smallest 100,000 odd numbers)",
    2: "primes 2..1299709 (the smallest 100,000 primes)",
    3: "odd 10^18+1..10^18+199999 (100,000 19-digit odd numbers)",
    4: "100,000 19-digit primes from 1000000000000000003 up",
}

_set_cache: dict[int, list[int]] = {}


def generate_set(set_id: int) -> list[int]:
    """Materialize one of the four fixed benchmark sets (cached)."""
    if set_id not in BENCH_SETS:
        raise ValueError(f"unknown benchmark set: {set_id}")
    data = _set_cache.get(set_id)
    if data is not None:
        return data
    if set_id == 1:
        data = list(range(1, 200000, 2))
    elif set_id == 2:
        data = PrimeSieve(1299709).primes()
        if len(data) != 100000 or data[-1] != 1299709:
            warnings.warn(
                f"set 2 regenerated as {len(data)} primes ending at {data[-1]}; "
                "expected 100000 ending at 1299709"
            )
    elif set_id == 3:
        data = list(range(10**18 + 1, 10**18 + 200000, 2))
    else:
        data = _build_set4()
    _set_cache[set_id] = data
    return data


def _build_set4() -> list[int]:
    # the referee of the random and search sweeps, so there is one ground truth
    is_prime = kernel.ALGORITHMS[REFEREE]
    out = []
    n = SET4_FIRST
    while len(out) < 100000:
        if is_prime(n):
            out.append(n)
        n += 2
    if out[0] != SET4_FIRST or out[-1] != SET4_EXPECTED_LAST:
        # report, never silently accept, a drift from the documented endpoints
        warnings.warn(
            f"set 4 regenerated as [{out[0]}, {out[-1]}]; expected "
            f"[{SET4_FIRST}, {SET4_EXPECTED_LAST}]"
        )
    return out


@dataclass(frozen=True)
class BenchResult:
    set_id: int
    algo: str
    reps: int
    median_seconds: float
    ns_per_call: float
    primes: int
    composites: int
    backend: str

    def csv_row(self) -> str:
        return (
            f"{self.set_id},{self.algo},{self.reps},{self.median_seconds:.6f},"
            f"{self.ns_per_call:.1f},{self.primes},{self.composites}"
        )

    def human(self) -> str:
        return (
            f"set {self.set_id} algo={self.algo} reps={self.reps} "
            f"median={self.median_seconds:.3f}s ({self.ns_per_call:.0f} ns/call) "
            f"primes={self.primes} composites={self.composites} "
            f"backend={self.backend}"
        )


def run_bench(set_id: int, algo: str, reps: int = 3) -> BenchResult:
    """Median-of-``reps`` timing of one full single-threaded pass of the
    kernel this process runs (``kernel.ALGORITHMS``, as PRIMEKIT_BACKEND
    selected it)."""
    if algo not in kernel.ALGOS:
        raise ValueError(f"unknown algorithm: {algo!r}")
    if reps < 1:
        raise ValueError("reps must be >= 1")
    data = generate_set(set_id)
    fn = kernel.ALGORITHMS[algo]

    primes = 0
    for x in data:  # warm-up pass, discarded
        fn(x)
    times = []
    for _ in range(reps):
        count = 0
        t0 = time.perf_counter()
        for x in data:
            if fn(x):
                count += 1
        times.append(time.perf_counter() - t0)
        primes = count
    med = statistics.median(times)
    return BenchResult(
        set_id=set_id,
        algo=algo,
        reps=reps,
        median_seconds=med,
        ns_per_call=med / len(data) * 1e9,
        primes=primes,
        composites=len(data) - primes,
        backend=kernel.BACKEND,
    )


# --- CLI ---------------------------------------------------------------------


def _int_arg(text: str) -> int:
    """Decimal or 0x-prefixed hexadecimal integer."""
    t = text.strip()
    try:
        return int(t, 16) if t.lower().startswith("0x") else int(t, 10)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="primekit",
        description="Primality toolkit: deterministic 64-bit tests, wide "
        "probabilistic recipes, verification and benchmarks.",
    )
    sub = p.add_subparsers(dest="command", required=True)
    algos = tuple(kernel.ALGOS)

    t = sub.add_parser("test", help="classify one integer")
    t.add_argument("n", type=_int_arg)
    t.add_argument("--algo", choices=algos, default="ge")
    t.add_argument("--trace", action="store_true", help="print evaluated stages")

    v = sub.add_parser("verify", help="sweep an algorithm against ground truth")
    v.add_argument("--algo", choices=algos, required=True)
    grp = v.add_mutually_exclusive_group(required=True)
    grp.add_argument("--limit", type=_int_arg, help="odd 3..limit plus 2, vs sieve")
    grp.add_argument(
        "--random", type=_int_arg, metavar="COUNT",
        help="seeded random odd 64-bit draws, vs the bpsw referee",
    )
    v.add_argument("--seed", type=int, default=42)
    v.add_argument("--jobs", type=_int_arg, default=1)

    b = sub.add_parser("bench", help="time one algorithm over one fixed set")
    b.add_argument("--set", dest="set_id", type=int, choices=BENCH_SETS, required=True)
    b.add_argument("--algo", choices=algos, required=True)
    b.add_argument("--reps", type=int, default=3)
    b.add_argument("--csv", action="store_true")

    s = sub.add_parser(
        "search", help="scan a range for disagreements with the bpsw referee"
    )
    s.add_argument("--algo", choices=algos, required=True)
    s.add_argument("--from", dest="start", type=_int_arg, required=True)
    s.add_argument("--to", dest="end", type=_int_arg, required=True)
    s.add_argument("--shards", type=int, default=16)
    s.add_argument("--jobs", type=_int_arg, default=1)
    s.add_argument("--checkpoint", default=None, metavar="FILE")

    sub.add_parser("corpus", help="re-run the worked-example corpus")

    g = sub.add_parser("bigtest", help="wide-candidate probable-prime test")
    g.add_argument("n", type=_int_arg, help="decimal or 0x-prefixed hex")
    g.add_argument("--recipe", choices=("256", "2048"), required=True)

    return p


def _cmd_test(args) -> int:
    trace = [] if args.trace else None
    verdict = RICH_ALGORITHMS[args.algo](args.n, trace=trace)
    if trace is not None:
        for step in trace:
            print(step.describe())
    print(verdict.label)
    return 0


def _cmd_verify(args) -> int:
    if args.limit is not None:
        records = exhaustive_verify(args.algo, args.limit, jobs=args.jobs)
    else:
        records = random_verify(args.algo, args.random, seed=args.seed, jobs=args.jobs)
    for rec in records:
        print(rec.to_json())
    return 1 if records else 0


def _cmd_bench(args) -> int:
    result = run_bench(args.set_id, args.algo, reps=args.reps)
    if args.csv:
        print(CSV_HEADER)
        print(result.csv_row())
    else:
        print(result.human())
    return 0


def _cmd_search(args) -> int:
    report = search_counterexamples(
        args.algo,
        args.start,
        args.end,
        shard_count=args.shards,
        checkpoint_path=args.checkpoint,
        jobs=args.jobs,
    )
    for rec in report.mismatches:
        print(rec.to_json())
    print(
        f"shards: {report.shards_run} run, {report.shards_skipped} skipped "
        f"(of {report.shards_total}); {report.checked} values checked",
        file=sys.stderr,
    )
    return 1 if report.mismatches else 0


def _cmd_corpus(args) -> int:
    reports = corpus_verify()
    bad = 0
    for rep in reports:
        if rep.ok:
            print(f"ok {rep.n}: {rep.note}")
        else:
            bad += 1
            print(f"MISMATCH {rep.n}: {'; '.join(rep.problems)}")
    return 1 if bad else 0


def _cmd_bigtest(args) -> int:
    fn = recipe256 if args.recipe == "256" else recipe2048
    verdict = fn(args.n)
    print("probable prime" if verdict.is_prime else "composite")
    return 0


_COMMANDS = {
    "test": _cmd_test,
    "verify": _cmd_verify,
    "bench": _cmd_bench,
    "search": _cmd_search,
    "corpus": _cmd_corpus,
    "bigtest": _cmd_bigtest,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except CheckpointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenProcessPool as exc:  # a RuntimeError, but not a usage error
        print(f"error: a worker process crashed: {exc}", file=sys.stderr)
        return 3
    except (OverflowError, ValueError, RuntimeError) as exc:
        # RuntimeError is an exhausted nonresidue search: a hard failure,
        # never a verdict
        print(f"error: {exc}", file=sys.stderr)
        return 2
