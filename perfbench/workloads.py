"""The four closed-loop workloads, their inputs, and their correctness gates.

Each workload is built from a seeded ``random.Random``: its set-up is the
input generation plus the oracle checks that fix the expected outputs.
``run`` then drives one client in a closed loop for a given time, and
``check`` returns how many units failed.

A workload's inputs form one pass, which the loop repeats. Outputs are
compared with the expected ones at the end of every pass, with the clock
paused, so the memory a run holds does not grow with the number of calls
and a faster program does not read as a larger one. The loop always
completes the first pass, so counts taken over it repeat exactly for a
given seed. Library functions are looked up on their modules when ``run``
starts, so a tracer installed before ``run`` sees every call.
"""

import math
import os
import random
import shutil
import statistics
import tempfile
import time
from array import array
from collections import Counter

from primekit import bigrecipes, detprime64, kernel, sprp, verification
from primekit.sprp import reference_oracle64
from primekit.verification import CORPUS, random_base_sprp

# odd 64-bit draws stay this far below 2^64 so scans upward cannot overflow
U64_HEADROOM = 2**32
RESERVOIR_SIZE = 16384  # latencies kept per sub-window, so memory is fixed
RESERVOIR_SEED = 0
WINDOWS = 10  # equal sub-windows of active time per timed loop
MIN_TIMED_CALLS = 1000  # so p99 rests on at least ten samples beyond it
SEGMENT_NS = 20_000_000  # active time between two calibrations
CAL_MODULUS = 2**128 - 159  # a prime
CAL_EXPONENT = 2**64 - 59
CAL_NOMINAL_NS = 50_000  # reported times are at the speed where a calibration takes this


class Reservoir:
    """A uniform sample of at most RESERVOIR_SIZE latencies (Vitter's
    Algorithm L), so the memory it holds is fixed from the start."""

    def __init__(self):
        self.samples = array("q", bytes(8 * RESERVOIR_SIZE))
        self.seen = 0
        self._rng = random.Random(RESERVOIR_SEED)
        self._w = math.exp(math.log(self._u()) / RESERVOIR_SIZE)
        self._next = RESERVOIR_SIZE - 1
        self._skip()

    def _u(self) -> float:
        u = 0.0
        while u == 0.0:
            u = self._rng.random()
        return u

    def _skip(self) -> None:
        self._next += math.floor(math.log(self._u()) / math.log(1 - self._w)) + 1

    def add(self, value: int) -> None:
        n = self.seen
        self.seen = n + 1
        if n < RESERVOIR_SIZE:
            self.samples[n] = value
        elif n == self._next:
            self.samples[self._rng.randrange(RESERVOIR_SIZE)] = value
            self._w *= math.exp(math.log(self._u()) / RESERVOIR_SIZE)
            self._skip()

    def values(self) -> array:
        return self.samples[: min(self.seen, RESERVOIR_SIZE)]


def percentile(samples, q) -> int:
    """Nearest-rank percentile: the ceil(n * q / 100)-th smallest sample."""
    kept = sorted(samples)
    return kept[max(1, -(-len(kept) * q // 100)) - 1]


def samples_beyond(samples, q) -> int:
    """How many samples lie beyond the nearest-rank percentile q."""
    return len(samples) + (-len(samples) * q // 100)


def calibration_ns() -> int:
    """The host's current speed: the median time of three runs of a fixed
    piece of interpreter and big-int work that does not touch primekit."""
    runs = []
    for _ in range(3):
        t0 = time.perf_counter_ns()
        s = 0
        for i in range(300):
            s += i * i % 7
        pow(3, CAL_EXPONENT + s, CAL_MODULUS)
        runs.append(time.perf_counter_ns() - t0)
    return sorted(runs)[1]


def speed_scale() -> float:
    """Factor that takes a time measured now to CAL_NOMINAL_NS speed."""
    return CAL_NOMINAL_NS / statistics.median(calibration_ns() for _ in range(15))


class Recorder:
    """Latencies and completed units of one timed loop, at nominal speed.

    On a shared host the CPU speed can change by a third within a second,
    the same for every kind of work. So the loop's active time (checks excluded) is cut
    into segments of at most SEGMENT_NS, ``calibration_ns`` is measured
    between them, and every time in a segment is scaled to CAL_NOMINAL_NS
    speed by the mean of the calibrations on either side of it.

    Segments are grouped into WINDOWS equal sub-windows of active time, each
    with its own latency sample. Rate and p50 are taken over the whole loop.
    p99 is the median across the most groups of consecutive windows (at most
    WINDOWS) that each hold MIN_TIMED_CALLS calls, so a stall of the disk or
    the host that the calibrations do not see moves one group, not the
    result; a loop with fewer than twice MIN_TIMED_CALLS calls has one
    group, the whole loop.
    """

    def __init__(self, seconds):
        self.window_ns = seconds * 1e9 / WINDOWS
        self.segment_ns = min(SEGMENT_NS, self.window_ns)
        self.calls = 0
        self.units = 0
        self.scaled_ns = 0.0  # active time, scaled
        self.windows = []  # Reservoir of scaled latencies per closed window
        self.calibrations = [calibration_ns()]
        self._window = Reservoir()
        self._window_start = 0  # active ns at which the open window began
        self._segment = []  # raw latencies of the open segment
        self._segment_units = 0
        self._segment_start = 0  # active ns at which the open segment began

    def add(self, ns: int) -> None:
        """One timed call took ``ns``."""
        self.calls += 1
        self._segment.append(ns)

    def tick(self, units: int, active_ns: int) -> bool:
        """``units`` more are done after ``active_ns`` of active time; True
        if that closed a segment, which the caller keeps off the clock."""
        self._segment_units += units
        if active_ns - self._segment_start < self.segment_ns:
            return False
        self._close_segment(active_ns)
        return True

    def finish(self, active_ns: int) -> None:
        if active_ns > self._segment_start:
            self._close_segment(active_ns)
        if self._window.seen:
            self._close_window(active_ns)

    def _close_segment(self, active_ns: int) -> None:
        cal = calibration_ns()
        scale = 2 * CAL_NOMINAL_NS / (self.calibrations[-1] + cal)
        self.calibrations.append(cal)
        for ns in self._segment:
            self._window.add(round(ns * scale))
        self.units += self._segment_units
        self.scaled_ns += (active_ns - self._segment_start) * scale
        self._segment.clear()
        self._segment_units = 0
        self._segment_start = active_ns
        if active_ns - self._window_start >= self.window_ns:
            self._close_window(active_ns)

    def _close_window(self, active_ns: int) -> None:
        if self._window.seen:
            self.windows.append(self._window)
            self._window = Reservoir()
        self._window_start = active_ns

    def latencies(self) -> array:
        return sum((w.values() for w in self.windows), array("q"))

    def p99_groups(self) -> list:
        """Latency samples of each group of windows p99 is taken over."""
        windows = [w.values() for w in self.windows]
        for g in range(min(WINDOWS, len(windows)), 1, -1):
            cut = [len(windows) * j // g for j in range(g + 1)]
            groups = [sum(windows[a:b], array("q")) for a, b in zip(cut, cut[1:])]
            if all(len(group) >= MIN_TIMED_CALLS for group in groups):
                return groups
        return [self.latencies()]


class Timed:
    """What one timed loop recorded."""

    def __init__(self, recorder, units, elapsed, failed, units_per_pass, outputs=None):
        self.recorder = recorder
        self.units = units  # units of work completed
        self.elapsed = elapsed  # wall seconds, checks excluded
        self.failed = failed  # failed units found during the loop
        self.passes = units / units_per_pass
        self.outputs = outputs  # what ``check`` still has to look at

    @property
    def calls(self) -> int:
        return self.recorder.calls

    @property
    def ops_per_s(self) -> float:
        return self.recorder.units * 1e9 / self.recorder.scaled_ns

    @property
    def latency_p50_us(self) -> float:
        return percentile(self.recorder.latencies(), 50) / 1e3

    @property
    def latency_p99_us(self) -> float:
        return statistics.median(percentile(group, 99)
                                 for group in self.recorder.p99_groups()) / 1e3

    @property
    def p99_samples_beyond(self) -> int:
        """Samples beyond p99 in the group that has fewest."""
        return min(samples_beyond(group, 99) for group in self.recorder.p99_groups())


def closed_loop(step, pass_len, seconds, tracer, end_pass, first_calls=None):
    """Call ``step(i)`` for i = 0 .. pass_len-1, over and over, until
    ``seconds`` of active time have passed and at least ``first_calls``
    (default: one pass) and MIN_TIMED_CALLS calls are done. ``end_pass(n)``
    checks the first n outputs of the pass and returns its failures; the
    clock is paused while it runs and while a segment is closed."""
    first_calls = first_calls or pass_len
    rec = Recorder(seconds)
    clock = time.perf_counter_ns
    begin = clock()
    deadline = int(seconds * 1e9)
    paused = k = i = failed = 0
    while True:
        t0 = clock()
        step(i)
        t1 = clock()
        rec.add(t1 - t0)
        active = t1 - begin - paused
        pause = rec.tick(1, active)
        k += 1
        i += 1
        if k == first_calls and tracer is not None:
            tracer.mark_first_pass()
        done = active >= deadline and k >= first_calls and k >= MIN_TIMED_CALLS
        if i == pass_len or done:
            failed += end_pass(i)
            i = 0
            if done:
                rec.finish(active)
                return Timed(rec, k, active / 1e9, failed, pass_len)
            pause = True
        if pause:
            paused += clock() - t1


def _odd_u64(rng) -> int:
    """Odd integer in [2^62, 2^64 - 2^32): full width, some above 2^63."""
    return rng.randrange(2**62, 2**64 - U64_HEADROOM) | 1


class Workload:
    name = ""

    def check(self, timed) -> int:
        """Failed units of a timed run; most are counted inside the loop."""
        return timed.failed

    def layer_metrics(self, timed) -> dict:
        """Per-layer metrics only the workload itself can measure."""
        return {}

    def close(self) -> None:
        pass


class Kernel64(Workload):
    """Unit and timed call: one kernel verdict (ge, mrge or mr7) on a
    seeded 64-bit prime; every call must return True."""

    name = "kernel64"
    ALGOS = ("ge_is_prime", "mrge_is_prime", "mr7_is_prime")

    def __init__(self, rng, tiny, workdir):
        self.primes = []
        while len(self.primes) < (8 if tiny else 512):
            n = _odd_u64(rng)
            while not reference_oracle64(n).is_prime:
                n += 2
            self.primes.append(n)
        self.pass_len = len(self.primes) * len(self.ALGOS)

    def run(self, seconds, tracer) -> Timed:
        calls = [(getattr(kernel, a), n) for n in self.primes for a in self.ALGOS]
        out = bytearray(len(calls))

        def step(i):
            fn, n = calls[i]
            try:
                out[i] = fn(n) is True
            except Exception:
                out[i] = 0

        def end_pass(n):
            return n - out.count(1, 0, n)

        return closed_loop(step, len(calls), seconds, tracer, end_pass)


class Rich64(Workload):
    """Unit and timed call: one stage-carrying verdict with ``trace=[]``:
    gauss_euler and mr_ge on windows of consecutive odd 64-bit integers and
    on the corpus entries (pinned stages), plus the two documented false
    positives through mr_ge_first_attempt and seven_base_variant."""

    name = "rich64"
    FUNCS = {
        "ge": (detprime64, "gauss_euler"),
        "mrge": (detprime64, "mr_ge"),
        "first": (detprime64, "mr_ge_first_attempt"),
        "mr7": (sprp, "seven_base_variant"),
    }

    def __init__(self, rng, tiny, workdir):
        windows, width = (2, 16) if tiny else (16, 128)
        calls = []  # (algo, n, expected is_prime, pinned stage or None)
        for _ in range(windows):
            start = _odd_u64(rng)
            for n in range(start, start + 2 * width, 2):
                want = reference_oracle64(n).is_prime
                calls += [("ge", n, want, None), ("mrge", n, want, None)]
            for entry in CORPUS:
                for algo in ("ge", "mrge"):
                    calls.append((algo, entry.n, entry.expected[algo],
                                  entry.stages.get(algo)))
                for algo in ("first", "mr7"):
                    if entry.expected[algo]:  # a documented false positive
                        calls.append((algo, entry.n, True, None))
        for entry in CORPUS:  # every corpus entry is composite
            if reference_oracle64(entry.n).is_prime or math.prod(entry.factors) != entry.n:
                raise AssertionError(f"corpus entry {entry.n} is not composite")
        self.calls = calls
        self.pass_len = len(calls)

    def run(self, seconds, tracer) -> Timed:
        fns = [getattr(*self.FUNCS[algo]) for algo, _, _, _ in self.calls]
        ns = [n for _, n, _, _ in self.calls]
        expected = bytes(want for _, _, want, _ in self.calls)
        pinned = [(i, stage) for i, (_, _, _, stage) in enumerate(self.calls) if stage]
        out = bytearray(len(ns))
        stages = [None] * len(ns)

        def step(i):
            try:
                v = fns[i](ns[i], trace=[])
            except Exception:
                out[i] = 2
                return
            out[i] = v.is_prime
            stages[i] = v.stage

        def end_pass(n):
            failed = sum(a != b for a, b in zip(out[:n], expected)) if out[:n] != expected[:n] else 0
            return failed + sum(1 for i, stage in pinned
                                if i < n and out[i] == expected[i]
                                and stages[i].describe() != stage)

        return closed_loop(step, len(ns), seconds, tracer, end_pass)


# composites with a factor below 2000 are proven composite by a gcd; every
# other wide verdict goes to the random-base oracle
_SMALL_PRIMORIAL = math.prod(p for p in range(3, 2000, 2)
                             if all(p % d for d in range(3, math.isqrt(p) + 1, 2)))
WIDE_ORACLE_ROUNDS = 16


class Wide(Workload):
    """Unit and timed call: one recipe256 next-probable-prime scan upward
    from a seeded random 256-bit odd start."""

    name = "wide"
    FIRST_PASS = 32  # scans whose counts must repeat exactly

    def __init__(self, rng, tiny, workdir):
        count = 4 if tiny else 2000
        self.starts = [rng.randrange(2**255, 2**256) | 1 for _ in range(count)]
        self.pass_len = min(self.FIRST_PASS, count)

    def run(self, seconds, tracer) -> Timed:
        recipe = bigrecipes.recipe256
        starts = self.starts
        found = [None] * len(starts)  # first result per start, checked after
        repeats_differ = [0]

        def step(i):
            n = starts[i]
            try:
                while not recipe(n).is_prime:
                    n += 2
            except Exception:
                n = -1
            if found[i] is None:
                found[i] = n
            elif found[i] != n:
                repeats_differ[0] += 1

        timed = closed_loop(step, len(starts), seconds, tracer, lambda n: 0,
                            first_calls=self.pass_len)
        timed.failed = repeats_differ[0]
        timed.passes = timed.units / self.pass_len
        timed.outputs = found
        return timed

    def check(self, timed) -> int:
        failed = timed.failed
        for i, prime in enumerate(timed.outputs):
            if prime is not None and not self._scan_ok(self.starts[i], prime, i):
                # every run of this start returned the same wrong result
                failed += (timed.units - i + len(self.starts) - 1) // len(self.starts)
        return failed

    @staticmethod
    def _scan_ok(start, prime, seed) -> bool:
        """``prime`` is the first probable prime at or above ``start``."""
        if prime < start or not random_base_sprp(prime, WIDE_ORACLE_ROUNDS, seed):
            return False
        return all(math.gcd(c, _SMALL_PRIMORIAL) > 1
                   or not random_base_sprp(c, WIDE_ORACLE_ROUNDS, seed)
                   for c in range(start, prime, 2))


class Sweep(Workload):
    """Unit: one value checked. Timed call: one search shard.

    One pass runs exhaustive_verify for ge and mrge against the sieve,
    random_verify("mrge") on seeded odd 64-bit draws at jobs=1 and jobs=2
    (same draws), then search_counterexamples("ge") over a seeded 64-bit
    window, one shard per call. Each pass takes a new window and new draws.

    The checkpointed search runs once per run, before the timed loop and
    off the clock: over the first window, one shard per call
    (stop_after_shards=1), each call re-reading the checkpoint and then
    appending to it and fsyncing it, and a final resume call that must skip
    every shard. On a shared disk an fsync can take 0.1 ms in one minute and
    4 ms in the next, which would swamp the timed shards.
    """

    name = "sweep"
    JOBS = 2
    SEARCH_WINDOWS = 1000  # passes before search windows and draws repeat

    def __init__(self, rng, tiny, workdir):
        self.limit = 2000 if tiny else 20000
        self.draws = 100 if tiny else 1000
        self.shards = 16 if tiny else 128
        self.shard_width = 40 if tiny else 150  # integers per shard, half odd
        self.windows = [_odd_u64(rng) for _ in range(self.SEARCH_WINDOWS)]
        self.draw_seeds = [rng.randrange(2**32) for _ in range(self.SEARCH_WINDOWS)]
        t0 = time.perf_counter()
        sv = verification.sieve(self.limit)
        self.sieve_build_s = time.perf_counter() - t0
        self.sieve_bytes = self.limit + 1  # one byte per n, computed
        if any(sv.is_prime(n) != reference_oracle64(n).is_prime for n in range(self.limit + 1)):
            raise AssertionError("sieve disagrees with the oracle")
        # exhaustive_verify checks n = 2 and every odd n in [3, limit]
        self.exhaustive_values = 1 + (self.limit - 1) // 2
        self.shard_values = self.shard_width // 2
        self.pass_len = (2 * self.exhaustive_values + 2 * self.draws
                         + self.shards * self.shard_values)
        self.tmpdir = tempfile.mkdtemp(prefix="sweep-", dir=workdir)

    def run(self, seconds, tracer) -> Timed:
        rundir = tempfile.mkdtemp(dir=self.tmpdir)  # a fresh checkpoint per run
        failed, checkpoint = self._checkpointed_search(os.path.join(rundir, "search.ckpt"))
        rec = Recorder(seconds)
        totals = Counter()  # phase -> seconds, phase.values -> values
        clock = time.perf_counter_ns
        begin = clock()
        deadline = int(seconds * 1e9)
        paused = k = active = 0
        while k == 0 or active < deadline or rec.calls < MIN_TIMED_CALLS:
            phases = []  # (phase, seconds, expected values, outcome)
            for phase, values, fn, args, kwargs in self._one_pass(k):
                t0 = clock()
                outcome = _call(fn, *args, **kwargs)
                t1 = clock()
                phases.append((phase, (t1 - t0) / 1e9, values, outcome))
                if phase == "shard":
                    rec.add(t1 - t0)
                active = t1 - begin - paused
                if rec.tick(values, active):
                    paused += clock() - t1
            t = clock()
            if k == 0 and tracer is not None:
                tracer.mark_first_pass()
            failed += self._check_pass(phases)
            for phase, phase_s, values, _ in phases:
                totals[phase] += phase_s
                totals[phase + ".values"] += values
            paused += clock() - t
            k += 1
        rec.finish(active)
        return Timed(rec, k * self.pass_len, active / 1e9, failed, self.pass_len,
                     {"totals": totals, "checkpoint": checkpoint})

    def _one_pass(self, k):
        """(phase, expected values, function, args, kwargs) of pass k."""
        v = verification  # attributes looked up per call, so tracing sees them
        w = k % self.SEARCH_WINDOWS
        for algo in ("ge", "mrge"):
            yield ("exhaustive", self.exhaustive_values, v.exhaustive_verify,
                   (algo, self.limit), {})
        for jobs in (1, self.JOBS):
            yield (f"random-j{jobs}", self.draws, v.random_verify,
                   ("mrge", self.draws, self.draw_seeds[w]), {"jobs": jobs})
        for lo in range(self.windows[w], self.windows[w] + self.shards * self.shard_width,
                        self.shard_width):
            yield ("shard", self.shard_values, v.search_counterexamples,
                   ("ge", lo, lo + self.shard_width - 1, 1), {})

    def _checkpointed_search(self, path):
        """Failed values of the checkpointed search over the first window,
        and the checkpoint's lines, bytes and resume time."""
        start = self.windows[0]
        search = ("ge", start, start + self.shards * self.shard_width - 1, self.shards, path)
        failed = 0
        for shard in range(self.shards):
            out = _call(verification.search_counterexamples, *search, stop_after_shards=1)
            failed += _search_failed(out, (1, shard, self.shard_values, 0), self.shard_values)
        t0 = time.perf_counter()
        out = _call(verification.search_counterexamples, *search)
        resume_ms = (time.perf_counter() - t0) * 1e3
        failed += _search_failed(out, (0, self.shards, 0, 0), 1)  # must skip every shard
        if not os.path.exists(path):
            return failed + 1, {"lines": 0, "bytes": 0, "resume_ms": resume_ms}
        lines = self._lines(path)
        checkpoint = {"lines": lines, "bytes": os.path.getsize(path), "resume_ms": resume_ms}
        os.remove(path)
        return failed + (lines != self.shards), checkpoint

    def _check_pass(self, phases) -> int:
        """Failed values of one pass."""
        failed = 0
        for phase, _, values, out in phases:
            if phase == "shard":
                failed += _search_failed(out, (1, 0, self.shard_values, 0), values)
            elif isinstance(out, Exception):
                failed += max(values, 1)
            else:
                failed += len(out)  # each mismatch record is one wrong verdict
        return failed

    @staticmethod
    def _lines(path) -> int:
        with open(path, encoding="utf-8") as f:
            return sum(1 for line in f if line.strip())

    def layer_metrics(self, timed) -> dict:
        t = timed.outputs["totals"]
        checkpoint = timed.outputs["checkpoint"]

        def rate(*phases):
            return sum(t[p + ".values"] for p in phases) / sum(t[p] for p in phases)

        return {
            "verification.sieve.build_s": self.sieve_build_s,
            "verification.sieve.bytes": self.sieve_bytes,
            "verification.exhaustive.values_per_s": rate("exhaustive"),
            "verification.random.values_per_s": rate("random-j1", f"random-j{self.JOBS}"),
            "verification.search.values_per_s": rate("shard"),
            "verification.random.parallel_efficiency":
                t["random-j1"] / t[f"random-j{self.JOBS}"] / self.JOBS,
            "verification.checkpoint.lines": checkpoint["lines"],
            "verification.checkpoint.bytes": checkpoint["bytes"],
            "verification.resume_ms": checkpoint["resume_ms"],
        }

    def close(self):
        shutil.rmtree(self.tmpdir, ignore_errors=True)


def _call(fn, *args, **kwargs):
    """fn's result, or the exception it raised."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:
        return exc


def _search_failed(out, want, values) -> int:
    """Failed values of a search report that should read ``want`` =
    (shards run, shards skipped, values checked, mismatches)."""
    if isinstance(out, Exception):
        return values
    got = (out.shards_run, out.shards_skipped, out.checked, len(out.mismatches))
    return 0 if got == want else values


WORKLOADS = {w.name: w for w in (Kernel64, Sweep, Rich64, Wide)}
