"""Spans and counts at the boundaries of the primekit modules, from outside.

The package's modules import each other's functions by name
(``from .modarith import powmod``), so wrapping ``modarith.powmod`` alone
would miss every internal call. ``Tracer.install`` therefore replaces each
traced function wherever a primekit module holds it: as a module attribute
or as a value of a module-level dict (``kernel.ALGORITHMS``,
``verification.RICH_ALGORITHMS``). The backends ``_pykernel`` and
``_kernel64`` sit below the ``kernel`` layer and are left alone.
``uninstall`` puts every original back. No file of the package changes.

A span is (id, parent id, name, start ns, end ns, unit id). The unit id is
the number of the top-level span it belongs to, which is the benchmark's
timed call. Spans of the first pass over the workload's inputs are kept in
memory and written out by ``write_spans``, so the file holds as many spans
as that pass made calls; counts and times are kept for every call.

Calls made inside worker processes of a process pool are not traced: the
forked workers run the wrapped functions, but their records stay in the
worker and are dropped.
"""

import functools
import importlib
import json
import time
from collections import Counter

# (metric name, module, attribute): the public functions measured per layer
TRACED = (
    ("kernel.ge", "primekit.kernel", "ge_is_prime"),
    ("kernel.mrge", "primekit.kernel", "mrge_is_prime"),
    ("kernel.mr7", "primekit.kernel", "mr7_is_prime"),
    ("kernel.oracle", "primekit.kernel", "oracle_is_prime"),
    ("modarith.powmod", "primekit.modarith", "powmod"),
    ("modarith.mulmod", "primekit.modarith", "mulmod"),
    ("modarith.isqrt", "primekit.modarith", "isqrt"),
    ("residues.search", "primekit.residues", "smallest_nonresidue_prime"),
    ("residues.is_small_prime", "primekit.residues", "is_small_prime"),
    ("sprp.round", "primekit.sprp", "sprp_round"),
    ("sprp.decompose", "primekit.sprp", "decompose"),
    ("detprime64.gauss_euler", "primekit.detprime64", "gauss_euler"),
    ("detprime64.mr_ge", "primekit.detprime64", "mr_ge"),
    ("bigrecipes.recipe256", "primekit.bigrecipes", "recipe256"),
    ("verification.exhaustive", "primekit.verification", "exhaustive_verify"),
    ("verification.random", "primekit.verification", "random_verify"),
    ("verification.search", "primekit.verification", "search_counterexamples"),
)

def _observe_search(counts, args, kwargs, result):
    counts["residues.search.inspected"] += result.inspected
    counts["residues.search.found"] += result.found


def _observe_round(counts, args, kwargs, result):
    counts["sprp.round.passed"] += bool(result)


def _observe_verdict(counts, args, kwargs, result):
    counts["detprime64.stage." + result.stage.kind] += 1
    counts["verdicts.trace_steps"] += len(kwargs.get("trace") or ())


OBSERVERS = {
    "residues.search": _observe_search,
    "sprp.round": _observe_round,
    "detprime64.gauss_euler": _observe_verdict,
    "detprime64.mr_ge": _observe_verdict,
}


class Tracer:
    def __init__(self):
        self.stats: dict[str, list[int]] = {}  # name -> [calls, total ns, self ns]
        self.counts: Counter = Counter()
        self.spans: list[tuple] = []
        self.first_pass: Counter | None = None
        self._stack: list[list[int]] = []  # [span id, ns covered by children]
        self._next_id = 0
        self._units = 0
        self._patches: list[tuple] = []

    # --- recording ---------------------------------------------------------

    def _wrap(self, name, fn):
        stat = self.stats.setdefault(name, [0, 0, 0])
        observe = OBSERVERS.get(name)
        counts = self.counts
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._next_id += 1
            parent = stack[-1] if stack else None
            if parent is None:
                self._units += 1
            frame = [self._next_id, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                span_ns = end - start
                stat[0] += 1
                stat[1] += span_ns
                stat[2] += span_ns - frame[1]
                if parent is not None:
                    parent[1] += span_ns
                if self.first_pass is None:
                    spans.append((frame[0], parent[0] if parent else 0, name,
                                  start, end, self._units))
            if observe is not None:
                observe(counts, args, kwargs, result)
            return result

        return traced

    def mark_first_pass(self) -> None:
        """Freeze the counts of the first pass over the workload's inputs
        and stop keeping spans; with a fixed seed both repeat exactly from
        run to run."""
        if self.first_pass is None:
            self.first_pass = Counter(self.counts)
            for name, (calls, _, _) in self.stats.items():
                self.first_pass[name + ".calls"] = calls

    # --- patching ----------------------------------------------------------

    def install(self) -> None:
        modules = [importlib.import_module(m) for m in sorted(
            {m for _, m, _ in TRACED} | {"primekit", "primekit.harness"})]
        for name, module, attr in TRACED:
            original = getattr(importlib.import_module(module), attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((vars(mod), key, original))
                        setattr(mod, key, wrapper)
                    elif isinstance(value, dict):
                        for k, v in list(value.items()):
                            if v is original:
                                self._patches.append((value, k, original))
                                value[k] = wrapper

    def uninstall(self) -> None:
        for table, key, original in reversed(self._patches):
            table[key] = original
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # --- output ------------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0])[0]

    def total_ns(self, name: str) -> int:
        return self.stats.get(name, [0, 0])[1]

    def self_ns(self, name: str) -> int:
        return self.stats.get(name, [0, 0, 0])[2]

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for sid, parent, name, start, end, unit in self.spans:
                f.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                    "start_ns": start, "end_ns": end,
                                    "unit": unit}) + "\n")
