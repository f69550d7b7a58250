"""Every rich verdict, stage, witness and trace, pinned by one hash.

Each call is made with and without a trace list, and both must agree. The
hash was taken from the stage-logging rich tests that preceded the
fail-fast ones; any change to what a rich test reports on these inputs
changes it.
"""

import hashlib
import random

from primekit.bigrecipes import recipe256, recipe2048
from primekit.verification import CORPUS, RICH_ALGORITHMS

PINNED_SHA256 = "f38ca4bf3913d509a1240d252559eafb41841ddbe440e8d5d5853d88189274d0"


def _record(fn, n, digest):
    trace = []
    v = fn(n, trace=trace)
    assert fn(n) == v, (fn.__name__, n)  # tracing never changes the verdict
    row = (v.is_prime, v.stage.describe(), v.witness, [s.describe() for s in trace])
    digest.update(repr((n, row)).encode())


def test_rich_verdicts_match_the_pinned_hash():
    rng = random.Random(20261018)
    ns64 = (
        list(range(5000))
        + [rng.getrandbits(64) for _ in range(2000)]
        + [entry.n for entry in CORPUS]
        + [k * k for k in range(3, 301)]
    )
    digest = hashlib.sha256()
    for algo in sorted(RICH_ALGORITHMS):
        for n in ns64:
            _record(RICH_ALGORITHMS[algo], n, digest)
    for _ in range(100):
        _record(recipe256, rng.getrandbits(256) | (1 << 255) | 1, digest)
    for _ in range(10):
        _record(recipe2048, rng.getrandbits(1024) | (1 << 1023) | 1, digest)
    assert digest.hexdigest() == PINNED_SHA256
