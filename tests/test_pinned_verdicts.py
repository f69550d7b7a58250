"""Every rich verdict, stage, witness and trace, pinned by hashes.

Each call is made with and without a trace list, and both must agree. The
first hash was taken from the stage-logging rich tests that preceded the
fail-fast ones; any change to what a rich test reports on these inputs
changes it. The second pins the small-n screens of the wide recipes and of
``mr_with_schedule``, which the first reaches only on wide values. The third
pins ``bpsw`` on the 64-bit inputs of the first.
"""

import hashlib
import random

from primekit.bigrecipes import recipe256, recipe2048
from primekit.sprp import SEVEN_BASE_SCHEDULE, Literal, bpsw, mr_with_schedule
from primekit.verification import CORPUS, RICH_ALGORITHMS

PINNED_SHA256 = "f38ca4bf3913d509a1240d252559eafb41841ddbe440e8d5d5853d88189274d0"
SMALL_N_SHA256 = "74ac79436d372ca34dde8a7c078bc47660842ec20c7098a642106f0f5a27e7ed"
BPSW_SHA256 = "c6296f4b1f822ee6b2f7fe75f763e9139f397ac5f69282c7c927946334db24c1"

# the algorithms the first hash pins, by name: bpsw, added later, has its own
PINNED_ALGOS = ("first", "ge", "mr7", "mrge", "oracle")


def _record(fn, n, digest):
    trace = []
    v = fn(n, trace=trace)
    assert fn(n) == v, (fn.__name__, n)  # tracing never changes the verdict
    row = (v.is_prime, v.stage.describe(), v.witness, [s.describe() for s in trace])
    digest.update(repr((n, row)).encode())


def _ns64(rng):
    return (
        list(range(5000))
        + [rng.getrandbits(64) for _ in range(2000)]
        + [entry.n for entry in CORPUS]
        + [k * k for k in range(3, 301)]
    )


def test_rich_verdicts_match_the_pinned_hash():
    rng = random.Random(20261018)
    ns64 = _ns64(rng)
    digest = hashlib.sha256()
    for algo in PINNED_ALGOS:
        for n in ns64:
            _record(RICH_ALGORITHMS[algo], n, digest)
    for _ in range(100):
        _record(recipe256, rng.getrandbits(256) | (1 << 255) | 1, digest)
    for _ in range(10):
        _record(recipe2048, rng.getrandbits(1024) | (1 << 1023) | 1, digest)
    assert digest.hexdigest() == PINNED_SHA256


def test_bpsw_verdicts_match_the_pinned_hash():
    digest = hashlib.sha256()
    for n in _ns64(random.Random(20261018)):
        _record(bpsw, n, digest)
    assert digest.hexdigest() == BPSW_SHA256


def _seven_base_schedule(n, trace=None):
    return mr_with_schedule(n, SEVEN_BASE_SCHEDULE, trace)


def _bases_2_3(n, trace=None):
    return mr_with_schedule(n, (Literal(2), Literal(3)), trace)


def test_small_n_verdicts_match_the_pinned_hash():
    digest = hashlib.sha256()
    for fn in (recipe256, recipe2048, _seven_base_schedule, _bases_2_3):
        for n in range(1000):
            _record(fn, n, digest)
    assert digest.hexdigest() == SMALL_N_SHA256
