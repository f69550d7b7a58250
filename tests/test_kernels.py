"""Parity and exactness checks for the compiled and pure kernels.

The rich stage-carrying implementations are the reference semantics; both
kernels must agree with them verdict-for-verdict, and the compiled
arithmetic must agree with big-int arithmetic over the full u64 range.
The compiled kernel under test is the fresh build of ``conftest.py``.
"""

import ast
import os
import random
import re
import shutil
import subprocess
import sys
from math import isqrt
from pathlib import Path

import numpy as np
import pytest
from conftest import CC, PYTHON_H, REPO, build_copy, load_build, needs_build_tools

from primekit import detprime64, kernel, residues
from primekit.detprime64 import (
    SearchCapExceeded,
    gauss_euler,
    mr_ge,
    mr_ge_first_attempt,
)
from primekit.modarith import U64_MAX
from primekit.sprp import bpsw, seven_base_variant
from primekit.verdicts import (
    MOD8_EULER,
    MR_ROUND,
    RECIPROCITY,
    SMALL_PRIME_SCREEN,
    SQRT_BASE,
    Stage,
)

RICH = {
    "ge_is_prime": gauss_euler,
    "mrge_is_prime": mr_ge,
    "first_attempt_is_prime": mr_ge_first_attempt,
    "mr7_is_prime": seven_base_variant,
    "bpsw_is_prime": bpsw,
}

CORPUS_NS = (
    341,
    561,
    1729,
    2047,
    46657,
    172081,
    6164578258027337,
    33077785078626881,
    17364052083370132981,
    10**18 + 3,
    U64_MAX,
)


# the one line of _kernel64.c that sets the nonresidue walk's cap
CAP_DEFINE = re.compile(r"^#define DEFAULT_SEARCH_CAP (\d+)$", re.MULTILINE)


@pytest.fixture(scope="session")
def one_cap_c_kernel(tmp_path_factory):
    """A compiled kernel built with the cap define rewritten to 1."""

    def one_cap(source: str) -> str:
        source, count = CAP_DEFINE.subn("#define DEFAULT_SEARCH_CAP 1", source)
        assert count == 1
        return source

    return load_build(build_copy(tmp_path_factory.mktemp("one_cap"), one_cap))


@needs_build_tools
def test_compiled_kernel_is_built(kernel_build):
    # this repo builds the extension; the pure path stays a fallback
    check = (
        "from primekit import kernel\n"
        "assert 'c' in kernel.available_backends(), kernel.available_backends()\n"
        "assert kernel.load_backend('c').BACKEND_NAME == 'c'\n"
        "assert kernel.load_backend('py').BACKEND_NAME == 'python'\n"
        "assert kernel.BACKEND == 'c', kernel.BACKEND\n"
        "print(kernel.__file__)\n"
    )
    env = {k: v for k, v in os.environ.items() if k != "PRIMEKIT_BACKEND"}
    env["PYTHONPATH"] = str(kernel_build)
    proc = subprocess.run(
        [sys.executable, "-c", check],
        cwd=kernel_build.parent,
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert Path(proc.stdout.strip()).is_relative_to(kernel_build)


def test_the_algorithm_table_pairs_each_entry_with_its_rich_test():
    assert {spec.entry: spec.rich for spec in kernel.ALGOS.values()} == RICH
    assert kernel.ALGORITHMS == {
        name: getattr(kernel, spec.entry) for name, spec in kernel.ALGOS.items()}


def test_backend_exposes_every_entry(impl):
    for spec in kernel.ALGOS.values():
        assert callable(getattr(impl, spec.entry)), spec.entry


def test_kernel_parity_small_range(impl):
    for name, rich in RICH.items():
        fn = getattr(impl, name)
        for n in range(0, 4000):
            assert fn(n) == rich(n).is_prime, (name, n)


def test_kernel_parity_random_u64(impl):
    rng = random.Random(123)
    ns = [rng.randrange(0, 2**64) for _ in range(1500)] + list(CORPUS_NS)
    for name, rich in RICH.items():
        fn = getattr(impl, name)
        for n in ns:
            assert fn(n) == rich(n).is_prime, (name, n)


def test_mulmod_random_triples_vs_bigint(impl):
    rng = random.Random(42)
    mulmod = impl.mulmod
    for _ in range(10**6):
        m = rng.randrange(1, U64_MAX + 1)
        a = rng.randrange(0, m)
        b = rng.randrange(0, m)
        assert mulmod(a, b, m) == a * b % m


def test_mulmod_unreduced_operands(impl):
    assert impl.mulmod(2**63 + 1, 2**63 + 3, 2**64 - 59) == 13835058055282164659
    assert impl.mulmod(U64_MAX, U64_MAX, U64_MAX) == 0
    assert impl.mulmod(U64_MAX, U64_MAX, 2**61 - 1) == pow(U64_MAX, 2, 2**61 - 1)


def test_powmod_exhaustive_vs_repeated_multiplication(impl):
    # naive oracle: acc tracks a^e mod m by literal repeated multiplication
    powmod = impl.powmod
    for m in range(2, 256):
        for a in range(m):
            acc = 1 % m
            for e in range(256):
                assert powmod(a, e, m) == acc
                acc = acc * a % m


def test_powmod_reduces_base_first(impl):
    rng = random.Random(5)
    for _ in range(2000):
        m = rng.randrange(2, 2**32)
        a = rng.randrange(0, U64_MAX + 1)
        e = rng.randrange(0, 2**20)
        assert impl.powmod(a, e, m) == impl.powmod(a % m, e, m) == pow(a, e, m)


def test_powmod_full_width(impl):
    rng = random.Random(6)
    for _ in range(2000):
        m = rng.randrange(2, U64_MAX + 1)
        a = rng.randrange(0, m)
        e = rng.randrange(0, U64_MAX + 1)
        assert impl.powmod(a, e, m) == pow(a, e, m)


def test_isqrt64_boundaries(impl):
    k = 2**32 - 1
    assert impl.isqrt64(0) == 0
    assert impl.isqrt64(1) == 1
    assert impl.isqrt64(k * k - 1) == k - 1
    assert impl.isqrt64(k * k) == k
    assert impl.isqrt64(k * k + 1) == k
    assert impl.isqrt64(U64_MAX) == k
    rng = random.Random(9)
    for _ in range(20000):
        n = rng.randrange(0, U64_MAX + 1)
        r = impl.isqrt64(n)
        assert r * r <= n < (r + 1) * (r + 1)


def test_kernel_overflow_errors(impl):
    # both kernels give the pure kernel's text, whichever argument is out of range
    for bad in (2**64, 2**64 + 17, -1):
        for call in (lambda: impl.ge_is_prime(bad), lambda: impl.bpsw_is_prime(bad),
                     lambda: impl.isqrt64(bad), lambda: impl.mulmod(bad, 1, 5),
                     lambda: impl.powmod(3, bad, 5), lambda: impl.powmod(3, 2, bad)):
            with pytest.raises(OverflowError) as caught:
                call()
            assert str(caught.value) == "n must fit in an unsigned 64-bit integer"


def test_kernel_zero_modulus(impl):
    with pytest.raises(ValueError):
        impl.mulmod(1, 2, 0)
    with pytest.raises(ValueError):
        impl.powmod(1, 2, 0)


@pytest.fixture(params=[pytest.param("c", marks=needs_build_tools), "python"])
def one_cap_impl(request, monkeypatch):
    """A kernel whose nonresidue walk may inspect one candidate."""
    if request.param == "c":
        return request.getfixturevalue("one_cap_c_kernel")
    monkeypatch.setattr(detprime64, "DEFAULT_SEARCH_CAP", 1)
    return kernel.load_backend("py")


def test_kernel_exhausted_cap_raises(one_cap_impl):
    # both backends raise the pure path's class, which the CLI reports as a
    # RuntimeError (exit 2), with its text naming the form whose walk ran out:
    # the first candidate of the named form is a residue of its n, so one
    # candidate finds no nonresidue (ge reaches 8k+1 on 103, a nonresidue of 5)
    for entry, n, form in (("ge_is_prime", 101, "8k+5"), ("ge_is_prime", 103, "8k+1"),
                           ("mrge_is_prime", 103, "4k+3"),
                           ("first_attempt_is_prime", 101, "4k+1")):
        with pytest.raises(SearchCapExceeded) as caught:
            getattr(one_cap_impl, entry)(n)
        assert str(caught.value) == (
            f"no {form} prime with (n/p) = -1 within 1 candidates for n={n}"), entry
    assert one_cap_impl.mrge_is_prime(101)  # 3 is a nonresidue mod 101
    assert one_cap_impl.mr7_is_prime(101)  # no walk, no cap


def test_the_kernels_share_one_search_cap():
    source = (REPO / "src" / "primekit" / "_kernel64.c").read_text()
    assert [int(cap) for cap in CAP_DEFINE.findall(source)] == [
        residues.DEFAULT_SEARCH_CAP]


# the table of _kernel64.c, one row per line:
#   NAME = {small_below, squares, euler, {literals}, {{k, j} x 4}, {{first, step}, ...}},
ROW_TABLE = re.compile(
    r"^static const struct test\n((?: +\w+ += \{.*\}[,;]\n)+)", re.MULTILINE)
ROW = re.compile(r"^ +(\w+) += (\{.*\})[,;]$", re.MULTILINE)
# a verdict entry that runs a row: py_<entry>(...) { return capped(&ROW, arg); }
ROW_ENTRY = re.compile(
    r"^static PyObject \*py_(\w+)\(PyObject \*Py_UNUSED\(module\), PyObject \*arg\)\n"
    r"\{\n    return capped\(&(\w+), arg\);\n\}$",
    re.MULTILINE,
)


def _kernel_rows() -> dict[str, dict]:
    """Each row of the compiled kernel's table, by the entry that runs it."""
    source = (REPO / "src" / "primekit" / "_kernel64.c").read_text()
    (table,) = ROW_TABLE.findall(source)
    rows = {}
    for name, body in ROW.findall(table):
        bound, squares, euler, literals, roots, forms = ast.literal_eval(
            body.replace("{", "[").replace("}", "]"))
        rows[name] = {
            "small_below": bound,
            "squares": bool(squares),
            "euler": bool(euler),
            "literals": [a for a in literals if a],
            "roots": [tuple(r) for r in roots],
            "forms": [tuple(f) for f in forms if f[0]],
        }
    entries = dict(ROW_ENTRY.findall(source))
    assert sorted(entries.values()) == sorted(rows), (entries, rows)
    return {entry: rows[name] for entry, name in entries.items()}


def _seeded_primes(rng: random.Random, lo: int, hi: int, residue: int, count: int):
    # primes lo <= p < hi with p = residue (mod 4); bpsw is exact below 2^64
    out = []
    while len(out) < count:
        n = rng.randrange(lo, hi) | 1
        if n % 4 == residue and bpsw(n).is_prime:
            out.append(n)
    return out


ROUND_KINDS = (MOD8_EULER, SQRT_BASE, MR_ROUND)


def test_each_compiled_row_runs_the_stages_of_its_rich_test():
    rows = _kernel_rows()
    assert set(rows) == {"ge_is_prime", "mrge_is_prime", "first_attempt_is_prime",
                         "mr7_is_prime"}
    rng = random.Random(23)
    # primes on both sides of 10^19, where modarith.powmod changes method
    primes = [p for lo, hi in ((10**18, 10**19), (10**19, 2**64)) for residue in (1, 3)
              for p in _seeded_primes(rng, lo, hi, residue, 3)]
    roots = [p for residue in (1, 3)
             for p in _seeded_primes(rng, 2**20, 2**32, residue, 2)]
    for entry, row in rows.items():
        rich = RICH[entry]
        for n in primes:
            trace = []
            assert rich(n, trace=trace).is_prime, (entry, n)
            bases = [step.stage.base for step in trace if step.stage.kind in ROUND_KINDS]
            assert bases == [2, *(a for a in row["literals"] if a != n),
                             *(isqrt(n >> k) + j for k, j in row["roots"])], (entry, n)
            forms = [(step.stage.form.first_candidate, step.stage.form.modulus)
                     for step in trace if step.stage.kind == RECIPROCITY]
            assert forms == row["forms"], (entry, n)
            assert any(step.stage.kind == SQRT_BASE for step in trace) == row["euler"]
            assert (trace[0].stage.kind == MOD8_EULER) == row["euler"], (entry, n)
        # only the row that refutes squares first names the root as their divisor
        for p in roots:
            assert (rich(p * p).stage == Stage.divisor_found(p)) == row["squares"], (
                entry, p)
        # odd n below the bound is settled by the screen, with no stage run
        bound = row["small_below"]
        for n in range(3, bound, 2):
            trace = []
            assert rich(n, trace=trace).stage.kind == SMALL_PRIME_SCREEN and not trace
        first_composite = next(n for n in range(bound | 1, 2 * bound, 2)
                               if not bpsw(n).is_prime)
        trace = []
        rich(first_composite, trace=trace)
        assert trace, (entry, first_composite)


def test_kernel_rejects_non_integers(impl):
    # floats are refused, never truncated (97.9 would otherwise read as 97)
    for call in (
        lambda: impl.ge_is_prime(97.9),
        lambda: impl.mrge_is_prime(1e3),
        lambda: impl.first_attempt_is_prime(101.0),
        lambda: impl.mr7_is_prime(5.0),
        lambda: impl.bpsw_is_prime(97.0),
        lambda: impl.isqrt64(4.0),
        lambda: impl.mulmod(2.5, 3.7, 5.9),
        lambda: impl.powmod(2, 3.0, 5),
    ):
        with pytest.raises(TypeError):
            call()
    # none of the three tests that walk the search takes a cap
    for entry in ("ge_is_prime", "mrge_is_prime", "first_attempt_is_prime"):
        with pytest.raises(TypeError):
            getattr(impl, entry)(101, 5)
    # integer-like objects go through __index__
    assert impl.ge_is_prime(np.uint64(97)) is True
    assert impl.mr7_is_prime(np.uint64(97)) is True
    assert impl.mulmod(np.uint64(U64_MAX), np.uint64(3), 2**61 - 1) == (
        U64_MAX * 3 % (2**61 - 1)
    )
    assert impl.isqrt64(np.uint64(10**18)) == 10**9


def test_kernel_arguments_are_positional_only(impl):
    with pytest.raises(TypeError):
        impl.ge_is_prime(n=101)
    with pytest.raises(TypeError):
        impl.ge_is_prime(101, 5)
    with pytest.raises(TypeError):
        impl.mr7_is_prime(n=101)
    with pytest.raises(TypeError):
        impl.mulmod(1, 2, m=5)
    with pytest.raises(TypeError):
        impl.ge_is_prime(101, 5, 7)
    with pytest.raises(TypeError):
        impl.powmod(1, 2)


def _select_backend(src: Path, backend: str) -> subprocess.CompletedProcess:
    """Import ``primekit.kernel`` from ``src`` in a fresh interpreter with
    PRIMEKIT_BACKEND set; prints the backend and any warnings, or exits 3 on
    ImportError."""
    script = (
        "import sys, warnings\n"
        "warnings.simplefilter('always')\n"
        "with warnings.catch_warnings(record=True) as caught:\n"
        "    try:\n"
        "        from primekit import kernel\n"
        "    except ImportError:\n"
        "        sys.exit(3)\n"
        "print(kernel.BACKEND)\n"
        "print(*[str(w.message) for w in caught], sep='\\n')\n"
    )
    env = dict(os.environ, PRIMEKIT_BACKEND=backend, PYTHONPATH=str(src))
    return subprocess.run(
        [sys.executable, "-c", script],
        cwd=src.parent,
        env=env,
        capture_output=True,
        text=True,
    )


@needs_build_tools
def test_backend_selection_env(kernel_build, tmp_path):
    assert set(kernel.ALGORITHMS) == {"ge", "mrge", "first", "mr7", "bpsw"}
    for backend, expected in (("py", "python"), ("python", "python"), ("c", "c"),
                              ("auto", "c")):
        proc = _select_backend(kernel_build, backend)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == [expected], (backend, proc.stdout)

    proc = _select_backend(kernel_build, "fortran")
    assert proc.returncode == 0, proc.stderr
    first, *warned = proc.stdout.splitlines()
    assert first == "c"
    assert any("unknown kernel backend 'fortran'" in w for w in warned), warned

    # a tree without the built extension: c is refused, auto falls back
    shutil.copytree(
        kernel_build,
        tmp_path / "src",
        ignore=shutil.ignore_patterns("*.so", "__pycache__"),
    )
    assert _select_backend(tmp_path / "src", "c").returncode == 3
    proc = _select_backend(tmp_path / "src", "auto")
    assert proc.stdout.split() == ["python"], proc.stderr


def _environment_reads(source: str) -> set[str]:
    """The variable names that ``source`` reads through ``os.environ[...]``,
    ``os.environ.get``, ``os.getenv`` or ``... in os.environ``; any other use
    of ``os.environ`` or a name that is not a literal reads as ``?``."""
    tree = ast.parse(source)
    parent = {child: node for node in ast.walk(tree)
              for child in ast.iter_child_nodes(node)}
    names = set()
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "os" and node.attr in ("environ", "getenv")):
            continue
        up = parent[node]
        key = None
        if node.attr == "getenv" and isinstance(up, ast.Call):
            key = up.args[0]
        elif isinstance(up, ast.Subscript):
            key = up.slice
        elif isinstance(up, ast.Compare):
            key = up.left
        elif isinstance(up, ast.Attribute) and isinstance(parent[up], ast.Call):
            key = parent[up].args[0]
        literal = isinstance(key, ast.Constant) and isinstance(key.value, str)
        names.add(key.value if literal else "?")
    return names


def test_the_backend_is_the_only_environment_setting():
    assert _environment_reads(
        "import os\nos.getenv('A')\nos.environ['B']\nos.environ.get('C', 1)\n"
        "'D' in os.environ\nos.environ.get(name)\n") == {"A", "B", "C", "D", "?"}
    sources = [*sorted((REPO / "src" / "primekit").glob("*.py")), REPO / "setup.py"]
    reads = {path.name: _environment_reads(path.read_text()) for path in sources}
    assert {name: r for name, r in reads.items() if r} == {
        "kernel.py": {"PRIMEKIT_BACKEND"}}


@needs_build_tools
def test_kernel_source_compiles_without_warnings(tmp_path):
    # at setup.py's -O3, so that the warnings that need the optimiser run too
    proc = subprocess.run(
        [CC, "-O3", "-c", "-Wall", "-Wextra", "-Werror", f"-I{PYTHON_H.parent}",
         str(REPO / "src" / "primekit" / "_kernel64.c"), "-o", str(tmp_path / "k.o")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
