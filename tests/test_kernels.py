"""Parity and exactness checks for the compiled and pure kernels.

The rich stage-carrying implementations are the reference semantics; both
kernels must agree with them verdict-for-verdict, and the compiled
arithmetic must agree with big-int arithmetic over the full u64 range.

The compiled kernel under test is built once per session from this
checkout's ``setup.py`` and sources, in a temporary copy, so the verdict
depends on the commit and not on whatever build sits in the working tree.
"""

import ast
import importlib.util
import os
import random
import re
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import numpy as np
import pytest

from primekit import detprime64, kernel, residues
from primekit.detprime64 import (
    SearchCapExceeded,
    gauss_euler,
    mr_ge,
    mr_ge_first_attempt,
)
from primekit.modarith import U64_MAX
from primekit.sprp import bpsw, reference_oracle64, seven_base_variant

REPO = Path(__file__).resolve().parents[1]
CC = (sysconfig.get_config_var("CC") or "cc").split()[0]
PYTHON_H = Path(sysconfig.get_paths()["include"]) / "Python.h"
EXT_FILE = "_kernel64" + sysconfig.get_config_var("EXT_SUFFIX")
needs_build_tools = pytest.mark.skipif(
    shutil.which(CC) is None or not PYTHON_H.is_file(),
    reason=f"building the compiled kernel needs {CC} on PATH and {PYTHON_H}",
)

RICH = {
    "ge_is_prime": gauss_euler,
    "mrge_is_prime": mr_ge,
    "first_attempt_is_prime": mr_ge_first_attempt,
    "mr7_is_prime": seven_base_variant,
    "oracle_is_prime": reference_oracle64,
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


def _build_copy(root: Path, edit_source=None) -> Path:
    """Run ``setup.py build_ext --inplace`` in a copy of the checkout under
    ``root``, after ``edit_source`` rewrites the copied ``_kernel64.c`` text
    when one is given; returns the copy's ``src`` directory holding the
    built module."""
    shutil.copy2(REPO / "setup.py", root)
    shutil.copy2(REPO / "pyproject.toml", root)
    shutil.copytree(
        REPO / "src",
        root / "src",
        ignore=shutil.ignore_patterns("*.so", "__pycache__", "*.egg-info"),
    )
    if edit_source is not None:
        source = root / "src" / "primekit" / "_kernel64.c"
        source.write_text(edit_source(source.read_text()))
    proc = subprocess.run(
        [sys.executable, "setup.py", "build_ext", "--inplace"],
        cwd=root,
        capture_output=True,
        text=True,
    )
    assert (root / "src" / "primekit" / EXT_FILE).is_file(), (
        f"build_ext produced no {EXT_FILE} (exit {proc.returncode}):\n"
        + (proc.stdout + proc.stderr)[-4000:]
    )
    return root / "src"


def _load_build(src: Path):
    """The compiled kernel built in ``src``, loaded from its file."""
    spec = importlib.util.spec_from_file_location(
        "primekit._kernel64", src / "primekit" / EXT_FILE
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def kernel_build(tmp_path_factory) -> Path:
    """A build of this checkout's sources, in a temporary copy."""
    return _build_copy(tmp_path_factory.mktemp("kernel_build"))


@pytest.fixture(scope="session")
def c_kernel(kernel_build):
    """The freshly built compiled kernel."""
    return _load_build(kernel_build)


@pytest.fixture(scope="session")
def zero_cap_c_kernel(tmp_path_factory):
    """A compiled kernel built with the cap define rewritten to 0."""

    def zero_cap(source: str) -> str:
        source, count = CAP_DEFINE.subn("#define DEFAULT_SEARCH_CAP 0", source)
        assert count == 1
        return source

    return _load_build(_build_copy(tmp_path_factory.mktemp("zero_cap"), zero_cap))


@pytest.fixture(params=[pytest.param("c", marks=needs_build_tools), "python"])
def impl(request):
    if request.param == "c":
        return request.getfixturevalue("c_kernel")
    return kernel.load_backend("py")


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
    for bad in (2**64, 2**64 + 17, -1):
        with pytest.raises(OverflowError):
            impl.ge_is_prime(bad)
        with pytest.raises(OverflowError):
            impl.isqrt64(bad)
        with pytest.raises(OverflowError):
            impl.mulmod(bad, 1, 5)


def test_kernel_zero_modulus(impl):
    with pytest.raises(ValueError):
        impl.mulmod(1, 2, 0)
    with pytest.raises(ValueError):
        impl.powmod(1, 2, 0)


@pytest.fixture(params=[pytest.param("c", marks=needs_build_tools), "python"])
def zero_cap_impl(request, monkeypatch):
    """A kernel whose nonresidue walk may inspect no candidate."""
    if request.param == "c":
        return request.getfixturevalue("zero_cap_c_kernel")
    monkeypatch.setattr(detprime64, "DEFAULT_SEARCH_CAP", 0)
    return kernel.load_backend("py")


def test_kernel_exhausted_cap_raises(zero_cap_impl):
    # both backends raise the pure path's class, which the CLI reports as a
    # RuntimeError (exit 2)
    for entry in ("ge_is_prime", "mrge_is_prime", "first_attempt_is_prime"):
        with pytest.raises(SearchCapExceeded):
            getattr(zero_cap_impl, entry)(101)
    assert zero_cap_impl.mr7_is_prime(101)  # no walk, no cap


def test_the_kernels_share_one_search_cap():
    source = (REPO / "src" / "primekit" / "_kernel64.c").read_text()
    assert [int(cap) for cap in CAP_DEFINE.findall(source)] == [
        residues.DEFAULT_SEARCH_CAP]


def test_kernel_rejects_non_integers(impl):
    # floats are refused, never truncated (97.9 would otherwise read as 97)
    for call in (
        lambda: impl.ge_is_prime(97.9),
        lambda: impl.mrge_is_prime(1e3),
        lambda: impl.first_attempt_is_prime(101.0),
        lambda: impl.mr7_is_prime(5.0),
        lambda: impl.oracle_is_prime(97.0),
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
    assert set(kernel.ALGORITHMS) == {"ge", "mrge", "first", "mr7", "oracle", "bpsw"}
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
def test_kernel_source_compiles_without_warnings():
    proc = subprocess.run(
        [CC, "-fsyntax-only", "-Wall", "-Wextra", "-Werror",
         f"-I{PYTHON_H.parent}", str(REPO / "src" / "primekit" / "_kernel64.c")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
