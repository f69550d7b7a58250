"""Shared fixtures: sieve tables, and the compiled kernel built from this
checkout's ``setup.py`` and sources.

The compiled kernel under test is built once per session, in a temporary
copy, so the verdict depends on the commit and not on whatever build sits in
the working tree. ``impl`` runs a test once per kernel: the fresh build
(skipped without a C compiler and the Python headers) and the pure one.
"""

import importlib.util
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

from primekit import kernel
from primekit.residues import prime_flags

REPO = Path(__file__).resolve().parents[1]
CC = (sysconfig.get_config_var("CC") or "cc").split()[0]
PYTHON_H = Path(sysconfig.get_paths()["include"]) / "Python.h"
EXT_FILE = "_kernel64" + sysconfig.get_config_var("EXT_SUFFIX")
needs_build_tools = pytest.mark.skipif(
    shutil.which(CC) is None or not PYTHON_H.is_file(),
    reason=f"building the compiled kernel needs {CC} on PATH and {PYTHON_H}",
)


def build_copy(root: Path, edit_source=None) -> Path:
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


def load_build(src: Path):
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
    return build_copy(tmp_path_factory.mktemp("kernel_build"))


@pytest.fixture(scope="session")
def c_kernel(kernel_build):
    """The freshly built compiled kernel."""
    return load_build(kernel_build)


@pytest.fixture(params=[pytest.param("c", marks=needs_build_tools), "python"])
def impl(request):
    """The kernel under test: the fresh build, then the pure kernel."""
    if request.param == "c":
        return request.getfixturevalue("c_kernel")
    return kernel.load_backend("py")


_sieves: dict[int, bytearray] = {}


@pytest.fixture(scope="session")
def sieve_bytes():
    """Sieve flags by limit, built once per test run (one byte per n, 1 per prime)."""

    def get(limit: int) -> bytearray:
        bm = _sieves.get(limit)
        if bm is None:
            bm = prime_flags(limit)
            _sieves[limit] = bm
        return bm

    return get
