import pytest

from primekit.residues import prime_flags

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
