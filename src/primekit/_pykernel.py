"""Pure-Python 64-bit kernel.

Import-time fallback when the compiled extension is unavailable. Exposes
the same functions as ``primekit._kernel64``: boolean verdicts only, no
stages. Each verdict entry answers through its rich, stage-carrying test in
``detprime64``/``sprp``, which is the reference the compiled kernel is
tested against.
"""

import math

from . import modarith
from .detprime64 import gauss_euler, mr_ge, mr_ge_first_attempt
from .modarith import require_u64
from .sprp import bpsw, seven_base_variant

BACKEND_NAME = "python"


def mulmod(a, b, m, /):
    return modarith.mulmod(require_u64(a), require_u64(b), require_u64(m))


def powmod(a, e, m, /):
    return modarith.powmod(require_u64(a), require_u64(e), require_u64(m))


def isqrt64(n, /):
    return math.isqrt(require_u64(n))


def ge_is_prime(n, /):
    return gauss_euler(n).is_prime


def mrge_is_prime(n, /):
    return mr_ge(n).is_prime


def first_attempt_is_prime(n, /):
    return mr_ge_first_attempt(n).is_prime


def mr7_is_prime(n, /):
    return seven_base_variant(n).is_prime


def bpsw_is_prime(n, /):
    return bpsw(n).is_prime
