"""primekit: a primality-testing toolkit.

Deterministic 64-bit tests built on Euler's criterion and quadratic
reciprocity (``gauss_euler``, ``mr_ge``), a seven-base strong-round
comparison variant, probabilistic recipes for 256-bit/2048-bit candidates,
and a verification-and-benchmark harness whose ground truth is a sieve or
the Baillie-PSW test (``bpsw``).

The hot 64-bit paths run on a compiled kernel when the extension is built
(``primekit.kernel.BACKEND == "c"``) and fall back to pure Python otherwise.
Importing the package loads no kernel; ``primekit.kernel`` loads one.
"""

from .bigrecipes import RECIPE_256, RECIPE_2048, Recipe, recipe256, recipe2048
from .detprime64 import (
    SearchCapExceeded,
    gauss_euler,
    mr_ge,
    mr_ge_first_attempt,
)
from .modarith import mulmod, powmod
from .residues import (
    FORM_4K1,
    FORM_4K3,
    FORM_8K1,
    FORM_8K3,
    FORM_8K5,
    FORM_8K7,
    Form,
    SearchResult,
    is_small_prime,
    legendre,
    smallest_nonresidue_prime,
)
from .sprp import bpsw, seven_base_variant, sprp_round
from .verdicts import Stage, TraceStep, Verdict

__version__ = "0.1.0"

__all__ = [
    "FORM_4K1",
    "FORM_4K3",
    "FORM_8K1",
    "FORM_8K3",
    "FORM_8K5",
    "FORM_8K7",
    "Form",
    "RECIPE_256",
    "RECIPE_2048",
    "Recipe",
    "SearchCapExceeded",
    "SearchResult",
    "Stage",
    "TraceStep",
    "Verdict",
    "bpsw",
    "gauss_euler",
    "is_small_prime",
    "legendre",
    "mr_ge",
    "mr_ge_first_attempt",
    "mulmod",
    "powmod",
    "recipe256",
    "recipe2048",
    "seven_base_variant",
    "smallest_nonresidue_prime",
    "sprp_round",
]
