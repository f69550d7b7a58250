"""Probabilistic recipes for 256-bit and 2048-bit candidates.

Each recipe is strong rounds to base 2 and to a grid of sqrt-derived
bases, followed by quadratic-reciprocity checks over one or more
residue-class forms, evaluated on arbitrary-precision integers. Neither
recipe is certified exact at its target width; verdicts are "probable
prime" at best, and the recipe definitions carry a revision number so they
can be amended if a counterexample ever turns up, without ambiguity about
which revision a recorded result used.
"""

from collections.abc import Iterator
from dataclasses import dataclass
from math import isqrt
from operator import index

from .detprime64 import reciprocity_checks
from .residues import (
    FORM_4K1,
    FORM_4K3,
    FORM_8K1,
    FORM_8K3,
    FORM_8K5,
    FORM_8K7,
    Form,
)
from .sprp import small_screen, strong_rounds
from .verdicts import TraceStep, Verdict


@dataclass(frozen=True)
class Recipe:
    """Strong rounds to base 2 and to isqrt(n // i) + j for each divisor i
    and, within it, each offset j; then one reciprocity check per form."""

    name: str
    revision: int
    sqrt_divisors: tuple[int, ...]
    sqrt_offsets: tuple[int, ...]
    reciprocity_forms: tuple[Form, ...]

    def __post_init__(self):
        if min(self.sqrt_divisors, default=1) < 1:
            raise ValueError("a sqrt divisor must be >= 1")
        if not self.reciprocity_forms:
            raise ValueError("a recipe needs at least one reciprocity form")


RECIPE_256 = Recipe(
    name="recipe256",
    revision=1,
    # 2 plus isqrt(n//i) + j for i in {1, 2, 3}, j in {-1, 0, +1}: 10 bases
    sqrt_divisors=(1, 2, 3),
    sqrt_offsets=(-1, 0, 1),
    reciprocity_forms=(FORM_4K1, FORM_4K3),
)

RECIPE_2048 = Recipe(
    name="recipe2048",
    revision=1,
    # 2 plus isqrt(n//i) + j for i in {1, 2, 3, 5, 7}, j in {-2..+2}: 26 bases
    sqrt_divisors=(1, 2, 3, 5, 7),
    sqrt_offsets=(-2, -1, 0, 1, 2),
    reciprocity_forms=(FORM_8K1, FORM_8K3, FORM_8K5, FORM_8K7),
)


def run_recipe(
    n: int, recipe: Recipe, *, trace: list[TraceStep] | None = None
) -> Verdict:
    """Apply a recipe to any-width n >= 0; returns probable-prime/composite.

    The base isqrt(n) is in every recipe, which structurally rejects
    perfect squares before the form searches (where a square could never
    find a -1 symbol). ``n`` must be an integer: a float raises TypeError, as
    on the 64-bit paths.
    """
    n = index(n)
    if n < 0:
        raise ValueError("n must be >= 0")
    # odd composites below 100 go on to the rounds
    v = small_screen(n, 100, 0)
    if v is None:
        v = strong_rounds(n, _bases(n, recipe), trace)
    if v is not None:
        return v
    return reciprocity_checks(n, recipe.reciprocity_forms, trace)


def _bases(n: int, recipe: Recipe) -> Iterator[int]:
    # the recipe's bases for odd n >= 9, resolved one at a time, so that a
    # composite pays only for the rounds it runs; a base <= 0 or a multiple
    # of n is skipped, as its round would be vacuous
    yield 2
    for i in recipe.sqrt_divisors:
        r = isqrt(n // i)
        for j in recipe.sqrt_offsets:
            base = r + j
            if base > 0 and base % n:
                yield base


def recipe256(n: int, *, trace: list[TraceStep] | None = None) -> Verdict:
    """10 strong-round bases, then 4k+1 and 4k+3 reciprocity checks.

    Intended for candidates up to ~2^256; wider inputs are accepted."""
    return run_recipe(n, RECIPE_256, trace=trace)


def recipe2048(n: int, *, trace: list[TraceStep] | None = None) -> Verdict:
    """26 strong-round bases, then 8k+1/8k+3/8k+5/8k+7 reciprocity checks.

    Intended for candidates up to ~2^2048; wider inputs are accepted."""
    return run_recipe(n, RECIPE_2048, trace=trace)
