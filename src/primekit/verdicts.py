"""Verdict and stage records shared by all the tests.

``Stage``, ``Verdict`` and ``TraceStep`` are named tuples: a traced rich
test builds a trace step per evaluated stage, and a named tuple costs about
half as much to build as a frozen dataclass, which pays one
``object.__setattr__`` per field. They stay immutable, compare and hash by
value, and print the same repr. The other records (``Form``, ``Recipe`` and
the reports), which no hot path builds per call, stay frozen dataclasses.
"""

from typing import NamedTuple

from .residues import Form

# Stage.kind values, in rough pipeline order
EVEN_OR_UNIT = "even-or-unit"
SMALL_PRIME_SCREEN = "small-prime-screen"
MOD8_EULER = "mod8-euler"
SQRT_BASE = "sqrt-base"
MR_ROUND = "mr-round"
STRONG_LUCAS = "strong-lucas"
RECIPROCITY = "reciprocity"
DIVISOR_FOUND = "divisor-found"


class Stage(NamedTuple):
    """The test step a verdict was decided at."""

    kind: str
    base: int | None = None
    form: Form | None = None
    prime: int | None = None

    @classmethod
    def even_or_unit(cls) -> "Stage":
        return cls(EVEN_OR_UNIT)

    @classmethod
    def small_prime_screen(cls) -> "Stage":
        return cls(SMALL_PRIME_SCREEN)

    @classmethod
    def mod8_euler(cls) -> "Stage":
        return cls(MOD8_EULER, 2)

    @classmethod
    def sqrt_base(cls, base: int) -> "Stage":
        return cls(SQRT_BASE, base)

    @classmethod
    def mr_round(cls, base: int) -> "Stage":
        return cls(MR_ROUND, base)

    @classmethod
    def strong_lucas(cls) -> "Stage":
        return cls(STRONG_LUCAS)

    @classmethod
    def reciprocity(cls, form: Form, prime: int) -> "Stage":
        return cls(RECIPROCITY, None, form, prime)

    @classmethod
    def divisor_found(cls, prime: int) -> "Stage":
        return cls(DIVISOR_FOUND, None, None, prime)

    def describe(self) -> str:
        if self.kind == RECIPROCITY:
            return f"reciprocity({self.form},p={self.prime})"
        if self.kind == DIVISOR_FOUND:
            return f"divisor-found({self.prime})"
        if self.base is not None:
            return f"{self.kind}(base={self.base})"
        return self.kind


class Verdict(NamedTuple):
    """Prime/composite call plus the stage that decided it.

    Composite verdicts carry the first failing stage; prime verdicts carry
    the final stage passed. ``witness`` is the failing base, the divisor
    found, the reciprocity prime, or the D of a failed strong Lucas test,
    when one exists. For the probabilistic
    schedules (seven-base variant, wide recipes) ``is_prime`` means
    "probable prime under the schedule".
    """

    is_prime: bool
    stage: Stage
    witness: int | None = None

    @property
    def label(self) -> str:
        return "prime" if self.is_prime else "composite"


class TraceStep(NamedTuple):
    """One evaluated stage: what was computed and whether it passed."""

    stage: Stage
    value: object
    passed: bool

    def describe(self) -> str:
        status = "pass" if self.passed else "FAIL"
        if self.value is None:
            return f"{self.stage.describe()}: {status}"
        return f"{self.stage.describe()}: value={self.value} {status}"
