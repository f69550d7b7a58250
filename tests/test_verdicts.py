"""The per-call records (``Stage``, ``Verdict`` and ``TraceStep``):
immutable, equal and hashed by value, picklable, with their repr text
pinned, and the trace steps of a base-2 round."""

import pickle

import pytest

from primekit.detprime64 import gauss_euler, mr_ge
from primekit.residues import FORM_8K1
from primekit.sprp import base2_refuted_by_small_factor
from primekit.verdicts import Stage, TraceStep, Verdict

PRIME = 1000000007
# 9 * 1000003: its square factor 3^2 refutes every base-2 check without a pow
REFUTED = 9000027


def _records():
    stage = Stage.reciprocity(FORM_8K1, 17)
    return [
        Stage.mr_round(5),
        stage,
        Verdict(False, Stage.sqrt_base(31623), 31623),
        Verdict(True, stage, 17),
        TraceStep(Stage.mr_round(2), None, True),
        TraceStep(stage, 1000000006, True),
    ]


FIRST_FIELD = {Stage: "kind", Verdict: "is_prime", TraceStep: "stage"}


@pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
def test_records_are_immutable(record):
    with pytest.raises(AttributeError):
        setattr(record, FIRST_FIELD[type(record)], None)


def test_records_are_equal_and_hashed_by_value():
    for a, b in zip(_records(), _records()):
        assert a is not b and a == b and hash(a) == hash(b)
    assert Stage.mr_round(5) != Stage.sqrt_base(5)
    assert Verdict(False, Stage.mr_round(5), 5) != Verdict(False, Stage.mr_round(7), 7)
    counts = {Stage.mr_round(2): 1}
    counts[Stage.mr_round(2)] += 1
    assert counts == {Stage.mr_round(2): 2}


def test_records_survive_a_pickle_round_trip():
    for record in _records():
        copy = pickle.loads(pickle.dumps(record))
        assert copy == record and type(copy) is type(record)


def test_record_reprs_are_pinned():
    assert repr(gauss_euler(PRIME)) == (
        "Verdict(is_prime=True, stage=Stage(kind='reciprocity', base=None, "
        "form=Form(modulus=8, residue=1, first_candidate=17), prime=17), witness=17)"
    )
    trace = []
    mr_ge(PRIME, trace=trace)
    assert repr(trace[0]) == (
        "TraceStep(stage=Stage(kind='mr-round', base=2, form=None, prime=None), "
        "value=None, passed=True)"
    )


def test_traced_base2_rounds_record_their_outcome():
    assert base2_refuted_by_small_factor(REFUTED)
    trace = []
    v = mr_ge(REFUTED, trace=trace)
    assert trace == [TraceStep(Stage.mr_round(2), None, False)]
    assert v == Verdict(False, Stage.mr_round(2), 2)

    trace = []
    assert mr_ge(PRIME, trace=trace).is_prime
    assert trace[0] == TraceStep(Stage.mr_round(2), None, True)
    assert [step.passed for step in trace] == [True] * len(trace)

