"""Value semantics of the result records.

Every record keeps most of the behaviour it had as a frozen dataclass:
positional and keyword construction, defaults, equality and hash by value,
the ``Name(field=value, ...)`` repr, no assignment, and pickling.  Equality
is the exception for the seven ``NamedTuple`` records: they compare equal to
plain tuples and to one another field by field (``IndexPair(3, 4) == (3, 4)``
and ``ChainFailure(0, "x") == IndexPair(0, "x")``).  Only the four slotted
records compare with their own type alone, as a dataclass did.
"""

import pickle

import pytest

from smoothwords import (Alphabet, CensusReport, ChainFailure, ConcatCertificate,
                         DerivativeChain, DsigmaTable, IndexPair, PowerDecomposition,
                         PowerWitness, Word, runs)
from smoothwords.concat import ConcatViolation
from smoothwords.calculus import Run, RunDecomposition

AB = Alphabet(1, 2)
WITNESS = PowerWitness(Word("12"), Word("1212"), Word("12"))

# (class, field values in declaration order, repr pinned from the dataclass version)
CASES = [
    (Alphabet, {"a": 1, "b": 2}, "Alphabet(a=1, b=2)"),
    (RunDecomposition, {"runs": (Run(1, 2), Run(2, 1))},
     "RunDecomposition(runs=(Run(letter=1, length=2), Run(letter=2, length=1)))"),
    (ChainFailure, {"level": 0, "reason": "run-too-long"},
     "ChainFailure(level=0, reason='run-too-long')"),
    (DerivativeChain, {"levels": (Word("1"),), "verdict": "not-smooth",
                       "failure": ChainFailure(level=0, reason="x")},
     "DerivativeChain(levels=(Word('1'),), verdict='not-smooth', "
     "failure=ChainFailure(level=0, reason='x'))"),
    (DerivativeChain, {"levels": (Word("12"), Word("")), "verdict": "smooth", "failure": None},
     "DerivativeChain(levels=(Word('12'), Word('')), verdict='smooth', failure=None)"),
    (IndexPair, {"h": 3, "delta": 4}, "IndexPair(h=3, delta=4)"),
    (PowerWitness, {"base": Word("12"), "power": Word("1212"), "primitive_base": Word("12")},
     "PowerWitness(base=Word('12'), power=Word('1212'), primitive_base=Word('12'))"),
    (CensusReport, {"alphabet": AB, "exponent": 2, "bound": 5, "witnesses": (WITNESS,),
                    "gamma": 1, "last_new_base_length": 2, "stable": True, "note": "n"},
     "CensusReport(alphabet=Alphabet(a=1, b=2), exponent=2, bound=5, "
     "witnesses=(PowerWitness(base=Word('12'), power=Word('1212'), "
     "primitive_base=Word('12')),), gamma=1, last_new_base_length=2, "
     "stable=True, note='n')"),
    (DsigmaTable, {"alphabet": AB, "words": frozenset({Word("")})},
     "DsigmaTable(alphabet=Alphabet(a=1, b=2), words=frozenset({Word('')}))"),
    (ConcatViolation, {"u": Word("1"), "x": Word(""), "v": Word("2"), "reason": "r"},
     "ConcatViolation(u=Word('1'), x=Word(''), v=Word('2'), reason='r')"),
    (ConcatCertificate, {"alphabet": AB, "bound": 3, "tested_triples": 7, "violations": (),
                         "middle_set": (Word(""),), "x_source": "table"},
     "ConcatCertificate(alphabet=Alphabet(a=1, b=2), bound=3, tested_triples=7, "
     "violations=(), middle_set=(Word(''),), x_source='table')"),
    (PowerDecomposition, {"base": Word("12"), "exponent": 2, "alphabet": AB,
                          "levels": ((1, Word("")),)},
     "PowerDecomposition(base=Word('12'), exponent=2, alphabet=Alphabet(a=1, b=2), "
     "levels=((1, Word('')),))"),
]
IDS = [f"{cls.__name__}-{i}" for i, (cls, _, _) in enumerate(CASES)]
INSTANCES = [cls(**fields) for cls, fields, _ in CASES]


def test_eleven_record_classes_covered():
    assert len({cls for cls, _, _ in CASES}) == 11


@pytest.mark.parametrize("cls,fields,expected", CASES, ids=IDS)
def test_construction_and_fields(cls, fields, expected):
    by_position = cls(*fields.values())
    by_keyword = cls(**fields)
    assert by_position == by_keyword
    assert type(by_position) is cls
    for name, value in fields.items():
        assert getattr(by_keyword, name) == value


def test_named_tuple_records_compare_as_tuples():
    named = {cls for cls, _, _ in CASES if issubclass(cls, tuple)}
    assert len(named) == 7
    assert IndexPair(3, 4) == (3, 4)
    assert ChainFailure(0, "x") == IndexPair(0, "x")
    assert Alphabet(3, 4) != (3, 4) and Alphabet(3, 4) != IndexPair(3, 4)


@pytest.mark.parametrize("cls,fields,expected", CASES, ids=IDS)
def test_repr(cls, fields, expected):
    assert repr(cls(**fields)) == expected


@pytest.mark.parametrize("cls,fields,expected", CASES, ids=IDS)
def test_equality_and_hash(cls, fields, expected):
    obj = cls(**fields)
    twin = cls(**fields)
    assert obj == twin and not obj != twin
    assert hash(obj) == hash(twin)
    assert [other == obj for other in INSTANCES].count(True) == 1


@pytest.mark.parametrize("cls,fields,expected", CASES, ids=IDS)
def test_assignment_raises(cls, fields, expected):
    obj = cls(**fields)
    name = next(iter(fields))
    with pytest.raises(AttributeError):
        setattr(obj, name, fields[name])
    with pytest.raises(AttributeError):
        delattr(obj, name)
    assert getattr(obj, name) == fields[name]


@pytest.mark.parametrize("cls,fields,expected", CASES, ids=IDS)
def test_pickle_round_trip(cls, fields, expected):
    obj = cls(**fields)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(obj, protocol=protocol))
        assert type(back) is cls
        assert back == obj
        assert repr(back) == expected


def test_defaults():
    chain = DerivativeChain((Word(""),), "smooth")
    assert chain.failure is None


def test_hand_written_records_still_validate_and_iterate():
    with pytest.raises(ValueError):
        DsigmaTable(AB, frozenset({Word("12")}))
    with pytest.raises(ValueError):
        DsigmaTable(AB, frozenset({Word(""), Word("12")}))
    rd = runs(Word("1121"))
    assert list(rd) == [Run(1, 2), Run(2, 1), Run(1, 1)]
    assert rd.lengths == (2, 1, 1)
