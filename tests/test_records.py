"""The library's record types: seven named tuples and three plain classes
that validate their fields.  Each is built positionally and by keyword,
compares and hashes by its fields, refuses attribute assignment and
survives pickling."""

import pickle

import pytest

from akblocks import (
    INFINITY,
    AbacusPair,
    BlockId,
    BrauerLine,
    CartanData,
    Cell,
    IncomparabilityWitness,
    OrbitResult,
    ReprTypeReport,
    UglovImage,
)
from akblocks.brauer import PosetEntry

# (class, one value per field, the last one differing in a second instance)
NAMED_TUPLES = [
    (BlockId, [3, (0, 1), ((0, 1), (2, 1)), 2], 3),
    (OrbitResult, [True, (1, 0), 20], 21),
    (IncomparabilityWitness, [((2,), (1,)), ((1, 1), (1,)), (0, 1), (1, 0, 2, -1), (1, 2)], (2, 1)),
    (ReprTypeReport, ["infinite", 2, (1, 1), (0, 0), (1, 2), None, None, None, None], "w"),
    (UglovImage, [(3, 1), 2], 3),
    (Cell, [2, 1], None),
    (PosetEntry, [3, 2, False], True),
]
PLAIN = [
    (AbacusPair, [((2, 1), ()), (0, 1), 3], INFINITY),
    (CartanData, [3], INFINITY),
    (BrauerLine, [4, 3, 2], 3),
]
RECORDS = NAMED_TUPLES + PLAIN
IDS = [cls.__name__ for cls, _, _ in RECORDS]


@pytest.mark.parametrize("cls, values, other", RECORDS, ids=IDS)
def test_positional_and_keyword_calls_agree(cls, values, other):
    positional = cls(*values)
    keyword = cls(**dict(zip(cls._fields, values)))
    assert positional == keyword
    assert [getattr(keyword, name) for name in cls._fields] == values
    assert repr(keyword) == f"{cls.__name__}({', '.join(f'{n}={v!r}' for n, v in zip(cls._fields, values))})"


@pytest.mark.parametrize(
    "short, full",
    [
        (Cell(2), Cell(2, None)),
        (Cell(top=2), Cell(2, bottom=None)),
        (BrauerLine(4), BrauerLine(4, 1, 1)),
        (BrauerLine(edges=4, multiplicity=2), BrauerLine(4, 1, 2)),
        (
            ReprTypeReport("finite", 1, (1, 0), (0, 1), (1, 2), detail_kind="brauer_line", detail_edges=2),
            ReprTypeReport("finite", 1, (1, 0), (0, 1), (1, 2), "brauer_line", None, 2, None),
        ),
    ],
)
def test_defaults_fill_the_missing_fields(short, full):
    assert short == full and hash(short) == hash(full)


@pytest.mark.parametrize("cls, values, other", RECORDS, ids=IDS)
def test_equal_fields_mean_equal_records_and_hashes(cls, values, other):
    a, b = cls(*values), cls(*values)
    assert a == b and hash(a) == hash(b) and not a != b
    assert len({a, b}) == 1
    changed = cls(*values[:-1], other)
    assert changed != a and a != changed


@pytest.mark.parametrize("cls, values, other", RECORDS, ids=IDS)
def test_fields_cannot_be_assigned(cls, values, other):
    record = cls(*values)
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, other)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert [getattr(record, name) for name in cls._fields] == values


@pytest.mark.parametrize("cls, values, other", RECORDS, ids=IDS)
def test_pickle_round_trip(cls, values, other):
    record = cls(*values)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        copy = pickle.loads(pickle.dumps(record, protocol))
        assert type(copy) is cls and copy == record and hash(copy) == hash(record)


def test_named_tuples_equal_plain_tuples_and_plain_classes_do_not():
    for cls, values, _ in NAMED_TUPLES:
        assert cls(*values) == tuple(values)
    for cls, values, _ in PLAIN:
        assert cls(*values) != tuple(values)
        assert cls(*values) != values


def test_abacus_pair_keeps_its_caches():
    pair = AbacusPair(((2, 1), (3,)), (0, 2), 3)
    assert pair._beadsets is pair._beadsets and pair.bounds() is pair.bounds()
    copy = pickle.loads(pickle.dumps(pair))
    assert copy._beadsets == pair._beadsets and copy.bounds() == pair.bounds()
    # a cached value is not a field: it changes neither equality nor hash
    fresh = AbacusPair(((2, 1), (3,)), (0, 2), 3)
    assert fresh == pair and hash(fresh) == hash(pair)
    # the validated fields are canonical tuples
    pair = AbacusPair([[2, 1, 0], []], [0, 1], 3)
    assert pair.mp == ((2, 1), ()) and pair.charge == (0, 1)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: AbacusPair(((1.5,),), (0,), 3), "partition entries must be integers, got 1.5"),
        (lambda: AbacusPair(((True,),), (0,), 3), "partition entries must be integers, got True"),
        (lambda: AbacusPair(((1, 2),), (0,), 3), "partition parts must be weakly decreasing: (1, 2)"),
        (lambda: AbacusPair(((-1,),), (0,), 3), "partition parts must be positive: (-1,)"),
        (lambda: AbacusPair((), (), 3), "a multipartition needs at least one component"),
        (lambda: AbacusPair(((1,),), (0.5,), 3), "multicharge entries must be integers, got 0.5"),
        (
            lambda: AbacusPair(((1,),), (0,), 1),
            "quantum characteristic must be an integer >= 2 or INFINITY, got 1",
        ),
        (lambda: AbacusPair(((1,),), (0, 1), 3), "multipartition and multicharge rank mismatch"),
        (
            lambda: CartanData(True),
            "quantum characteristic must be an integer >= 2 or INFINITY, got True",
        ),
        (lambda: BrauerLine(0), "a Brauer line needs at least one edge"),
        (lambda: BrauerLine(2, 1, 0), "multiplicity must be positive"),
        (lambda: BrauerLine(2, 4, 2), "vertex 4 out of range 1..3"),
    ],
)
def test_validation_messages(build, message):
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message
