"""Value semantics of the six model classes: frozen records that compare,
hash and show their fields, equal only to the same class, and pickle.  The
oracle's QuotientTable is a record too, but holds dicts and is unhashable."""

import pickle

import pytest

import coxabacus as cx
from coxabacus import Family
from coxabacus.abacus import Abacus, MirroredPermutation, RootPoint
from coxabacus.context import GroupContext, Record
from coxabacus.core import BoundedPartition, CorePartition
from coxabacus.oracle import QuotientTable, bruhat_leq_lifting, enumerate_quotient

BD3 = cx.make_context(Family.B_OVER_D, 3)
CTX_REPR = "GroupContext(family=<Family.B_OVER_D: 'B~/D'>, n=3)"

# (class, fields in order, repr) for the element of root point (2,-1,1) in B~/D n=3
RECORDS = [
    (GroupContext, {"family": Family.B_OVER_D, "n": 3}, CTX_REPR),
    (
        MirroredPermutation,
        {"ctx": BD3, "window": (-8, -5, -3, 10, 12, 15)},
        f"MirroredPermutation(ctx={CTX_REPR}, window=(-8, -5, -3, 10, 12, 15))",
    ),
    (
        Abacus,
        {"ctx": BD3, "levels": (2, -1, 1, -1, 1, -2)},
        f"Abacus(ctx={CTX_REPR}, levels=(2, -1, 1, -1, 1, -2))",
    ),
    (RootPoint, {"ctx": BD3, "coords": (2, -1, 1)}, f"RootPoint(ctx={CTX_REPR}, coords=(2, -1, 1))"),
    (
        CorePartition,
        {"ctx": BD3, "rows": (7, 6, 5, 4, 3, 2, 1)},
        f"CorePartition(ctx={CTX_REPR}, rows=(7, 6, 5, 4, 3, 2, 1))",
    ),
    (
        BoundedPartition,
        {"ctx": BD3, "parts": (3, 3, 3, 1), "star": 2},
        f"BoundedPartition(ctx={CTX_REPR}, parts=(3, 3, 3, 1), star=2)",
    ),
]
IDS = [cls.__name__ for cls, _, _ in RECORDS]


def test_the_records_are_the_models_of_one_element():
    a = cx.from_coordinates(cx.RootPoint(BD3, (2, -1, 1)))
    views = [BD3, cx.to_permutation(a), a, cx.coordinates(a), cx.from_abacus(a),
             cx.bounded_from_abacus(a)]
    assert views == [cls(**fields) for cls, fields, _ in RECORDS]


@pytest.mark.parametrize("cls, fields, text", RECORDS, ids=IDS)
def test_equal_values_hash_equal(cls, fields, text):
    x, y = cls(*fields.values()), cls(**fields)
    assert x == y and not x != y
    assert hash(x) == hash(y) == hash(tuple(fields.values()))


@pytest.mark.parametrize("cls, fields, text", RECORDS, ids=IDS)
def test_equality_needs_the_same_class(cls, fields, text):
    values = tuple(fields.values())
    x = cls(*values)
    assert x != values and values != x
    if cls is not GroupContext:  # the models of one (ctx, tuple) differ by class
        twins = [other(*values[:2]) for other, _, _ in RECORDS[1:]]
        assert [y == cls(*values[:2]) for y in twins] == [y.__class__ is cls for y in twins]
        assert len(set(twins)) == len(twins)


@pytest.mark.parametrize("cls, fields, text", RECORDS, ids=IDS)
def test_repr_names_the_fields(cls, fields, text):
    assert repr(cls(**fields)) == text


@pytest.mark.parametrize("cls, fields, text", RECORDS, ids=IDS)
def test_pickle_round_trip(cls, fields, text):
    x = cls(**fields)
    back = pickle.loads(pickle.dumps(x))
    assert type(back) is cls and back == x and hash(back) == hash(x) and repr(back) == text


def test_bounded_star_defaults_to_none():
    b = BoundedPartition(BD3, (3, 1))
    assert b.star is None and b == BoundedPartition(BD3, (3, 1), None)
    assert BoundedPartition(ctx=BD3, parts=(3, 1)) == b != BoundedPartition(BD3, (3, 1), 0)


@pytest.mark.parametrize("cls, fields, text", RECORDS, ids=IDS)
def test_fields_are_read_only(cls, fields, text):
    x = cls(**fields)
    names = [*fields, "N", "fork_at_zero", "fork_at_n", "x0", "xn"] if cls is GroupContext else fields
    for name in names:
        before = getattr(x, name)
        with pytest.raises(AttributeError):
            setattr(x, name, before)
        with pytest.raises(AttributeError):
            delattr(x, name)
        assert getattr(x, name) == before
    assert repr(x) == text


class One(Record):
    """A record of one field; no model class has one, but Record allows it."""

    __slots__ = ("x",)

    def __init__(self, x):
        object.__setattr__(self, "x", x)


@pytest.mark.parametrize("x", [(1, 2), 5, None])
def test_a_one_field_record_shows_pickles_and_hashes_its_field(x):
    one = One(x)
    assert repr(one) == f"One(x={x!r})"
    assert one == One(x) and hash(one) == hash(One(x)) and one != One(0) and one != x
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(one, protocol))
        assert type(back) is One and back == one and back.x == x and repr(back) == repr(one)


C2 = cx.make_context(Family.C_OVER_C, 2)
C2_REPR = "GroupContext(family=<Family.C_OVER_C: 'C~/C'>, n=2)"
# the text the table showed as a dataclass: its four fields, not the memo
TABLE_REPR = (
    f"QuotientTable(ctx={C2_REPR}, max_len=1, lengths={{(1, 2, 3, 4): 0, (-1, 2, 3, 6): 1}}, "
    f"by_length=[[MirroredPermutation(ctx={C2_REPR}, window=(1, 2, 3, 4))], "
    f"[MirroredPermutation(ctx={C2_REPR}, window=(-1, 2, 3, 6))]])"
)


def test_a_quotient_table_shows_its_fields_and_is_unhashable():
    table = enumerate_quotient(C2, 1)
    assert repr(table) == TABLE_REPR
    with pytest.raises(TypeError):
        hash(table)


def test_a_quotient_table_compares_and_pickles_without_its_memo():
    table = enumerate_quotient(C2, 1)
    e, s0 = table.by_length[0][0], table.by_length[1][0]
    assert bruhat_leq_lifting(table, e, s0) and table._bruhat_memo
    fresh = enumerate_quotient(C2, 1)
    assert fresh._bruhat_memo == {} and fresh == table and fresh != enumerate_quotient(C2, 2)
    assert fresh != (C2, 1, table.lengths, table.by_length)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(table, protocol))
        assert type(back) is QuotientTable and back == table and repr(back) == TABLE_REPR
        assert back._bruhat_memo == {}


def test_a_quotient_table_has_read_only_fields():
    table = enumerate_quotient(C2, 1)
    for name in ("ctx", "max_len", "lengths", "by_length", "_bruhat_memo"):
        before = getattr(table, name)
        with pytest.raises(AttributeError):
            setattr(table, name, before)
        with pytest.raises(AttributeError):
            delattr(table, name)
        assert getattr(table, name) is before
    assert repr(table) == TABLE_REPR
