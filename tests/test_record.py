"""Records (weylfan.record): equality and hash by value, immutability, and
copy and pickle of the record types that the package compares or hashes;
the stats default of the two search results."""

import copy
import pickle
from collections import Counter

import pytest

from weylfan.chambers import Chamber
from weylfan.oracle.arrangement import Arrangement, SignCondition, gl_arrangement
from weylfan.oracle.cells import CellEnumeration
from weylfan.oracle.flats import FlatEnumeration
from weylfan.poset import INF, Ensemble, Interval, PosetPoint, PseudoEnsemble

P = PosetPoint
O = P(0, 0)

# per class: its field names and a builder of two unequal values, called
# twice so that equal values are never the same object
RECORDS = {
    PosetPoint: (("a", "b"), lambda: (P(1, 2), P(2, 1))),
    Interval: (("lo", "hi"), lambda: (Interval(P(1, 0), INF), Interval(P(1, 0), P(2, 1)))),
    PseudoEnsemble: (
        ("n", "intervals"),
        lambda: (PseudoEnsemble(3, [Interval(P(1, 0), INF)]), PseudoEnsemble(3, ())),
    ),
    Ensemble: (
        ("n", "intervals"),
        lambda: (
            Ensemble(3, (Interval(O, P(1, 0)), Interval(P(2, 1), INF))),
            Ensemble(3, (Interval(O, INF),)),
        ),
    ),
    Chamber: (("n", "subset"), lambda: (Chamber(3, (3, 1)), Chamber(3, (2,)))),
    SignCondition: (
        ("n", "weight_signs", "root_signs"),
        lambda: (SignCondition(2, (1, 0, -1), (1,)), SignCondition(2, (1, 1, -1), (0,))),
    ),
    Arrangement: (
        ("dim", "cuts", "walls", "ambient_eqs"),
        lambda: (gl_arrangement(2), Arrangement(2, [[1, 1]], [[1, -1]], [[0, 1]])),
    ),
}


@pytest.fixture(params=list(RECORDS), ids=lambda cls: cls.__name__)
def record(request):
    fields, make = RECORDS[request.param]
    return request.param, fields, make


def test_copies_are_equal_with_equal_hashes(record):
    # a class that refuses assignment needs its own __reduce__: the default
    # route of copy and pickle sets the slots after building the object
    cls, _, make = record
    for value in make():
        for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert type(twin) is cls and twin == value and hash(twin) == hash(value)


def test_fields_are_read_only(record):
    cls, fields, make = record
    value, _ = make()
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert value == make()[0]


def test_sets_and_dicts_key_by_value(record):
    cls, fields, make = record
    (x, y), (x2, y2) = make(), make()
    assert x == x2 and y == y2 and x != y and not (x == y)
    assert len({x, y, x2, y2}) == 2
    table = {x: "x", y: "y"}
    assert table[x2] == "x" and table[y2] == "y"
    # the hash of the tuple of the fields, as frozen dataclasses hashed, so
    # sets of records iterate in the order they always did
    assert hash(x) == hash(tuple(getattr(x, name) for name in fields))
    assert (x == object()) is False and (x != object()) is True


def test_a_subclass_value_never_equals_a_base_value():
    whole = (Interval(O, INF),)
    assert Ensemble(2, whole) != PseudoEnsemble(2, whole)
    assert len({Ensemble(2, whole), PseudoEnsemble(2, whole)}) == 2


def test_generated_reprs_name_each_field():
    assert repr(PseudoEnsemble(2, [Interval(P(1, 0), INF)])) == (
        "PseudoEnsemble(n=2, intervals=([(1,0),INF],))"
    )
    assert repr(SignCondition(1, (1,), ())) == (
        "SignCondition(n=1, weight_signs=(1,), root_signs=())"
    )


@pytest.mark.parametrize("cls", [CellEnumeration, FlatEnumeration])
def test_search_results_get_a_fresh_counter_each(cls):
    first, second = cls(2, [1, 1], []), cls(2, [1, 1], [])
    assert first.stats == Counter() and first.stats is not second.stats
    assert first == second
    first.stats["nodes"] += 1
    assert second.stats == Counter() and first != second
    with pytest.raises(TypeError):
        hash(first)  # the counts are a list
    twin = copy.deepcopy(first)
    assert twin == first and twin.stats is not first.stats
