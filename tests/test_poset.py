"""Poset layer: order axioms, chain enumeration against an independent DP
count, ensembles/pseudo-ensembles against brute-force subset filtering, and
the canonical-form round trip."""

import copy
import hashlib
import itertools
import pickle
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylfan.poset import (
    INF,
    Chain,
    Ensemble,
    Interval,
    PosetPoint,
    PseudoEnsemble,
    all_points,
    chain_count,
    enumerate_chains,
    enumerate_ensembles,
    enumerate_pseudo_ensembles,
    is_chain,
    sort_key,
)

P = PosetPoint


def powerset(items):
    items = list(items)
    for mask in range(1 << len(items)):
        yield {items[i] for i in range(len(items)) if mask >> i & 1}


@pytest.mark.parametrize("n", range(0, 9))
def test_levels_partition_and_size(n):
    pts = all_points(n)
    assert len(pts) == n * (n + 3) // 2
    by_level = [P(a, i - a) for i in range(1, n + 1) for a in range(i + 1)]
    assert sorted(pts, key=sort_key) == sorted(by_level, key=sort_key)


def _componentwise_le(x, y):
    """The order of Ehat_n: componentwise on points, INF on top."""
    return y is INF or (x is not INF and x.a <= y.a and x.b <= y.b)


def test_order_axioms_seeded():
    """All four comparisons over every ordered pair of E_5 u {INF}, both
    operands in each place, against the componentwise order with INF on
    top; > and >= come from the reflected <= and <."""
    elems = [PosetPoint(0, 0), *all_points(5), INF]
    for x, y in itertools.product(elems, repeat=2):
        le, ge = _componentwise_le(x, y), _componentwise_le(y, x)
        assert (x <= y, x < y, x >= y, x > y) == (le, le and x != y, ge, ge and x != y), (x, y)
    for p, q, r in itertools.product(elems, repeat=3):
        if p <= q and q <= r:
            assert p <= r
    # the order tests INF by identity, so every copy of INF must be INF
    assert copy.deepcopy(INF) is INF and pickle.loads(pickle.dumps(INF)) is INF
    assert copy.deepcopy(Interval(P(1, 0), INF)).hi is INF
    # INF is compared with points and INF only; any other operand is refused
    # in every comparison and in either place
    comparisons = (
        lambda x: INF <= x, lambda x: INF < x, lambda x: INF >= x, lambda x: INF > x,
        lambda x: x <= INF, lambda x: x < INF, lambda x: x >= INF, lambda x: x > INF,
    )
    for foreign, compare in itertools.product((3, None, (1, 0)), comparisons):
        with pytest.raises(TypeError):
            compare(foreign)


@pytest.mark.parametrize(
    "a, b",
    [(1.5, 0), (0, Fraction(1)), ("1", 0), (0, None), (-1, 0)],
    ids=["float", "Fraction", "str", "None", "negative"],
)
def test_points_need_nonnegative_int_coordinates(a, b):
    with pytest.raises(ValueError, match="nonnegative ints"):
        PosetPoint(a, b)


def test_chain_enumeration_order_n2():
    got = list(enumerate_chains(2, 2))
    assert got == [
        (P(1, 0), P(2, 0)),
        (P(1, 0), P(1, 1)),
        (P(0, 1), P(1, 1)),
        (P(0, 1), P(0, 2)),
    ]


def test_chain_edge_cases():
    assert list(enumerate_chains(3, 0)) == [()]
    assert list(enumerate_chains(3, -1)) == []
    assert list(enumerate_chains(3, 4)) == []
    assert chain_count(3, 0) == 1 and chain_count(3, -1) == 0 and chain_count(3, 4) == 0


def test_chain_order_is_that_of_the_filtered_combinations():
    # combinations keep all_points' (level, b) order, so the chains among
    # them come in the lexicographic order enumerate_chains promises
    for n in range(0, 7):
        pts = all_points(n)
        for k in range(-1, n + 2):
            expected = (
                [c for c in itertools.combinations(pts, k) if is_chain(c)] if k >= 0 else []
            )
            assert list(enumerate_chains(n, k)) == expected, (n, k)


def test_long_chain_needs_no_recursion():
    # a chain of 1000 points is deeper than the default recursion limit
    first = next(enumerate_chains(1000, 1000))
    assert first == tuple(P(a, 0) for a in range(1, 1001))


def _brute_chain_count(n, k):
    pts = all_points(n)
    if k == 0:
        return 1
    count = 0
    for subset in powerset(pts):
        if len(subset) == k and is_chain(subset):
            count += 1
    return count


@pytest.mark.parametrize("n", range(0, 5))
def test_chain_counts_three_ways(n):
    for k in range(0, n + 1):
        enumerated = sum(1 for _ in enumerate_chains(n, k))
        assert enumerated == chain_count(n, k) == _brute_chain_count(n, k)


def test_chains_are_chains_and_lex_sorted():
    for n in range(1, 7):
        for k in range(n + 1):
            keys = []
            for c in enumerate_chains(n, k):
                assert is_chain(c)
                assert list(c) == sorted(c, key=sort_key)
                keys.append([sort_key(p) for p in c])
            assert keys == sorted(keys)


def test_translation_isomorphism():
    # The points strictly above P form a copy of E*_{n - level(P)} via Q -> Q - P.
    n = 7
    for p in [P(1, 0), P(0, 2), P(2, 1), P(3, 3)]:
        above = [q for q in all_points(n) if q > p]
        image = sorted((PosetPoint(q.a - p.a, q.b - p.b) for q in above), key=sort_key)
        assert image == sorted(all_points(n - p.level), key=sort_key)
        for j in range(0, n - p.level + 1):
            local = sum(1 for c in enumerate_chains(n, j) if all(q > p for q in c))
            assert local == chain_count(n - p.level, j)


# --- ensembles ---------------------------------------------------------------


def test_ensemble_validation():
    o = P(0, 0)
    with pytest.raises(ValueError):
        Ensemble(2, ())
    with pytest.raises(ValueError):
        Ensemble(2, (Interval(P(1, 0), P(1, 1)),))  # must start at the origin
    with pytest.raises(ValueError):
        Ensemble(2, (Interval(o, P(1, 1)),))  # last finite end at level n
    with pytest.raises(ValueError):
        Ensemble(3, (Interval(o, P(1, 0)), Interval(P(1, 1), INF)),)  # gap fails
    with pytest.raises(ValueError):
        Interval(P(1, 0), P(0, 1))  # empty interval
    e = Ensemble(3, (Interval(o, P(1, 0)), Interval(P(2, 1), INF)))
    assert e.realized() == {P(1, 0), P(2, 1)}
    assert e.rank == 2 and len(e.intervals) == 2


def test_ensembles_n2_explicit():
    o = P(0, 0)
    by_k = {k: list(enumerate_ensembles(2, k)) for k in range(3)}
    assert [e.realized() for e in by_k[0]] == [frozenset()]
    assert sorted(tuple(sorted(e.realized(), key=sort_key)) for e in by_k[1]) == sorted(
        [(P(1, 0),), (P(0, 1),), (P(1, 1),)]
    )
    assert [e.intervals for e in by_k[2]] == [(Interval(o, INF),)]


EXPECTED_ENSEMBLE_COUNTS = {
    0: [1],
    1: [1, 1],
    2: [1, 3, 1],
    3: [1, 5, 6, 1],
    4: [1, 8, 14, 10, 1],
    5: [1, 12, 29, 31, 15, 1],
    6: [1, 17, 54, 79, 60, 21, 1],
}


@pytest.mark.parametrize("n", sorted(EXPECTED_ENSEMBLE_COUNTS))
def test_ensemble_counts(n):
    got = [sum(1 for _ in enumerate_ensembles(n, k)) for k in range(n + 1)]
    assert got == EXPECTED_ENSEMBLE_COUNTS[n]


def _presentation(e):
    return tuple(
        (iv.lo.a, iv.lo.b, None if iv.hi is INF else (iv.hi.a, iv.hi.b))
        for iv in e.intervals
    )


@pytest.mark.parametrize(
    "gen, dims, size, digest",
    [
        (
            enumerate_ensembles,
            range(7),
            233,
            "8a4ea1ee6c71457c39a5c42c1f077f84a9cec2f8ac06b76305181b132a45dfc0",
        ),
        (
            enumerate_pseudo_ensembles,
            range(-1, 7),
            610,
            "1f9f7b2761a1f83066fb7cd860f36dea9414d325cee721c036b4a6f0c8182108",
        ),
    ],
    ids=["ensembles", "pseudo-ensembles"],
)
def test_enumeration_order_pinned(gen, dims, size, digest):
    """Every n = 6 presentation in enumeration order, pinned by a digest."""
    keys = [_presentation(e) for k in dims for e in gen(6, k)]
    assert len(keys) == size
    assert hashlib.sha256(repr(keys).encode()).hexdigest() == digest


@pytest.mark.parametrize("n", range(0, 6))
def test_ensemble_canonical_round_trip(n):
    """Both kinds of interval union: the rank read from the bounds is the
    enumerated k, and canonicalizing the realized set gives the union back."""
    for cls, gen, ks in [
        (Ensemble, enumerate_ensembles, range(n + 1)),
        (PseudoEnsemble, enumerate_pseudo_ensembles, range(-1, n + 1)),
    ]:
        for k in ks:
            for e in gen(n, k):
                assert type(e) is cls and e.rank == k
                assert cls.from_points(n, e.realized()) == e


@pytest.mark.parametrize("cls", [Ensemble, PseudoEnsemble])
def test_equal_sets_equal_unions(cls):
    """The intervals are stored as a tuple, so a list presentation of the
    same union is equal and hashes alike."""
    ivs = (Interval(P(0, 0), P(1, 0)), Interval(P(2, 1), INF))
    as_list, as_tuple = cls(3, list(ivs)), cls(3, ivs)
    assert as_list == as_tuple and hash(as_list) == hash(as_tuple)
    assert as_list.intervals == ivs and as_list.realized() == as_tuple.realized()
    assert len({as_list, as_tuple, cls.from_points(3, as_tuple.realized())}) == 1


@pytest.mark.parametrize("n", range(0, 5))
def test_ensembles_by_subset_filter(n):
    """The enumerator and the canonicalizer agree on which subsets of E*_n
    are realized sets of ensembles."""
    accepted = {}
    for subset in powerset(all_points(n)):
        try:
            e = Ensemble.from_points(n, subset)
        except ValueError:
            continue
        assert e.realized() == frozenset(subset)
        accepted.setdefault(e.rank, set()).add(frozenset(subset))
    for k in range(n + 1):
        enumerated = {e.realized() for e in enumerate_ensembles(n, k)}
        assert enumerated == accepted.get(k, set())


@lru_cache(maxsize=None)
def _ensembles_by_realized_set(n):
    return {e.realized(): e for k in range(n + 1) for e in enumerate_ensembles(n, k)}


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(st.data())
def test_from_points_near_enumerated_ensembles(data):
    """Beyond the subset filter's reach: toggle at most one point of an
    enumerated ensemble's realized set; from_points accepts exactly the
    realized sets of enumerated ensembles, and what it accepts round-trips."""
    n = data.draw(st.integers(5, 6), label="n")
    by_set = _ensembles_by_realized_set(n)
    realized = data.draw(st.sampled_from(list(by_set)), label="realized")
    toggle = data.draw(st.none() | st.sampled_from(all_points(n)), label="toggle")
    points = realized ^ {toggle} if toggle is not None else realized
    try:
        got = Ensemble.from_points(n, points)
    except ValueError:
        got = None
    assert got == by_set.get(points)
    if got is not None:
        assert got.realized() == points
        assert Ensemble.from_points(n, got.realized()) == got


def test_distinct_presentations_distinct_sets():
    for n in range(0, 6):
        seen = {}
        for k in range(n + 1):
            for e in enumerate_ensembles(n, k):
                r = e.realized()
                assert r not in seen, f"{e} and {seen[r]} share a realized set"
                seen[r] = e


# --- pseudo-ensembles --------------------------------------------------------

EXPECTED_PSEUDO_COUNTS = {
    # n -> counts for k = -1, 0, 1, ..., n (hand-checked at n=2, recursion beyond)
    2: [1, 6, 5, 1],
    3: [1, 10, 14, 8, 1],
}


@pytest.mark.parametrize("n", sorted(EXPECTED_PSEUDO_COUNTS))
def test_pseudo_counts(n):
    got = [sum(1 for _ in enumerate_pseudo_ensembles(n, k)) for k in range(-1, n + 1)]
    assert got == EXPECTED_PSEUDO_COUNTS[n]


def test_pseudo_rank1_n2_explicit():
    sets = sorted(
        tuple(sorted(p.realized(), key=sort_key)) for p in enumerate_pseudo_ensembles(2, 1)
    )
    assert sets == sorted(
        [
            (P(0, 0), P(1, 0)),
            (P(0, 0), P(0, 1)),
            (P(0, 0), P(1, 1)),
            (P(1, 0), P(2, 0), P(1, 1)),
            (P(0, 1), P(1, 1), P(0, 2)),
        ]
    )


@pytest.mark.parametrize("n", range(0, 5))
def test_pseudo_by_subset_filter(n):
    accepted = {}
    for subset in powerset([PosetPoint(0, 0), *all_points(n)]):
        try:
            pe = PseudoEnsemble.from_points(n, subset)
        except ValueError:
            continue
        assert pe.realized() == frozenset(subset)
        accepted.setdefault(pe.rank, set()).add(frozenset(subset))
    for k in range(-1, n + 1):
        enumerated = {pe.realized() for pe in enumerate_pseudo_ensembles(n, k)}
        assert enumerated == accepted.get(k, set())


@pytest.mark.parametrize("n", range(0, 5))
def test_origin_adjoining_bijection(n):
    """Adjoining the origin maps k-ensembles of E*_n bijectively onto the
    origin-containing pseudo-ensembles of E_n of rank k."""
    o = P(0, 0)
    for k in range(n + 1):
        from_ensembles = {e.realized() | {o} for e in enumerate_ensembles(n, k)}
        with_origin = {
            pe.realized()
            for pe in enumerate_pseudo_ensembles(n, k)
            if o in pe.realized()
        }
        assert from_ensembles == with_origin
