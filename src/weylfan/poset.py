"""Truncated quarter-plane posets, their chains, and ensembles of intervals.

E_n is the set of lattice points (a, b) with a, b >= 0 and a + b <= n, ordered
componentwise; E*_n drops the origin and Ehat_n adjoins a maximum INF.  The
level l(a, b) = a + b grades the poset.  Points and INF define only <= and <;
Python answers > and >= by reflection.  Chains in E*_n index the faces of the
restricted weight arrangement, ensembles index its flats.  Both ensembles and
the pseudo-ensembles of the rank recursion are unions of intervals, one type:
an Ensemble is a PseudoEnsemble whose first interval starts at the origin.
Everything here is exact and deterministic: enumeration orders are fixed and
iterators are lazy.  Chains and interval unions are grown one point or
interval at a time by search.depth_first, and the points of an interval are
listed from its bounds, never by filtering all of E_n.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Union

from .record import Record
from .search import depth_first


class PosetPoint(Record):
    """A point (a, b) of the quarter-plane N^2 under the componentwise order."""

    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        if type(a) is not int or type(b) is not int or a < 0 or b < 0:
            raise ValueError(f"a point of N^2 needs nonnegative ints, got ({a!r}, {b!r})")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    # written out rather than inherited: points are hashed and compared in
    # bulk, and two slot reads beat the generic field getter
    def __eq__(self, other: object):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.a == other.a and self.b == other.b

    def __hash__(self) -> int:
        return hash((self.a, self.b))

    @property
    def level(self) -> int:
        return self.a + self.b

    def shift(self, da: int, db: int) -> "PosetPoint":
        return PosetPoint(self.a + da, self.b + db)

    # The dunder comparisons implement the *partial* componentwise order, so
    # sorted() must never be called on raw points; use sort_key instead.
    # x >= y and x > y fall back to y <= x and y < x.
    def __le__(self, other: object):
        if isinstance(other, PosetPoint):
            return self.a <= other.a and self.b <= other.b
        if other is INF:
            return True
        return NotImplemented

    def __lt__(self, other: object):
        le = self.__le__(other)
        if le is NotImplemented:
            return le
        return le and self != other

    def __repr__(self) -> str:
        return f"({self.a},{self.b})"


class _Infinity:
    """The adjoined maximum of Ehat_n.  A single instance, INF, exists."""

    _instance = None

    # copy.deepcopy and pickle rebuild INF through __new__, so `is INF` holds
    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    # INF is above every point; any other operand is refused
    def __le__(self, other: object):
        if other is INF:
            return True
        return False if isinstance(other, PosetPoint) else NotImplemented

    def __lt__(self, other: object):
        return False if other is INF or isinstance(other, PosetPoint) else NotImplemented

    def __repr__(self) -> str:
        return "INF"


INF = _Infinity()

ExtendedPoint = Union[PosetPoint, _Infinity]


def sort_key(p: PosetPoint) -> tuple[int, int]:
    """Total order refining the poset order: by level, then by b."""
    try:
        return (p.level, p.b)
    except AttributeError:
        raise ValueError(f"{p!r} is not a point of N^2") from None


def all_points(n: int, *, include_origin: bool = False) -> list[PosetPoint]:
    """E*_n (or E_n) listed in (level, b) order."""
    return _points_between(n, PosetPoint(0, 0), INF, 0 if include_origin else 1)


def _points_between(n: int, lo: PosetPoint, hi: ExtendedPoint, floor: int = 0) -> list[PosetPoint]:
    """The points p of E_n with lo <= p <= hi and level at least floor, in
    (level, b) order; hi may be INF.  Listed by their coordinates, not by
    filtering E_n."""
    return [PosetPoint(a, b) for a, b in _coords_between(n, lo.a, lo.b, hi, floor)]


def _coords_between(n: int, lo_a: int, lo_b: int, hi: ExtendedPoint, floor: int = 0):
    """The (a, b) of _points_between(n, PosetPoint(lo_a, lo_b), hi, floor),
    lazily and in its order, with no point built."""
    top, a_max, b_max = (n, n, n) if hi is INF else (min(hi.level, n), hi.a, hi.b)
    for lev in range(max(lo_a + lo_b, floor), top + 1):
        for b in range(max(lo_b, lev - a_max), min(b_max, lev - lo_a) + 1):
            yield lev - b, b


class Interval(Record):
    """The closed interval [lo, hi] in Ehat_n; hi may be INF."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: PosetPoint, hi: ExtendedPoint) -> None:
        if not isinstance(lo, PosetPoint):
            raise ValueError("interval lower end must be a finite point")
        if not (isinstance(hi, PosetPoint) or hi is INF):
            raise ValueError("interval upper end must be a point or INF")
        if not lo <= hi:
            raise ValueError(f"empty interval: {lo} is not <= {hi}")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def __repr__(self) -> str:
        return f"[{self.lo},{self.hi}]"


Chain = tuple[PosetPoint, ...]


def is_chain(points: Iterable[PosetPoint]) -> bool:
    # sort_key is injective, so a repeated point sits next to its twin and
    # fails the strict comparison
    pts = sorted(points, key=sort_key)
    return all(p < q for p, q in zip(pts, pts[1:]))


def enumerate_chains(n: int, k: int) -> Iterator[Chain]:
    """All k-chains of E*_n, lazily, in lexicographic (level, b) order.

    The empty chain is the unique 0-chain.  k < 0 or k > n yields nothing
    (a chain has at most one point per level).
    """
    if k < 0 or k > n:
        return
    pts = all_points(n)

    def children(chain):
        # the points above the chain's last point (the origin for the empty
        # chain), listed from its coordinates level by level as
        # _points_between lists them; level lev starts at index
        # lev*(lev+1)//2 - 1 of pts
        if len(chain) == k:
            return
        a, b = (chain[-1].a, chain[-1].b) if chain else (0, 0)
        top = n - k + len(chain) + 1  # leaves one level per point still to add
        for lev in range(a + b + 1, top + 1):
            start = lev * (lev + 1) // 2 - 1
            for p in pts[start + b : start + lev - a + 1]:
                yield chain + (p,)

    for chain in depth_first((), children):
        if len(chain) == k:
            yield chain


def chain_count(n: int, k: int) -> int:
    """Number of k-chains of E*_n, by dynamic programming (no enumeration).

    Independent of enumerate_chains; used to arbitrate counts where full
    enumeration is wasteful.
    """
    if k < 0 or k > n:
        return 0
    if k == 0:
        return 1
    pts = all_points(n)
    # ends[i] = number of j-chains whose maximum is pts[i]
    ends = [1] * len(pts)
    for _ in range(k - 1):
        ends = [sum(e for q, e in zip(pts, ends) if q < p) for p in pts]
    return sum(ends)


def _decompose(n: int, members: set[PosetPoint]) -> tuple[Interval, ...]:
    """Peel a set of points of E_n into its unique valid interval presentation.

    Raises ValueError when the set is not a disjoint union of intervals,
    each a rectangle or an up-set of E_n.  The gap and end conditions of a
    valid presentation are left to _check_presentation.
    """
    remaining = set(members)
    out: list[Interval] = []
    while remaining:
        lo = PosetPoint(min(p.a for p in remaining), min(p.b for p in remaining))
        if lo not in remaining:
            raise ValueError(f"no minimum among remaining points near {lo}")
        if remaining.issuperset(_points_between(n, lo, INF)):
            out.append(Interval(lo, INF))
            return tuple(out)
        dx = 0
        while lo.shift(dx + 1, 0) in remaining:
            dx += 1
        dy = 0
        while lo.shift(0, dy + 1) in remaining:
            dy += 1
        hi = lo.shift(dx, dy)
        rect = {PosetPoint(a, b) for a in range(lo.a, hi.a + 1) for b in range(lo.b, hi.b + 1)}
        if not rect <= remaining:
            raise ValueError(f"points below {hi} are not all present")
        remaining -= rect
        out.append(Interval(lo, hi))
    return tuple(out)


def _check_presentation(n: int, intervals: tuple[Interval, ...]) -> None:
    for iv in intervals:
        if iv.lo.level > n:
            raise ValueError(f"interval start {iv.lo} lies outside E_{n}")
        if isinstance(iv.hi, PosetPoint) and iv.hi.level > n:
            raise ValueError(f"interval end {iv.hi} lies outside E_{n}")
    for prev, nxt in zip(intervals, intervals[1:]):
        if prev.hi is INF:
            raise ValueError("only the last interval may reach INF")
        if not (prev.hi.a < nxt.lo.a and prev.hi.b < nxt.lo.b):  # prev.hi + (1,1) <= nxt.lo
            raise ValueError(f"gap condition fails between {prev.hi} and {nxt.lo}")
    if intervals:
        last = intervals[-1].hi
        if isinstance(last, PosetPoint) and last.level >= n:
            raise ValueError(f"last interval ends at level {last.level}, needs < {n} or INF")


class PseudoEnsemble(Record):
    """A union of intervals of Ehat_n, realized in E_n (the origin counts
    when covered).

    The stored presentation is canonical (minimal interval decomposition,
    kept as a tuple); two unions of one type are equal iff their realized
    sets are, which the canonical form makes a plain field comparison.
    rank = distinct realized levels - 1, so the empty union is the unique
    pseudo-ensemble of rank -1.
    """

    __slots__ = ("n", "intervals")

    def __init__(self, n: int, intervals: Iterable[Interval]) -> None:
        intervals = tuple(intervals)
        _check_presentation(n, intervals)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "intervals", intervals)

    @classmethod
    def from_points(cls, n: int, points: Iterable[PosetPoint]) -> "PseudoEnsemble":
        """Canonicalize a realized subset of E_n, or raise ValueError."""
        pts = set(points)
        if not all(isinstance(p, PosetPoint) and p.level <= n for p in pts):
            raise ValueError("realized points must lie in E_n")
        return cls(n, _decompose(n, pts))

    def realized(self) -> frozenset[PosetPoint]:
        return frozenset(p for iv in self.intervals for p in _points_between(self.n, iv.lo, iv.hi))

    @property
    def rank(self) -> int:
        # an interval covers every level from its start to its end (n for
        # INF), and the gap condition keeps the intervals a level apart
        return sum(
            (self.n if iv.hi is INF else iv.hi.level) - iv.lo.level + 1 for iv in self.intervals
        ) - 1


class Ensemble(PseudoEnsemble):
    """A pseudo-ensemble whose first interval starts at the origin, realized
    in E*_n.

    The inherited rank subtracts the origin's level, so it is the number
    of distinct realized levels; it equals the dimension of the
    corresponding flat and is *not* the number of intervals.
    """

    __slots__ = ()

    def __init__(self, n: int, intervals: Iterable[Interval]) -> None:
        super().__init__(n, intervals)
        if not self.intervals or self.intervals[0].lo.level != 0:
            raise ValueError(f"an ensemble starts at the origin, got {self.intervals}")

    @classmethod
    def from_points(cls, n: int, points: Iterable[PosetPoint]) -> "Ensemble":
        """Canonicalize a realized subset of E*_n, or raise ValueError."""
        pts = set(points)
        if PosetPoint(0, 0) in pts:
            raise ValueError("realized points must lie in E*_n")
        return super().from_points(n, pts | {PosetPoint(0, 0)})

    def realized(self) -> frozenset[PosetPoint]:
        return super().realized() - {PosetPoint(0, 0)}

    def __repr__(self) -> str:
        body = " u ".join(repr(iv) for iv in self.intervals)
        return f"Ensemble(n={self.n}, {body})"


def _interval_unions(n: int, target: int, floor: int, cls, first: Interval):
    """Every valid interval union whose first interval starts in first and
    whose intervals cover exactly target levels at or above floor, each
    built as cls(n, intervals).

    A node of the walk is a prefix of intervals, the number of levels it
    covers, and the range of the next interval's start, as the arguments of
    _coords_between: [hi + (1,1), INF] after a finite end hi, or None once
    the prefix is a complete union.  Prefixes that can be neither completed
    nor extended are not visited.  Candidate starts and ends are scanned by
    their ints in (level, b) order, with INF last, so the order is
    reproducible, and a point is built only for a start or end that is kept.
    """

    def children(node):
        done, levels, starts = node
        if starts is None:
            return
        for a, b in _coords_between(n, *starts):
            lo = None
            base = levels - max(a + b, floor) + 1
            # an end at level lev leaves the prefix covering base + lev levels
            for lev in range(a + b, n + 1):
                lv = base + lev
                if (lv == target and lev < n) or (lv < target and lev + 2 <= n):
                    if lo is None:
                        lo = PosetPoint(a, b)
                    for hb in range(b, lev - a + 1):
                        after = (lev - hb + 1, hb + 1, INF) if lv < target else None
                        yield done + (Interval(lo, PosetPoint(lev - hb, hb)),), lv, after
            if base + n == target:
                yield done + (Interval(PosetPoint(a, b) if lo is None else lo, INF),), target, None

    root = ((), 0, (first.lo.a, first.lo.b, first.hi))
    for done, _, starts in depth_first(root, children):
        if starts is None:
            yield cls(n, done)


def enumerate_ensembles(n: int, k: int) -> Iterator[Ensemble]:
    """All k-ensembles of E*_n in canonical form, lazily, deterministic order.

    The first interval starts at the origin and only levels of E*_n count.
    """
    if k < 0 or k > n:
        return
    origin = PosetPoint(0, 0)
    yield from _interval_unions(n, k, 1, Ensemble, Interval(origin, origin))


def enumerate_pseudo_ensembles(n: int, k: int) -> Iterator[PseudoEnsemble]:
    """All k-pseudo-ensembles of E_n (k = -1 gives the empty union).

    The first interval starts anywhere in E_n and the origin's level counts.
    """
    if k < -1 or k > n:
        return
    if k == -1:
        yield PseudoEnsemble(n, ())
        return
    yield from _interval_unions(n, k + 1, 0, PseudoEnsemble, Interval(PosetPoint(0, 0), INF))
