"""Truncated quarter-plane posets, their chains, and ensembles of intervals.

E_n is the set of lattice points (a, b) with a, b >= 0 and a + b <= n, ordered
componentwise; E*_n drops the origin and Ehat_n adjoins a maximum INF.  The
level l(a, b) = a + b grades the poset.  Chains in E*_n index the faces of the
restricted weight arrangement, ensembles (certain unions of intervals) index
its flats, so everything here is exact and deterministic: enumeration orders
are fixed and iterators are lazy.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Union


@dataclass(frozen=True)
class PosetPoint:
    """A point (a, b) of the quarter-plane N^2 under the componentwise order."""

    a: int
    b: int

    def __post_init__(self) -> None:
        if self.a < 0 or self.b < 0:
            raise ValueError(f"poset point needs nonnegative coordinates, got ({self.a}, {self.b})")

    @property
    def level(self) -> int:
        return self.a + self.b

    def shift(self, da: int, db: int) -> "PosetPoint":
        return PosetPoint(self.a + da, self.b + db)

    # The dunder comparisons implement the *partial* componentwise order, so
    # sorted() must never be called on raw points; use sort_key instead.
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

    def __ge__(self, other: object):
        if isinstance(other, PosetPoint):
            return other.__le__(self)
        if other is INF:
            return False
        return NotImplemented

    def __gt__(self, other: object):
        ge = self.__ge__(other)
        if ge is NotImplemented:
            return ge
        return ge and self != other

    def __repr__(self) -> str:
        return f"({self.a},{self.b})"


class _Infinity:
    """The adjoined maximum of Ehat_n.  A single instance, INF, exists."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __le__(self, other: object):
        return other is INF

    def __lt__(self, other: object):
        return False

    def __ge__(self, other: object):
        return True

    def __gt__(self, other: object):
        return other is not INF

    def __repr__(self) -> str:
        return "INF"


INF = _Infinity()

ExtendedPoint = Union[PosetPoint, _Infinity]


def sort_key(p: PosetPoint) -> tuple[int, int]:
    """Total order refining the poset order: by level, then by b."""
    return (p.level, p.b)


def level_set(n: int, i: int) -> list[PosetPoint]:
    """The i-th level of E_n: points (a, i - a), sorted by a."""
    if not 0 <= i <= n:
        raise ValueError(f"level {i} out of range for E_{n}")
    return [PosetPoint(a, i - a) for a in range(i + 1)]


def all_points(n: int, *, include_origin: bool = False) -> list[PosetPoint]:
    """E*_n (or E_n) listed in (level, b) order."""
    start = 0 if include_origin else 1
    pts: list[PosetPoint] = []
    for lev in range(start, n + 1):
        pts.extend(PosetPoint(lev - b, b) for b in range(lev + 1))
    return pts


def star_size(n: int) -> int:
    """|E*_n| = n(n+3)/2."""
    return n * (n + 3) // 2


@dataclass(frozen=True)
class Interval:
    """The closed interval [lo, hi] in Ehat_n; hi may be INF."""

    lo: PosetPoint
    hi: ExtendedPoint

    def __post_init__(self) -> None:
        if not isinstance(self.lo, PosetPoint):
            raise ValueError("interval lower end must be a finite point")
        if not (isinstance(self.hi, PosetPoint) or self.hi is INF):
            raise ValueError("interval upper end must be a point or INF")
        if not self.lo <= self.hi:
            raise ValueError(f"empty interval: {self.lo} is not <= {self.hi}")

    def __repr__(self) -> str:
        return f"[{self.lo},{self.hi}]"


def interval_realize(interval: Interval, n: int, *, ambient: str = "E*") -> list[PosetPoint]:
    """Points of the ambient poset lying in the interval, in (level, b) order.

    ambient is "E*" (origin excluded) or "E" (origin included).
    """
    if ambient not in ("E*", "E"):
        raise ValueError(f"ambient must be 'E*' or 'E', got {ambient!r}")
    pts = all_points(n, include_origin=(ambient == "E"))
    return [p for p in pts if interval.lo <= p and p <= interval.hi]


Chain = tuple[PosetPoint, ...]


def is_chain(points: Iterable[PosetPoint]) -> bool:
    pts = sorted(points, key=sort_key)
    if len(set(pts)) != len(pts):
        return False
    return all(p < q for p, q in zip(pts, pts[1:]))


def enumerate_chains(n: int, k: int) -> Iterator[Chain]:
    """All k-chains of E*_n, lazily, in lexicographic (level, b) order.

    The empty chain is the unique 0-chain.  k < 0 or k > n yields nothing
    (a chain has at most one point per level).
    """
    if k < 0 or k > n:
        return
    pts = all_points(n)
    prefix: list[PosetPoint] = []
    # an explicit stack, so a chain may be longer than the recursion limit:
    # per open depth (one more than the prefix), the next index of pts to try
    nexts = [0]
    while nexts:
        if len(prefix) == k:
            yield tuple(prefix)
            idx = len(pts)
        else:
            idx = nexts[-1]
            # Levels still available must suffice to finish the chain.
            need = k - len(prefix) - 1
            while idx < len(pts) and (
                n - pts[idx].level < need or (prefix and not prefix[-1] < pts[idx])
            ):
                idx += 1
        if idx == len(pts):
            nexts.pop()
            if prefix:
                prefix.pop()
        else:
            nexts[-1] = idx + 1
            prefix.append(pts[idx])
            nexts.append(idx + 1)


@lru_cache(maxsize=None)
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

    Raises ValueError when the set is not a disjoint union of intervals
    [A_0, B_0], [A_1, B_1], ... with B_i + (1,1) <= A_{i+1} and the last
    interval either reaching INF or ending strictly below level n.
    """
    remaining = set(members)
    out: list[Interval] = []
    prev_hi: PosetPoint | None = None
    while remaining:
        lo = PosetPoint(min(p.a for p in remaining), min(p.b for p in remaining))
        if lo not in remaining:
            raise ValueError(f"no minimum among remaining points near {lo}")
        if prev_hi is not None and not prev_hi.shift(1, 1) <= lo:
            raise ValueError(f"gap condition fails between {prev_hi} and {lo}")
        cone = {p for p in all_points(n, include_origin=True) if lo <= p}
        if cone <= remaining:
            out.append(Interval(lo, INF))
            remaining.clear()
            return tuple(out)
        dx = 0
        while lo.shift(dx + 1, 0) in remaining:
            dx += 1
        dy = 0
        while lo.shift(0, dy + 1) in remaining:
            dy += 1
        hi = lo.shift(dx, dy)
        if hi.level > n:
            raise ValueError(f"rectangle at {lo} runs past level {n}")
        rect = {PosetPoint(a, b) for a in range(lo.a, hi.a + 1) for b in range(lo.b, hi.b + 1)}
        if not rect <= remaining:
            raise ValueError(f"points below {hi} are not all present")
        remaining -= rect
        if not remaining and hi.level >= n:
            raise ValueError(f"last interval ends at level {hi.level}, needs < {n} or INF")
        out.append(Interval(lo, hi))
        prev_hi = hi
    return tuple(out)


def _check_presentation(n: int, intervals: tuple[Interval, ...], *, origin_start: bool) -> None:
    if origin_start:
        if not intervals:
            raise ValueError("an ensemble has at least one interval")
        if intervals[0].lo != PosetPoint(0, 0):
            raise ValueError(f"first interval must start at the origin, got {intervals[0].lo}")
    for iv in intervals:
        if iv.lo.level > n:
            raise ValueError(f"interval start {iv.lo} lies outside E_{n}")
        if isinstance(iv.hi, PosetPoint) and iv.hi.level > n:
            raise ValueError(f"interval end {iv.hi} lies outside E_{n}")
    for prev, nxt in zip(intervals, intervals[1:]):
        if prev.hi is INF:
            raise ValueError("only the last interval may reach INF")
        if not prev.hi.shift(1, 1) <= nxt.lo:
            raise ValueError(f"gap condition fails between {prev.hi} and {nxt.lo}")
    if intervals:
        last = intervals[-1].hi
        if isinstance(last, PosetPoint) and last.level >= n:
            raise ValueError(f"last interval ends at level {last.level}, needs < {n} or INF")


def _realize(n: int, intervals: tuple[Interval, ...], *, include_origin: bool) -> frozenset[PosetPoint]:
    pts = all_points(n, include_origin=include_origin)
    out = set()
    for iv in intervals:
        out.update(p for p in pts if iv.lo <= p and p <= iv.hi)
    return frozenset(out)


@dataclass(frozen=True)
class Ensemble:
    """A union of intervals of Ehat_n starting at the origin, realized in E*_n.

    The stored presentation is canonical (minimal interval decomposition);
    two ensembles are equal iff their realized sets are, which the canonical
    form makes a plain field comparison.  rank = number of distinct realized
    levels; it equals the dimension of the corresponding flat and is *not*
    the number of intervals.
    """

    n: int
    intervals: tuple[Interval, ...]

    def __post_init__(self) -> None:
        _check_presentation(self.n, self.intervals, origin_start=True)

    @classmethod
    def from_points(cls, n: int, points: Iterable[PosetPoint]) -> "Ensemble":
        """Canonicalize a realized subset of E*_n, or raise ValueError."""
        pts = set(points)
        if any(p.level == 0 or p.level > n for p in pts):
            raise ValueError("realized points must lie in E*_n")
        return cls(n, _decompose(n, pts | {PosetPoint(0, 0)}))

    def realized(self) -> frozenset[PosetPoint]:
        return _realize(self.n, self.intervals, include_origin=False)

    @property
    def rank(self) -> int:
        return len({p.level for p in self.realized()})

    @property
    def interval_count(self) -> int:
        return len(self.intervals)

    def __repr__(self) -> str:
        body = " u ".join(repr(iv) for iv in self.intervals)
        return f"Ensemble(n={self.n}, {body})"


@dataclass(frozen=True)
class PseudoEnsemble:
    """Like an Ensemble but the first interval may start anywhere in E_n.

    Realized in E_n (the origin counts when covered).  The empty union is the
    unique pseudo-ensemble of rank -1; in general rank = distinct levels - 1.
    """

    n: int
    intervals: tuple[Interval, ...]

    def __post_init__(self) -> None:
        _check_presentation(self.n, self.intervals, origin_start=False)

    @classmethod
    def from_points(cls, n: int, points: Iterable[PosetPoint]) -> "PseudoEnsemble":
        pts = set(points)
        if any(p.level > n for p in pts):
            raise ValueError("realized points must lie in E_n")
        return cls(n, _decompose(n, pts))

    def realized(self) -> frozenset[PosetPoint]:
        return _realize(self.n, self.intervals, include_origin=True)

    @property
    def rank(self) -> int:
        return len({p.level for p in self.realized()}) - 1


def _finite_points_from(n: int, lower: PosetPoint) -> list[PosetPoint]:
    return [p for p in all_points(n, include_origin=True) if lower <= p]


def _interval_unions(
    n: int,
    target: int,
    floor: int,
    cls,
    starts: list[PosetPoint],
    done: tuple[Interval, ...] = (),
    levels: int = 0,
):
    """Every valid interval union whose first interval starts in starts and
    whose intervals cover exactly target levels at or above floor, each
    built as cls(n, intervals).

    Intervals are grown front to back; candidate endpoints are scanned in
    (level, b) order with INF last, so the order is reproducible.  done is a
    valid prefix covering levels such levels, whose last interval ends
    strictly below level n.
    """
    for lo in starts:
        for hi in _finite_points_from(n, lo):
            lv = levels + min(hi.level, n) - max(lo.level, floor) + 1
            if lv > target:
                continue
            nxt = done + (Interval(lo, hi),)
            if hi.level < n and lv == target:
                yield cls(n, nxt)
            if hi.level + 2 <= n:
                after = _finite_points_from(n, hi.shift(1, 1))
                yield from _interval_unions(n, target, floor, cls, after, nxt, lv)
        if levels + n - max(lo.level, floor) + 1 == target:
            yield cls(n, done + (Interval(lo, INF),))


def enumerate_ensembles(n: int, k: int) -> Iterator[Ensemble]:
    """All k-ensembles of E*_n in canonical form, lazily, deterministic order.

    The first interval starts at the origin and only levels of E*_n count.
    """
    if k < 0 or k > n:
        return
    yield from _interval_unions(n, k, 1, Ensemble, [PosetPoint(0, 0)])


def enumerate_pseudo_ensembles(n: int, k: int) -> Iterator[PseudoEnsemble]:
    """All k-pseudo-ensembles of E_n (k = -1 gives the empty union).

    The first interval starts anywhere in E_n and the origin's level counts.
    """
    if k < -1 or k > n:
        return
    if k == -1:
        yield PseudoEnsemble(n, ())
        return
    starts = all_points(n, include_origin=True)
    yield from _interval_unions(n, k + 1, 0, PseudoEnsemble, starts)
