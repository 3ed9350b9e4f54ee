"""Geometric flat enumeration.

A flat of an `Arrangement` is the intersection of some of its cut
hyperplanes with the cone C = {walls >= 0, ambient_eqs = 0} (Stanley, An
Introduction to Hyperplane Arrangements, Lecture 1).  The flat cut by a set
T of cuts is the cone C_T = {x in C : cut . x = 0 for every cut in T}.

The affine hull of C_T (a linear span, since C_T is a cone) is cut out by
T's rows and the ambient equalities together with the implicit equalities of
C_T: the walls that vanish on all of C_T (Schrijver, Theory of Linear and
Integer Programming, 8.2).  A closure starts from a basis of a flat's span
that contains C_T, restricts T's rows to it and takes one kernel B_1, ...,
B_d of them there, lifted back to Q^dim (`_span_within`).  In the
coordinates of the B_j, C_T is the cone {wall . B_j >= 0} in Q^d.  A wall
orthogonal to every B_j vanishes by the rows alone.  A wall positive at a
point of C_T is no implicit equality; the points +-B_j that every wall keeps
>= 0 are such points, checked with no LP.  The walls left are decided
together, in rounds: one LP looks for a point of C_T where their sum is
positive, which drops every wall positive there, and the round repeats on
the walls left.  Once no such point exists, each wall left is >= 0 on C_T
and their sum is <= 0 there, so all of them vanish on C_T.  A closure thus
makes at most one infeasible LP, one feasible LP per round (each drops at
least one wall), and at most one more kernel, that of the implicit walls in
Q^d, which gives both the dimension of the flat (the kernel's size) and its
tight closure: a cut vanishes on the flat exactly when it is orthogonal to
the whole span.

Two cut sets give the same flat exactly when they have the same tight
closure (the full set of cuts vanishing on the intersection), so closures
are the deduplication key.  The search starts from the closure of the empty
set, the cone itself, taken in the span of {ambient_eqs = 0}; its tight set
holds every cut that vanishes on the whole cone and its dimension counts the
walls' implicit equalities too.  It grows closed sets one hyperplane at a
time, which reaches every flat because closure is monotone.  The child of a
closed set S by a cut u is closed inside the span of S's flat, with u as
the one row: S's rows and implicit walls vanish there already, and only the
cuts outside S + {u} are tested for tightness.  When that child has
dimension d - 1, d the dimension of S's flat, every other cut u' of its
tight set gives the same child, which is skipped: C_{S+{u'}} contains the
child and has dimension at most d - 1, since u' does not vanish on S's flat,
so the two have the same span and the same tight set.  `flat_span` is the
span half of a closure from the span of {ambient_eqs = 0}; the cell search
takes the span of the whole cone from it.
"""

from __future__ import annotations

from collections import Counter, deque
from typing import Optional

from ..record import Record
from .arrangement import Arrangement, check_rank, gl_arrangement, weight_indices
from .linalg import dot, kernel_basis, lift, restrict
from .simplex import cone_positive

FLAT_CAP = 8  # default largest rank of enumerate_flats_geometric


class GeometricFlat(Record):
    __slots__ = ("n", "tight", "dim")

    def __init__(self, n: int, tight: frozenset, dim: int) -> None:
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "tight", tight)
        object.__setattr__(self, "dim", dim)


class FlatEnumeration(Record):
    __slots__ = ("n", "counts", "flats", "stats")

    def __init__(
        self,
        n: int,
        counts: list[int],
        flats: list[GeometricFlat],
        stats: Optional[Counter] = None,
    ) -> None:
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "flats", flats)
        object.__setattr__(self, "stats", Counter() if stats is None else stats)


def _span_within(arr: Arrangement, basis, rows, stats):
    """Int vectors of Q^arr.dim, a basis of the span of the flat C cap
    span(basis) cap {rows = 0}, where basis spans a flat's span or that of
    {ambient_eqs = 0}."""
    free = [lift(k, basis) for k in kernel_basis(restrict(rows, basis), len(basis))]
    d = len(free)
    # the flat in the coordinates of free; walls that vanish there are implied
    walls = [w for w in restrict(arr.walls, free) if any(w)]
    implicit = walls
    for j in range(d):
        for sign in (1, -1):
            if all(sign * w[j] >= 0 for w in walls):  # sign * free[j] lies in the flat
                implicit = [w for w in implicit if sign * w[j] <= 0]
    while implicit:
        total = [sum(col) for col in zip(*implicit)]
        if not any(total):
            break  # the sum is 0 on the flat, so each wall left (>= 0 there) is 0 too
        point = cone_positive([], total, walls, d, stats=stats)
        if point is None:
            break  # each wall left is >= 0 on the flat and their sum is <= 0 there
        implicit = [w for w in implicit if dot(w, point) <= 0]
    if not implicit:
        return free
    # the kernel of the implicit walls in Q^d, taken back to Q^dim
    return [lift(h, free) for h in kernel_basis(implicit, d)]


def _tight(arr: Arrangement, span, known):
    """The cuts that vanish on span: known ones and those found by test."""
    return known | frozenset(
        c
        for c, cut in enumerate(arr.cuts)
        if c not in known and all(dot(cut, k) == 0 for k in span)
    )


def flat_span(arr: Arrangement, T, stats):
    """Int vectors of Q^arr.dim, a basis of the span of the flat cut by T."""
    ambient = kernel_basis(arr.ambient_eqs, arr.dim)
    return _span_within(arr, ambient, [arr.cuts[c] for c in sorted(T)], stats)


def _closure(arr: Arrangement, T, stats):
    """Tight closure (cut positions) and dimension of the flat cut by T."""
    span = flat_span(arr, T, stats)
    return _tight(arr, span, frozenset(T)), len(span)


def enumerate_generic_flats(arr: Arrangement, *, stats: Optional[Counter] = None):
    """Every flat of an arrangement, deduplicated by tight closure.

    Returns (flats, counts) where each flat is (tight cut positions, dim),
    ordered by dimension, then size, then positions.  Adds its LPs, pivots
    and closures to stats; the `flats` count is enumerate_flats_geometric's.
    """
    if stats is None:
        stats = Counter()
    root = frozenset()
    span = flat_span(arr, root, stats)
    closed = _tight(arr, span, root)
    spans = {closed: span}  # closed tight set -> a basis of its flat's span
    cache = {root: (closed, len(span))}  # cut set -> its closure and dimension
    stats["closures"] += 1
    queue = deque(spans)
    while queue:
        current = queue.popleft()
        parent = spans[current]
        covered = set(current)
        for u in range(len(arr.cuts)):
            if u in covered:
                continue
            T = current | {u}
            if T not in cache:
                span = _span_within(arr, parent, [arr.cuts[u]], stats)
                closed = _tight(arr, span, T)
                cache[T] = closed, len(span)
                stats["closures"] += 1
                if closed not in spans:
                    spans[closed] = span
                    queue.append(closed)
            closed, dim = cache[T]
            if dim == len(parent) - 1:
                # every cut of the child vanishes on a flat of dimension at
                # most dim that contains the child: the same flat
                covered |= closed
    flats = sorted(
        ((tight, len(span)) for tight, span in spans.items()),
        key=lambda kv: (kv[1], len(kv[0]), sorted(kv[0])),
    )
    return flats, arr.count_row(dim for _, dim in flats)


def enumerate_flats_geometric(n: int, *, cap: int = FLAT_CAP) -> FlatEnumeration:
    """Every flat of the rank-n picture, its tight set as weight boxes."""
    check_rank(
        n,
        cap,
        f"flat enumeration at rank {n} ranges over 2^(n(n+1)/2) = "
        f"2^{n * (n + 1) // 2} generator subsets",
    )
    stats = Counter()
    raw, counts = enumerate_generic_flats(gl_arrangement(n), stats=stats)
    boxes = weight_indices(n)
    flats = [
        GeometricFlat(n, frozenset(boxes[c] for c in tight), dim)
        for tight, dim in raw
    ]
    stats["flats"] = len(flats)
    return FlatEnumeration(n, counts, flats, stats)
