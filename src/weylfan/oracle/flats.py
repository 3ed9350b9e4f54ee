"""Geometric flat enumeration.

A flat of an `Arrangement` is the intersection of some of its cut
hyperplanes with the cone C = {walls >= 0, ambient_eqs = 0} (Stanley, An
Introduction to Hyperplane Arrangements, Lecture 1).  The flat cut by a set
T of cuts is the cone C_T = {x in C : cut . x = 0 for every cut in T}.

The affine hull of C_T (a linear span, since C_T is a cone) is cut out by
T's rows and the ambient equalities together with the implicit equalities of
C_T: the walls that vanish on all of C_T (Schrijver, Theory of Linear and
Integer Programming, 8.2).  A closure takes one kernel B_1, ..., B_d of those
rows and works in its coordinates, where C_T is the cone {wall . B_j >= 0} in
Q^d.  A wall orthogonal to every B_j vanishes by the rows alone.  A wall
positive at a point of C_T is no implicit equality; the points +-B_j that
every wall keeps >= 0 are such points, checked with no LP.  The walls left
are decided together, in rounds: one LP looks for a point of C_T where their
sum is positive, which drops every wall positive there, and the round
repeats on the walls left.  Once no such point exists, each wall left is
>= 0 on C_T and their sum is <= 0 there, so all of them vanish on C_T.  A
closure thus makes at most one infeasible LP, one feasible LP per round
(each drops at least one wall), and at most one more kernel, that of the
implicit walls in Q^d, which gives both the dimension of the flat (the
kernel's size) and its tight closure: a cut vanishes on the flat exactly
when it is orthogonal to the whole kernel.

Two cut sets give the same flat exactly when they have the same tight
closure (the full set of cuts vanishing on the intersection), so closures
are the deduplication key.  The search starts from the closure of the empty
set, the cone itself, whose tight set holds every cut that vanishes on the
whole cone and whose dimension counts the walls' implicit equalities too.
It grows closed sets one hyperplane at a time, which reaches every flat
because closure is monotone.  `flat_span` is the span half of a closure;
the cell search takes the span of the whole cone from it.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Optional

from .arrangement import Arrangement, check_rank, gl_arrangement, weight_indices
from .linalg import dot, kernel_basis, lift, restrict
from .simplex import cone_positive

FLAT_CAP = 7  # default largest rank of enumerate_flats_geometric


@dataclass(frozen=True)
class GeometricFlat:
    n: int
    tight: frozenset
    dim: int


@dataclass
class FlatEnumeration:
    n: int
    counts: list[int]
    flats: list[GeometricFlat]
    stats: Counter = field(default_factory=Counter)


def flat_span(arr: Arrangement, T, stats):
    """Int vectors of Q^arr.dim, a basis of the span of the flat cut by T."""
    rows = [arr.cuts[c] for c in sorted(T)] + list(arr.ambient_eqs)
    free = kernel_basis(rows, arr.dim)
    d = len(free)
    # C_T in the coordinates of the kernel; walls that vanish there are implied
    walls = [w for w in restrict(arr.walls, free) if any(w)]
    implicit = walls
    for j in range(d):
        for sign in (1, -1):
            if all(sign * w[j] >= 0 for w in walls):  # sign * B_j lies in C_T
                implicit = [w for w in implicit if sign * w[j] <= 0]
    while implicit:
        total = [sum(col) for col in zip(*implicit)]
        point = cone_positive([], total, walls, d, stats=stats)
        if point is None:
            break  # each wall left is >= 0 on C_T and their sum is <= 0 there
        implicit = [w for w in implicit if dot(w, point) <= 0]
    if not implicit:
        return free
    # the kernel of the implicit walls in Q^d, taken back to Q^dim
    return [lift(h, free) for h in kernel_basis(implicit, d)]


def _closure(arr: Arrangement, T, stats):
    """Tight closure (cut positions) and dimension of the flat cut by T."""
    span = flat_span(arr, T, stats)
    tight = frozenset(
        c
        for c, cut in enumerate(arr.cuts)
        if all(dot(cut, k) == 0 for k in span)
    )
    return tight, len(span)


def enumerate_generic_flats(arr: Arrangement, *, stats: Optional[Counter] = None):
    """Every flat of an arrangement, deduplicated by tight closure.

    Returns (flats, counts) where each flat is (tight cut positions, dim),
    ordered by dimension, then size, then positions.
    """
    if stats is None:
        stats = Counter()
    root = frozenset()
    cache = {root: _closure(arr, root, stats)}
    dims = dict(cache.values())  # closed tight set -> dimension
    queue = deque(dims)
    while queue:
        current = queue.popleft()
        for u in range(len(arr.cuts)):
            if u in current:
                continue
            T = current | {u}
            if T not in cache:
                cache[T] = _closure(arr, T, stats)
            closed, dim = cache[T]
            if closed not in dims:
                dims[closed] = dim
                queue.append(closed)
    flats = sorted(dims.items(), key=lambda kv: (kv[1], len(kv[0]), sorted(kv[0])))
    stats["flats"] = len(flats)
    stats["closures"] = len(cache)
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
    return FlatEnumeration(n, counts, flats, stats)
