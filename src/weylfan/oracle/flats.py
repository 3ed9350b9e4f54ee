"""Geometric flat enumeration.

A flat of an `Arrangement` is the intersection of some of its cut
hyperplanes with the cone C = {walls >= 0, ambient_eqs = 0} (Stanley, An
Introduction to Hyperplane Arrangements, Lecture 1).  The flat cut by a set
T of cuts is the cone C_T = {x in C : cut . x = 0 for every cut in T}.

The affine hull of C_T (a linear span, since C_T is a cone) is cut out by
T's rows and the ambient equalities together with the implicit equalities of
C_T: the walls that vanish on all of C_T (Schrijver, Theory of Linear and
Integer Programming, 8.2).  A wall is implicit when it is orthogonal to the
kernel of those rows, or when no point of C_T makes it positive, one exact
LP; a witness point from an earlier LP settles every wall it shows positive.
One kernel of the rows plus the equalities then gives both the dimension of
the flat (the kernel's size) and its tight closure: a cut vanishes on the
flat exactly when it is orthogonal to the whole kernel.  A closure costs at
most one LP per wall and none per cut.

Two cut sets give the same flat exactly when they have the same tight
closure (the full set of cuts vanishing on the intersection), so closures
are the deduplication key; the search grows closed sets one hyperplane at a
time, which reaches every flat because closure is monotone.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Optional

from .arrangement import Arrangement, gl_arrangement, weight_indices
from .cells import CapExceeded
from .linalg import dot, kernel_basis, rank_of
from .simplex import cone_positive

FLAT_CAP = 6  # default largest rank of enumerate_flats_geometric


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
    stats: dict = field(default_factory=dict)


def _closure(arr: Arrangement, T, stats):
    """Tight closure (cut positions) and dimension of the flat cut by T."""
    rows = [arr.cuts[c] for c in sorted(T)] + list(arr.ambient_eqs)
    free = kernel_basis(rows, arr.dim)
    equalities = []
    points = []
    for wall in arr.walls:
        if all(dot(wall, k) == 0 for k in free):
            equalities.append(wall)  # wall = 0 follows from the rows alone
        elif not any(dot(wall, p) for p in points):
            point = cone_positive(rows, wall, arr.walls, arr.dim, stats=stats)
            if point is None:
                equalities.append(wall)
            else:
                points.append(point)
    span = kernel_basis(rows + equalities, arr.dim) if equalities else free
    tight = frozenset(
        c
        for c, cut in enumerate(arr.cuts)
        if all(dot(cut, k) == 0 for k in span)
    )
    return tight, len(span)


def enumerate_generic_flats(arr: Arrangement, *, stats: Optional[dict] = None):
    """Every flat of an arrangement, deduplicated by tight closure.

    Returns (flats, counts) where each flat is (tight cut positions, dim),
    ordered by dimension, then size, then positions.
    """
    if stats is None:
        stats = {}
    top = arr.dim - rank_of(arr.ambient_eqs)
    cache: dict = {}
    dims = {frozenset(): top}
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
    counts = [0] * (top + 1)
    for _, dim in flats:
        counts[dim] += 1
    stats["flats"] = len(flats)
    stats["closures"] = len(cache)
    return flats, counts


def enumerate_flats_geometric(n: int, *, cap: int = FLAT_CAP) -> FlatEnumeration:
    """Every flat of the rank-n picture, its tight set as weight boxes."""
    if n < 1:
        raise ValueError("rank must be at least 1")
    if n > cap:
        subsets = 2 ** (n * (n + 1) // 2)
        raise CapExceeded(
            f"flat enumeration at rank {n} ranges over 2^(n(n+1)/2) = "
            f"{subsets} generator subsets; the configured cap is {cap}"
        )
    stats: dict = {}
    raw, counts = enumerate_generic_flats(gl_arrangement(n), stats=stats)
    boxes = weight_indices(n)
    flats = [
        GeometricFlat(n, frozenset(boxes[c] for c in tight), dim)
        for tight, dim in raw
    ]
    return FlatEnumeration(n, counts, flats, stats)
