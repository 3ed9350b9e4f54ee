"""Geometric flat enumeration.

A flat is the intersection of some weight hyperplanes with the chamber cone.
In the gap coordinates r_l = x_l - x_{l+1} >= 0 and z = x_n, every weight is
2z + c.r with a nonnegative integer vector c, so once one generator w0 of a
set T is used to eliminate z, the flat cut by T is the cone
C = {r >= 0, (c_w - c_w0).r = 0 for w in T}.

The affine hull of C (a linear span, since C is a cone) is cut out by those
difference rows together with the implicit equalities of C: the coordinates
r_l that vanish on all of C (Schrijver, Theory of Linear and Integer
Programming, 8.2).  A coordinate is implicit when it lies in the row space of
the difference rows, or when no point of C makes it positive, one exact LP;
a witness point from an earlier LP settles every coordinate it shows
positive.  One kernel of the rows plus the equalities then gives both the
dimension of the flat (the kernel's size) and its tight closure: a weight
vanishes on the flat exactly when its difference row is orthogonal to the
whole kernel.  A closure costs at most n - 1 LPs and none per weight.

Two generator subsets cut the same flat exactly when they have the same
tight closure (the full set of weights vanishing on the intersection), so
closures are the deduplication key; the search grows closed sets one
hyperplane at a time, which reaches every flat because closure is monotone.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction

from ..incidence import WeightIndex, weight_indices
from .cells import CapExceeded
from .linalg import dot, kernel_basis, rank_of
from .simplex import cone_positive


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


def _cvector(n: int, idx: WeightIndex) -> tuple[int, ...]:
    i, j = idx
    return tuple(
        (1 if level >= i else 0) + (1 if level >= j else 0)
        for level in range(1, n)
    )


def _difference_rows(cvecs, T):
    w0 = min(T)
    base = cvecs[w0]
    return [
        tuple(a - b for a, b in zip(cvecs[w], base)) for w in sorted(T)
    ], base


def _closure(n, T, cvecs, stats):
    """Tight closure and dimension of the flat cut by T (T nonempty)."""
    dim = n - 1
    rows, base = _difference_rows(cvecs, T)
    base_rank = rank_of(rows)
    equalities = []
    points: list[tuple[Fraction, ...]] = []
    for level in range(dim):
        if any(p[level] != 0 for p in points):
            continue
        unit = tuple(1 if c == level else 0 for c in range(dim))
        if rank_of(rows + [unit]) == base_rank:
            equalities.append(unit)  # r_l = 0 follows from the rows alone
            continue
        point = cone_positive(rows, unit, dim, stats=stats)
        if point is None:
            equalities.append(unit)
        else:
            points.append(point)
    span = kernel_basis(rows + equalities, dim)
    # (c - base) . k == 0 for every int kernel vector k, in ints
    offsets = [dot(base, k) for k in span]
    tight = frozenset(
        u
        for u, c in cvecs.items()
        if all(dot(c, k) == o for k, o in zip(span, offsets))
    )
    return tight, len(span)


def enumerate_flats_geometric(n: int, *, cap: int = 6) -> FlatEnumeration:
    """Every flat, deduplicated by tight closure and tallied by dimension."""
    if n < 1:
        raise ValueError("rank must be at least 1")
    if n > cap:
        subsets = 2 ** (n * (n + 1) // 2)
        raise CapExceeded(
            f"flat enumeration at rank {n} ranges over 2^(n(n+1)/2) = "
            f"{subsets} generator subsets; the configured cap is {cap}"
        )
    stats: dict = {}
    cvecs = {idx: _cvector(n, idx) for idx in weight_indices(n)}
    cache: dict = {}
    whole = frozenset()
    dims = {whole: n}
    queue = deque([whole])
    while queue:
        current = queue.popleft()
        for u in cvecs:
            if u in current:
                continue
            T = current | {u}
            if T not in cache:
                cache[T] = _closure(n, T, cvecs, stats)
            closed, dim = cache[T]
            if closed not in dims:
                dims[closed] = dim
                queue.append(closed)
    flats = [
        GeometricFlat(n, tight, d)
        for tight, d in sorted(
            dims.items(), key=lambda kv: (kv[1], len(kv[0]), sorted(kv[0]))
        )
    ]
    counts = [0] * (n + 1)
    for flat in flats:
        counts[flat.dim] += 1
    stats["flats"] = len(flats)
    stats["closures"] = len(cache)
    return FlatEnumeration(n, counts, flats, stats)
