"""Exact linear algebra on integer rows: rank and kernel by one fraction-free
elimination loop, whose step the simplex tableau uses too.

A row is a list of ints that stands for every positive multiple of itself.
Rows of ints and Fractions enter through `integer_row`, which clears their
denominators.  `eliminate` clears one column of a row against a pivot row and
divides the result by the gcd of its entries, so the entries stay small and
no Fraction is created inside any elimination loop (Bareiss 1968, Math.
Comp. 22; Edmonds 1967, J. Res. NBS 71B).  `_reduce` is the one elimination
loop: it brings rows to reduced row echelon form up to one factor per row.
`rank_of` counts its pivots (it skips the clearing above each pivot, which
a rank does not need), and `kernel_basis` reads one kernel vector per free
column, a primitive int vector, so products against it stay int.
`restrict` takes rows into the coordinates of such a basis, and `lift`
takes a point of those coordinates back.  `check_lengths` refuses a row of
the wrong length, which `zip` would cut short.  `canonical_hyperplane` is
the one rule for when two rows give the same hyperplane.
"""

from __future__ import annotations

from math import gcd, lcm
from operator import mul


def integer_row(row) -> list[int]:
    """The row of ints and Fractions scaled by the lcm of its denominators,
    a new list; a row of ints is copied as it is."""
    if all(type(v) is int for v in row):
        return list(row)
    scale = lcm(*(v.denominator for v in row))
    return [v.numerator * (scale // v.denominator) for v in row]


def check_lengths(rows, dim: int) -> None:
    """Raise ValueError unless every row has dim entries."""
    for row in rows:
        if len(row) != dim:
            raise ValueError(f"a row of length {len(row)} in Q^{dim}")


def canonical_hyperplane(row) -> tuple[int, ...]:
    """The primitive int normal of a row of ints and Fractions whose first
    nonzero entry is positive (all zeros for the zero row): two rows give the
    same hyperplane exactly when they give the same normal."""
    ints = integer_row(row)
    g = gcd(*ints) or 1
    if next((v for v in ints if v != 0), 0) < 0:
        g = -g
    return tuple(v // g for v in ints)


def eliminate(row: list[int], lead: list[int], col: int) -> list[int]:
    """p * row - row[col] * lead with p = lead[col] != 0, divided by the gcd of
    its entries, negated when p < 0: a positive multiple of row with
    row[col] / p times lead taken away, and a zero in column col."""
    p = lead[col]
    f = row[col]
    out = [p * a - f * b for a, b in zip(row, lead)]
    g = gcd(*out)
    if p < 0:
        g = -g
    if g not in (0, 1):
        out = [v // g for v in out]
    return out


def _reduce(rows, dim: int, *, above: bool = True) -> tuple[list[list[int]], list[int]]:
    """Rows of ints and Fractions in reduced row echelon form up to a nonzero
    factor per row, and their pivot columns: one `eliminate` step clears each
    pivot column below its pivot, and above it too unless above is False,
    which leaves a row echelon form with the same pivots.  The loop stops once
    every row is a pivot row, since every column after that is free."""
    m = [integer_row(row) for row in rows]
    pivots: list[int] = []
    for col in range(dim):
        lead = len(pivots)
        if lead == len(m):
            break
        pivot = next((r for r in range(lead, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        m[lead], m[pivot] = m[pivot], m[lead]
        for r in range(0 if above else lead + 1, len(m)):
            if r != lead and m[r][col]:
                m[r] = eliminate(m[r], m[lead], col)
        pivots.append(col)
    return m, pivots


def rank_of(rows) -> int:
    """Rank of rows of ints and Fractions: the number of pivots of `_reduce`,
    which needs no clearing above a pivot."""
    rows = list(rows)
    return len(_reduce(rows, len(rows[0]) if rows else 0, above=False)[1])


def kernel_basis(rows, dim: int) -> tuple[tuple[int, ...], ...]:
    """Kernel of the row system inside Q^dim, one primitive int vector per
    free column of the reduced row echelon form; no rows gives the identity.

    Each vector is the RREF kernel vector (1 at its free column) times the
    lcm s > 0 of its denominators.  Its entry at the free column is s, and
    that is its last nonzero entry, so v / v[last nonzero] is the RREF vector.
    """
    check_lengths(rows, dim)
    m, pivots = _reduce(rows, dim)
    basis = []
    for fc in range(dim):
        if fc in pivots:
            continue
        # the RREF entry at pc is -row[fc] / row[pc]
        entries = [(pc, row[fc], row[pc]) for row, pc in zip(m, pivots) if row[fc]]
        s = lcm(*(abs(p) // gcd(f, p) for _, f, p in entries))
        vec = [0] * dim
        vec[fc] = s
        for pc, f, p in entries:
            vec[pc] = -f * s // p
        basis.append(tuple(vec))
    return tuple(basis)


def restrict(rows, basis) -> list[list[int]]:
    """Each row, cleared of its denominators, as its products with the basis
    vectors: the row as a functional on the coordinates of the span."""
    return [[dot(row, b) for b in basis] for row in map(integer_row, rows)]


def lift(coeffs, basis) -> list:
    """The point sum_j coeffs[j] * basis[j] back in Q^dim; basis is not
    empty, and int coefficients give an int point."""
    return [dot(coeffs, col) for col in zip(*basis)]


def dot(u, v):
    """Exact inner product; int vectors stay int."""
    return sum(map(mul, u, v))
