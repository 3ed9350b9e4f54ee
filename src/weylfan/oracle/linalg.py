"""Exact rational matrices: rank by fraction-free elimination, kernels by
reduced row echelon form."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence


def _integerize(rows: Sequence[Sequence]) -> list[list[int]]:
    """Scale each row of ints and Fractions to integers; row scaling changes
    neither rank nor kernel."""
    out = []
    for row in rows:
        denom = lcm(*(v.denominator for v in row))
        out.append([int(v * denom) for v in row])
    return out


def _bareiss_rank(m: list[list[int]]) -> int:
    """Rank of an integer matrix by Bareiss (fraction-free) elimination, in place."""
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    rank = 0
    prev = 1
    col = 0
    while rank < nrows and col < ncols:
        pivot = next((r for r in range(rank, nrows) if m[r][col] != 0), None)
        if pivot is None:
            col += 1
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for r in range(rank + 1, nrows):
            for c in range(col + 1, ncols):
                m[r][c] = (m[rank][col] * m[r][c] - m[r][col] * m[rank][c]) // prev
            m[r][col] = 0
        prev = m[rank][col]
        rank += 1
        col += 1
    return rank


@dataclass(frozen=True)
class RationalMatrix:
    rows: tuple[tuple[Fraction, ...], ...]

    @classmethod
    def from_rows(cls, rows) -> "RationalMatrix":
        return cls(tuple(tuple(Fraction(v) for v in row) for row in rows))

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.rows), len(self.rows[0]) if self.rows else 0)

    def rank(self) -> int:
        """Bareiss (fraction-free) elimination on the integerized rows."""
        return _bareiss_rank(_integerize(self.rows))

    def rref(self) -> tuple[tuple[tuple[Fraction, ...], ...], tuple[int, ...]]:
        """Reduced row echelon form and the pivot column indices."""
        m = [list(row) for row in self.rows]
        nrows = len(m)
        ncols = len(m[0]) if m else 0
        pivots = []
        lead = 0
        for col in range(ncols):
            pivot = next((r for r in range(lead, nrows) if m[r][col] != 0), None)
            if pivot is None:
                continue
            m[lead], m[pivot] = m[pivot], m[lead]
            pv = m[lead][col]
            m[lead] = [v / pv for v in m[lead]]
            for r in range(nrows):
                if r != lead and m[r][col] != 0:
                    f = m[r][col]
                    m[r] = [a - f * b for a, b in zip(m[r], m[lead])]
            pivots.append(col)
            lead += 1
        return tuple(tuple(row) for row in m), tuple(pivots)

    def nullspace(self) -> tuple[tuple[Fraction, ...], ...]:
        """Basis of the right kernel; empty input means the full space."""
        nrows, ncols = self.shape
        if nrows == 0:
            raise ValueError("nullspace needs at least the column count; use identity_basis")
        rref, pivots = self.rref()
        free = [c for c in range(ncols) if c not in pivots]
        basis = []
        for fc in free:
            vec = [Fraction(0)] * ncols
            vec[fc] = Fraction(1)
            for r, pc in enumerate(pivots):
                vec[pc] = -rref[r][fc]
            basis.append(tuple(vec))
        return tuple(basis)


def identity_basis(dim: int) -> tuple[tuple[Fraction, ...], ...]:
    return tuple(
        tuple(Fraction(1 if i == j else 0) for j in range(dim)) for i in range(dim)
    )


def kernel_basis(rows, dim: int) -> tuple[tuple[Fraction, ...], ...]:
    """Kernel of the row system inside Q^dim; no rows gives the identity."""
    rows = [row for row in rows if any(Fraction(v) != 0 for v in row)]
    if not rows:
        return identity_basis(dim)
    return RationalMatrix.from_rows(rows).nullspace()


def rank_of(rows) -> int:
    """Rank of rows of ints and Fractions, without converting them to Fraction."""
    return _bareiss_rank(_integerize(rows))


def dot(u, v):
    """Exact inner product; int vectors stay int."""
    return sum(a * b for a, b in zip(u, v))
