"""The input of both oracle searches: cut hyperplanes restricted to a cone.

An `Arrangement` is given by rational rows in Q^dim: the cuts, whose
hyperplanes stratify the cone, and the cone {walls >= 0, ambient_eqs = 0}
that they cut.  The gl_n picture of the paper is one such value: the weights
x_i + x_j (i <= j) cut the dual fundamental chamber x_1 >= ... >= x_n.
A `SignCondition` gives one sign per row of that picture, cuts then walls.

Both searches share two rules kept here: `check_rank` refuses a rank below 1
or above a cap before any work, and `Arrangement.count_row` tallies what a
search found by dimension.
"""

from __future__ import annotations

from typing import Iterable

from ..record import Record
from .linalg import rank_of

WeightIndex = tuple[int, int]


class Arrangement(Record):
    """The cuts restricted to the cone {walls >= 0, ambient_eqs = 0} in Q^dim."""

    __slots__ = ("dim", "cuts", "walls", "ambient_eqs")

    def __init__(
        self, dim: int, cuts: Iterable, walls: Iterable, ambient_eqs: Iterable = ()
    ) -> None:
        object.__setattr__(self, "dim", dim)
        for name, given in (("cuts", cuts), ("walls", walls), ("ambient_eqs", ambient_eqs)):
            rows = tuple(tuple(row) for row in given)
            if any(len(row) != dim for row in rows):
                raise ValueError(f"every row of {name} needs {dim} entries")
            object.__setattr__(self, name, rows)

    def count_row(self, dims: Iterable[int]) -> list[int]:
        """How many of dims equal each dimension, up to that of the space
        {ambient_eqs = 0}."""
        counts = [0] * (self.dim - rank_of(self.ambient_eqs) + 1)
        for d in dims:
            counts[d] += 1
        return counts


class CapExceeded(RuntimeError):
    """Raised instead of silently attempting an oversized search; `cap` is
    the largest rank that was allowed."""

    def __init__(self, message: str, cap: int) -> None:
        super().__init__(message)
        self.cap = cap


def check_rank(n: int, cap: int, space: str) -> None:
    """Refuse a rank below 1 or above cap; space says what the search at
    rank n ranges over."""
    if n < 1:
        raise ValueError("rank must be at least 1")
    if n > cap:
        raise CapExceeded(f"{space}; the configured cap is {cap}", cap)


def weight_indices(n: int) -> list[WeightIndex]:
    """All boxes (i, j) with 1 <= i <= j <= n, row-major."""
    return [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]


def weight_functional(n: int, idx: WeightIndex) -> tuple[int, ...]:
    """Coefficients of x_i + x_j (the diagonal gives 2 x_i, same zero set)."""
    i, j = idx
    if not 1 <= i <= j <= n:
        raise ValueError(f"bad weight index {idx} for rank {n}")
    coeffs = [0] * n
    coeffs[i - 1] += 1
    coeffs[j - 1] += 1
    return tuple(coeffs)


def difference_walls(n: int) -> tuple[tuple[int, ...], ...]:
    """The rows x_i - x_{i+1}, i = 1..n-1: the walls of x_1 >= ... >= x_n."""
    return tuple(
        tuple(1 if c == i else -1 if c == i + 1 else 0 for c in range(n))
        for i in range(n - 1)
    )


def gl_arrangement(n: int) -> Arrangement:
    """The weights of gl_n on V + alt^2 V, one cut per box in row-major order,
    on the chamber x_1 >= ... >= x_n."""
    cuts = tuple(weight_functional(n, idx) for idx in weight_indices(n))
    return Arrangement(n, cuts, difference_walls(n))


class SignCondition(Record):
    """Sign data of one stratum of gl_arrangement(n), in its row order: the
    weight boxes row-major, then the walls."""

    __slots__ = ("n", "weight_signs", "root_signs")

    def __init__(self, n: int, weight_signs: tuple[int, ...], root_signs: tuple[int, ...]) -> None:
        if len(weight_signs) != n * (n + 1) // 2:
            raise ValueError("wrong number of weight signs")
        if len(root_signs) != max(n - 1, 0):
            raise ValueError("wrong number of root signs")
        if any(s not in (-1, 0, 1) for s in weight_signs):
            raise ValueError("weight signs must be -1, 0 or 1")
        if any(s not in (0, 1) for s in root_signs):
            raise ValueError("root signs must be 0 or 1")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "weight_signs", weight_signs)
        object.__setattr__(self, "root_signs", root_signs)
