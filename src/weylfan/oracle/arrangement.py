"""The input of both oracle searches: cut hyperplanes restricted to a cone.

An `Arrangement` is given by rational rows in Q^dim: the cuts, whose
hyperplanes stratify the cone, and the cone {walls >= 0, ambient_eqs = 0}
that they cut.  The gl_n picture of the paper is one such value: the weights
x_i + x_j (i <= j) cut the dual fundamental chamber x_1 >= ... >= x_n.
A `SignCondition` gives one sign per row of that picture, cuts then walls.
"""

from __future__ import annotations

from dataclasses import dataclass

WeightIndex = tuple[int, int]


@dataclass(frozen=True)
class Arrangement:
    """The cuts restricted to the cone {walls >= 0, ambient_eqs = 0} in Q^dim."""

    dim: int
    cuts: tuple[tuple, ...]
    walls: tuple[tuple, ...]
    ambient_eqs: tuple[tuple, ...] = ()

    def __post_init__(self) -> None:
        for name in ("cuts", "walls", "ambient_eqs"):
            rows = tuple(tuple(row) for row in getattr(self, name))
            if any(len(row) != self.dim for row in rows):
                raise ValueError(f"every row of {name} needs {self.dim} entries")
            object.__setattr__(self, name, rows)


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


@dataclass(frozen=True)
class SignCondition:
    """Sign data of one stratum of gl_arrangement(n), in its row order: the
    weight boxes row-major, then the walls."""

    n: int
    weight_signs: tuple[int, ...]
    root_signs: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.weight_signs) != self.n * (self.n + 1) // 2:
            raise ValueError("wrong number of weight signs")
        if len(self.root_signs) != max(self.n - 1, 0):
            raise ValueError("wrong number of root signs")
        if any(s not in (-1, 0, 1) for s in self.weight_signs):
            raise ValueError("weight signs must be -1, 0 or 1")
        if any(s not in (0, 1) for s in self.root_signs):
            raise ValueError("root signs must be 0 or 1")
