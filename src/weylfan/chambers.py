"""Chambers of the restricted weight arrangement: subsets of [n], sign
tableaux with local flow validation, chains of extreme rays, and exact point
classification.

A chamber is a full-dimensional cell of the closed cone x_1 >= ... >= x_n cut
by the hyperplanes x_i + x_j = 0 (i < j) and x_i = 0.  Chambers correspond to
subsets S of [n]: sort the coordinates of an interior point by absolute value
and record which positions carry a positive sign.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Union

from .oracle.arrangement import SignCondition, gl_arrangement
from .oracle.linalg import dot, integer_row
from .poset import PosetPoint
from .record import Record


class TableauError(ValueError):
    """A sign tableau violating the flow rules; names the offending boxes."""

    def __init__(self, box: tuple[int, int], neighbor: tuple[int, int]):
        self.boxes = (box, neighbor)
        super().__init__(
            f"box {box} is '+' but box {neighbor} is '-': "
            "every box above or left of a '+' must be '+'"
        )


class Chamber(Record):
    """A chamber, stored by its rank n and subset (strictly decreasing)."""

    __slots__ = ("n", "subset")

    def __init__(self, n: int, subset: tuple[int, ...]) -> None:
        if n < 0:
            raise ValueError("rank must be nonnegative")
        if list(subset) != sorted(set(subset), reverse=True):
            raise ValueError("subset must be stored strictly decreasing")
        if any(not 1 <= a <= n for a in subset):
            raise ValueError(f"subset {subset} not contained in [{n}]")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "subset", subset)

    @property
    def char_vector(self) -> tuple[int, ...]:
        """s_i = +1 if i is in the subset, else -1 (i = 1..n)."""
        members = set(self.subset)
        return tuple(1 if i in members else -1 for i in range(1, self.n + 1))

    def char_string(self) -> str:
        return "".join("+" if s > 0 else "-" for s in self.char_vector)

    def sign(self, i: int, j: int) -> int:
        """Sign of x_i + x_j (or of x_i when i = j) on the chamber interior."""
        if not 1 <= i <= j <= self.n:
            raise ValueError(f"bad box ({i}, {j}) for rank {self.n}")
        a = self.subset
        return 1 if i <= len(a) and j - i + 1 <= a[i - 1] else -1

    def tableau(self) -> tuple[tuple[int, ...], ...]:
        """Row i holds the signs of boxes (i, i), ..., (i, n)."""
        return tuple(
            tuple(self.sign(i, j) for j in range(i, self.n + 1))
            for i in range(1, self.n + 1)
        )

    def tableau_text(self) -> str:
        """Right-justified triangular rendering, parseable by tableau_validate."""
        lines = []
        for i, row in enumerate(self.tableau()):
            lines.append(" " * i + "".join("+" if v > 0 else "-" for v in row))
        return "\n".join(lines)

    def interior_point(self) -> tuple[int, ...]:
        """The integer point (a_1, .., a_k, -b_1, .., -b_{n-k})."""
        complement = [b for b in range(1, self.n + 1) if b not in set(self.subset)]
        return tuple(list(self.subset) + [-b for b in complement])

    def __repr__(self) -> str:
        inner = ",".join(str(a) for a in self.subset)
        return f"Chamber(n={self.n}, {{{inner}}})"


def chamber_from_subset(n: int, S: Iterable[int]) -> Chamber:
    """The chamber attached to a subset of [n]; raises on out-of-range members."""
    members = set(S)
    for a in members:
        if not isinstance(a, int) or not 1 <= a <= n:
            raise ValueError(f"subset member {a!r} outside [1, {n}]")
    return Chamber(n, tuple(sorted(members, reverse=True)))


def all_chambers(n: int) -> list[Chamber]:
    """All 2^n chambers, ordered by characteristic vector read as a binary
    number with s_1 the most significant bit (the empty set comes first)."""
    return [
        Chamber(n, tuple(i for i in range(n, 0, -1) if mask >> (n - i) & 1))
        for mask in range(1 << n)
    ]


def _parse_tableau(T: Union[str, Sequence[Sequence[int]]]) -> list[list[int]]:
    if isinstance(T, str):
        T = [line.strip() for line in T.splitlines() if line.strip()]
    rows = []
    for raw in T:
        row = []
        for v in raw:
            if v in (1, -1):
                row.append(v)
            elif v in ("+", "-"):
                row.append(1 if v == "+" else -1)
            else:
                raise ValueError(f"unexpected sign value {v!r}")
        rows.append(row)
    return rows


def tableau_validate(T: Union[str, Sequence[Sequence[int]]]) -> Chamber:
    """Check a triangular sign array against the flow rules and identify its
    chamber.  Raises TableauError naming the offending pair of boxes, or
    ValueError for shape problems."""
    rows = _parse_tableau(T)
    n = len(rows)
    for i, row in enumerate(rows):
        if len(row) != n - i:
            raise ValueError(
                f"row {i + 1} has {len(row)} boxes, expected {n - i} for rank {n}"
            )
    # Box (i, j) is rows[i-1][j-i]; a '+' forces '+' above and to the left.
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            if rows[i - 1][j - i] != 1:
                continue
            if j - 1 >= i and rows[i - 1][j - 1 - i] != 1:
                raise TableauError((i, j), (i, j - 1))
            if i >= 2 and rows[i - 2][j - (i - 1)] != 1:
                raise TableauError((i, j), (i - 1, j))
    plus_counts = [sum(1 for v in row if v == 1) for row in rows]
    subset = [p for p in plus_counts if p > 0]
    return chamber_from_subset(n, subset)


def chamber_pi(chamber: Chamber) -> tuple[int, ...]:
    """The counts pi_1, ..., pi_n of a chamber, its chain in ints: pi_l
    counts the subset members above n - l, and the chain's point at level l,
    the index of extreme ray e_l, is (pi_l, l - pi_l)."""
    n, members = chamber.n, set(chamber.subset)
    pi, out = 0, []
    for l in range(1, n + 1):
        if n - l + 1 in members:
            pi += 1
        out.append(pi)
    return tuple(out)


def extreme_rays(chamber: Chamber) -> tuple[tuple[int, ...], ...]:
    """The n extreme rays e_1, ..., e_n, the ray vectors of the chamber's chain."""
    n = chamber.n
    return tuple(_ray(n, pi, l - pi) for l, pi in enumerate(chamber_pi(chamber), 1))


def ray_from_index(n: int, point: PosetPoint) -> tuple[int, ...]:
    """The ray vector (1^a, 0^(n-a-b), (-1)^b) for a point of E*_n."""
    if not isinstance(point, PosetPoint) or not 1 <= point.level <= n:
        raise ValueError(f"{point} is not in E*_{n}")
    return _ray(n, point.a, point.b)


def _ray(n: int, a: int, b: int) -> tuple[int, ...]:
    return (1,) * a + (0,) * (n - a - b) + (-1,) * b


def classify_point(n: int, x: Sequence) -> Union[Chamber, SignCondition]:
    """Classify an exact rational point of the closed cone x_1 >= ... >= x_n.

    Generic points (no weight vanishes, all differences strict) return their
    Chamber; everything else returns its SignCondition, the signs of the
    rows of gl_arrangement(n).  Points outside the cone raise ValueError.
    """
    from fractions import Fraction  # here, not at the top: few runs classify a point

    vec = [Fraction(v) for v in x]
    if len(vec) != n:
        raise ValueError(f"expected {n} coordinates, got {len(vec)}")
    for i in range(n - 1):
        if vec[i] < vec[i + 1]:
            raise ValueError(
                f"point is outside the chamber: x_{i + 1} < x_{i + 2}"
            )
    # the signs and the order by absolute value are those of an integer
    # multiple of the point, on which the rows are evaluated in ints
    point = integer_row(vec)
    arr = gl_arrangement(n)
    values = [dot(row, point) for row in arr.cuts + arr.walls]
    signs = tuple((v > 0) - (v < 0) for v in values)
    if 0 not in signs:
        order = sorted(range(n), key=lambda i: abs(point[i]))
        subset = [m + 1 for m, i in enumerate(order) if point[i] > 0]
        return chamber_from_subset(n, subset)
    cuts = len(arr.cuts)
    return SignCondition(n, signs[:cuts], signs[cuts:])
