"""Cell enumeration by exact sign-vector search.

Cells are the relatively open strata of an arrangement's cone under all its
cuts: one sign in {-,0,+} per cut, one in {0,+} per wall.  For gl_n the cuts
are the weight boxes and the walls the consecutive differences.  The search
is search.depth_first over feasible sign prefixes, cuts first, then walls.
A child prefix is decided when the walk reaches it: the parent's witness
settles the child that shares its sign without any LP call, and otherwise
one strict-feasibility LP does.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from ..search import depth_first
from .arrangement import Arrangement, SignCondition, check_rank, gl_arrangement
from .linalg import dot, integer_row, rank_of
from .simplex import CertificateError, strict_feasible

CELL_CAP = 5  # default largest rank of enumerate_cells


@dataclass(frozen=True)
class Cell:
    condition: SignCondition
    dim: int
    witness: tuple[Fraction, ...]


@dataclass
class CellEnumeration:
    n: int
    counts: list[int]
    cells: list[Cell]
    stats: Counter = field(default_factory=Counter)


def _split_rows(rows, signs):
    """The rows of a sign vector, or of a prefix of it: the equalities (sign
    0) and the strict rows (sign +, and sign - negated)."""
    eq, strict = [], []
    for row, s in zip(rows, signs):
        if s == 0:
            eq.append(row)
        elif s > 0:
            strict.append(row)
        else:
            strict.append(tuple(-v for v in row))
    return eq, strict


def cell_feasible(n: int, condition: SignCondition, *, stats=None):
    """Decide one sign condition; returns (feasible, witness-or-None)."""
    if condition.n != n:
        raise ValueError(f"a rank-{condition.n} sign condition at rank {n}")
    arr = gl_arrangement(n)
    eq, strict = _split_rows(
        arr.cuts + arr.walls, condition.weight_signs + condition.root_signs
    )
    witness = strict_feasible(eq, strict, [], n, stats=stats)
    return witness is not None, witness


def enumerate_generic_cells(arr: Arrangement, *, stats: Optional[Counter] = None):
    """All feasible sign vectors of an arrangement's cuts and walls.

    Returns (cells, counts) where each cell is (cut_signs, facet_signs,
    cell_dim, witness), in depth-first order.
    """
    if stats is None:
        stats = Counter()
    dim, ambient = arr.dim, list(arr.ambient_eqs)
    rows = arr.cuts + arr.walls  # one slot per row: cuts, then walls
    n_cuts, n_slots = len(arr.cuts), len(rows)

    def check(signs, inherited):
        """(witness, a positive int multiple of it) for signs, or None.  The
        inherited witness realizes every earlier sign, so only the new slot
        is tested against it; failing that, one LP decides."""
        pos = len(signs) - 1
        if inherited is not None:
            val = dot(rows[pos], inherited[1])
            if (val > 0) - (val < 0) == signs[pos]:
                stats["witness_hits"] += 1
                return inherited
        stats["nodes"] += 1
        eq, strict = _split_rows(rows, signs)
        # unassigned wall slots still confine the point to the closed cone
        weak = rows[max(pos + 1, n_cuts):]
        witness = strict_feasible(ambient + eq, strict, weak, dim, stats=stats)
        return None if witness is None else (witness, integer_row(witness))

    def children(node):
        # node: a feasible sign prefix and its (witness, int multiple) pair
        signs, found = node
        pos = len(signs)
        if pos == n_slots:
            return
        for s in (-1, 0, 1) if pos < n_cuts else (0, 1):
            child = signs + (s,)
            w = check(child, found)
            if w is not None:
                yield child, w

    out = []
    for signs, found in depth_first(((), None), children):
        if len(signs) == n_slots:
            eq, _ = _split_rows(rows, signs)
            d = dim - rank_of(ambient + eq)
            out.append((signs[:n_cuts], signs[n_cuts:], d, found and found[0]))
    return out, arr.count_row(d for _, _, d, _ in out)


def enumerate_cells(n: int, *, cap: int = CELL_CAP) -> CellEnumeration:
    """Every cell of the rank-n picture, tallied by dimension."""
    check_rank(
        n,
        cap,
        f"cell enumeration at rank {n} walks a 3^(n(n+1)/2) * 2^(n-1) = "
        f"3^{n * (n + 1) // 2} * 2^{n - 1} sign space",
    )
    stats = Counter()
    raw, counts = enumerate_generic_cells(gl_arrangement(n), stats=stats)
    cells = [
        Cell(SignCondition(n, cut_signs, facet_signs), d, witness)
        for cut_signs, facet_signs, d, witness in raw
    ]
    stats["cells"] = len(cells)
    return CellEnumeration(n, counts, cells, stats)


def rays_geometric(cells: CellEnumeration):
    """The 1-dimensional cells as exactly normalized direction vectors.

    Every witness, scaled by its largest absolute coordinate, must land on a
    vector with coordinates in {-1, 0, 1}; anything else is an error.
    """
    rays = []
    for cell in cells.cells:
        if cell.dim != 1:
            continue
        scale = max(abs(v) for v in cell.witness)
        vec = tuple(v / scale for v in cell.witness)
        if any(v not in (-1, 0, 1) for v in vec):
            raise CertificateError(f"1-cell witness {cell.witness} is not a lattice ray")
        rays.append(vec)
    return sorted(rays, reverse=True)


def adjacency_from_cells(cells: CellEnumeration):
    """Chamber adjacency read off the cells alone: two top cells are adjacent
    iff some codimension-1 cell lies in both closures.  Indices follow the
    characteristic-vector chamber order so the combinatorial graph can be
    compared directly."""
    n = cells.n
    top = [c for c in cells.cells if c.dim == n]
    walls = [c for c in cells.cells if c.dim == n - 1]

    def chamber_index(cell: Cell) -> int:
        # one bit per coordinate in order of absolute value, set when positive
        idx = 0
        for v in sorted(cell.witness, key=abs):
            idx = 2 * idx + (1 if v > 0 else 0)
        return idx

    def signs(cell: Cell) -> tuple[int, ...]:
        return cell.condition.weight_signs + cell.condition.root_signs

    def extends(chamber: Cell, wall: Cell) -> bool:
        return all(b == 0 or a == b for a, b in zip(signs(chamber), signs(wall)))

    index = {id(c): chamber_index(c) for c in top}
    edges = set()
    for wall in walls:
        members = sorted(index[id(c)] for c in top if extends(c, wall))
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                edges.add((members[i], members[j]))
    return sorted(edges)
