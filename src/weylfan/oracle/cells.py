"""Cell enumeration by a walk over the chambers.

Cells are the relatively open strata of an arrangement's cone under all its
cuts: one sign in {-,0,+} per cut, one in {0,+} per wall.  For gl_n the cuts
are the weight boxes and the walls the consecutive differences.  Every cell
is a face of a chamber, a top-dimensional cell, so the search walks the
chambers and reads the cells off them as faces.  The walk is the adjacency
search behind Avis & Fukuda's reverse search (Discrete Appl. Math. 65, 1996),
without its memory saving.

* Coordinates.  The cone spans the flat of no cut (`flats.flat_span`), and
  every row that vanishes there is 0 in every cell.  Modulo the lineality
  space, the common kernel of every row on that span, the cone is
  full-dimensional and pointed in Q^d.  Rows that are multiples of one
  another give one hyperplane.  A chamber is the bit mask of the rows > 0
  on it, and the walls fix their own rows' bits.
* The first chamber takes at most one `strict_feasible` per cut to find, and
  one per hyperplane decides its facets.
* Across a cut facet o lies the chamber with o's rows flipped, one `^` of
  masks and no LP.  A simplicial parent, with ray v_j opposite its facet j,
  guesses the neighbour's facets by a ridge pivot: o stays, and for each
  j != o the rows that vanish on every ray but v_j and v_o turn about that
  ridge; the one with the largest (h . v_o) / (h . v_j) is the first met
  past o.  The new ray spans the kernel of the guessed facets other than o.
* A guess stands only on an exact certificate: each facet is positive on
  its own ray and zero on the others, and every signed row is >= 0 on every
  ray.  Then the chamber's closure is the cone of the rays.  A guess that
  fails it falls back to the LP facet tests, for that chamber alone.
* The faces of a simplicial chamber are the cones on its subsets K of
  rays.  Face K has the integer witness sum_{i in K} v_i and dimension |K|
  plus that of the lineality space.  The rows vanishing on it are those
  vanishing on every ray of K, one `&` of row bit masks per subset, and they
  with the chamber's mask give the face's sign vector.
* A chamber with more than d facets has its faces from the flat search over
  its facet rows as both cuts and walls (Ziegler, Lectures on Polytopes,
  Lecture 2), and one `strict_feasible` per face for a witness.
* Each cell is read once, by its owner chamber (the owner rule of reverse
  search; Sleumer, "Output-sensitive cell enumeration in hyperplane
  arrangements", SWAT 1998).  With sigma0 the first chamber, sigma owns the
  face whose vanishing rows are Z when `(sigma ^ sigma0) & Z == 0`.  Just
  one chamber does, and its closure holds the face: that of w + e*c, for w
  on the face, c in sigma0 and a small e > 0.  The cell's witness must give
  back the signs it was read with on every original row.

`owned_cells` yields each cell so, in walk order; `enumerate_generic_cells`
sorts the stream, `weightsystems.chamber_cell_counts` tallies it.  Each LP,
the fallback's too, is a `strict_feasible` or `cone_positive` in its stats.
"""

from __future__ import annotations

from collections import Counter, deque
from fractions import Fraction
from operator import mul
from typing import NamedTuple, Optional

from ..record import Record
from .arrangement import Arrangement, SignCondition, check_rank, gl_arrangement
from .flats import enumerate_generic_flats, flat_span
from .linalg import canonical_hyperplane, dot, kernel_basis, lift, restrict
from .simplex import CertificateError, strict_feasible

CELL_CAP = 8  # default largest rank of enumerate_cells


class Cell(Record):
    __slots__ = ("condition", "dim", "witness")

    def __init__(self, condition: SignCondition, dim: int, witness: tuple[int, ...]) -> None:
        object.__setattr__(self, "condition", condition)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "witness", witness)


class CellEnumeration(Record):
    __slots__ = ("n", "counts", "cells", "stats")

    def __init__(
        self, n: int, counts: list[int], cells: list[Cell], stats: Optional[Counter] = None
    ) -> None:
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "stats", Counter() if stats is None else stats)


def _split_rows(rows, signs):
    """The rows of a sign vector: the equalities (sign 0) and the strict rows
    (sign +, and sign - negated)."""
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
    """Decide one sign condition; returns (feasible, witness-or-None), the
    witness an int point of the cell."""
    if condition.n != n:
        raise ValueError(f"a rank-{condition.n} sign condition at rank {n}")
    arr = gl_arrangement(n)
    eq, strict = _split_rows(
        arr.cuts + arr.walls, condition.weight_signs + condition.root_signs
    )
    witness = strict_feasible(eq, strict, [], n, stats=stats)
    return witness is not None, witness


def _ray(rows, positive, dim):
    """The int vector spanning the kernel of rows in Q^dim on which the row
    positive is > 0, or None when that kernel is no line or positive vanishes
    on it."""
    kernel = kernel_basis(rows, dim)
    if len(kernel) != 1:
        return None
    [v] = kernel
    side = dot(positive, v)
    if side == 0:
        return None
    return v if side > 0 else tuple(-a for a in v)


class _Ray(NamedTuple):
    """A ray of a chamber in the pointed coordinates, with its value on each
    row and the bit masks of the rows that vanish and are positive there."""

    vector: tuple[int, ...]
    values: list[int]
    zero: int
    positive: int


class _Fan:
    """An arrangement's cone on pointed coordinates, and the walk over its
    chambers.

    One hyperplane stands for each class of parallel rows: its primitive
    normal, the bit mask of its member rows, those of them that are positive
    multiples of the normal (`plus`), and the side a wall fixes.  A chamber
    is the bit mask of the rows > 0 on it; it lies on the positive side of
    hyperplane h when its mask meets h's members in plus[h].
    """

    def __init__(self, arr: Arrangement, stats: Counter):
        self.stats = stats
        self.rows = arr.cuts + arr.walls
        span = flat_span(arr, frozenset(), stats)
        # the rows' span on the cone's span is a complement of the lineality
        lineality = kernel_basis(restrict(self.rows, span), len(span))
        self.basis = [lift(u, span) for u in kernel_basis(lineality, len(span))]
        self.d = len(self.basis)
        self.lineality = len(lineality)
        self.fan_rows = restrict(self.rows, self.basis)
        self.all_rows = (1 << len(self.rows)) - 1
        self.normals, self.members, self.plus, self.fixed = [], [], [], []
        self.hyperplane_of = [None] * len(self.rows)
        index = {}
        for r, row in enumerate(self.fan_rows):
            if not any(row):
                continue
            canon = canonical_hyperplane(row)
            h = self.hyperplane_of[r] = index.setdefault(canon, len(self.normals))
            if h == len(self.normals):
                self.normals.append(canon)
                self.members.append(0)
                self.plus.append(0)
                self.fixed.append(None)
            self.members[h] |= 1 << r
            side = 1 if dot(canon, row) > 0 else -1
            if side > 0:
                self.plus[h] |= 1 << r
            if r >= len(arr.cuts):
                self.fixed[h] = side  # a wall keeps the cone on its positive side

    def signed(self, h, sigma):
        """The normal of hyperplane h, turned to be > 0 on chamber sigma."""
        normal = self.normals[h]
        return normal if sigma & self.members[h] == self.plus[h] else tuple(-v for v in normal)

    def ray(self, vector) -> _Ray:
        values = [dot(row, vector) for row in self.fan_rows]
        zero = positive = 0
        for r, v in enumerate(values):
            if v == 0:
                zero |= 1 << r
            elif v > 0:
                positive |= 1 << r
        return _Ray(vector, values, zero, positive)

    def certified(self, sigma, facets, rays) -> bool:
        """Whether the rays are those of a simplicial chamber with these
        facets, facet i opposite ray i: its closure is then their cone."""
        for i, v in enumerate(rays):
            if v is None or v.positive != sigma & ~v.zero:
                return False  # some signed row is < 0 on v
            for j, f in enumerate(facets):
                if (self.members[f] & v.zero == 0) != (i == j):
                    return False
        return True

    def first_chamber(self) -> int:
        """A point of the open cone off every cut hyperplane, read as a row
        mask; a witness that lies on the next hyperplane costs one LP.  The
        walls come first among the strict rows, then each cut hyperplane as
        it is decided."""
        sigma, strict, point = 0, [], None
        for h in sorted(range(len(self.normals)), key=lambda h: self.fixed[h] is None):
            side = self.fixed[h]
            if side is None:
                side = 0 if point is None else dot(self.normals[h], point)
                if side == 0:
                    point = strict_feasible(
                        [], strict + [self.normals[h]], [], self.d, stats=self.stats
                    )
                    side = -1 if point is None else 1  # the open set meets a side of h
            sigma |= self.plus[h] if side > 0 else self.members[h] ^ self.plus[h]
            strict.append(self.signed(h, sigma))
        return sigma

    def lp_facets(self, sigma):
        """The facets of chamber sigma, one LP per hyperplane, and its rays
        when it is simplicial (None otherwise)."""
        self.stats["nodes"] += 1
        rows = [self.signed(h, sigma) for h in range(len(self.normals))]
        facets = [
            h
            for h in range(len(rows))
            if strict_feasible(
                [rows[h]], rows[:h] + rows[h + 1:], [], self.d, stats=self.stats
            )
            is not None
        ]
        if len(facets) != self.d:
            return facets, None
        rays = []
        for f in facets:
            v = _ray([self.normals[g] for g in facets if g != f], rows[f], self.d)
            rays.append(None if v is None else self.ray(v))
        if not self.certified(sigma, facets, rays):
            raise CertificateError(f"the rays of chamber {sigma:#x} fail their check")
        return facets, rays

    def pivot(self, sigma, facets, rays, p):
        """The guessed facets and rays of the neighbour across facet p, or
        None when the pivot finds no line."""
        others = [j for j in range(self.d) if j != p]
        guess = list(facets)
        for j in others:
            ridge = self.all_rows
            for i in others:
                if i != j:
                    ridge &= rays[i].zero
            vj, vo = rays[j].values, rays[p].values
            turning = [r for r in range(len(vj)) if ridge >> r & 1 and vj[r]]
            if not turning:
                return None
            best = max(turning, key=lambda r: Fraction(vo[r], vj[r]))
            guess[j] = self.hyperplane_of[best]
        far_side = tuple(-v for v in self.signed(facets[p], sigma))
        new = _ray([self.normals[guess[j]] for j in others], far_side, self.d)
        if new is None:
            return None
        return guess, [self.ray(new) if j == p else rays[j] for j in range(self.d)]

    def owned_faces(self, sigma, moved, facets, rays):
        """(zero rows, positive rows, point, dim) of each face that chamber
        sigma owns, moved being the rows where it differs from the first: the
        cones on subsets of its rays, or else the flats of its facet rows."""
        if rays is not None:
            zeros = [self.all_rows]  # the rows vanishing on the face of each ray subset
            for v in rays:
                zeros += [z & v.zero for z in zeros]
            for subset, zero in enumerate(zeros):
                if zero & moved == 0:
                    chosen = [v.vector for i, v in enumerate(rays) if subset >> i & 1]
                    point = [sum(col) for col in zip(*chosen)] if chosen else [0] * self.d
                    yield zero, sigma & ~zero, point, subset.bit_count()
            return
        facet_rows = [self.signed(f, sigma) for f in facets]
        faces, _ = enumerate_generic_flats(
            Arrangement(self.d, facet_rows, facet_rows), stats=self.stats
        )
        for tight, dim in faces:
            signs = [0 if i in tight else 1 for i in range(len(facet_rows))]
            point = strict_feasible(*_split_rows(facet_rows, signs), [], self.d, stats=self.stats)
            if point is None:
                raise CertificateError(f"face {sorted(tight)} of a chamber has no point")
            v = self.ray(point)
            if v.zero & moved == 0:
                yield v.zero, v.positive, v.vector, dim

    def chambers(self, first):
        """Every chamber once, breadth first from the first one: its row
        mask, its facets, and its rays if it is simplicial."""
        seen = {first}
        queue = deque([(first, None)])
        while queue:
            sigma, guess = queue.popleft()
            self.stats["chambers"] += 1
            if guess is not None and self.certified(sigma, *guess):
                self.stats["witness_hits"] += 1
                facets, rays = guess
            else:
                facets, rays = self.lp_facets(sigma)
            yield sigma, facets, rays
            for p, o in enumerate(facets):
                if self.fixed[o] is not None:
                    continue  # a wall bounds the cone
                nxt = sigma ^ self.members[o]
                if nxt not in seen:
                    seen.add(nxt)
                    guess = None if rays is None else self.pivot(sigma, facets, rays, p)
                    queue.append((nxt, guess))


def owned_cells(arr: Arrangement, stats: Counter):
    """Each cell of an arrangement once, in walk order, as (signs of arr.cuts
    then arr.walls, dim, witness), rechecked at the witness on every row."""
    fan = _Fan(arr, stats)
    first = fan.first_chamber()
    for sigma, facets, rays in fan.chambers(first):
        for zero, positive, point, dim in fan.owned_faces(sigma, sigma ^ first, facets, rays):
            witness = tuple(lift(point, fan.basis)) if fan.d else (0,) * arr.dim
            values = [sum(map(mul, row, witness)) for row in fan.rows]
            signs = tuple((v > 0) - (v < 0) for v in values)
            if signs != tuple(
                0 if zero >> r & 1 else 1 if positive >> r & 1 else -1
                for r in range(len(fan.rows))
            ):
                raise CertificateError(f"witness {witness} does not realize its face")
            yield signs, dim + fan.lineality, witness


def enumerate_generic_cells(arr: Arrangement, *, stats: Optional[Counter] = None):
    """The cells of an arrangement, sorted from the stream of owned cells.

    Returns (cells, counts) where each cell is (cut_signs, facet_signs,
    cell_dim, witness), sorted by sign vector: facet_signs are the signs of
    arr.walls, and the witness is an int point.
    """
    n_cuts = len(arr.cuts)
    owned = owned_cells(arr, Counter() if stats is None else stats)
    cells = [(s[:n_cuts], s[n_cuts:], dim, w) for s, dim, w in sorted(owned)]
    return cells, arr.count_row(dim for _, _, dim, _ in cells)


def enumerate_cells(n: int, *, cap: int = CELL_CAP) -> CellEnumeration:
    """Every cell of the rank-n picture, tallied by dimension."""
    check_rank(
        n,
        cap,
        f"cell enumeration at rank {n} walks 2^n = 2^{n} chambers and their faces",
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

    Every coordinate of a witness must have absolute value 0 or the largest
    one, so that dividing by that lands on a vector with coordinates in
    {-1, 0, 1}; anything else is an error.
    """
    rays = []
    for cell in cells.cells:
        if cell.dim != 1:
            continue
        scale = max(abs(v) for v in cell.witness)
        if any(abs(v) not in (0, scale) for v in cell.witness):
            raise CertificateError(f"1-cell witness {cell.witness} is not a lattice ray")
        rays.append(tuple(v // scale for v in cell.witness))
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
