"""Weight systems for the degenerate cases, where every weight is a multiple
of a root, so its hyperplane misses the open chamber, and the face/flat
counts collapse to binomials.

Coordinates follow the usual realizations: B_n and C_n in R^n with the
dominant chamber x_1 >= ... >= x_n >= 0, F4 in R^4 with simple roots
e2-e3, e3-e4, e4, (e1-e2-e3-e4)/2, and G2 on the sum-zero plane of R^3 with
simple roots e1-e2 and -2e1+e2+e3 (the three-coordinate model keeps every
entry rational, which the exact solvers need).  Vectors are int tuples but
for F4's halves.  The root lists are written out by hand: they are the
reference that the certificates check the weights against.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import comb
from typing import Optional

from ..record import Record
from .arrangement import Arrangement, difference_walls
from .cells import enumerate_generic_cells
from .linalg import canonical_hyperplane

TAG_SO_ODD_V = "so_{2n+1}:V"
TAG_SP_V = "sp_n:V"
TAG_SP_LAMBDA = "sp_n:Λ²₀"
TAG_SP_BOTH = "sp_n:V⊕Λ²₀"
TAG_F4 = "f4:26"
TAG_G2 = "g2:7"
TAG_GL = "gl_n:V⊕Λ²"

TAGS = (
    TAG_SO_ODD_V,
    TAG_SP_V,
    TAG_SP_LAMBDA,
    TAG_SP_BOTH,
    TAG_F4,
    TAG_G2,
    TAG_GL,
)


class WeightSystem(Record):
    """The weights and roots of a system, and its distinct weight
    hyperplanes on its dominant chamber."""

    __slots__ = ("tag", "weights", "roots", "arrangement")

    def __init__(
        self,
        tag: str,
        weights: tuple[tuple, ...],
        roots: tuple[tuple, ...],
        arrangement: Arrangement,
    ) -> None:
        object.__setattr__(self, "tag", tag)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "roots", roots)
        object.__setattr__(self, "arrangement", arrangement)


def _signed_units(n: int, scale: int = 1) -> list[tuple[int, ...]]:
    """+-scale * e_i for i = 1..n, each + before its -."""
    return [
        tuple(s * scale if c == i else 0 for c in range(n))
        for i in range(n)
        for s in (1, -1)
    ]


def _pm_pairs(n: int) -> list[tuple[int, ...]]:
    """+-e_i +- e_j for every i < j."""
    return [
        tuple(si if c == i else sj if c == j else 0 for c in range(n))
        for i in range(n)
        for j in range(i + 1, n)
        for si in (1, -1)
        for sj in (1, -1)
    ]


def _differences(n: int) -> list[tuple[int, ...]]:
    """e_i - e_j for every ordered pair i != j."""
    return [
        tuple((c == i) - (c == j) for c in range(n))
        for i in range(n)
        for j in range(n)
        if i != j
    ]


def weight_system(tag: str, n: Optional[int] = None) -> WeightSystem:
    """Build one of the named systems; classical tags need a rank n."""
    ambient_eqs = ()
    if tag in (TAG_SO_ODD_V, TAG_SP_V, TAG_SP_LAMBDA, TAG_SP_BOTH, TAG_GL):
        if n is None or n < 1:
            raise ValueError(f"{tag} needs a rank n >= 1")
        dim, units = n, _signed_units(n)
    if tag in (TAG_SO_ODD_V, TAG_SP_V, TAG_SP_LAMBDA, TAG_SP_BOTH):
        pairs, zeros = _pm_pairs(n), [(0,) * n] * (n - 1)
        weights = {
            TAG_SO_ODD_V: units + [(0,) * n],
            TAG_SP_V: units,
            TAG_SP_LAMBDA: pairs + zeros,
            TAG_SP_BOTH: units + pairs + zeros,
        }[tag]
        roots = (units if tag == TAG_SO_ODD_V else _signed_units(n, 2)) + pairs
        walls = difference_walls(n) + (units[-2],)  # units[-2] = e_n: x_n >= 0
    elif tag == TAG_F4:
        dim, units = 4, _signed_units(4)
        # (+-1/2, +-1/2, +-1/2, +-1/2), every choice of signs
        halves = [tuple(Fraction(s, 2) for s in signs) for signs in product((1, -1), repeat=4)]
        weights = units + halves + [(0,) * 4] * 2
        roots = units + _pm_pairs(4) + halves
        simple_half = tuple(Fraction(s, 2) for s in (1, -1, -1, -1))
        walls = ((0, 1, -1, 0), (0, 0, 1, -1), (0, 0, 0, 1), simple_half)
    elif tag == TAG_G2:
        dim, differences = 3, _differences(3)
        weights = differences + [(0, 0, 0)]
        longs = [tuple(2 if c == i else -1 for c in range(3)) for i in range(3)]
        roots = differences + [r for v in longs for r in (v, tuple(-x for x in v))]
        walls, ambient_eqs = ((1, -1, 0), (-2, 1, 1)), ((1, 1, 1),)
    elif tag == TAG_GL:
        basis = units[::2]  # e_1, ..., e_n
        weights = basis + [
            tuple(a + b for a, b in zip(basis[i], basis[j]))
            for i in range(n)
            for j in range(i + 1, n)
        ]
        roots, walls = _differences(n), difference_walls(n)
    else:
        raise ValueError(f"unknown weight system tag {tag!r}")
    arr = Arrangement(dim, dedupe_hyperplanes(weights), walls, ambient_eqs)
    return WeightSystem(tag, tuple(weights), tuple(roots), arr)


class Certificate(Record):
    __slots__ = ("weight", "root", "multiplier")

    def __init__(self, weight: tuple, root: tuple, multiplier: Fraction) -> None:
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "root", root)
        object.__setattr__(self, "multiplier", multiplier)


class ProportionalityReport(Record):
    __slots__ = ("tag", "certificates", "zero_weights", "failures")

    def __init__(
        self,
        tag: str,
        certificates: tuple[Certificate, ...],
        zero_weights: int,
        failures: tuple[tuple, ...],
    ) -> None:
        object.__setattr__(self, "tag", tag)
        object.__setattr__(self, "certificates", certificates)
        object.__setattr__(self, "zero_weights", zero_weights)
        object.__setattr__(self, "failures", failures)

    @property
    def ok(self) -> bool:
        return not self.failures


def check_weights_proportional_to_roots(ws: WeightSystem) -> ProportionalityReport:
    """Certificate table: each nonzero weight as a multiple of the first root
    on its hyperplane.

    Zero weights define no hyperplane and are skipped; any weight without a
    certificate is listed as a failure and the report is negative."""
    first_root = {}
    for root in ws.roots:
        first_root.setdefault(canonical_hyperplane(root), root)
    certificates = []
    failures = []
    zeros = 0
    for w in ws.weights:
        canon = canonical_hyperplane(w)
        if not any(canon):
            zeros += 1
        elif canon not in first_root:
            failures.append(w)
        else:
            root = first_root[canon]
            k = next(k for k, v in enumerate(root) if v != 0)
            certificates.append(Certificate(w, root, Fraction(w[k]) / root[k]))
    return ProportionalityReport(
        ws.tag, tuple(certificates), zeros, tuple(failures)
    )


def simplex_counts(n: int, k: int) -> int:
    """Face and flat counts of a simplicial cone section: C(n, k)."""
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    return comb(n, k)


def dedupe_hyperplanes(vectors) -> tuple[tuple[int, ...], ...]:
    """Distinct hyperplanes from a weight list of ints and Fractions:
    primitive int normals up to sign, zero vectors dropped, first-seen order
    kept."""
    canons = dict.fromkeys(canonical_hyperplane(vec) for vec in vectors)
    return tuple(canon for canon in canons if any(canon))


def chamber_cell_counts(tag: str, n: Optional[int] = None):
    """Counts of chamber cells by dimension for a named system, from the
    generic sign search.  Meant for the small degenerate checks."""
    _, counts = enumerate_generic_cells(weight_system(tag, n).arrangement)
    return counts
