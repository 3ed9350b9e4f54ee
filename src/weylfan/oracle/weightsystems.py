"""Weight systems for the degenerate cases, where every cutting hyperplane
is a chamber wall and the face/flat counts collapse to binomials.

Coordinates follow the usual realizations: B_n and C_n in R^n with the
dominant chamber x_1 >= ... >= x_n >= 0, F4 in R^4 with simple roots
e2-e3, e3-e4, e4, (e1-e2-e3-e4)/2, and G2 on the sum-zero plane of R^3 with
simple roots e1-e2 and -2e1+e2+e3 (the three-coordinate model keeps every
entry rational, which the exact solvers need).  All tables here are data.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import comb, gcd
from typing import Optional

from .arrangement import Arrangement, difference_walls
from .cells import enumerate_generic_cells
from .linalg import integer_row

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

Vector = tuple[Fraction, ...]


@dataclass(frozen=True)
class WeightSystem:
    tag: str
    rank: int
    ambient: int
    weights: tuple[Vector, ...]
    roots: tuple[Vector, ...]
    chamber_facets: tuple[Vector, ...]
    ambient_eqs: tuple[Vector, ...] = ()


def _vec(*entries) -> Vector:
    return tuple(Fraction(v) for v in entries)


def _unit(n: int, i: int, scale=1) -> Vector:
    return tuple(Fraction(scale if j == i else 0) for j in range(n))


def _pm_pairs(n: int):
    for i in range(n):
        for j in range(i + 1, n):
            for si in (1, -1):
                for sj in (1, -1):
                    vec = [Fraction(0)] * n
                    vec[i] = Fraction(si)
                    vec[j] = Fraction(sj)
                    yield tuple(vec)


def _bn_roots(n: int) -> tuple[Vector, ...]:
    roots = [_unit(n, i, s) for i in range(n) for s in (1, -1)]
    roots += list(_pm_pairs(n))
    return tuple(roots)


def _cn_roots(n: int) -> tuple[Vector, ...]:
    roots = [_unit(n, i, 2 * s) for i in range(n) for s in (1, -1)]
    roots += list(_pm_pairs(n))
    return tuple(roots)


def _halves() -> list[Vector]:
    """(+-1/2, +-1/2, +-1/2, +-1/2), every choice of signs."""
    return [tuple(Fraction(s, 2) for s in signs) for signs in product((1, -1), repeat=4)]


def _differences(n: int) -> list[Vector]:
    """e_i - e_j for every ordered pair i != j."""
    return [
        tuple(Fraction((c == i) - (c == j)) for c in range(n))
        for i in range(n)
        for j in range(n)
        if i != j
    ]


def _f4_roots() -> tuple[Vector, ...]:
    roots = [_unit(4, i, s) for i in range(4) for s in (1, -1)]
    roots += list(_pm_pairs(4))
    return tuple(roots + _halves())


def _g2_roots() -> tuple[Vector, ...]:
    roots = _differences(3)
    for i in range(3):
        vec = [Fraction(-1)] * 3
        vec[i] = Fraction(2)
        roots.append(tuple(vec))
        roots.append(tuple(-v for v in vec))
    return tuple(roots)


def _bc_chamber(n: int) -> tuple[Vector, ...]:
    return difference_walls(n) + (_unit(n, n - 1),)


def _zero(n: int) -> Vector:
    return tuple(Fraction(0) for _ in range(n))


def weight_system(tag: str, n: Optional[int] = None) -> WeightSystem:
    """Build one of the named systems; classical tags need a rank n."""
    if tag in (TAG_SO_ODD_V, TAG_SP_V, TAG_SP_LAMBDA, TAG_SP_BOTH, TAG_GL):
        if n is None or n < 1:
            raise ValueError(f"{tag} needs a rank n >= 1")
    if tag == TAG_SO_ODD_V:
        weights = tuple(
            [_unit(n, i, s) for i in range(n) for s in (1, -1)] + [_zero(n)]
        )
        return WeightSystem(tag, n, n, weights, _bn_roots(n), _bc_chamber(n))
    if tag == TAG_SP_V:
        weights = tuple(_unit(n, i, s) for i in range(n) for s in (1, -1))
        return WeightSystem(tag, n, n, weights, _cn_roots(n), _bc_chamber(n))
    if tag == TAG_SP_LAMBDA:
        weights = tuple(list(_pm_pairs(n)) + [_zero(n)] * (n - 1))
        return WeightSystem(tag, n, n, weights, _cn_roots(n), _bc_chamber(n))
    if tag == TAG_SP_BOTH:
        v = [_unit(n, i, s) for i in range(n) for s in (1, -1)]
        lam = list(_pm_pairs(n)) + [_zero(n)] * (n - 1)
        return WeightSystem(
            tag, n, n, tuple(v + lam), _cn_roots(n), _bc_chamber(n)
        )
    if tag == TAG_F4:
        half = Fraction(1, 2)
        weights = [_unit(4, i, s) for i in range(4) for s in (1, -1)] + _halves()
        weights += [_zero(4), _zero(4)]
        chamber = (
            _vec(0, 1, -1, 0),
            _vec(0, 0, 1, -1),
            _vec(0, 0, 0, 1),
            (half, -half, -half, -half),
        )
        return WeightSystem(tag, 4, 4, tuple(weights), _f4_roots(), chamber)
    if tag == TAG_G2:
        weights = _differences(3) + [_zero(3)]
        chamber = (_vec(1, -1, 0), _vec(-2, 1, 1))
        return WeightSystem(
            tag,
            2,
            3,
            tuple(weights),
            _g2_roots(),
            chamber,
            ambient_eqs=(_vec(1, 1, 1),),
        )
    if tag == TAG_GL:
        weights = [_unit(n, i) for i in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                vec = [Fraction(0)] * n
                vec[i] = Fraction(1)
                vec[j] = Fraction(1)
                weights.append(tuple(vec))
        roots = tuple(_differences(n))
        return WeightSystem(tag, n, n, tuple(weights), roots, difference_walls(n))
    raise ValueError(f"unknown weight system tag {tag!r}")


@dataclass(frozen=True)
class Certificate:
    weight: Vector
    root: Vector
    multiplier: Fraction


@dataclass(frozen=True)
class ProportionalityReport:
    tag: str
    certificates: tuple[Certificate, ...]
    zero_weights: int
    failures: tuple[Vector, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def _proportional(w: Vector, a: Vector) -> Optional[Fraction]:
    for k in range(len(a)):
        if a[k] != 0:
            c = w[k] / a[k]
            if c != 0 and all(w[m] == c * a[m] for m in range(len(w))):
                return c
            return None
    return None


def check_weights_proportional_to_roots(ws: WeightSystem) -> ProportionalityReport:
    """Certificate table: each nonzero weight as a multiple of some root.

    Zero weights define no hyperplane and are skipped; any weight without a
    certificate is listed as a failure and the report is negative."""
    certificates = []
    failures = []
    zeros = 0
    for w in ws.weights:
        if all(v == 0 for v in w):
            zeros += 1
            continue
        for root in ws.roots:
            c = _proportional(w, root)
            if c is not None:
                certificates.append(Certificate(w, root, c))
                break
        else:
            failures.append(w)
    return ProportionalityReport(
        ws.tag, tuple(certificates), zeros, tuple(failures)
    )


def simplex_counts(n: int, k: int) -> int:
    """Face and flat counts of a simplicial cone section: C(n, k)."""
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    return comb(n, k)


def _canonical_hyperplane(vec) -> tuple[int, ...]:
    """The primitive int normal of vec whose first nonzero entry is positive
    (all zeros for the zero vector)."""
    ints = integer_row(vec)
    g = gcd(*ints)
    if g:
        ints = [v // g for v in ints]
    lead = next((v for v in ints if v != 0), 0)
    if lead < 0:
        ints = [-v for v in ints]
    return tuple(ints)


def dedupe_hyperplanes(vectors) -> tuple[tuple[int, ...], ...]:
    """Distinct hyperplanes from a weight list of ints and Fractions:
    primitive int normals up to sign, zero vectors dropped, first-seen order
    kept."""
    seen = []
    for vec in vectors:
        canon = _canonical_hyperplane(vec)
        if any(canon) and canon not in seen:
            seen.append(canon)
    return tuple(seen)


def system_arrangement(ws: WeightSystem) -> Arrangement:
    """The distinct weight hyperplanes of a system on its dominant chamber."""
    return Arrangement(
        ws.ambient, dedupe_hyperplanes(ws.weights), ws.chamber_facets, ws.ambient_eqs
    )


def chamber_cell_counts(tag: str, n: Optional[int] = None):
    """Counts of chamber cells by dimension for a named system, from the
    generic sign search.  Meant for the small degenerate checks."""
    ws = weight_system(tag, n)
    _, counts = enumerate_generic_cells(system_arrangement(ws))
    return counts[: ws.rank + 1]
