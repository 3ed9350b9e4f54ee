"""Incidence layer: which arrangement rays lie on which hyperplanes, faces as
chains, flats as ensembles, and the chamber adjacency graph.

Everything here is exact integer/rational combinatorics; the geometric
counterparts live in the oracle subpackage and are only used to cross-check.
"""

from __future__ import annotations

from typing import Iterable, Union

from .chambers import Chamber, all_chambers, chamber_pi, ray_from_index
# the weight boxes and their functionals are defined once, with the oracle's
# gl arrangement, and re-exported here under the same names
from .oracle.arrangement import WeightIndex, weight_functional, weight_indices
from .poset import (
    INF,
    Chain,
    Ensemble,
    PosetPoint,
    all_points,
    enumerate_ensembles,
    sort_key,
)
from .record import Record


def hyperplane_rays(n: int, idx: WeightIndex) -> frozenset[PosetPoint]:
    """Rays lying on the hyperplane of box (i, j): the points below
    (i-1, n-j) together with those above (i, n-j+1)."""
    i, j = idx
    if not 1 <= i <= j <= n:
        raise ValueError(f"bad weight index {idx} for rank {n}")
    anchor = PosetPoint(i - 1, n - j)
    upper = anchor.shift(1, 1)
    return frozenset(
        p for p in all_points(n) if p <= anchor or upper <= p
    )


def rays_of(n: int, region: Iterable[WeightIndex]) -> frozenset[PosetPoint]:
    """Rays on every hyperplane of the region; the empty region gives the
    whole chamber cone, hence every ray."""
    rays = frozenset(all_points(n))
    for idx in region:
        rays &= hyperplane_rays(n, idx)
    return rays


class Face(Record):
    """A face of the decomposition, recorded by its chain (one ray per level).

    The empty chain is the origin; a k-chain spans a k-dimensional cone.
    """

    __slots__ = ("n", "chain")

    def __init__(self, n: int, chain: Chain) -> None:
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "chain", chain)

    @property
    def dim(self) -> int:
        return len(self.chain)

    def rays(self) -> tuple[tuple[int, ...], ...]:
        return tuple(ray_from_index(self.n, p) for p in self.chain)


def face_from_chain(n: int, points: Iterable[PosetPoint]) -> Face:
    # keyed by sort_key, which is injective, so a repeated point is kept once
    # and no point is hashed or compared as a record
    pts = [p for _, p in sorted({sort_key(p): p for p in points}.items())]
    # sorted by level first, so the ends hold the lowest and highest levels
    if pts and (pts[0].level < 1 or pts[-1].level > n):
        stray = next(p for p in pts if not 1 <= p.level <= n)
        raise ValueError(f"{stray} is not in E*_{n}")
    # the points are distinct and sorted, so a componentwise <= is a <
    if not all(p.a <= q.a and p.b <= q.b for p, q in zip(pts, pts[1:])):
        raise ValueError(f"{pts} is not a chain")
    return Face(n, tuple(pts))


class Flat(Record):
    """A flat: intersection of weight hyperplanes with the chamber cone,
    recorded by its ensemble of rays and a generating hyperplane set."""

    __slots__ = ("n", "ensemble", "hyperplanes")

    def __init__(self, n: int, ensemble: Ensemble, hyperplanes: tuple[WeightIndex, ...]) -> None:
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "ensemble", ensemble)
        object.__setattr__(self, "hyperplanes", hyperplanes)

    @property
    def dim(self) -> int:
        return self.ensemble.rank

    def rays(self) -> tuple[PosetPoint, ...]:
        return tuple(sorted(self.ensemble.realized(), key=sort_key))


def flat_from_two_point_data(
    n: int, B: PosetPoint, A: Union[PosetPoint, object]
) -> tuple[WeightIndex, ...]:
    """Hyperplanes whose common rays are exactly (0, B] u [A, inf) in E*_n.

    With A = INF the picture is a single down-set and B must sit below the
    top level; otherwise A must leave a genuine gap above B.  Returns one
    hyperplane when the two generators collapse, two otherwise.
    """
    if not isinstance(B, PosetPoint) or B.level > n:
        raise ValueError(f"{B} is not in E_{n}")
    x, y = B.a, B.b
    if A is INF:
        if B.level >= n:
            raise ValueError(f"down-set top {B} must have level < {n}")
        gens = {(x + 1, x + 1), (n - y, n - y)}
        return tuple(sorted(gens))
    if not isinstance(A, PosetPoint) or A.level > n:
        raise ValueError(f"{A} is not in E_{n}")
    if not B.shift(1, 1) <= A:
        raise ValueError(f"no gap between {B} and {A}")
    u, w = A.a, A.b
    gens = {(x + 1, n - w + 1), (u, n - y)}
    return tuple(sorted(gens))


def flat_from_ensemble(ensemble: Ensemble) -> Flat:
    """Cut out the flat whose ray set is the ensemble's realized set."""
    n = ensemble.n
    hyps: set[WeightIndex] = set()
    ivs = ensemble.intervals
    for iv, nxt in zip(ivs, ivs[1:]):
        hyps.update(flat_from_two_point_data(n, iv.hi, nxt.lo))
    if ivs[-1].hi is not INF:
        hyps.update(flat_from_two_point_data(n, ivs[-1].hi, INF))
    return Flat(n, ensemble, tuple(sorted(hyps)))


def flats_of(n: int, k: int):
    """All k-dimensional flats, in ensemble enumeration order."""
    for ensemble in enumerate_ensembles(n, k):
        yield flat_from_ensemble(ensemble)


def chamber_adjacency_graph(n: int) -> tuple[list[Chamber], list[tuple[int, int]]]:
    """Chambers in characteristic-vector order plus sorted edge index pairs.

    Two chambers are adjacent when their chains share all but one element,
    i.e. they meet in a common wall.  A chamber chain has one point per
    level, so dropping its level-l point leaves the key (l, pi without
    position l), pi as in chamber_pi.
    """
    chambers = all_chambers(n)
    # a wall holds at most two chambers: the other counts fix pi_(l-1), and
    # pi_l is pi_(l-1) or one more
    first: dict[tuple, int] = {}
    edges = []
    for idx, c in enumerate(chambers):
        pi = chamber_pi(c)
        for l in range(n):
            other = first.setdefault((l, pi[:l] + pi[l + 1 :]), idx)
            if other != idx:
                edges.append((other, idx))
    return chambers, sorted(edges)


def adjacency_dot(n: int) -> str:
    """Graphviz source for the chamber adjacency graph; stable output."""
    chambers, edges = chamber_adjacency_graph(n)
    lines = ["graph chambers {"]
    for i, c in enumerate(chambers):
        lines.append(f'  c{i} [label="{c.char_string()}"];')
    for a, b in edges:
        lines.append(f"  c{a} -- c{b};")
    lines.append("}")
    return "\n".join(lines) + "\n"
