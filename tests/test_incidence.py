import itertools

import pytest

from weylfan import chambers as ch
from weylfan import counting as ct
from weylfan import incidence as inc
from weylfan.oracle.linalg import dot
from weylfan.poset import (
    INF,
    Ensemble,
    PosetPoint,
    PseudoEnsemble,
    all_points,
    enumerate_ensembles,
    is_chain,
)


def _brute_hyperplane_rays(n, idx):
    out = set()
    for p in all_points(n):
        vec = ch.ray_from_index(n, p)
        if dot(inc.weight_functional(n, idx), vec) == 0:
            out.add(p)
    return frozenset(out)


def test_hyperplane_rays_against_functionals():
    for n in range(1, 9):
        for idx in inc.weight_indices(n):
            assert inc.hyperplane_rays(n, idx) == _brute_hyperplane_rays(n, idx)


def test_hyperplane_rays_frozen_n3():
    rays = {idx: inc.hyperplane_rays(3, idx) for idx in inc.weight_indices(3)}
    assert rays[(1, 1)] == {PosetPoint(0, 1), PosetPoint(0, 2)}
    assert rays[(1, 3)] == {PosetPoint(1, 1), PosetPoint(2, 1), PosetPoint(1, 2)}
    assert rays[(2, 2)] == {PosetPoint(1, 0), PosetPoint(0, 1), PosetPoint(1, 1)}
    assert rays[(3, 3)] == {PosetPoint(1, 0), PosetPoint(2, 0)}


def test_rays_of_degenerate_regions():
    for n in range(1, 6):
        assert inc.rays_of(n, []) == frozenset(all_points(n))
        assert inc.rays_of(n, inc.weight_indices(n)) == frozenset()


def test_two_point_data_all_admissible():
    for n in range(1, 9):
        points = all_points(n, include_origin=True)
        universe = set(all_points(n))
        for B in points:
            down = {p for p in universe if p <= B}
            if B.level < n:
                gens = inc.flat_from_two_point_data(n, B, INF)
                assert inc.rays_of(n, gens) == down
                assert len(gens) == (1 if B.level == n - 1 else 2)
            else:
                with pytest.raises(ValueError):
                    inc.flat_from_two_point_data(n, B, INF)
            for A in points:
                if not B.shift(1, 1) <= A:
                    continue
                up = {p for p in universe if A <= p}
                gens = inc.flat_from_two_point_data(n, B, A)
                assert inc.rays_of(n, gens) == down | up
                assert len(gens) == (1 if A == B.shift(1, 1) else 2)


def test_two_point_data_rejects_overlap():
    with pytest.raises(ValueError):
        inc.flat_from_two_point_data(4, PosetPoint(1, 1), PosetPoint(2, 1))
    with pytest.raises(ValueError):
        inc.flat_from_two_point_data(3, PosetPoint(1, 1), PosetPoint(5, 0))


def test_flat_round_trip_all_ensembles():
    for n in range(1, 7):
        for k in range(n + 1):
            for ensemble in enumerate_ensembles(n, k):
                flat = inc.flat_from_ensemble(ensemble)
                assert inc.rays_of(n, flat.hyperplanes) == ensemble.realized()
                assert flat.dim == k


def test_intersection_closure_matches_flat_counts():
    # walk every subset of hyperplanes, reusing the parent intersection
    for n in range(1, 6):
        hyps = [inc.hyperplane_rays(n, idx) for idx in inc.weight_indices(n)]
        seen = set()

        def walk(i, current):
            if i == len(hyps):
                seen.add(current)
                return
            walk(i + 1, current)
            walk(i + 1, current & hyps[i])

        walk(0, frozenset(all_points(n)))
        by_rank = {}
        for rays in seen:
            e = Ensemble.from_points(n, rays)  # raises if not realizable
            assert e.realized() == rays
            by_rank[e.rank] = by_rank.get(e.rank, 0) + 1
        assert [by_rank.get(k, 0) for k in range(n + 1)] == [
            ct.h_recurrence(n, k) for k in range(n + 1)
        ]


def test_flat_from_rays_rejects_non_flats():
    with pytest.raises(ValueError):
        Ensemble.from_points(2, [PosetPoint(2, 0)])
    with pytest.raises(ValueError):
        Ensemble.from_points(3, [PosetPoint(1, 0), PosetPoint(0, 1)])


def test_face_from_chain_errors():
    with pytest.raises(ValueError):
        inc.face_from_chain(2, [PosetPoint(1, 0), PosetPoint(0, 1)])
    with pytest.raises(ValueError):
        inc.face_from_chain(2, [PosetPoint(2, 1)])
    face = inc.face_from_chain(3, [PosetPoint(1, 1), PosetPoint(1, 0)])
    assert face.chain == (PosetPoint(1, 0), PosetPoint(1, 1))
    assert face.dim == 2
    assert inc.face_from_chain(3, []).dim == 0


def test_face_from_chain_accepts_exactly_the_chains():
    # every subset of E*_n, listed backwards and with its first point
    # repeated; at n = 3 it holds (0,2), (3,0), sorted in that order by
    # level but not comparable
    for n in range(1, 5):
        pts = all_points(n)
        for k in range(len(pts) + 1):
            for subset in itertools.combinations(pts, k):
                given = subset[::-1] + subset[:1]
                if is_chain(subset):
                    assert inc.face_from_chain(n, given).chain == subset
                else:
                    with pytest.raises(ValueError, match="is not a chain"):
                        inc.face_from_chain(n, given)


def test_chamber_chain_matches_extreme_rays():
    # the chain's rays span the chamber: their sum is an interior point of it
    for n in range(1, 11):
        for c in ch.all_chambers(n):
            rays = ch.extreme_rays(c)
            assert ch.classify_point(n, [sum(col) for col in zip(*rays)]) == c


def _brute_edges(n):
    index = {ch.ray_from_index(n, p): p for p in all_points(n)}
    chains = [
        frozenset(index[r] for r in ch.extreme_rays(c)) for c in ch.all_chambers(n)
    ]
    return sorted(
        (i, j)
        for i, j in itertools.combinations(range(len(chains)), 2)
        if len(chains[i] & chains[j]) == n - 1
    )


def test_adjacency_frozen_small():
    _, edges1 = inc.chamber_adjacency_graph(1)
    assert edges1 == [(0, 1)]
    chambers, edges2 = inc.chamber_adjacency_graph(2)
    assert [c.char_string() for c in chambers] == ["--", "-+", "+-", "++"]
    assert edges2 == [(0, 2), (1, 2), (1, 3)]  # a path once reordered


def test_adjacency_matches_pairwise_definition():
    for n in range(1, 9):
        _, edges = inc.chamber_adjacency_graph(n)
        assert edges == _brute_edges(n)


def test_adjacency_graph_shape():
    for n in range(1, 9):
        chambers, edges = inc.chamber_adjacency_graph(n)
        assert chambers == ch.all_chambers(n)
        if n >= 2:
            # 2^(n-1) edges toggle 1 in the subset; for each m < n, 2^(n-2)
            # edges swap m and m + 1 between the subset and its complement
            assert len(edges) == (n + 1) * 2 ** (n - 2)
        degree = [0] * len(chambers)
        for a, b in edges:
            degree[a] += 1
            degree[b] += 1
        assert all(1 <= d <= n for d in degree)
        # connected: breadth-first reach from chamber 0
        adj = {i: [] for i in range(len(chambers))}
        for a, b in edges:
            adj[a].append(b)
            adj[b].append(a)
        seen = {0}
        frontier = [0]
        while frontier:
            nxt = []
            for v in frontier:
                for w in adj[v]:
                    if w not in seen:
                        seen.add(w)
                        nxt.append(w)
            frontier = nxt
        assert len(seen) == len(chambers)


def test_adjacency_dot_golden_n2():
    expected = (
        "graph chambers {\n"
        '  c0 [label="--"];\n'
        '  c1 [label="-+"];\n'
        '  c2 [label="+-"];\n'
        '  c3 [label="++"];\n'
        "  c0 -- c2;\n"
        "  c1 -- c2;\n"
        "  c1 -- c3;\n"
        "}\n"
    )
    assert inc.adjacency_dot(2) == expected


def test_flats_of_enumeration():
    rows = {2: [1, 3, 1], 3: [1, 5, 6, 1], 4: [1, 8, 14, 10, 1]}
    for n, row in rows.items():
        for k, expected in enumerate(row):
            flats = list(inc.flats_of(n, k))
            assert len(flats) == expected
            assert len({f.ensemble.realized() for f in flats}) == expected


@pytest.mark.parametrize(
    "call",
    [
        lambda: ch.ray_from_index(3, INF),
        lambda: inc.face_from_chain(3, [PosetPoint(1, 0), INF]),
        lambda: inc.flat_from_two_point_data(3, INF, INF),
        lambda: inc.flat_from_two_point_data(3, INF, PosetPoint(2, 1)),
        lambda: Ensemble.from_points(3, [PosetPoint(1, 0), INF]),
        lambda: PseudoEnsemble.from_points(3, [PosetPoint(0, 0), INF]),
    ],
    ids=[
        "ray_from_index",
        "face_from_chain",
        "two_point_data_B_INF_A_INF",
        "two_point_data_B_INF",
        "Ensemble.from_points",
        "PseudoEnsemble.from_points",
    ],
)
def test_inf_is_refused_where_a_finite_point_is_needed(call):
    with pytest.raises(ValueError):
        call()
