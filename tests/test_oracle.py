import random
from fractions import Fraction

import pytest

from weylfan import counting as ct
from weylfan import incidence as inc
from weylfan.chambers import ray_index
from weylfan.oracle import (
    CapExceeded,
    RationalMatrix,
    SignCondition,
    adjacency_from_cells,
    cell_feasible,
    chamber_cell_counts,
    check_weights_proportional_to_roots,
    enumerate_cells,
    enumerate_flats_geometric,
    rays_geometric,
    simplex_counts,
    weight_system,
)
from weylfan.oracle import weightsystems as wsys
from weylfan.oracle import simplex
from weylfan.oracle.linalg import rank_of
from weylfan.oracle.simplex import CertificateError, simplex_max, strict_feasible
from weylfan.poset import Ensemble, all_points, enumerate_ensembles


def test_rational_matrix_rank():
    m = RationalMatrix.from_rows([[1, 2], [2, 4], [0, 1]])
    assert m.rank() == 2
    assert RationalMatrix.from_rows([[0, 0]]).rank() == 0
    half = RationalMatrix.from_rows([[Fraction(1, 2), 1], [1, 2], [3, 5]])
    assert half.rank() == 2


def test_rational_matrix_nullspace():
    m = RationalMatrix.from_rows([[1, 1, 0], [0, 1, 1]])
    basis = m.nullspace()
    assert len(basis) == 1
    vec = basis[0]
    assert vec[0] + vec[1] == 0 and vec[1] + vec[2] == 0


def test_rank_matches_rref_on_random_matrices():
    rng = random.Random(20250825)
    for _ in range(200):
        rows = [
            [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(4)]
            for _ in range(rng.randint(1, 5))
        ]
        m = RationalMatrix.from_rows(rows)
        _, pivots = m.rref()
        assert m.rank() == len(pivots)
        # rank_of takes the rows as given: all ints, or ints mixed with Fractions
        integer_rows = [[int(v * 6) for v in row] for row in rows]
        assert rank_of(integer_rows) == len(pivots)
        mixed = [[int(v) if v.denominator == 1 else v for v in row] for row in rows]
        assert rank_of(mixed) == len(pivots)


def test_simplex_basics():
    # max x subject to x + s = 3
    value, sol = simplex_max([[1, 1]], [3], [1, 0], [1])
    assert value == 3 and sol[0] == 3
    # max x + y subject to x + s1 = 1, y + s2 = 2
    value, sol = simplex_max(
        [[1, 0, 1, 0], [0, 1, 0, 1]], [1, 2], [1, 1, 0, 0], [2, 3]
    )
    assert value == 3


def test_strict_feasible_basics():
    assert strict_feasible([], [(1,)], [], 1) is not None
    assert strict_feasible([], [(1,), (-1,)], [], 1) is None
    assert strict_feasible([(1,)], [], [], 1) == (0,)
    w = strict_feasible([], [(1, -1)], [(0, 1)], 2)
    assert w is not None and w[0] > w[1] and w[1] >= 0


def test_witness_checks_reject_a_bogus_optimum(monkeypatch):
    # a positive optimum at the all-zero solution: the witness is the origin
    def bogus(rows, rhs, objective, basis, *, stats=None):
        return Fraction(1), [Fraction(0)] * len(objective)

    monkeypatch.setattr(simplex, "simplex_max", bogus)
    with pytest.raises(CertificateError):
        simplex.strict_feasible([], [(1, 0)], [], 2)
    with pytest.raises(CertificateError):
        simplex.cone_positive([], (1, 1), 2)


def test_cell_feasible_examples():
    feasible, witness = cell_feasible(2, SignCondition(2, (1, 1, 1), (1,)))
    assert feasible
    x1, x2 = witness
    assert x1 > x2 and x2 + x1 > 0 and x2 > -x1  # interior of the top chamber
    for s22 in (-1, 0, 1):
        for tau in (0, 1):
            feasible, _ = cell_feasible(2, SignCondition(2, (-1, 1, s22), (tau,)))
            assert not feasible
    feasible, witness = cell_feasible(2, SignCondition(2, (0, 0, 0), (0,)))
    assert feasible and witness == (0, 0)


def test_sign_condition_validation():
    with pytest.raises(ValueError):
        SignCondition(2, (1, 1), (1,))
    with pytest.raises(ValueError):
        SignCondition(2, (1, 1, 2), (1,))
    with pytest.raises(ValueError):
        SignCondition(2, (1, 1, 1), (-1,))


def test_cells_golden_rows():
    for n in range(1, 4):
        enum = enumerate_cells(n)
        assert enum.counts == [ct.g_recurrence(n, k) for k in range(n + 1)]
        assert sum(enum.counts) == len(enum.cells)


def test_n1_reports_the_tension():
    enum = enumerate_cells(1)
    assert enum.counts == [1, 2]
    assert len(enum.notes) == 1
    note = enum.notes[0]
    assert "[1, 2]" in note and "1 + t" in note and "errata" in note
    assert enumerate_cells(2).notes == ()


def test_witness_soundness():
    for n in range(1, 4):
        for cell in enumerate_cells(n).cells:
            x = cell.witness
            pos = 0
            for idx in inc.weight_indices(n):
                value = inc.evaluate_weight(idx, x)
                assert (value > 0) - (value < 0) == cell.condition.weight_signs[pos]
                pos += 1
            for i, tau in enumerate(cell.condition.root_signs):
                diff = Fraction(x[i]) - Fraction(x[i + 1])
                assert (diff > 0) == (tau == 1) and diff >= 0


def test_cell_dimension_against_tight_rank():
    enum = enumerate_cells(3)
    by_dim = {}
    for cell in enum.cells:
        by_dim.setdefault(cell.dim, 0)
        by_dim[cell.dim] += 1
    assert [by_dim.get(k, 0) for k in range(4)] == enum.counts


def test_cap_refusals():
    with pytest.raises(CapExceeded) as err:
        enumerate_cells(5)
    assert "3^(n(n+1)/2)" in str(err.value) and str(3**15 * 2**4) in str(err.value)
    with pytest.raises(CapExceeded) as err:
        enumerate_flats_geometric(7)
    assert "2^(n(n+1)/2)" in str(err.value) and str(2**28) in str(err.value)
    with pytest.raises(CapExceeded):
        enumerate_cells(2, cap=1)
    with pytest.raises(CapExceeded):
        enumerate_flats_geometric(3, cap=2)


def test_rays_geometric_small():
    assert rays_geometric(1) == [(1,), (-1,)]
    assert set(rays_geometric(2)) == {
        (1, 0),
        (0, -1),
        (1, 1),
        (1, -1),
        (-1, -1),
    }
    for n in (2, 3):
        rays = rays_geometric(n)
        points = {ray_index(r) for r in rays}
        assert points == set(all_points(n))
        for r in rays:
            assert all(v in (-1, 0, 1) for v in r)


def test_flats_golden_rows():
    for n in range(1, 5):
        enum = enumerate_flats_geometric(n)
        assert enum.counts == [ct.h_recurrence(n, k) for k in range(n + 1)]
        # one LP per implicit-equality candidate, never one per weight
        assert enum.stats.get("lp_calls", 0) <= (n - 1) * enum.stats["closures"]


def test_flats_cross_check_with_ensembles():
    for n in range(1, 6):
        enum = enumerate_flats_geometric(n)
        realized = set()
        for flat in enum.flats:
            rays = inc.rays_of(n, flat.tight)
            ensemble = Ensemble.from_points(n, rays)
            assert ensemble.rank == flat.dim
            # the tight set is exactly the hyperplanes containing every ray
            assert flat.tight == frozenset(
                idx
                for idx in inc.weight_indices(n)
                if rays <= inc.hyperplane_rays(n, idx)
            )
            realized.add(ensemble.realized())
        expected = {
            e.realized()
            for k in range(n + 1)
            for e in enumerate_ensembles(n, k)
        }
        assert realized == expected


def test_geometric_adjacency_matches_combinatorial():
    for n in range(1, 4):
        cells = enumerate_cells(n)
        _, edges = inc.chamber_adjacency_graph(n)
        assert adjacency_from_cells(cells) == edges


def test_weight_system_tags():
    assert len(wsys.TAGS) == 7
    with pytest.raises(ValueError):
        weight_system("e8:248")
    with pytest.raises(ValueError):
        weight_system(wsys.TAG_SP_V)  # rank missing


def test_proportionality_certificates():
    for tag in (wsys.TAG_SO_ODD_V, wsys.TAG_SP_V, wsys.TAG_SP_LAMBDA, wsys.TAG_SP_BOTH):
        for n in (2, 3, 4):
            report = check_weights_proportional_to_roots(weight_system(tag, n))
            assert report.ok
            for cert in report.certificates:
                assert cert.weight == tuple(
                    cert.multiplier * v for v in cert.root
                )
    f4 = check_weights_proportional_to_roots(weight_system(wsys.TAG_F4))
    assert f4.ok and f4.zero_weights == 2 and len(f4.certificates) == 24
    g2 = check_weights_proportional_to_roots(weight_system(wsys.TAG_G2))
    assert g2.ok and g2.zero_weights == 1 and len(g2.certificates) == 6
    sp = check_weights_proportional_to_roots(weight_system(wsys.TAG_SP_V, 3))
    assert {c.multiplier for c in sp.certificates} == {Fraction(1, 2), Fraction(-1, 2)}


def test_gl_weights_are_not_wall_multiples():
    report = check_weights_proportional_to_roots(weight_system(wsys.TAG_GL, 2))
    assert not report.ok
    assert (Fraction(1), Fraction(1)) in report.failures  # x_1 + x_2
    assert len(report.failures) == 3


def test_simplex_counts_values():
    assert simplex_counts(4, 2) == 6
    assert simplex_counts(7, 0) == 1
    assert [simplex_counts(2, k) for k in range(3)] == [1, 2, 1]
    with pytest.raises(ValueError):
        simplex_counts(3, 4)
    with pytest.raises(ValueError):
        simplex_counts(3, -1)


def test_degenerate_chamber_cell_counts():
    assert chamber_cell_counts(wsys.TAG_SO_ODD_V, 2) == [1, 2, 1]
    assert chamber_cell_counts(wsys.TAG_SP_BOTH, 2) == [1, 2, 1]
    assert chamber_cell_counts(wsys.TAG_G2) == [1, 2, 1]
    assert chamber_cell_counts(wsys.TAG_SO_ODD_V, 3) == [1, 3, 3, 1]
    assert chamber_cell_counts(wsys.TAG_SP_V, 3) == [1, 3, 3, 1]


def test_dedupe_hyperplanes():
    cuts = wsys.dedupe_hyperplanes(
        [(1, 0), (-1, 0), (0, 0), (Fraction(1, 2), Fraction(1, 2)), (2, 2)]
    )
    assert cuts == ((1, 0), (1, 1))
