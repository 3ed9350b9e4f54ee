import ast
import hashlib
import itertools
import random
from collections import Counter
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import weylfan.oracle
from weylfan import counting as ct
from weylfan import incidence as inc
from weylfan.chambers import ray_from_index
from weylfan.oracle import weightsystems as wsys
from weylfan.oracle import arrangement, simplex
from weylfan.oracle import cells as cell_oracle
from weylfan.oracle import flats as flat_oracle
from weylfan.oracle.arrangement import Arrangement, CapExceeded, SignCondition, gl_arrangement
from weylfan.oracle.cells import (
    Cell,
    adjacency_from_cells,
    cell_feasible,
    enumerate_cells,
    enumerate_generic_cells,
    rays_geometric,
)
from weylfan.oracle.flats import enumerate_flats_geometric, enumerate_generic_flats
from weylfan.oracle.weightsystems import (
    chamber_cell_counts,
    check_weights_proportional_to_roots,
    simplex_counts,
    weight_system,
)
from weylfan.oracle.linalg import dot, integer_row, kernel_basis, rank_of
from weylfan.oracle.simplex import (
    CertificateError,
    cone_positive,
    simplex_max,
    strict_feasible,
)
from weylfan.poset import (
    Ensemble,
    all_points,
    enumerate_chains,
    enumerate_ensembles,
    is_chain,
)


def reference_rref(rows, dim):
    """Fraction Gauss-Jordan: the pivot columns and the unique RREF kernel
    basis, one vector per free column."""
    m = [[Fraction(v) for v in row] for row in rows]
    pivots = []
    for col in range(dim):
        lead = len(pivots)
        pivot = next((r for r in range(lead, len(m)) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[lead], m[pivot] = m[pivot], m[lead]
        pv = m[lead][col]
        m[lead] = [v / pv for v in m[lead]]
        for r in range(len(m)):
            if r != lead and m[r][col] != 0:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[lead])]
        pivots.append(col)
    basis = []
    for fc in range(dim):
        if fc in pivots:
            continue
        vec = [Fraction(0)] * dim
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -m[r][fc]
        basis.append(tuple(vec))
    return pivots, tuple(basis)


def test_rational_matrix_rank():
    assert rank_of([[1, 2], [2, 4], [0, 1]]) == 2
    assert rank_of([[0, 0]]) == 0
    assert rank_of([[Fraction(1, 2), 1], [1, 2], [3, 5]]) == 2


def test_rational_matrix_nullspace():
    basis = kernel_basis([[1, 1, 0], [0, 1, 1]], 3)
    assert len(basis) == 1
    vec = basis[0]
    assert vec[0] + vec[1] == 0 and vec[1] + vec[2] == 0
    assert vec == (1, -1, 1)
    # RREF vectors (-3/2, 1, 0) and (0, 0, 1), each scaled to primitive ints
    assert kernel_basis([[2, 3, 0]], 3) == ((-3, 2, 0), (0, 0, 1))
    assert kernel_basis([[Fraction(1, 2), Fraction(1, 3)]], 2) == ((-2, 3),)


def test_integer_row_copies_int_rows_and_clears_denominators():
    row = (3, -1, 0)
    ints = integer_row(row)
    assert ints == [3, -1, 0] and type(ints) is list
    listed = [3, -1, 0]
    assert integer_row(listed) == listed and integer_row(listed) is not listed
    # a Fraction anywhere takes the lcm of the denominators
    assert integer_row([1, Fraction(1, 2), Fraction(-2, 3)]) == [6, 3, -4]
    assert integer_row([Fraction(4), 2]) == [4, 2]


def test_rank_matches_rref_on_random_matrices():
    rng = random.Random(20250825)
    for _ in range(200):
        rows = [
            [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(4)]
            for _ in range(rng.randint(1, 5))
        ]
        pivots, _ = reference_rref(rows, 4)
        assert rank_of(rows) == len(pivots)
        # rank_of takes the rows as given: all ints, or ints mixed with Fractions
        integer_rows = [[int(v * 6) for v in row] for row in rows]
        assert rank_of(integer_rows) == len(pivots)
        mixed = [[int(v) if v.denominator == 1 else v for v in row] for row in rows]
        assert rank_of(mixed) == len(pivots)


_SMALL_INTS = st.integers(-4, 4)
_SMALL_FRACTIONS = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
_ENTRIES = {
    "int": _SMALL_INTS,
    "fraction": _SMALL_FRACTIONS,
    "mixed": st.one_of(_SMALL_INTS, _SMALL_FRACTIONS),
    "zero": st.just(0),
}


@st.composite
def small_matrices(draw):
    """Up to six rows of width 1..5: int, Fraction, mixed and zero rows, and
    possibly a sum of two of them, so that dependent rows occur often."""
    dim = draw(st.integers(1, 5))
    rows = [
        draw(st.lists(_ENTRIES[kind], min_size=dim, max_size=dim))
        for kind in draw(st.lists(st.sampled_from(sorted(_ENTRIES)), max_size=5))
    ]
    if rows and draw(st.booleans()):
        rows.append([a + b for a, b in zip(rows[0], rows[-1])])
    return rows, dim


@example(([[1, 2], [2, 4], [0, 1]], 2))
@example(([[0, 0]], 2))
@example(([[Fraction(1, 2), 1], [1, 2], [3, 5]], 2))
@example(([[1, 1, 0], [0, 1, 1]], 3))
@example(([], 3))
@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(small_matrices())
def test_rank_and_kernel_match_fraction_elimination(matrix):
    rows, dim = matrix
    pivots, basis = reference_rref(rows, dim)
    assert rank_of(rows) == len(pivots)
    kernel = kernel_basis(rows, dim)
    assert len(kernel) == len(basis)
    for vec, rref in zip(kernel, basis):
        assert all(type(v) is int for v in vec)
        assert gcd(*vec) == 1
        last = next(v for v in reversed(vec) if v)
        assert last > 0
        assert tuple(Fraction(v, last) for v in vec) == rref
    assert all(dot(row, vec) == 0 for row in rows for vec in kernel)


def test_simplex_basics():
    # max x subject to x + s = 3
    value, sol = simplex_max([[1, 1]], [3], [1, 0], [1])
    assert value == 3 and sol[0] == 3
    # max x + y subject to x + s1 = 1, y + s2 = 2
    value, sol = simplex_max(
        [[1, 0, 1, 0], [0, 1, 0, 1]], [1, 2], [1, 1, 0, 0], [2, 3]
    )
    assert value == 3


def test_simplex_does_not_cycle_on_chvatals_program():
    # Chvatal, Linear Programming (1983), ch. 3: the most-negative-cost rule
    # cycles through six degenerate bases here; Bland's rule does not
    rows = [[1, -11, -5, 18, 2, 0, 0], [1, -3, -1, 2, 0, 2, 0], [1, 0, 0, 0, 0, 0, 1]]
    objective = [10, -57, -9, -24, 0, 0, 0]
    for solve in (simplex_max, reference_simplex_max):
        stats = Counter()
        value, sol = solve(rows, [0, 0, 1], objective, [4, 5, 6], stats=stats)
        assert value == 1 and sol[:4] == [1, 0, 1, 0]
        assert stats["pivots"] == 7


def test_strict_feasible_basics():
    assert strict_feasible([], [(1,)], [], 1) is not None
    assert strict_feasible([], [(1,), (-1,)], [], 1) is None
    assert strict_feasible([(1,)], [], [], 1) == (0,)
    # full-rank equalities leave only the origin, where no strict row is positive
    assert strict_feasible([(1,)], [(0,)], [], 1) is None
    assert strict_feasible([(1, 0), (0, 1)], [(1, 1)], [], 2) is None
    w = strict_feasible([], [(1, -1)], [(0, 1)], 2)
    assert w is not None and w[0] > w[1] and w[1] >= 0


def test_strict_feasible_refuses_rows_of_another_length():
    # refused before an LP is counted, not answered for a truncated row
    stats = Counter()
    with pytest.raises(ValueError):
        strict_feasible([(1, 0, 0)], [(0, 1)], [], 2, stats=stats)
    assert stats == Counter()


def test_strict_feasible_refuses_a_short_strict_row():
    stats = Counter()
    with pytest.raises(ValueError):
        strict_feasible([], [(1,)], [], 2, stats=stats)
    assert stats == Counter()


def test_kernel_basis_refuses_rows_of_another_length():
    with pytest.raises(ValueError):
        kernel_basis([(1, 0, 0)], 2)


def reference_simplex_max(rows, rhs, objective, basis, *, stats=None):
    """The Fraction tableau simplex that the integer tableau replaced: the
    same Bland's rule, every row normalized at its pivot (and at the start,
    where a basic column may carry any positive entry)."""
    m = len(rows)
    ncols = len(objective)
    tab = [[Fraction(v) for v in row] + [Fraction(rhs[i])] for i, row in enumerate(rows)]
    tab = [[v / row[col] for v in row] for row, col in zip(tab, basis)]
    z = [-Fraction(c) for c in objective] + [Fraction(0)]
    basis = list(basis)
    for r, col in enumerate(basis):
        if z[col] != 0:
            f = z[col]
            z = [a - f * b for a, b in zip(z, tab[r])]
    while True:
        entering = next((j for j in range(ncols) if z[j] < 0), None)
        if entering is None:
            solution = [Fraction(0)] * ncols
            for r, col in enumerate(basis):
                solution[col] = tab[r][ncols]
            return z[ncols], solution
        ratio = None
        leaving = None
        for r in range(m):
            a = tab[r][entering]
            if a > 0:
                cand = tab[r][ncols] / a
                if ratio is None or cand < ratio or (cand == ratio and basis[r] < basis[leaving]):
                    ratio = cand
                    leaving = r
        if leaving is None:
            raise simplex.UnboundedProgram("objective is unbounded on the feasible cone")
        if stats is not None:
            stats["pivots"] = stats.get("pivots", 0) + 1
        pv = tab[leaving][entering]
        tab[leaving] = [v / pv for v in tab[leaving]]
        for r in range(m):
            if r != leaving and tab[r][entering] != 0:
                f = tab[r][entering]
                tab[r] = [a - f * b for a, b in zip(tab[r], tab[leaving])]
        if z[entering] != 0:
            f = z[entering]
            z = [a - f * b for a, b in zip(z, tab[leaving])]
        basis[leaving] = entering


@st.composite
def bounded_programs(draw):
    """max c.x on {A x + s = b, x, s >= 0} with b >= 0 and a last row
    x_1 + ... + x_k + s = cap that keeps the program bounded; the objective
    covers the slacks too, so the start needs its objective row reduced."""
    k = draw(st.integers(1, 5))
    m = draw(st.integers(0, 5))
    entry = st.one_of(st.integers(-3, 3), st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)))
    body = [draw(st.lists(entry, min_size=k, max_size=k)) for _ in range(m)]
    body.append([1] * k)
    rhs = draw(st.lists(st.integers(0, 6), min_size=m + 1, max_size=m + 1))
    rows = [row + [1 if j == i else 0 for j in range(m + 1)] for i, row in enumerate(body)]
    # each row and its rhs times a positive int: a basic column need not carry a 1
    scales = draw(st.lists(st.integers(1, 3), min_size=m + 1, max_size=m + 1))
    rows = [[c * v for v in row] for c, row in zip(scales, rows)]
    rhs = [c * b for c, b in zip(scales, rhs)]
    # mostly positive on x, so that most programs take several pivots
    gain = st.one_of(st.integers(-1, 3), st.builds(Fraction, st.integers(0, 3), st.integers(1, 3)))
    objective = draw(st.lists(gain, min_size=k, max_size=k))
    objective += draw(st.lists(st.integers(-1, 1), min_size=m + 1, max_size=m + 1))
    return rows, rhs, objective, list(range(k, k + m + 1))


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(bounded_programs())
def test_simplex_matches_the_fraction_tableau(program):
    rows, rhs, objective, basis = program
    # simplex_max takes int rows: each row and its rhs times the lcm of the
    # row's denominators, which the reference's normalization undoes
    scales = [lcm(*(Fraction(v).denominator for v in row)) for row in rows]
    int_rows = [[int(v * c) for v in row] for row, c in zip(rows, scales)]
    int_rhs = [b * c for b, c in zip(rhs, scales)]
    ours, ref = Counter(), {}
    assert simplex_max(int_rows, int_rhs, objective, basis, stats=ours) == reference_simplex_max(
        rows, rhs, objective, basis, stats=ref
    )
    assert ours.get("pivots", 0) == ref.get("pivots", 0)


@st.composite
def sign_systems(draw):
    """Equality, strict and weak rows in dimension 2 or 3, plus a functional."""
    dim = draw(st.integers(2, 3))
    entry = st.one_of(st.integers(-2, 2), st.builds(Fraction, st.integers(-2, 2), st.integers(1, 2)))
    row = st.lists(entry, min_size=dim, max_size=dim).map(tuple)
    eq, strict, weak = (draw(st.lists(row, max_size=size)) for size in (2, 3, 3))
    return dim, eq, strict, weak, draw(row)


def _reference_lp(basis, bodies, objective, stats):
    """Solve max objective over bodies (row, rhs) with one unit slack each,
    by the Fraction simplex; returns the point sum_j c_j b_j, where c is
    (p_j - q_j) cleared of its denominators: an int multiple of the optimum."""
    d, m = len(basis), len(bodies)
    rows = [body + [1 if j == r else 0 for j in range(m)] for r, (body, _) in enumerate(bodies)]
    slacks = list(range(len(objective), len(objective) + m))
    value, sol = reference_simplex_max(
        rows, [v for _, v in bodies], objective + [0] * m, slacks, stats=stats
    )
    if value <= 0:
        return None
    coeffs = cleared([sol[j] - sol[d + j] for j in range(d)])
    return tuple(dot(coeffs, col) for col in zip(*basis))


def cleared(row):
    """The row times the lcm of its denominators."""
    c = lcm(*(v.denominator for v in row))
    return [int(v * c) for v in row]


def reference_strict_feasible(eq, strict, weak, dim, *, stats=None):
    """The margin LP as the rational tableau over the RREF kernel vectors,
    each cleared of its denominators, unit slacks: maximize t subject to
    t <= strict . x, weak . x >= 0 and the cap t <= 1, every strict and weak
    row cleared of its denominators too.  A single strict row is the
    objective and the cap itself."""
    basis = tuple(cleared(b) for b in reference_rref(eq, dim)[1])
    if not basis:
        return None if strict else (0,) * dim
    sp, wp = ([[dot(cleared(r), b) for b in basis] for r in rows] for rows in (strict, weak))
    if any(all(v == 0 for v in r) for r in sp):
        return None
    if not strict:
        return (0,) * dim
    if len(sp) == 1:
        head, shifted = sp[0] + [-v for v in sp[0]], []
    else:
        head, shifted = [0] * (2 * len(basis)) + [1], sp
    pad = [0] * (len(head) - 2 * len(basis))
    bodies = [([-v for v in r] + r + [1], 0) for r in shifted]
    bodies += [([-v for v in r] + r + pad, 0) for r in wp]
    bodies.append((head, 1))
    return _reference_lp(basis, bodies, head, stats)


def reference_cone_positive(eq, functional, weak, dim, *, stats=None):
    """cone_positive is the margin LP with the functional as its one strict
    row: weak . x >= 0 and functional . x <= 1, maximize functional . x."""
    return reference_strict_feasible(eq, [functional], weak, dim, stats=stats)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(sign_systems())
# two strict rows over the primitive kernel vector (1, 2, 0), twice its RREF vector
@example((3, [(2, -1, 0)], [(1, 0, 0), (0, 0, 1)], [(0, 1, 0)], (1, 0, 0)))
def test_lp_witnesses_hold_and_match_the_reference(system):
    dim, eq, strict, weak, functional = system
    ours, ref = Counter(), {}
    witness = strict_feasible(eq, strict, weak, dim, stats=ours)
    point = cone_positive(eq, functional, weak, dim, stats=ours)
    # both answer with an int point
    for answer in (witness, point):
        assert answer is None or (
            type(answer) is tuple and all(type(v) is int for v in answer)
        )
    # the int tableau is the reference's Fraction tableau up to positive
    # row scaling: same witnesses, same pivots
    assert witness == reference_strict_feasible(eq, strict, weak, dim, stats=ref)
    assert point == reference_cone_positive(eq, functional, weak, dim, stats=ref)
    assert ours.get("pivots", 0) == ref.get("pivots", 0)
    # a row stands for its positive multiples: clearing the denominators of
    # the input rows moves no witness and no pivot
    int_eq, int_strict, int_weak = ([cleared(r) for r in rows] for rows in (eq, strict, weak))
    whole = Counter()
    assert strict_feasible(int_eq, int_strict, int_weak, dim, stats=whole) == witness
    assert cone_positive(int_eq, cleared(functional), int_weak, dim, stats=whole) == point
    assert whole == ours
    # one LP behind both questions: a functional is one strict row
    cone, single = Counter(), Counter()
    assert cone_positive(eq, functional, weak, dim, stats=cone) == strict_feasible(
        eq, [functional], weak, dim, stats=single
    )
    assert cone == single
    with mock.patch.object(simplex, "simplex_max", reference_simplex_max):
        assert witness == strict_feasible(eq, strict, weak, dim)
        assert point == cone_positive(eq, functional, weak, dim)
    if witness is not None:
        assert all(dot(r, witness) == 0 for r in eq)
        assert all(dot(r, witness) > 0 for r in strict)
        assert all(dot(r, witness) >= 0 for r in weak)
    if point is not None:
        assert all(dot(r, point) >= 0 for r in weak) and dot(functional, point) > 0
        assert all(dot(r, point) == 0 for r in eq)


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(sign_systems())
@example((2, [], [(1, 0), (0, 1)], [(1, -1)], (1, 1)))
@example((3, [(2, -1, 0)], [(1, 0, 0), (0, 0, 1)], [(0, 1, 0)], (1, 0, 0)))
def test_margin_lp_has_no_box_rows(system):
    # one tableau row per weak row, one per strict row shifted by the margin,
    # and the cap; a single strict row is the cap itself
    dim, eq, strict, weak, functional = system
    seen = []

    def recording(rows, rhs, objective, basis, *, stats=None):
        seen.append((rows, rhs, basis))
        return simplex_max(rows, rhs, objective, basis, stats=stats)

    with mock.patch.object(simplex, "simplex_max", recording):
        for call, strict_rows in (
            (lambda: strict_feasible(eq, strict, weak, dim), strict),
            (lambda: cone_positive(eq, functional, weak, dim), [functional]),
        ):
            seen.clear()
            call()
            shifted = len(strict_rows) if len(strict_rows) > 1 else 0
            m = shifted + len(weak) + 1
            assert len(seen) <= 1
            for rows, rhs, basis in seen:
                # a textbook tableau: unit slacks, a unit margin in the
                # shifted rows and the cap, and the right-hand side (0, ..., 0, 1)
                assert len(rows) == m
                assert [[row[c] for c in basis] for row in rows] == [
                    [int(r == i) for i in range(m)] for r in range(m)
                ]
                assert rhs == [0] * (m - 1) + [1]
                if shifted:
                    margin = [row[basis[0] - 1] for row in rows]
                    assert margin == [1] * shifted + [0] * len(weak) + [1]


def test_witness_checks_reject_a_bogus_optimum(monkeypatch):
    # a positive optimum at the all-zero solution: the witness is the origin
    def bogus(rows, rhs, objective, basis, *, stats=None):
        return Fraction(1), [Fraction(0)] * len(objective)

    monkeypatch.setattr(simplex, "simplex_max", bogus)
    with pytest.raises(CertificateError):
        simplex.strict_feasible([], [(1, 0)], [], 2)
    with pytest.raises(CertificateError):
        simplex.cone_positive([], (1, 1), [(1, 0), (0, 1)], 2)

    # the point (1, 0): the functional is positive there, a weak row is not
    def outside(rows, rhs, objective, basis, *, stats=None):
        return Fraction(1), [Fraction(1)] + [Fraction(0)] * (len(objective) - 1)

    monkeypatch.setattr(simplex, "simplex_max", outside)
    with pytest.raises(CertificateError):
        simplex.cone_positive([], (1, 1), [(-1, 0)], 2)


def test_cell_feasible_examples():
    feasible, witness = cell_feasible(2, SignCondition(2, (1, 1, 1), (1,)))
    assert feasible and all(type(v) is int for v in witness)
    x1, x2 = witness
    assert x1 > x2 and x2 + x1 > 0 and x2 > -x1  # interior of the top chamber
    for s22 in (-1, 0, 1):
        for tau in (0, 1):
            feasible, _ = cell_feasible(2, SignCondition(2, (-1, 1, s22), (tau,)))
            assert not feasible
    feasible, witness = cell_feasible(2, SignCondition(2, (0, 0, 0), (0,)))
    assert feasible and witness == (0, 0) and all(type(v) is int for v in witness)
    # a condition of another rank is refused, not answered for a truncated system
    with pytest.raises(ValueError):
        cell_feasible(3, SignCondition(2, (1, 1, 1), (1,)))


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
    # the oracle counts two half-lines where the printed row reads one; the
    # errata record, which verify prints, holds that tension
    assert enumerate_cells(1).counts == [1, 2]
    (entry,) = [e for e in ct.errata_entries() if e["id"] == "faces-1-1"]
    assert (entry["table"], entry["n"], entry["k"]) == ("faces", 1, 1)
    assert entry["adopted"] == 2 and set(entry["printed"].values()) == {1}


def test_witness_soundness():
    for n in range(1, 4):
        for cell in enumerate_cells(n).cells:
            x = cell.witness
            pos = 0
            for idx in inc.weight_indices(n):
                value = dot(inc.weight_functional(n, idx), x)
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


def _sha256(records):
    h = hashlib.sha256()
    for record in records:
        h.update(repr(record).encode())
    return h.hexdigest()


# stats and output digests of the oracle searches; any change to the LP
# assembly that moves a pivot, a witness or a closure shows here
PINNED_CELLS = {
    3: (
        {"nodes": 1, "lp_calls": 10, "pivots": 35, "witness_hits": 7, "chambers": 8, "cells": 34},
        "8cb60aecdfd8aab187d51fffb92f58a30c84361e832640100426c08e86062051",
    ),
    4: (
        {"nodes": 1, "lp_calls": 16, "pivots": 76, "witness_hits": 15, "chambers": 16, "cells": 116},
        "a9e242d2625cd8ced91a4bc52929ec89306967fb93aba9376b573bac51dac281",
    ),
}
PINNED_FLATS = {
    4: (
        {"lp_calls": 54, "pivots": 95, "flats": 34, "closures": 125},
        "8ac8037f6a8ecfa2575265236d1797a92d2d61dc7ca90628473731e8023b11d1",
    ),
    5: (
        {"lp_calls": 335, "pivots": 641, "flats": 89, "closures": 593},
        "03577b47b50a2506374ae45dca672fb80392b717493372df0ab5457fb116a5a2",
    ),
}


def test_oracle_counters_and_outputs_are_pinned():
    for n, (stats, digest) in PINNED_CELLS.items():
        enum = enumerate_cells(n)
        assert enum.stats == stats
        assert digest == _sha256(
            (
                c.condition.weight_signs,
                c.condition.root_signs,
                c.dim,
                tuple(str(v) for v in c.witness),
            )
            for c in enum.cells
        )
    for n, (stats, digest) in PINNED_FLATS.items():
        enum = enumerate_flats_geometric(n)
        assert enum.stats == stats
        assert digest == _sha256((sorted(f.tight), f.dim) for f in enum.flats)


def test_cap_refusals():
    with pytest.raises(CapExceeded) as err:
        enumerate_cells(9)
    assert "walks 2^n = 2^9 chambers" in str(err.value)
    assert err.value.cap == 8
    with pytest.raises(CapExceeded) as err:
        enumerate_flats_geometric(9)
    assert "2^(n(n+1)/2)" in str(err.value) and "2^45" in str(err.value)
    assert err.value.cap == 8
    with pytest.raises(CapExceeded) as err:
        enumerate_cells(2, cap=1)
    assert err.value.cap == 1
    with pytest.raises(CapExceeded) as err:
        enumerate_flats_geometric(3, cap=2)
    assert err.value.cap == 2


def test_rays_geometric_small():
    assert rays_geometric(enumerate_cells(1)) == [(1,), (-1,)]
    assert set(rays_geometric(enumerate_cells(2))) == {
        (1, 0),
        (0, -1),
        (1, 1),
        (1, -1),
        (-1, -1),
    }
    for n in (2, 3):
        rays = rays_geometric(enumerate_cells(n))
        assert set(rays) == {ray_from_index(n, p) for p in all_points(n)}
        for r in rays:
            assert all(v in (-1, 0, 1) for v in r)


def test_cell_closures_are_the_chains():
    # the rays in a cell's closure are those whose sign on every row is 0 or
    # the cell's own; they form a chain of the cell's dimension, and every
    # chain of E*_n, the empty one too, closes exactly one cell
    for n in range(1, 7):
        arr = gl_arrangement(n)
        values = {
            p: [dot(row, ray_from_index(n, p)) for row in arr.cuts + arr.walls]
            for p in all_points(n)
        }
        chains = []
        for cell in enumerate_cells(n).cells:
            signs = cell.condition.weight_signs + cell.condition.root_signs
            closure = tuple(
                p
                for p, vals in values.items()
                if all(v == 0 or (v > 0) - (v < 0) == s for v, s in zip(vals, signs))
            )
            assert len(closure) == cell.dim and is_chain(closure)
            chains.append(closure)
        expected = [chain for k in range(n + 1) for chain in enumerate_chains(n, k)]
        assert len(set(chains)) == len(chains) == len(expected)
        assert set(chains) == set(expected)


def test_rays_geometric_rejects_a_non_lattice_witness():
    cells = enumerate_cells(2)
    pos = next(i for i, c in enumerate(cells.cells) if c.dim == 1)
    bad = (Fraction(1), Fraction(1, 2))
    cell = cells.cells[pos]
    cells.cells[pos] = Cell(cell.condition, cell.dim, bad)
    with pytest.raises(CertificateError):
        rays_geometric(cells)


def _record_cone_positive(log):
    """A stand-in for the flat oracle's cone_positive that logs each call's
    equality rows and whether it answered None."""
    real = flat_oracle.cone_positive

    def record(eq_rows, *args, **kwargs):
        point = real(eq_rows, *args, **kwargs)
        log.append((list(eq_rows), point is None))
        return point

    return mock.patch.object(flat_oracle, "cone_positive", record)


def test_flats_golden_rows():
    for n in range(1, 5):
        log = []
        with _record_cone_positive(log):
            enum = enumerate_flats_geometric(n)
        assert enum.counts == [ct.h_recurrence(n, k) for k in range(n + 1)]
        # one LP per sum-of-walls round: a round that finds a point drops at
        # least one of the n - 1 walls, and only a closure's last round can
        # find none, so a closure makes at most n - 1 LPs, one infeasible
        closures = enum.stats["closures"]
        assert enum.stats.get("lp_calls", 0) == len(log) <= (n - 1) * closures
        assert sum(none for _, none in log) <= closures


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


def _flats_from_cells(cells):
    """Flats read off the cells: the cuts that vanish on a cell are a flat's
    tight set, and the flat's dimension is the largest of such a cell."""
    dims = {}
    for cut_signs, _, dim, _ in cells:
        zeros = frozenset(c for c, s in enumerate(cut_signs) if s == 0)
        dims[zeros] = max(dim, dims.get(zeros, dim))
    return dims


def _check_cells(arr):
    """The cells against the flats of the same arrangement and against the
    Euler relation; every witness realizes its sign vector."""
    cells, counts = enumerate_generic_cells(arr)
    flats, flat_counts = enumerate_generic_flats(arr)
    # a cell's zero set is a flat's tight set, and the flat's dimension is
    # the largest of such a cell
    assert dict(flats) == _flats_from_cells(cells)
    assert sum(flat_counts) == len(flats)
    assert sum(counts) == len(cells) == len({c[:2] for c in cells})
    # both searches size the count row by the dimension of {ambient_eqs = 0}
    assert len(counts) == len(flat_counts)
    rows = arr.cuts + arr.walls
    for cut_signs, wall_signs, dim, witness in cells:
        values = [dot(row, witness) for row in rows]
        assert tuple((v > 0) - (v < 0) for v in values) == cut_signs + wall_signs
        assert all(s >= 0 for s in wall_signs)
        assert all(dot(eq, witness) == 0 for eq in arr.ambient_eqs)
        zero_rows = [row for row, v in zip(rows, values) if v == 0]
        assert dim == arr.dim - rank_of(list(arr.ambient_eqs) + zero_rows)
    # the cells subdivide the cone C: the alternating sum of their counts is
    # the Euler characteristic, (-1)^dim C when C is a linear space (a
    # sphere's worth of cells about the origin) and 0 otherwise (a ball's);
    # C is linear when every wall vanishes on it
    linear = not arr.walls or cone_positive(
        list(arr.ambient_eqs), [sum(col) for col in zip(*arr.walls)], arr.walls, arr.dim
    ) is None
    top = max(dim for _, _, dim, _ in cells)
    euler = sum((-1) ** k * c for k, c in enumerate(counts))
    assert euler == ((-1) ** top if linear else 0)


_TAG_IDS = {getattr(wsys, name): name[4:].lower() for name in dir(wsys) if name.startswith("TAG_")}
_ARRANGEMENTS = (
    [(None, n) for n in range(1, 5)]
    + [(tag, n) for tag in wsys.TAGS if tag not in (wsys.TAG_F4, wsys.TAG_G2) for n in (2, 3)]
    + [(wsys.TAG_F4, None), (wsys.TAG_G2, None)]
)
_ARRANGEMENT_IDS = [
    _TAG_IDS.get(tag, "gl_arrangement") + (f"-{n}" if n else "") for tag, n in _ARRANGEMENTS
]


# cones whose whole-cone flat has a nonempty tight set or implicit walls
_DEGENERATE = {
    "zero_cut": Arrangement(2, ((0, 0),), ()),
    "ambient_line": Arrangement(1, ((1,),), (), ((1,),)),
    "implicit_wall": Arrangement(2, ((1, 0),), ((0, 1), (0, -1))),
}


@pytest.mark.parametrize(
    "tag, n",
    _ARRANGEMENTS + [(arr, None) for arr in _DEGENERATE.values()],
    ids=_ARRANGEMENT_IDS + list(_DEGENERATE),
)
def test_flats_match_the_cells_of_the_same_arrangement(tag, n):
    if isinstance(tag, Arrangement):
        arr = tag
    elif tag is None:
        arr = gl_arrangement(n)
    else:
        arr = weight_system(tag, n).arrangement
    _check_cells(arr)


def _reference_closure(arr, T):
    """The per-wall rule: one LP per wall that the rows leave open and no
    earlier witness shows positive, then one kernel of the rows plus the
    implicit walls in Q^dim."""
    rows = [arr.cuts[c] for c in sorted(T)] + list(arr.ambient_eqs)
    free = kernel_basis(rows, arr.dim)
    equalities = []
    points = []
    for wall in arr.walls:
        if all(dot(wall, k) == 0 for k in free):
            equalities.append(wall)
        elif not any(dot(wall, p) for p in points):
            point = cone_positive(rows, wall, arr.walls, arr.dim)
            if point is None:
                equalities.append(wall)
            else:
                points.append(point)
    span = kernel_basis(rows + equalities, arr.dim)
    tight = frozenset(
        c for c, cut in enumerate(arr.cuts) if all(dot(cut, k) == 0 for k in span)
    )
    return tight, len(span)


def _check_closure(arr, T):
    log = []
    with _record_cone_positive(log):
        result = flat_oracle._closure(arr, T, Counter())
    assert result == _reference_closure(arr, T)
    # every LP is posed in the kernel's coordinates, with no equality rows,
    # and only the last sum-of-walls round can be infeasible
    assert all(eq_rows == [] for eq_rows, _ in log)
    assert sum(none for _, none in log) <= 1


@st.composite
def small_arrangements(draw):
    """An integer Arrangement in Q^1..Q^4 with up to five cuts and walls,
    with or without ambient equalities, and a set T of its cuts."""
    dim = draw(st.integers(1, 4))
    row = st.lists(st.integers(-2, 2), min_size=dim, max_size=dim)
    cuts = draw(st.lists(row, min_size=1, max_size=5))
    walls = draw(st.lists(row, max_size=5))
    ambient_eqs = draw(st.lists(row, max_size=2))
    T = draw(st.sets(st.integers(0, len(cuts) - 1)))
    return Arrangement(dim, cuts, walls, ambient_eqs), frozenset(T)


@example((gl_arrangement(3), frozenset({1})))
@example((Arrangement(2, [[1, 0]], [[1, 0], [-1, 0], [0, 1], [0, -1]]), frozenset()))
@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(small_arrangements())
def test_closure_matches_the_per_wall_rule(case):
    _check_closure(*case)


# x + y = 0 cuts the quadrant to its apex, two dimensions down, so the ray
# x = 0 is not covered by that child and needs its own closure
@example((Arrangement(2, [[1, 1], [1, 0]], [[1, 0], [0, 1]]), frozenset()))
@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(small_arrangements())
def test_flat_search_matches_every_closure(case):
    # the search closes each child inside its parent and skips the cuts a
    # codimension-1 child covers; the per-wall rule on every cut set shares
    # neither
    arr = case[0]
    flats, _ = enumerate_generic_flats(arr)
    subsets = itertools.chain.from_iterable(
        itertools.combinations(range(len(arr.cuts)), size) for size in range(len(arr.cuts) + 1)
    )
    assert set(flats) == {_reference_closure(arr, frozenset(T)) for T in subsets}
    assert len(flats) == len(set(flats))


@pytest.mark.parametrize("tag, n", _ARRANGEMENTS, ids=_ARRANGEMENT_IDS)
def test_closure_on_weight_systems_matches_the_per_wall_rule(tag, n):
    arr = gl_arrangement(n) if tag is None else weight_system(tag, n).arrangement
    for size in range(4):
        for T in itertools.combinations(range(len(arr.cuts)), size):
            _check_closure(arr, frozenset(T))


def test_arrangement_rows_have_the_ambient_length():
    arr = Arrangement(2, [[1, 1]], [(1, -1)])
    assert arr.cuts == ((1, 1),) and arr.ambient_eqs == ()
    for bad in ({"cuts": [(1, 0, 0)]}, {"walls": [(1,)]}, {"ambient_eqs": [()]}):
        rows = {"cuts": [(1, 1)], "walls": [(1, -1)], **bad}
        with pytest.raises(ValueError):
            Arrangement(2, **rows)
    # the weight boxes are defined once, with the gl arrangement
    assert inc.weight_indices is arrangement.weight_indices
    assert gl_arrangement(2).cuts == tuple(inc.weight_functional(2, i) for i in inc.weight_indices(2))


@example((Arrangement(2, [[1, 0]], [[1, 0], [-1, 0], [0, 1], [0, -1]]), frozenset()))
@example((Arrangement(3, [[1, 0, 0], [2, 0, 0]], [[-1, 0, 1], [1, 0, 1], [0, -1, 1], [0, 1, 1]]), frozenset()))
@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(small_arrangements())
def test_cells_match_the_flats_and_realize_their_signs(case):
    _check_cells(case[0])


def test_a_cut_through_a_square_cone_takes_the_face_fallback():
    # the cone over a square cut through two opposite edges: each chamber
    # has four facets in Q^3, so neither is simplicial, and the faces come
    # from the flat search over its facets
    square = Arrangement(3, [(1, 0, 0)], [(-1, 0, 1), (1, 0, 1), (0, -1, 1), (0, 1, 1)])
    stats = Counter()
    _, counts = enumerate_generic_cells(square, stats=stats)
    assert counts == [1, 6, 7, 2]
    assert stats["chambers"] == stats["nodes"] == 2 and stats["witness_hits"] == 0
    _check_cells(square)


def test_a_wrong_ray_or_witness_fails_the_certificate(monkeypatch):
    # every ray pointing the wrong way: the pivot guesses fail their check,
    # and the LP facets' rays raise, under python -O too
    real_ray = cell_oracle._ray

    def reversed_ray(*args):
        ray = real_ray(*args)
        return None if ray is None else tuple(-v for v in ray)

    monkeypatch.setattr(cell_oracle, "_ray", reversed_ray)
    with pytest.raises(CertificateError):
        enumerate_cells(2)
    monkeypatch.undo()
    # a witness off its face fails the recheck on the original rows
    real_lift = cell_oracle.lift

    def shifted(coeffs, basis):
        point = real_lift(coeffs, basis)
        return [point[0] + 1] + point[1:]

    monkeypatch.setattr(cell_oracle, "lift", shifted)
    with pytest.raises(CertificateError):
        enumerate_cells(2)


def test_a_wrong_pivot_falls_back_to_the_facet_lps(monkeypatch):
    # a guessed ray moved inside its chamber keeps every signed row >= 0 but
    # leaves its facets: the check turns each guess down, and the LP facet
    # tests decide every chamber, with the same cells
    real = cell_oracle._Fan.pivot

    def inside(fan, *args):
        guess = real(fan, *args)
        if guess is None:
            return None
        facets, rays = guess
        centre = fan.ray(tuple(map(sum, zip(*(v.vector for v in rays)))))
        return facets, [centre] + rays[1:]

    monkeypatch.setattr(cell_oracle._Fan, "pivot", inside)
    patched = enumerate_cells(3)
    monkeypatch.undo()
    assert patched.stats["witness_hits"] == 0 and patched.stats["nodes"] == 8
    assert patched.cells == enumerate_cells(3).cells


def test_long_sign_vectors_need_no_recursion():
    # 1,100 cuts on a point: one slot per level of the walk, deeper than
    # the default recursion limit; only the all-zero sign vector is a cell
    cells, counts = enumerate_generic_cells(Arrangement(0, ((),) * 1100, ()))
    assert counts == [1]
    assert cells == [((0,) * 1100, (), 0, ())]


def test_oracle_imports_no_combinatorial_model():
    # the oracle arbitrates the combinatorial layers, so it must not use them
    banned = {"incidence", "poset", "chambers"}
    found = []
    for path in sorted(Path(weylfan.oracle.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                base = (node.module or "").split(".")
                names = [".".join(base + [alias.name]) for alias in node.names]
            else:
                continue
            for name in names:
                if banned & set(name.split(".")):
                    found.append(f"{path.name}:{node.lineno} imports {name}")
    assert found == []


def test_cli_names_no_cap_default():
    # the cap defaults are the oracle's; the CLI passes --oracle-cap or nothing
    path = Path(weylfan.__file__).parent / "cli.py"
    named = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
        elif isinstance(node, ast.alias):
            named.add(node.name.split(".")[-1])
    assert named & {"CELL_CAP", "FLAT_CAP"} == set()


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


def _reference_proportionality(ws):
    """The pairwise scan: each nonzero weight against the roots in order,
    certified by the first root it is a nonzero multiple of."""
    certificates, failures = [], []
    for w in ws.weights:
        if not any(w):
            continue
        for root in ws.roots:
            k = next(k for k, v in enumerate(root) if v != 0)
            c = Fraction(w[k]) / root[k]
            if c != 0 and all(a == c * b for a, b in zip(w, root)):
                certificates.append((w, root, c))
                break
        else:
            failures.append(w)
    return certificates, failures


def test_certificates_match_the_pairwise_scan():
    # the first root on a weight's hyperplane is the first root in list
    # order that the weight is a multiple of
    classical = [tag for tag in wsys.TAGS if tag not in (wsys.TAG_F4, wsys.TAG_G2)]
    systems = [weight_system(tag, n) for tag in classical for n in range(1, 5)]
    for ws in systems + [weight_system(wsys.TAG_F4), weight_system(wsys.TAG_G2)]:
        report = check_weights_proportional_to_roots(ws)
        certificates = [(c.weight, c.root, c.multiplier) for c in report.certificates]
        assert (certificates, list(report.failures)) == _reference_proportionality(ws)


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
