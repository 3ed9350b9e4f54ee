import itertools
import random
from fractions import Fraction

import pytest

from weylfan import chambers as ch
from weylfan.oracle.arrangement import SignCondition
from weylfan.poset import PosetPoint, all_points, is_chain


def _exhaustive_valid_tableaux(n):
    """Filter every sign array through the validator.  Slow but independent."""
    boxes = [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]
    out = []
    for signs in itertools.product((1, -1), repeat=len(boxes)):
        rows = [[0] * (n - i + 1) for i in range(1, n + 1)]
        for (i, j), v in zip(boxes, signs):
            rows[i - 1][j - i] = v
        try:
            out.append(ch.tableau_validate(rows))
        except (ch.TableauError, ValueError):
            pass
    return out


def _dfs_valid_tableaux(n):
    """Depth-first enumeration of flow-valid sign arrays.

    Boxes are filled in row-major order, so both constrained neighbors of a
    box are already placed when it gets a sign; any locally valid prefix
    completes (with all minuses), which keeps the tree small.
    """
    boxes = [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]
    rows = [[0] * (n - i + 1) for i in range(1, n + 1)]
    found = []

    def admissible(i, j, v):
        if v != 1:
            return True
        if j - 1 >= i and rows[i - 1][j - 1 - i] != 1:
            return False
        if i >= 2 and rows[i - 2][j - (i - 1)] != 1:
            return False
        return True

    def go(idx):
        if idx == len(boxes):
            found.append(tuple(tuple(r) for r in rows))
            return
        i, j = boxes[idx]
        for v in (1, -1):
            if admissible(i, j, v):
                rows[i - 1][j - i] = v
                go(idx + 1)
        rows[i - 1][j - i] = 0

    go(0)
    return found


def _rank(rows):
    m = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        pivot = next((r for r in range(rank, len(m)) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for r in range(len(m)):
            if r != rank and m[r][col] != 0:
                f = m[r][col] / m[rank][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


def test_chamber_validation():
    with pytest.raises(ValueError):
        ch.Chamber(2, (1, 2))  # must be stored decreasing
    with pytest.raises(ValueError):
        ch.chamber_from_subset(2, [3])
    with pytest.raises(ValueError):
        ch.chamber_from_subset(2, [0])
    c = ch.chamber_from_subset(3, {1, 3})
    assert c.subset == (3, 1)
    assert c.char_vector == (1, -1, 1)
    assert c.char_string() == "+-+"


def test_all_chambers_order():
    cs = ch.all_chambers(2)
    assert [c.char_string() for c in cs] == ["--", "-+", "+-", "++"]
    assert cs[0].subset == ()
    for n in range(5):
        assert len(ch.all_chambers(n)) == 2**n
        assert len({c.subset for c in ch.all_chambers(n)}) == 2**n


def test_tableau_text_n2():
    texts = {c.char_string(): c.tableau_text() for c in ch.all_chambers(2)}
    assert texts["--"] == "--\n -"
    assert texts["-+"] == "++\n -"
    assert texts["+-"] == "+-\n -"
    assert texts["++"] == "++\n +"


def test_tableau_text_round_trip():
    for n in range(1, 13):
        for c in ch.all_chambers(n):
            assert ch.tableau_validate(c.tableau_text()) == c
            assert ch.tableau_validate(c.tableau()) == c


def test_tableau_rejection_names_boxes():
    with pytest.raises(ch.TableauError) as err:
        ch.tableau_validate("-+\n -")
    assert err.value.boxes == ((1, 2), (1, 1))
    with pytest.raises(ch.TableauError) as err:
        ch.tableau_validate("+-\n +")
    assert err.value.boxes == ((2, 2), (1, 2))
    with pytest.raises(ValueError):
        ch.tableau_validate("+-\n+-")  # bad row length
    with pytest.raises(ValueError):
        ch.tableau_validate("+?\n -")


def test_tableaux_count_exhaustive():
    for n in range(1, 5):
        found = _exhaustive_valid_tableaux(n)
        assert len(found) == 2**n
        assert {c.subset for c in found} == {c.subset for c in ch.all_chambers(n)}


def test_tableaux_count_dfs():
    for n in range(1, 7):
        found = _dfs_valid_tableaux(n)
        assert len(found) == 2**n
        validated = {ch.tableau_validate(rows).subset for rows in found}
        assert validated == {c.subset for c in ch.all_chambers(n)}


def test_interior_point_matches_tableau():
    for n in range(1, 7):
        for c in ch.all_chambers(n):
            x = c.interior_point()
            assert sorted(abs(v) for v in x) == list(range(1, n + 1))
            assert all(x[i] >= x[i + 1] for i in range(n - 1))
            for i in range(1, n + 1):
                for j in range(i, n + 1):
                    lam = x[i - 1] + x[j - 1]
                    assert lam != 0
                    assert (1 if lam > 0 else -1) == c.sign(i, j)


def test_classify_interior_points():
    for n in range(1, 9):
        for c in ch.all_chambers(n):
            assert ch.classify_point(n, c.interior_point()) == c


def test_classify_frozen_examples():
    assert ch.classify_point(2, (1, -3)) == ch.chamber_from_subset(2, {1})
    assert ch.classify_point(2, (3, -1)) == ch.chamber_from_subset(2, {2})
    sig = ch.classify_point(2, (1, -1))
    assert sig == SignCondition(2, (1, 0, -1), (1,))
    origin = ch.classify_point(2, (0, 0))
    assert origin.weight_signs == (0, 0, 0)
    assert origin.root_signs == (0,)
    # nonzero weights but a tied pair is still not generic
    tied = ch.classify_point(2, (2, 2))
    assert tied == SignCondition(2, (1, 1, 1), (0,))
    with pytest.raises(ValueError):
        ch.classify_point(2, (0, 1))
    with pytest.raises(ValueError):
        ch.classify_point(3, (1, 0))


def test_extreme_rays_frozen():
    c = ch.chamber_from_subset(3, {2})
    assert ch.extreme_rays(c) == ((0, 0, -1), (1, 0, -1), (1, -1, -1))
    full = ch.chamber_from_subset(3, {1, 2, 3})
    assert ch.extreme_rays(full) == ((1, 0, 0), (1, 1, 0), (1, 1, 1))
    empty = ch.chamber_from_subset(3, set())
    assert ch.extreme_rays(empty) == ((0, 0, -1), (0, -1, -1), (-1, -1, -1))


def test_extreme_rays_form_chain():
    for n in range(1, 9):
        index = {ch.ray_from_index(n, p): p for p in all_points(n)}
        for c in ch.all_chambers(n):
            rays = ch.extreme_rays(c)
            points = [index[r] for r in rays]
            assert [p.level for p in points] == list(range(1, n + 1))
            assert is_chain(tuple(points))
            assert _rank(rays) == n


def test_ray_index_rejects_garbage():
    with pytest.raises(ValueError):
        ch.ray_from_index(3, PosetPoint(0, 0))
    with pytest.raises(ValueError):
        ch.ray_from_index(2, PosetPoint(2, 1))


def test_positive_combinations_classify_back():
    rng = random.Random(20250825)
    for n in range(1, 7):
        cs = ch.all_chambers(n)
        for _ in range(60):
            c = rng.choice(cs)
            rays = ch.extreme_rays(c)
            coeffs = [
                Fraction(rng.randint(1, 40), rng.randint(1, 40)) for _ in rays
            ]
            x = [
                sum(t * r[i] for t, r in zip(coeffs, rays)) for i in range(n)
            ]
            assert ch.classify_point(n, x) == c


def test_boundary_combinations_are_not_generic():
    # dropping one ray lands on the boundary of the cone
    rng = random.Random(1106)
    for n in range(2, 7):
        cs = ch.all_chambers(n)
        for _ in range(40):
            c = rng.choice(cs)
            rays = list(ch.extreme_rays(c))
            dropped = rng.randrange(n)
            coeffs = [
                Fraction(0) if i == dropped else Fraction(rng.randint(1, 9))
                for i in range(n)
            ]
            x = [
                sum(t * r[i] for t, r in zip(coeffs, rays)) for i in range(n)
            ]
            assert isinstance(ch.classify_point(n, x), SignCondition)
