"""Counting engine: frozen golden tables (arbitrated values), multi-way
agreement between independent computing paths, the convolution identities,
and the errata record."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylfan import counting as ct
from weylfan.poset import chain_count, enumerate_chains, enumerate_ensembles

# Golden tables, n = 0..10.  Values arbitrated by enumeration where the
# published readings disagree: (1,1) -> 2, (6,1) -> 27, (10,8) -> 23552; see
# data/errata.json.
GOLDEN_G = [
    [1],
    [1, 2],
    [1, 5, 4],
    [1, 9, 16, 8],
    [1, 14, 41, 44, 16],
    [1, 20, 85, 146, 112, 32],
    [1, 27, 155, 377, 456, 272, 64],
    [1, 35, 259, 833, 1408, 1312, 640, 128],
    [1, 44, 406, 1652, 3649, 4712, 3568, 1472, 256],
    [1, 54, 606, 3024, 8361, 14002, 14608, 9312, 3328, 512],
    [1, 65, 870, 5202, 17469, 36365, 48940, 42800, 23552, 7424, 1024],
]

GOLDEN_H = [
    [1],
    [1, 1],
    [1, 3, 1],
    [1, 5, 6, 1],
    [1, 8, 14, 10, 1],
    [1, 12, 29, 31, 15, 1],
    [1, 17, 54, 79, 60, 21, 1],
    [1, 23, 93, 175, 183, 106, 28, 1],
    [1, 30, 151, 352, 471, 380, 175, 36, 1],
    [1, 38, 234, 659, 1082, 1119, 728, 274, 45, 1],
    [1, 47, 349, 1166, 2286, 2894, 2426, 1310, 411, 55, 1],
]


@pytest.mark.parametrize("n", range(len(GOLDEN_G)))
def test_g_golden_all_paths(n):
    row = GOLDEN_G[n]
    assert [ct.g_recurrence(n, k) for k in range(n + 1)] == row
    assert [ct.g_linear_recurrence(n, k) for k in range(n + 1)] == row
    assert [ct.g_closed_form(n, k) for k in range(n + 1)] == row
    assert [ct.g_near_top(n, n - k) for k in range(n + 1)] == row
    assert list(ct.g_polynomial(n)) == row
    series = ct.g_series(10)
    assert [series.coeff(n, k) for k in range(n + 1)] == row


@pytest.mark.parametrize("n", range(len(GOLDEN_H)))
def test_h_golden_all_paths(n):
    row = GOLDEN_H[n]
    assert [ct.h_recurrence(n, k) for k in range(n + 1)] == row
    assert [ct.h_linear_recurrence(n, k) for k in range(n + 1)] == row
    series = ct.h_series(10)
    assert [series.coeff(n, k) for k in range(n + 1)] == row


def test_agreement_to_25():
    gs = ct.g_series(300)
    hs = ct.h_series(300)
    for n in [*range(26), 300]:
        for k in range(n + 1):
            g = ct.g_recurrence(n, k)
            assert g == ct.g_linear_recurrence(n, k)
            assert g == gs.coeff(n, k)
            h = ct.h_recurrence(n, k)
            assert h == ct.h_linear_recurrence(n, k)
            assert h == hs.coeff(n, k)
            if n <= 25:
                assert g == ct.g_closed_form(n, k)
                assert g == ct.g_near_top(n, n - k)
                assert g == ct.g_polynomial(n)[k]


def test_large_n_without_recursion():
    h_row = [ct.h_linear_recurrence(300, k) for k in range(301)]
    assert h_row == [ct.h_recurrence(300, k) for k in range(301)]
    g_row = list(ct.g_polynomial(1200))
    assert [ct.g_linear_recurrence(1200, k) for k in range(1201)] == g_row
    assert ct.g_recurrence(1200, 600) == g_row[600]
    assert ct.h_recurrence(500, 250) == ct.h_linear_recurrence(500, 250)
    # rho(., k) is the double running sum of h(., k) over the rank
    second_difference = ct.rho(1200, 600) - 2 * ct.rho(1199, 600) + ct.rho(1198, 600)
    assert second_difference == ct.h_recurrence(1200, 600) > 0


@settings(derandomize=True, database=None, deadline=None)
@given(st.integers(0, 80), st.integers(-1, 81))
def test_recurrence_sums_hold(n, k):
    """The public g, h and rho satisfy the sums in their docstrings."""
    g_sum = sum((l + 1) * ct.g_recurrence(n - l, k - 1) for l in range(1, n - k + 2))
    assert ct.g_recurrence(n, k) == ((k == 0) + g_sum if 0 <= k <= n else 0)
    h_sum = sum((l + 1) * ct.rho(n - l - 2, k - l - 1) for l in range(n))
    assert ct.h_recurrence(n, k) == ((n == k) + h_sum if 0 <= k <= n else 0)
    rho_sum = sum((l + 1) * ct.h_recurrence(n - l, k) for l in range(n + 1))
    assert ct.rho(n, k) == ((k == -1) + rho_sum if k <= n else 0)


@settings(derandomize=True, database=None, deadline=None)
@given(st.integers(0, 400).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n))))
def test_face_paths_agree_at_random_n(nk):
    n, k = nk
    g = ct.g_recurrence(n, k)
    assert g == ct.g_linear_recurrence(n, k) == ct.g_closed_form(n, k)


def test_g_by_enumeration():
    for n in range(7):
        for k in range(n + 1):
            assert ct.g_recurrence(n, k) == chain_count(n, k)
            assert ct.g_recurrence(n, k) == sum(1 for _ in enumerate_chains(n, k))


def test_h_by_enumeration():
    for n in range(7):
        for k in range(n + 1):
            assert ct.h_recurrence(n, k) == sum(1 for _ in enumerate_ensembles(n, k))


def test_diagonals_and_edges():
    for n in range(30):
        assert ct.g_recurrence(n, n) == 2**n
        assert ct.h_recurrence(n, n) == 1
        assert ct.g_recurrence(n, 0) == 1
        assert ct.h_recurrence(n, 0) == 1
    assert ct.g_recurrence(-1, 0) == 0
    assert ct.h_recurrence(3, 5) == 0


def test_pinned_values():
    assert ct.h_recurrence(6, 3) == 79
    assert ct.g_near_top(5, 1) == 2**3 * 14 == 112
    assert ct.g_near_top(7, 0) == 2**7
    # One printed reading gives n(n+3)/3 = 18 here; the arbitrated value is
    # n(n+3)/2 = 27 (see data/errata.json, faces-6-1).
    assert ct.g_closed_form(6, 1) == 27


def test_rho_values():
    # rho(2,1) = 5: {*}+(1,0); {*}+(0,1); {*}+(1,1); cone over (1,0); cone
    # over (0,1) -- enumerated brute force in test_poset.  The uncorrected
    # published recursion would give 4.
    assert ct.rho(2, 1) == 5
    assert ct.rho(2, 0) == 6
    assert ct.rho(0, 0) == 1
    for n in range(-1, 8):
        assert ct.rho(n, -1) == 1
    assert ct.rho(-2, -1) == 0
    assert ct.rho(3, 4) == 0


def test_rho_matches_pseudo_enumeration():
    from weylfan.poset import enumerate_pseudo_ensembles

    for n in range(5):
        for k in range(-1, n + 1):
            assert ct.rho(n, k) == sum(1 for _ in enumerate_pseudo_ensembles(n, k))


def test_convolution_identities_order_30():
    gs = ct.g_series(34)
    hs = ct.h_series(34)
    for n in range(31):
        for k in range(31):
            want_g = 1 if (n, k) == (0, 0) else (-1 if (n, k) == (1, 0) else 0)
            assert ct.series_product_coeff(ct.G_DENOMINATOR, gs, n, k) == want_g
            want_h = ct.H_NUMERATOR.get((n, k), 0)
            assert ct.series_product_coeff(ct.H_DENOMINATOR, hs, n, k) == want_h


def test_expand_rational_errors():
    with pytest.raises(ValueError):
        ct.expand_rational({(0, 0): 1}, {(1, 0): 1}, 5, 5)
    # 1/(1-2s) is fine and integer
    s = ct.expand_rational({(0, 0): 1}, {(0, 0): 1, (1, 0): -2}, 6, 0)
    assert [s.coeff(i, 0) for i in range(7)] == [2**i for i in range(7)]


def test_errata_record():
    data = ct.load_errata()
    assert data["version"] == 1
    known = [e for e in ct.errata_entries() if e["status"] == "known-typo"]
    assert {(e["n"], e["k"]) for e in known} == {(6, 1), (10, 8)}
    flagged = [e for e in ct.errata_entries() if e["status"] == "flagged-print"]
    assert [(e["n"], e["k"]) for e in flagged] == [(1, 1)]
    for e in ct.errata_entries():
        assert e["adopted"] == GOLDEN_G[e["n"]][e["k"]]
        assert any(v != e["adopted"] for v in e["printed"].values()) or e["id"] == "faces-6-1"
    adopted = {(e["table"], e["n"], e["k"]): e["adopted"] for e in ct.errata_entries()}
    assert adopted[("faces", 10, 8)] == 23552
    assert ("faces", 3, 1) not in adopted
    ids = {note["id"] for note in data["formula_notes"]}
    assert "pseudo-recursion-level-factor" in ids
    assert "flat-linear-recurrence-coefficient" in ids
