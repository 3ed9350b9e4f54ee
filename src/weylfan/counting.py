"""Every counting path for faces (g) and flats (h) of the restricted weight
arrangement: direct recurrences, linear recurrences, closed forms, and
rational bivariate series expansion.  All arithmetic is arbitrary precision;
the independent paths are cross-checked against each other and against
enumeration in the test suite, with the handful of discrepancies in the
published reference values recorded in data/errata.json.  This module
only computes and loads that errata record; the CLI renders every row.

Every recurrence is a loop that builds its table upward, one row at a time
from the rows below it, so no function recurses and any n works.  The
(l+1)-weighted sums of the direct recurrences are carried as running sums,
so each entry costs O(1) additions.  Each row function caches its last
_ROWS_KEPT results, enough for a caller that walks one row entry by entry.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from typing import Mapping

from .record import Record

_ROWS_KEPT = 4


def g_recurrence(n: int, k: int) -> int:
    """Face counts g(n, k) by the grouping-by-top-level recurrence.

    g(n, k) = [k = 0] + sum_{l=1}^{n-k+1} (l+1) g(n-l, k-1); a k-chain either
    is empty or has its maximum on one of the l+1 points of a level, with the
    part below living in a translated smaller poset.
    """
    if n < 0 or k < 0 or k > n:
        return 0
    return _g_row(n)[k]


@lru_cache(maxsize=_ROWS_KEPT)
def _g_row(n: int) -> tuple[int, ...]:
    """Row n of g.  Over the rows j < m built so far, A[k] = sum_j g(j, k)
    and S[k] = sum_j (m - j) g(j, k), so g(m, k) = [k = 0] + S[k-1] + A[k-1].
    """
    A = [0] * (n + 1)
    S = [0] * (n + 1)
    for m in range(n + 1):
        row = [1] + [S[k - 1] + A[k - 1] for k in range(1, m + 1)]
        for k, v in enumerate(row):
            A[k] += v
            S[k] += A[k]
    return tuple(row)


def rho(n: int, k: int) -> int:
    """Pseudo-ensemble counts; grounded by rho(-1, -1) = 1 (the empty union).

    rho(n, k) = [k = -1] + sum_{l=0}^{n} (l+1) h(n-l, k) for n >= 0.  The
    published statement of this recursion omits the size of the level
    being grouped over; the factor (l+1) is forced by the published
    flat table from row 2 on and by brute-force enumeration (rho(2,1) = 5).
    See data/errata.json, formula note "pseudo-recursion-level-factor".
    """
    if n < -1 or k < -1 or k > n:
        return 0
    if n == -1:
        return 1
    return _flat_rows(n)[1][k + 1]


def h_recurrence(n: int, k: int) -> int:
    """Flat counts h(n, k) by the mutual recursion with rho:
    h(n, k) = [n = k] + sum_{l=0}^{n-1} (l+1) rho(n-l-2, k-l-1)."""
    if n < 0 or k < 0 or k > n:
        return 0
    return _flat_rows(n)[0][k]


@lru_cache(maxsize=_ROWS_KEPT)
def _flat_rows(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Row n of h and row n of rho, the latter indexed from k = -1.

    Over the h rows j <= m, C[k] = sum_j h(j, k) and
    U[k] = sum_j (m-j+1) h(j, k), so rho(m, k) = U[k] for k >= 0.  The rho
    entries in h(m, k)'s sum lie on one diagonal d = m-k-1 = i - k' of
    rho(i, k'); over the rho rows i <= m-2, B[d] = sum_i rho(i, i-d) and
    T[d] = sum_i (m-1-i) rho(i, i-d), so h(m, k) = [m = k] + T[m-k-1].
    """
    B, T, C, U = ([0] * (n + 1) for _ in range(4))
    rho_row = (1,)  # row m-1, starting from rho(-1, -1) = 1
    for m in range(n + 1):
        h_row = [T[m - 1 - k] for k in range(m)] + [1]
        for k, v in enumerate(h_row):
            C[k] += v
            U[k] += C[k]
        for d in range(m + 1):  # fold rho row m-1 in, ready for h row m+1
            B[d] += rho_row[m - d]
            T[d] += B[d]
        rho_row = (1, *U[: m + 1])
    return tuple(h_row), rho_row


def g_linear_recurrence(n: int, k: int) -> int:
    """g by the four-term linear recurrence in n and k (rows 0 and 1 seeded):
    g(n, k) = 2g(n-1, k) - g(n-2, k) + 2g(n-1, k-1) - g(n-2, k-1), the
    coefficients of g_polynomial's recurrence."""
    if n < 0 or k < 0 or k > n:
        return 0
    return g_polynomial(n)[k]


_H_SEED_ROWS = ((1,), (1, 1), (1, 3, 1), (1, 5, 6, 1))


@lru_cache(maxsize=_ROWS_KEPT)
def _h_linear_row(n: int) -> tuple[int, ...]:
    if n < 4:
        return _H_SEED_ROWS[n]
    # rows m-4 .. m-1, each with two zeros at either end: p[k + 2] is entry k
    pad = (0, 0)
    p4, p3, p2, p1 = (pad + row + pad for row in _H_SEED_ROWS)
    for m in range(4, n + 1):
        # The k-2 block's middle coefficient is 2, not the 3 that appears in
        # print: see data/errata.json, "flat-linear-recurrence-coefficient".
        row = tuple(
            2 * p1[k + 2]
            - p2[k + 2]
            + 2 * p1[k + 1]
            - 3 * p2[k + 1]
            + 2 * p3[k + 1]
            - p2[k]
            + 2 * p3[k]
            - p4[k]
            for k in range(m + 1)
        )
        p4, p3, p2, p1 = p3, p2, p1, pad + row + pad
    return p1[2:-2]


def h_linear_recurrence(n: int, k: int) -> int:
    """h by the eight-term linear recurrence (rows 0..3 seeded)."""
    if n < 0 or k < 0 or k > n:
        return 0
    return _h_linear_row(n)[k]


def g_closed_form(n: int, k: int) -> int:
    """g as an alternating binomial sum: sum_i (-1)^(k-i) 2^i C(k,i) C(n+i,2k)."""
    if n < 0 or k < 0 or k > n:
        return 0
    return sum((-1) ** (k - i) * 2**i * comb(k, i) * comb(n + i, 2 * k) for i in range(k + 1))


def g_near_top(n: int, k: int) -> int:
    """g(n, n-k) by the near-diagonal closed form (k levels below the top)."""
    if n < 0 or k < 0 or k > n:
        return 0
    total = 0
    for i in range(min(k, (n + 1) // 2) + 1):
        tail = comb(n - i + 1, i) + (comb(n - i, i - 1) if i >= 1 else 0)
        total += (-1) ** i * 2 ** (n - 2 * i) * comb(n - i, k - i) * tail
    return total


@lru_cache(maxsize=_ROWS_KEPT)
def g_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of G_n(t) by the three-term polynomial recurrence
    G_n = (2 + 2t) G_{n-1} - (1 + t) G_{n-2} = (1 + t)(2 G_{n-1} - G_{n-2}),
    the integer-arithmetic equivalent of the surd closed form."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    p2, p1 = (1,), (1, 2)  # G_{m-2}, G_{m-1}
    if n == 0:
        return p2
    for _ in range(2, n + 1):
        u = [2 * a - b for a, b in zip(p1, p2 + (0,))]
        p2, p1 = p1, tuple(a + b for a, b in zip(u + [0], [0] + u))
    return p1


# --- bivariate rational series ----------------------------------------------

Poly2 = Mapping[tuple[int, int], int]

# G(s,t) = (1 - s) / (1 - 2s + s^2 - 2st + s^2 t)
G_NUMERATOR: Poly2 = {(0, 0): 1, (1, 0): -1}
G_DENOMINATOR: Poly2 = {(0, 0): 1, (1, 0): -2, (2, 0): 1, (1, 1): -2, (2, 1): 1}

# H(s,t) = (1 - s)(1 - st + s^2 t) / ((1-s)^2 (1-st)^2 - s^2 t)
H_NUMERATOR: Poly2 = {(0, 0): 1, (1, 0): -1, (1, 1): -1, (2, 1): 2, (3, 1): -1}
H_DENOMINATOR: Poly2 = {
    (0, 0): 1,
    (1, 0): -2,
    (2, 0): 1,
    (1, 1): -2,
    (2, 1): 3,
    (3, 1): -2,
    (2, 2): 1,
    (3, 2): -2,
    (4, 2): 1,
}


class BiSeries(Record):
    """Truncated bivariate power series sum c(n,k) s^n t^k, exact coefficients."""

    __slots__ = ("max_n", "max_k", "rows")

    def __init__(self, max_n: int, max_k: int, rows: tuple[tuple[int, ...], ...]) -> None:
        object.__setattr__(self, "max_n", max_n)
        object.__setattr__(self, "max_k", max_k)
        object.__setattr__(self, "rows", rows)

    def coeff(self, n: int, k: int) -> int:
        if 0 <= n <= self.max_n and 0 <= k <= self.max_k:
            return self.rows[n][k]
        return 0


def expand_rational(P: Poly2, Q: Poly2, max_n: int, max_k: int) -> BiSeries:
    """Coefficients of P/Q as a power series in s (degree n) and t (degree k).

    Q must have a nonzero constant term; coefficients that fail to be integers
    would indicate corrupted inputs and raise.
    """
    q0 = Q.get((0, 0), 0)
    if q0 == 0:
        raise ValueError("denominator has zero constant term; series undefined")
    terms = [(i, j, q) for (i, j), q in Q.items() if (i, j) != (0, 0)]
    rows = [[0] * (max_k + 1) for _ in range(max_n + 1)]
    for n in range(max_n + 1):
        for k in range(max_k + 1):
            acc = P.get((n, k), 0)
            for i, j, q in terms:
                if i <= n and j <= k:
                    acc -= q * rows[n - i][k - j]
            value, rest = divmod(acc, q0)
            if rest:
                raise ValueError(f"non-integer series coefficient at ({n}, {k})")
            rows[n][k] = value
    return BiSeries(max_n, max_k, tuple(tuple(r) for r in rows))


@lru_cache(maxsize=_ROWS_KEPT)
def g_series(max_n: int) -> BiSeries:
    return expand_rational(G_NUMERATOR, G_DENOMINATOR, max_n, max_n)


@lru_cache(maxsize=_ROWS_KEPT)
def h_series(max_n: int) -> BiSeries:
    return expand_rational(H_NUMERATOR, H_DENOMINATOR, max_n, max_n)


def series_product_coeff(A: Poly2, S: BiSeries, n: int, k: int) -> int:
    """Coefficient of s^n t^k in the product of the polynomial A with S."""
    return sum(
        a * S.coeff(n - i, k - j) for (i, j), a in A.items() if i <= n and j <= k
    )


# --- errata ------------------------------------------------------------------


@lru_cache(maxsize=None)
def load_errata() -> dict:
    """The versioned errata record: known typos in the published reference
    values, with every printed reading, the adopted value and the arbiter."""
    import json
    from importlib import resources

    text = resources.files("weylfan").joinpath("data/errata.json").read_text("utf-8")
    return json.loads(text)


def errata_entries(status: str | None = None) -> list[dict]:
    entries = load_errata()["entries"]
    if status is None:
        return list(entries)
    return [e for e in entries if e["status"] == status]

