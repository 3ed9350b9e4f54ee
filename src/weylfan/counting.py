"""Every counting path for faces (g) and flats (h) of the restricted weight
arrangement: direct recurrences, linear recurrences, closed forms, and
rational bivariate series expansion.  All arithmetic is arbitrary precision;
the independent paths are cross-checked against each other and against
enumeration in the test suite, with the handful of discrepancies in the
published reference values recorded in data/errata.json.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from importlib import resources
from math import comb
from typing import Mapping

_memo: dict[tuple[str, int, int], int] = {}


def g_recurrence(n: int, k: int) -> int:
    """Face counts g(n, k) by the grouping-by-top-level recurrence.

    g(n, k) = [k = 0] + sum_{l=1}^{n-k+1} (l+1) g(n-l, k-1); a k-chain either
    is empty or has its maximum on one of the l+1 points of a level, with the
    part below living in a translated smaller poset.
    """
    if n < 0 or k < 0 or k > n:
        return 0
    return _g_rec(n, k)


def _g_rec(n: int, k: int) -> int:
    if n < 0 or k < 0 or k > n:
        return 0
    key = ("g", n, k)
    if key in _memo:
        return _memo[key]
    value = (1 if k == 0 else 0) + sum(
        (l + 1) * _g_rec(n - l, k - 1) for l in range(1, n - k + 2)
    )
    _memo[key] = value
    return value


def rho(n: int, k: int) -> int:
    """Pseudo-ensemble counts; grounded by rho(-1, -1) = 1 (the empty union).

    The published statement of this recursion omits the size of the level
    being grouped over; the factor (l+1) below is forced by the published
    flat table from row 2 on and by brute-force enumeration (rho(2,1) = 5).
    See data/errata.json, formula note "pseudo-recursion-level-factor".
    """
    return _rho(n, k)


def h_recurrence(n: int, k: int) -> int:
    """Flat counts h(n, k) by the mutual recursion with rho, jointly memoized."""
    return _h_rec(n, k)


def _rho(n: int, k: int) -> int:
    if n < -1 or k < -1 or k > n:
        return 0
    if n == -1:
        return 1 if k == -1 else 0
    key = ("rho", n, k)
    if key in _memo:
        return _memo[key]
    value = (1 if k == -1 else 0) + sum((l + 1) * _h_rec(n - l, k) for l in range(n + 1))
    _memo[key] = value
    return value


def _h_rec(n: int, k: int) -> int:
    if n < 0 or k < 0 or k > n:
        return 0
    key = ("h", n, k)
    if key in _memo:
        return _memo[key]
    value = (1 if n == k else 0) + sum(
        (l + 1) * _rho(n - l - 2, k - l - 1) for l in range(n)
    )
    _memo[key] = value
    return value


@lru_cache(maxsize=None)
def _g_linear_row(n: int) -> tuple[int, ...]:
    if n == 0:
        return (1,)
    if n == 1:
        return (1, 2)
    prev, prev2 = _g_linear_row(n - 1), _g_linear_row(n - 2)

    def at(row, k):
        return row[k] if 0 <= k < len(row) else 0

    return tuple(
        2 * at(prev, k) - at(prev2, k) + 2 * at(prev, k - 1) - at(prev2, k - 1)
        for k in range(n + 1)
    )


def g_linear_recurrence(n: int, k: int) -> int:
    """g by the four-term linear recurrence in n and k (rows 0 and 1 seeded)."""
    if n < 0 or k < 0 or k > n:
        return 0
    return _g_linear_row(n)[k]


@lru_cache(maxsize=None)
def _h_linear_row(n: int) -> tuple[int, ...]:
    base = {0: (1,), 1: (1, 1), 2: (1, 3, 1), 3: (1, 5, 6, 1)}
    if n in base:
        return base[n]

    def at(m, k):
        row = _h_linear_row(m)
        return row[k] if 0 <= k < len(row) else 0

    # The k-2 block's middle coefficient is 2, not the 3 that appears in
    # print: see data/errata.json, "flat-linear-recurrence-coefficient".
    return tuple(
        2 * at(n - 1, k)
        - at(n - 2, k)
        + 2 * at(n - 1, k - 1)
        - 3 * at(n - 2, k - 1)
        + 2 * at(n - 3, k - 1)
        - at(n - 2, k - 2)
        + 2 * at(n - 3, k - 2)
        - at(n - 4, k - 2)
        for k in range(n + 1)
    )


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


@lru_cache(maxsize=None)
def g_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of G_n(t) by the three-term polynomial recurrence
    G_n = (2 + 2t) G_{n-1} - (1 + t) G_{n-2}, the integer-arithmetic
    equivalent of the surd closed form."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return (1,)
    if n == 1:
        return (1, 2)
    p1, p2 = g_polynomial(n - 1), g_polynomial(n - 2)

    def at(row, k):
        return row[k] if 0 <= k < len(row) else 0

    return tuple(
        2 * at(p1, k) + 2 * at(p1, k - 1) - at(p2, k) - at(p2, k - 1)
        for k in range(n + 1)
    )


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


@dataclass(frozen=True)
class BiSeries:
    """Truncated bivariate power series sum c(n,k) s^n t^k, exact coefficients."""

    max_n: int
    max_k: int
    rows: tuple[tuple[int, ...], ...]

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
    rows = [[0] * (max_k + 1) for _ in range(max_n + 1)]
    for n in range(max_n + 1):
        for k in range(max_k + 1):
            acc = Fraction(P.get((n, k), 0))
            for (i, j), q in Q.items():
                if (i, j) != (0, 0) and i <= n and j <= k:
                    acc -= q * rows[n - i][k - j]
            acc /= q0
            if acc.denominator != 1:
                raise ValueError(f"non-integer series coefficient at ({n}, {k})")
            rows[n][k] = int(acc)
    return BiSeries(max_n, max_k, tuple(tuple(r) for r in rows))


@lru_cache(maxsize=None)
def g_series(max_n: int) -> BiSeries:
    return expand_rational(G_NUMERATOR, G_DENOMINATOR, max_n, max_n)


@lru_cache(maxsize=None)
def h_series(max_n: int) -> BiSeries:
    return expand_rational(H_NUMERATOR, H_DENOMINATOR, max_n, max_n)


def series_product_coeff(A: Poly2, S: BiSeries, n: int, k: int) -> int:
    """Coefficient of s^n t^k in the product of the polynomial A with S."""
    return sum(
        a * S.coeff(n - i, k - j) for (i, j), a in A.items() if i <= n and j <= k
    )


# --- tables and emission -----------------------------------------------------


@dataclass(frozen=True)
class CountTable:
    """Rows (n, k, value) of a face or flat count, tagged with how each value
    was obtained."""

    kind: str  # "faces" | "flats"
    entries: tuple[tuple[int, int, int, str], ...]

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["table", "n", "k", "value", "provenance"])
        for n, k, v, prov in self.entries:
            writer.writerow([self.kind, n, k, v, prov])
        return buf.getvalue()

    def to_json(self) -> str:
        payload = {
            "table": self.kind,
            "entries": [
                {"n": n, "k": k, "value": v, "provenance": prov}
                for (n, k, v, prov) in self.entries
            ],
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))


# --- errata ------------------------------------------------------------------


@lru_cache(maxsize=None)
def load_errata() -> dict:
    """The versioned errata record: known typos in the published reference
    values, with every printed reading, the adopted value and the arbiter."""
    text = resources.files("weylfan").joinpath("data/errata.json").read_text("utf-8")
    return json.loads(text)


def errata_entries(status: str | None = None) -> list[dict]:
    entries = load_errata()["entries"]
    if status is None:
        return list(entries)
    return [e for e in entries if e["status"] == status]


def adopted_value(table: str, n: int, k: int) -> int | None:
    """The arbitrated value for a flagged table entry, or None if unflagged."""
    for e in load_errata()["entries"]:
        if e["table"] == table and e["n"] == n and e["k"] == k:
            return e["adopted"]
    return None
