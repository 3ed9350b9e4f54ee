"""Small exact simplex solver plus the two feasibility questions the oracle
actually asks: strict feasibility of a sign system, and whether a functional
can be made positive on a cone.

Strict inequalities are handled the standard way: maximize a single margin
variable t subject to every strict constraint shifted by it and to the cap
t <= 1; the open set is non-empty iff the optimum is positive.  With exactly
one strict row there is no margin column: the row is itself the objective,
capped at row . x <= 1.  Pivoting follows Bland's rule (Bland 1977, Math.
Oper. Res. 2(2)), so no basis repeats and the simplex terminates.

Both questions share one textbook tableau over the kernel of the
equalities.  Its variables are y = p - q with x = sum_j y_j B_j, the B_j the
primitive int kernel vectors of `kernel_basis`: rows go in by
`linalg.restrict` and the solution comes back by `linalg.lift`.  With no
equalities the B_j are the unit vectors, so neither is needed.  Every input
row enters once through `linalg.integer_row`, so it stands for its positive
multiples as every row does in `linalg`.  Every slack, margin and cap
coefficient is 1, and the right-hand side is (0, ..., 0, 1): zero on the
strict and weak rows, one on the cap.

The tableau is exact and fraction-free: its rows are integer rows that stand
for their positive multiples, and a pivot is one `linalg.eliminate` step per
row, the same step that computes ranks and kernels.  `simplex_max` reads its
value and solution back as Fractions; both questions answer with the int
point that their certificate check evaluates, a positive multiple of the
optimum, so no Fraction leaves them.  Rows of a length other than the
dimension are refused.  A `stats` Counter passed to either question counts
its LP calls and pivots.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from .linalg import check_lengths, dot, eliminate, integer_row, kernel_basis, lift, restrict

_ZERO = Fraction(0)


class UnboundedProgram(RuntimeError):
    pass


class CertificateError(RuntimeError):
    """An LP optimum whose witness does not satisfy the system it answers."""


def simplex_max(rows, rhs, objective, basis, *, stats=None):
    """Maximize objective over {rows . x = rhs, x >= 0}.

    rows and rhs are ints; the objective may hold Fractions.  basis must name
    one column per row, with a positive entry in its own row and zeros in
    every other row (not necessarily 1), and rhs >= 0: an all-slack start in
    every use below.  Returns the optimal value and the primal solution.

    The entering column is the lowest-index one with a negative reduced
    cost, and the leaving row the one with the least ratio, ties going to
    the lowest basic index: Bland's rule, under which no basis repeats, so
    the loop ends also on a degenerate program.

    The objective row carries its own positive scale in column ncols, which
    never enters the basis; the right-hand side is the last column.  Every
    entering pivot is positive, so every row keeps a positive scale and the
    signs and ratios that steer the pivoting are those of the rational
    tableau.
    """
    ncols = len(objective)
    tab = [[*row, 0, b] for row, b in zip(rows, rhs)]
    z = integer_row([*(-c for c in objective), 1, 0])
    basis = list(basis)
    for r, col in enumerate(basis):
        if z[col]:
            z = eliminate(z, tab[r], col)
    while True:
        entering = next((j for j in range(ncols) if z[j] < 0), None)
        if entering is None:
            solution = [_ZERO] * ncols
            for row, col in zip(tab, basis):
                solution[col] = Fraction(row[-1], row[col])
            return Fraction(z[-1], z[-2]), solution
        leaving = None
        for r, row in enumerate(tab):
            a = row[entering]
            if a > 0:
                if leaving is None:
                    leaving = r
                    continue
                # b_r / a_r against the best ratio so far, cross-multiplied
                best_row = tab[leaving]
                diff = row[-1] * best_row[entering] - best_row[-1] * a
                if diff < 0 or (diff == 0 and basis[r] < basis[leaving]):
                    leaving = r
        if leaving is None:
            raise UnboundedProgram("objective is unbounded on the feasible cone")
        if stats is not None:
            stats["pivots"] += 1
        lead = tab[leaving]
        for r, row in enumerate(tab):
            if r != leaving and row[entering]:
                tab[r] = eliminate(row, lead, entering)
        if z[entering]:
            z = eliminate(z, lead, entering)
        basis[leaving] = entering


def _margin_lp(eq_rows, strict_rows, weak_rows, dim, stats):
    """Witness of {eq = 0, strict > 0, weak >= 0}, or None: the margin LP
    described in the module docstring, over the kernel of the equalities.
    With no equalities the kernel is the identity, and the rows enter as
    they are."""
    check_lengths([*eq_rows, *strict_rows, *weak_rows], dim)
    if stats is not None:
        stats["lp_calls"] += 1
    if eq_rows:
        basis_vecs = kernel_basis(eq_rows, dim)
        d = len(basis_vecs)
        strict_proj = restrict(strict_rows, basis_vecs)
        weak_proj = restrict(weak_rows, basis_vecs)
    else:
        basis_vecs, d = None, dim
        strict_proj = [integer_row(row) for row in strict_rows]
        weak_proj = [integer_row(row) for row in weak_rows]
    zero = (0,) * dim
    if d == 0:
        # the origin is the only point, and no strict row is positive there
        return None if strict_rows else zero
    if any(all(v == 0 for v in row) for row in strict_proj):
        return None
    if not strict_rows:
        return zero  # kernel point; every weak row vanishes there
    if len(strict_proj) == 1:
        # the strict row is the objective and its own cap: no margin column
        [g] = strict_proj
        head, shifted = g + [-v for v in g], []
    else:
        head, shifted = [0] * (2 * d) + [1], strict_proj
    # columns: p (d), q (d), the margin if any, then one unit slack per row:
    # the strict rows shifted by the margin, the weak rows and the cap
    pad = [0] * (len(head) - 2 * d)
    bodies = [[-v for v in r] + r + [1] for r in shifted]
    bodies += [[-v for v in r] + r + pad for r in weak_proj]
    bodies.append(head)
    m = len(bodies)
    rows = [body + [0] * r + [1] + [0] * (m - 1 - r) for r, body in enumerate(bodies)]
    basis = list(range(len(head), len(head) + m))
    objective = head + [0] * m
    value, solution = simplex_max(rows, [0] * (m - 1) + [1], objective, basis, stats=stats)
    if value <= 0:
        return None
    # a positive int multiple of the point x = sum_j (p_j - q_j) B_j
    scaled = integer_row([solution[j] - solution[d + j] for j in range(d)])
    if basis_vecs is not None:
        scaled = lift(scaled, basis_vecs)
    if (
        any(dot(row, scaled) != 0 for row in eq_rows)
        or any(dot(row, scaled) <= 0 for row in strict_rows)
        or any(dot(row, scaled) < 0 for row in weak_rows)
    ):
        raise CertificateError(f"witness {scaled} violates the sign system")
    return tuple(scaled)


def strict_feasible(
    eq_rows: Sequence[Sequence],
    strict_rows: Sequence[Sequence],
    weak_rows: Sequence[Sequence],
    dim: int,
    *,
    stats=None,
) -> Optional[tuple[int, ...]]:
    """An int point of {eq = 0, strict > 0, weak >= 0}, or None."""
    return _margin_lp(eq_rows, strict_rows, weak_rows, dim, stats)


def cone_positive(
    eq_rows: Sequence[Sequence],
    functional: Sequence,
    weak_rows: Sequence[Sequence],
    dim: int,
    *,
    stats=None,
) -> Optional[tuple[int, ...]]:
    """An int point of {eq = 0, weak >= 0} with functional > 0, or None."""
    return _margin_lp(eq_rows, [functional], weak_rows, dim, stats)
