"""Small exact simplex solver plus the two feasibility questions the oracle
actually asks: strict feasibility of a sign system, and whether a functional
can be made positive on a cone.

Strict inequalities are handled the standard way: maximize a single margin
variable t subject to every strict constraint shifted by it and to the cap
t <= 1; the open set is non-empty iff the optimum is positive.  With exactly
one strict row there is no margin column: the row is itself the objective,
capped at row . x <= 1.  Pivoting is greedy while it makes progress and
switches to Bland's rule through degenerate stretches, which guarantees
termination.

The tableau is exact and fraction-free: its rows are integer rows that stand
for their positive multiples, and a pivot is one `linalg.eliminate` step per
row, the same step that computes ranks and kernels.  Both questions share
one tableau, built from the primitive int kernel vectors of `kernel_basis`,
each row L times the row of the rational tableau over the RREF kernel
vectors, so it pivots exactly as that tableau does.  Values, solutions and
witnesses are read back as Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Optional, Sequence

from .linalg import dot, eliminate, integer_row, kernel_basis

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
    stall = 0
    bland = False
    while True:
        if bland:
            entering = next((j for j in range(ncols) if z[j] < 0), None)
        else:
            entering = None
            best = 0
            for j in range(ncols):
                if z[j] < best:
                    best = z[j]
                    entering = j
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
            stats["pivots"] = stats.get("pivots", 0) + 1
        lead = tab[leaving]
        if lead[-1] == 0:
            stall += 1
            if stall > 2 * len(tab) + 10:
                bland = True
        else:
            stall = 0
        for r, row in enumerate(tab):
            if r != leaving and row[entering]:
                tab[r] = eliminate(row, lead, entering)
        if z[entering]:
            z = eliminate(z, lead, entering)
        basis[leaving] = entering


def _columns(basis_vecs):
    """Multipliers that turn products with the primitive kernel vectors B_j
    into L times products with the RREF vectors b_j.

    B_j is s_j times b_j, s_j its last nonzero entry.  With L = lcm(s_j),
    the product of a row with B_j times L // s_j is L times its product with
    b_j: an LP assembled from these int columns, every other entry of a row
    times L too, is the rational LP over the b_j up to positive row scaling,
    so it pivots the same way.  Returns L and the multipliers L // s_j.
    """
    scales = [next(v for v in reversed(b) if v) for b in basis_vecs]
    big = lcm(*scales)
    return big, [big // s for s in scales]


def _kernel_point(solution, basis_vecs, big, mult, dim):
    """The point sum_j (p_j - q_j) b_j of an LP solution, as Fractions and as
    a positive integer multiple of it; b_j is B_j * (L // s_j) / L."""
    d = len(basis_vecs)
    coeffs = [(solution[j] - solution[d + j]) * m for j, m in enumerate(mult)]
    den = lcm(*(c.denominator for c in coeffs))
    nums = [c.numerator * (den // c.denominator) for c in coeffs]
    ints = [sum(a * b[i] for a, b in zip(nums, basis_vecs)) for i in range(dim)]
    return tuple(Fraction(v, den * big) for v in ints), ints


def _project(rows, basis_vecs, mult):
    """Each row's products with the int columns, the row first scaled by the
    lcm c > 0 of its denominators, paired with c.  A tableau row built from
    them, every other entry times c too, is int and stands for the same
    constraint."""
    out = []
    for row in rows:
        c = lcm(*(v.denominator for v in row))
        ints = [int(v * c) for v in row]
        out.append(([dot(ints, b) * m for b, m in zip(basis_vecs, mult)], c))
    return out


def _margin_lp(eq_rows, strict_rows, weak_rows, dim, stats):
    """Witness of {eq = 0, strict > 0, weak >= 0}, or None: the margin LP
    described in the module docstring, over the kernel of the equalities."""
    if stats is not None:
        stats["lp_calls"] = stats.get("lp_calls", 0) + 1
    basis_vecs = kernel_basis(eq_rows, dim)
    d = len(basis_vecs)
    zero = tuple([_ZERO] * dim)
    if d == 0:
        # the origin is the only point, and no strict row is positive there
        return None if strict_rows else zero
    big, mult = _columns(basis_vecs)
    strict_proj = _project(strict_rows, basis_vecs, mult)
    if any(all(v == 0 for v in row) for row, _ in strict_proj):
        return None
    if not strict_rows:
        return zero  # kernel point; every weak row vanishes there
    if len(strict_proj) == 1:
        # the strict row is the objective and its own cap: no margin column
        [(g, c)] = strict_proj
        head, shifted = g + [-v for v in g], []
    else:
        head, c, shifted = [0] * (2 * d) + [big], 1, strict_proj
    # columns: p (d), q (d), the margin if any, then one slack per row: the
    # strict rows shifted by the margin, the weak rows and the cap, each as
    # (body, c, rhs); every row is L times c times its rational counterpart
    weak_proj = _project(weak_rows, basis_vecs, mult)
    lhs = [([-v for v in r] + r + [rc * big], rc, 0) for r, rc in shifted]
    lhs += [([-v for v in r] + r, rc, 0) for r, rc in weak_proj]
    lhs.append((head, c, c * big))
    ncols = len(head) + len(lhs)
    rows = []
    for slack, (body, rc, _) in enumerate(lhs, start=len(head)):
        rows.append(body + [0] * (ncols - len(body)))
        rows[-1][slack] = rc * big
    rhs = [value for _, _, value in lhs]
    basis = list(range(len(head), ncols))
    objective = head + [0] * len(lhs)
    value, solution = simplex_max(rows, rhs, objective, basis, stats=stats)
    if value <= 0:
        return None
    witness, scaled = _kernel_point(solution, basis_vecs, big, mult, dim)
    if (
        any(dot(row, scaled) != 0 for row in eq_rows)
        or any(dot(row, scaled) <= 0 for row in strict_rows)
        or any(dot(row, scaled) < 0 for row in weak_rows)
    ):
        raise CertificateError(f"witness {witness} violates the sign system")
    return witness


def strict_feasible(
    eq_rows: Sequence[Sequence],
    strict_rows: Sequence[Sequence],
    weak_rows: Sequence[Sequence],
    dim: int,
    *,
    stats=None,
) -> Optional[tuple[Fraction, ...]]:
    """Interior witness of {eq = 0, strict > 0, weak >= 0}, or None."""
    return _margin_lp(eq_rows, strict_rows, weak_rows, dim, stats)


def cone_positive(
    eq_rows: Sequence[Sequence],
    functional: Sequence,
    weak_rows: Sequence[Sequence],
    dim: int,
    *,
    stats=None,
) -> Optional[tuple[Fraction, ...]]:
    """A point of {eq = 0, weak >= 0} with functional > 0, or None."""
    return _margin_lp(eq_rows, [functional], weak_rows, dim, stats)
