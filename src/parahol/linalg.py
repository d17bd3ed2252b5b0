"""Exact linear algebra over the rationals.

Matrices are lists of lists of Fractions or ints, vectors are lists of
Fractions or ints, and results are Fractions. Everything here is
tolerance-free: rank, kernel and solvability answers are decided by exact
arithmetic, which is what the classifier's rank tests require. Rank,
kernel and every solve sit on one Gauss–Jordan elimination of sparse rows
(`_eliminate`): the Gram and Killing matrices that construction reduces
have one or two nonzero entries per row. The elimination computes on
scaled integers: each row is put over the lcm of its denominators and
kept primitive, and Fractions are made once, for the nonzero entries of
the pivot rows.
"""

import math
from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def dot(u, v):
    return sum((u[i] * v[i] for i in range(len(u))), ZERO)


def is_zero_vector(vec):
    return all(v == 0 for v in vec)


def _combine(row, pivot, c):
    """row := p·row − f·pivot in place, with p = pivot[c] and f = row[c]
    divided by their gcd, so that row[c] cancels; entries that cancel are
    dropped."""
    p, f = pivot[c], row[c]
    g = math.gcd(p, f)
    p, f = p // g, f // g
    if p != 1:
        for j in row:
            row[j] *= p
    for j, v in pivot.items():
        w = row.get(j, 0) - f * v
        if w:
            row[j] = w
        else:
            del row[j]


def _make_primitive(row, lead):
    """Divide a nonzero integer row by its content, in place, signed so
    that row[lead] > 0."""
    g = math.gcd(*row.values())
    if row[lead] < 0:
        g = -g
    if g != 1:
        for j in row:
            row[j] //= g


def _integer_row(entries):
    """{column: int} row of exact entries, scaled by the lcm of their
    denominators; the scale changes no row echelon form. The lcm takes a
    list: *-unpacking a generator sizes its tuple by a guess and resizes
    it, which leaves tuples of other sizes in the interpreter's free lists."""
    d = math.lcm(*[v.denominator for v in entries.values()])
    return {j: v.numerator * (d // v.denominator) for j, v in entries.items()}


def _eliminate(a_rows, b_cols=()):
    """Reduced row echelon form of [A | B], pivoting in A's columns only.

    B is given as columns; column t of B is column n + t of the rows, with
    n the column count of A. Entries are ints or Fractions. The elimination
    is fraction-free Gauss–Jordan on sparse {column: int} rows: each row of
    [A | B] is scaled by the lcm of its denominators, then reduced by the
    pivot rows so far, p·row − f·pivot for each pivot column it meets, and
    kept primitive (divided by its content, lead positive). Its first
    nonzero entry on A then becomes a pivot that is cleared from them the
    same way. Returns (pivots, n, consistent): `pivots` maps each pivot
    column to its row as {column: Fraction}, each pivot row divided by its
    lead once at the end, so it is that row of rref(A) (unique, whatever B
    is); `consistent` is False when some row reduces to zero on A but not
    on B, i.e. when A·X = B has no solution.
    """
    n = len(a_rows[0]) if a_rows else 0
    rows = [{j: v for j, v in enumerate(row) if v} for row in a_rows]
    for t, col in enumerate(b_cols):
        for i, v in enumerate(col):
            if v:
                rows[i][n + t] = v
    pivots = {}
    consistent = True
    for row in rows:
        row = _integer_row(row)
        # a pivot row vanishes on every other pivot column, so one pass suffices
        for c in [c for c in row if c in pivots]:
            _combine(row, pivots[c], c)
        lead = min((j for j in row if j < n), default=None)
        if lead is None:
            consistent = consistent and not row
            continue
        _make_primitive(row, lead)
        for c, other in pivots.items():
            if lead in other:
                _combine(other, row, lead)
                _make_primitive(other, c)
        pivots[lead] = row
    for c, row in pivots.items():
        p = row[c]
        pivots[c] = {j: Fraction(v, p) for j, v in row.items()}
    return pivots, n, consistent


def rank(rows):
    return len(_eliminate(rows)[0])


def _particulars(pivots, n, count):
    """The solution for each of `count` B-columns with every free variable zero."""
    xs = [[ZERO] * n for _ in range(count)]
    for c, row in pivots.items():
        for j, v in row.items():
            if j >= n:
                xs[j - n][c] = v
    return xs


def _kernel(pivots, n):
    """Kernel basis of A from the pivot rows: one vector per free column."""
    basis = {fc: [ONE if i == fc else ZERO for i in range(n)]
             for fc in range(n) if fc not in pivots}
    for pc, row in pivots.items():
        for j, v in row.items():
            if j in basis:
                basis[j][pc] = -v
    return list(basis.values())


def solve_many(a_rows, b_cols):
    """Solve A·X = B for all columns of B with a single elimination.

    B is given as a list of columns. Raises ValueError on any inconsistent
    column; meant for systems known to be solvable (e.g. inverting a
    nonsingular matrix against the identity columns).
    """
    pivots, n, consistent = _eliminate(a_rows, b_cols)
    if not consistent:
        raise ValueError("inconsistent linear system")
    return _particulars(pivots, n, len(b_cols))


def solve(a_rows, b):
    """One exact solution of A·x = b, or None when none exists.

    Free variables are set to zero: this is *a* solution, not the
    minimum-norm one (see solve_min_norm).
    """
    try:
        return solve_many(a_rows, [b])[0]
    except ValueError:
        return None


def solve_min_norm(a_rows, b):
    """Minimum-Euclidean-norm solution of A·x = b, or None when inconsistent.

    One elimination of [A | b] gives the particular solution x_p (free
    variables zero) and a kernel basis N of A. The answer is x_p minus its
    orthogonal projection onto ker A: x = x_p − N·t where (NᵀN)·t = Nᵀ·x_p.
    That system is f×f with f = dim ker A, so it is empty when A is
    injective. The answer is unique, exact over the rationals and
    deterministic; this is the tie-breaking rule for witness selection.
    """
    pivots, n, consistent = _eliminate(a_rows, [b])
    if not consistent:
        return None
    x = _particulars(pivots, n, 1)[0]
    kernel = _kernel(pivots, n)
    if not kernel:
        return x
    t = solve([[dot(u, v) for v in kernel] for u in kernel],
              [dot(u, x) for u in kernel])
    for u, tu in zip(kernel, t):
        x = [xi - tu * ui for xi, ui in zip(x, u)]
    return x


def identity_vectors(n):
    return [[ONE if i == j else ZERO for i in range(n)] for j in range(n)]


def nullspace(a_rows):
    """Basis of the kernel of A (list of vectors)."""
    pivots, n, _ = _eliminate(a_rows)
    return _kernel(pivots, n)
