"""Exact linear algebra over the rationals.

Matrices are lists of rows of ints or Fractions. Rank, kernel and
solvability are decided by exact arithmetic, with no tolerance, as the
classifier's rank tests require. `rank`, `nullspace` (the rref kernel
basis, as Fractions), `solve_scaled` (a particular solution) and
`solve_min_norm_scaled` (the minimum-norm solution) all sit on one
fraction-free Gauss–Jordan elimination of sparse integer rows
(`_eliminate`). The solves answer as integers over one denominator,
(den, ints), so that construction, the grading element and the
classifier stay on integers.
"""

import math
from fractions import Fraction

ZERO = Fraction(0)


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
    """Row echelon form of [A | B] on primitive integer rows.

    B is given as columns; column t of B is column n + t of the rows, with
    n the column count of A. Entries are ints or Fractions. The elimination
    is fraction-free Gauss–Jordan on sparse {column: int} rows: each row of
    [A | B] is scaled by the lcm of its denominators, then reduced by the
    pivot rows so far, p·row − f·pivot for each pivot column it meets, and
    kept primitive (divided by its content, lead positive). Its first
    nonzero entry on A then becomes a pivot that is cleared from them the
    same way. Returns (pivots, n, consistent): `pivots` maps each pivot
    column c to its integer row, which vanishes on every other pivot column
    and divided by row[c] is that row of rref(A); `consistent` is False
    when some row reduces to zero on A but not on B, i.e. when A·X = B has
    no solution.
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
    return pivots, n, consistent


def rank(rows):
    return len(_eliminate(rows)[0])


def _particular(pivots, n, count):
    """(d, X): the solution of A·X = B with every free variable zero, for
    the `count` columns of B, as lists of n ints over d, the lcm of the
    leads of the pivot rows that meet B. Pivot row c gives column t the
    entry row[n + t]/row[c] at c."""
    xs, leads = [], []
    for t in range(n, n + count):
        x = [0] * n
        for c, row in pivots.items():
            if t in row:
                x[c] = row[t]
                leads.append(row[c])
        xs.append(x)
    d = math.lcm(*leads)
    for x in xs:
        for c, row in pivots.items():
            if x[c]:
                x[c] *= d // row[c]
    return d, xs


def _kernel(pivots, n):
    """{fc: u}: one integer kernel vector of A per free column fc, as a
    sparse {column: int} map. u is L times the rref kernel vector (1 on
    fc, 0 on the other free columns), with L > 0 the lcm of the leads of
    the pivot rows that meet fc, so u[fc] = L."""
    meets = {fc: [] for fc in range(n) if fc not in pivots}
    for c, row in pivots.items():
        for j in row:
            if j in meets:
                meets[j].append(c)
    kernel = {}
    for fc, cs in meets.items():
        lcm = math.lcm(*[pivots[c][c] for c in cs])
        u = {c: -pivots[c][fc] * (lcm // pivots[c][c]) for c in cs}
        u[fc] = lcm
        kernel[fc] = u
    return kernel


def nullspace(a_rows):
    """Basis of the kernel of A: one Fraction vector per free column, 1 on
    that column and 0 on the other free columns."""
    pivots, n, _ = _eliminate(a_rows)
    return [[Fraction(u[j], u[fc]) if j in u else ZERO for j in range(n)]
            for fc, u in _kernel(pivots, n).items()]


def solve_scaled(a_rows, b_cols):
    """One exact solution of A·X = B for all columns of B with a single
    elimination, free variables zero: (den, [X_0, X_1, ...]) with column
    t of the solution X_t/den, each X_t a list of ints; None when some
    column is inconsistent. B is given as a list of columns.
    """
    pivots, n, consistent = _eliminate(a_rows, b_cols)
    if not consistent:
        return None
    return _particular(pivots, n, len(b_cols))


def solve_min_norm_scaled(a_rows, b):
    """The minimum-Euclidean-norm solution of A·x = b as (den, [X_0, ...,
    X_{n-1}]) with x = X/den, or None when inconsistent.

    The answer is unique, exact over the rationals and deterministic; this
    is the tie-breaking rule for witness selection. One elimination of
    [A | b] gives the particular solution x_p = P/D (`_particular`) and one
    integer kernel vector per free column (`_kernel`). The answer is x_p
    minus its orthogonal projection onto ker A, which no choice of kernel
    basis N changes: x = (P − N·t)/D where (NᵀN)·t = Nᵀ·P. That system is
    f×f with f = dim ker A, integer and nonsingular; with its solution
    t = T/Q from `solve_scaled`, x = (Q·P − N·T)/(D·Q).
    """
    pivots, n, consistent = _eliminate(a_rows, [b])
    if not consistent:
        return None
    d, (x,) = _particular(pivots, n, 1)
    kernel = list(_kernel(pivots, n).values())
    if not kernel:
        return d, x
    gram = [[sum(c * v.get(j, 0) for j, c in u.items()) for v in kernel] for u in kernel]
    rhs = [sum(c * x[j] for j, c in u.items()) for u in kernel]
    q, (t,) = solve_scaled(gram, [rhs])
    x = [q * v for v in x]
    for u, tu in zip(kernel, t):
        if tu:
            for j, v in u.items():
                x[j] -= tu * v
    return d * q, x
