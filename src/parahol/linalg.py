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
the pivot rows. The minimum-norm solve stays on integers throughout, and
`solve_min_norm_scaled` hands its answer to the classifier as integers
over one denominator.
"""

import math
from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


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

    Returns (pivots, n, consistent) as `_eliminate_scaled` does, with each
    pivot row divided by its lead once, as {column: Fraction}: that row of
    rref(A) (unique, whatever B is).
    """
    pivots, n, consistent = _eliminate_scaled(a_rows, b_cols)
    for c, row in pivots.items():
        p = row[c]
        pivots[c] = {j: Fraction(v, p) for j, v in row.items()}
    return pivots, n, consistent


def _eliminate_scaled(a_rows, b_cols=()):
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

    The answer is unique, exact over the rationals and deterministic; this
    is the tie-breaking rule for witness selection. The Fraction view of
    `solve_min_norm_scaled`.
    """
    solution = solve_min_norm_scaled(a_rows, b)
    if solution is None:
        return None
    den, x = solution
    return [Fraction(v, den) for v in x]


def solve_min_norm_scaled(a_rows, b):
    """solve_min_norm on integers: (den, [X_0, ..., X_{n-1}]) with
    x = X/den the minimum-norm solution, or None when inconsistent.

    One elimination of [A | b] gives the particular solution x_p = P/D
    (free variables zero, D the lcm of the pivot leads it uses) and one
    integer kernel vector per free column, each a positive multiple of the
    rref kernel vector. The answer is x_p minus its orthogonal projection
    onto ker A, which no choice of kernel basis N changes:
    x = (P − N·t)/D where (NᵀN)·t = Nᵀ·P. That system is f×f with
    f = dim ker A and integer entries; with t = T/Q over the lcm of its
    pivot leads, x = (Q·P − N·T)/(D·Q).
    """
    pivots, n, consistent = _eliminate_scaled(a_rows, [b])
    if not consistent:
        return None
    d = math.lcm(*[row[c] for c, row in pivots.items() if n in row])
    x = [0] * n
    for c, row in pivots.items():
        if n in row:
            x[c] = row[n] * (d // row[c])
    # column fc of the kernel: fc -> L and pc -> -row[fc]·L/row[pc] over the
    # pivot rows that meet fc, L the lcm of their leads
    meets = {fc: [] for fc in range(n) if fc not in pivots}
    for c, row in pivots.items():
        for j in row:
            if j in meets:
                meets[j].append(c)
    kernel = []
    for fc, cs in meets.items():
        lcm = math.lcm(*[pivots[c][c] for c in cs])
        u = {c: -pivots[c][fc] * (lcm // pivots[c][c]) for c in cs}
        u[fc] = lcm
        kernel.append(u)
    if not kernel:
        return d, x
    gram = [[sum(c * v.get(j, 0) for j, c in u.items()) for v in kernel] for u in kernel]
    rhs = [sum(c * x[j] for j, c in u.items()) for u in kernel]
    reduced, _, _ = _eliminate_scaled(gram, [rhs])
    f = len(kernel)
    q = math.lcm(*[row[c] for c, row in reduced.items()])
    x = [q * v for v in x]
    for c, row in reduced.items():
        t = row.get(f, 0) * (q // row[c])
        if t:
            for j, v in kernel[c].items():
                x[j] -= t * v
    return d * q, x


def identity_vectors(n):
    return [[ONE if i == j else ZERO for i in range(n)] for j in range(n)]


def nullspace(a_rows):
    """Basis of the kernel of A (list of vectors)."""
    pivots, n, _ = _eliminate(a_rows)
    return _kernel(pivots, n)
