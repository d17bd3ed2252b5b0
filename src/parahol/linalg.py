"""Exact linear algebra over the rationals.

Matrices are lists of rows of ints or Fractions, and every answer is
exact, as the classifier's rank tests require. Two fraction-free
eliminations share no code, each serving inputs of one shape:
- `rank` and `solve_scaled`: Gauss–Jordan on sparse primitive integer
  rows (`_eliminate`), for construction (the Gram inverse, the Killing
  rank, the grading element) on nearly diagonal matrices of dimension up
  to 253, where an O(n³) dense pass would be far slower;
- `nullspace` and `solve_min_norm_scaled`: Bareiss elimination of dense
  integer rows (`_echelon`), for the classifier's grade blocks, dense and
  of dimension at most 6 on the benchmark's pools (26 at most), where a
  6×6 invertible solve takes 30 µs against 65 µs on the sparse route.
The solves answer as integers over one denominator, (den, ints).
"""

import math
import operator
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
    denominators; the scale changes no row echelon form. A row of ints is
    returned as it is, with no lcm taken. The lcm takes a list:
    *-unpacking a generator sizes its tuple by a guess and resizes it,
    which leaves tuples of other sizes in the interpreter's free lists."""
    if all(type(v) is int for v in entries.values()):
        return entries
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


def _echelon(rows, n):
    """Fraction-free (Bareiss) row echelon form of dense rows, pivots on
    the first n columns: (pivots, rest, d), d the last pivot (1 if none).

    Rows holding a Fraction are scaled to ints by the lcm of their
    denominators. At each column the first remaining row nonzero there is
    the pivot row (a column with none is free); every remaining row with
    f ≠ 0 there becomes (p·row − f·pivot_row) // prev, p the new pivot and
    prev the last one, exact by Sylvester's identity. A row with a zero
    there is left as it is, tagged with the pivot it was last brought up
    to, and scaled once by p_now // p_then when next read: a diagonal
    block costs O(n²), not O(n³). So each (c, row) of `pivots` is a nonzero
    multiple of its echelon row, which back substitution allows; `rest`
    holds the [row, p_then] left, zero on the first n columns.
    """
    if type(sum(map(sum, rows))) is not int:  # some entry is a Fraction
        rows = [[v.numerator * (d // v.denominator) for v in row]
                for row in rows for d in [math.lcm(*[v.denominator for v in row])]]
    rest = [[row, 1] for row in rows]
    pivots = []
    prev = 1
    for c in range(n):
        for k, (row, _) in enumerate(rest):
            if row[c]:
                break
        else:
            continue
        top, top_then = rest.pop(k)
        p = top[c] * prev // top_then
        for item in rest:
            row, then = item
            if row[c]:
                if top_then != prev:
                    top, top_then = [v * prev // top_then for v in top], prev
                if then != prev:
                    row = [v * prev // then for v in row]
                f = row[c]
                item[0] = [(p * v - f * w) // prev for v, w in zip(row, top)]
                item[1] = p
        pivots.append((c, top))
        prev = p
    return pivots, rest, prev


def _dot(u, v):
    return sum(map(operator.mul, u, v))


def _back(pivots, d, n, t):
    """x with A·x = column t of the echelon rows and free variables zero, as
    n ints over d, the last pivot: d·x is integral by Cramer's rule."""
    x = [0] * n
    for c, row in reversed(pivots):  # x is still 0 on column c and left of it
        x[c] = (d * row[t] - _dot(row, x)) // row[c]
    return x


def _null_vectors(pivots, d, n):
    """d times the rref kernel vector of each free column fc of A."""
    free = set(range(n)).difference(c for c, _ in pivots)
    return [[d if j == fc else -v for j, v in enumerate(_back(pivots, d, n, fc))]
            for fc in sorted(free)]


def nullspace(a_rows):
    """The rref basis of the kernel of A, as Fraction vectors: one per free
    column, 1 there and 0 on the other free columns. It is unique, so it
    does not depend on how the elimination picks or scales its rows."""
    n = len(a_rows[0]) if a_rows else 0
    pivots, _, d = _echelon(a_rows, n)
    return [[Fraction(v, d) if v else ZERO for v in u] for u in _null_vectors(pivots, d, n)]


def solve_min_norm_scaled(a_rows, b):
    """The minimum-Euclidean-norm solution of A·x = b as (den, [X_0, ...,
    X_{n-1}]) with x = X/den and den > 0, or None when inconsistent.

    The answer is unique, exact over the rationals and deterministic; this
    is the tie-breaking rule for witness selection. The dense elimination
    of [A | b] gives, over its last pivot D, the solution x_p = P/D with
    the free variables zero, and kernel vectors N. The answer is x_p minus
    its projection onto ker A: x = (P − N·t)/D where (NᵀN)·t = Nᵀ·P, an
    f×f nonsingular integer system, f = dim ker A. With its solution
    t = T/Q by the same elimination, x = (Q·P − N·T)/(D·Q).
    """
    n = len(a_rows[0]) if a_rows else 0
    pivots, rest, d = _echelon([list(row) + [v] for row, v in zip(a_rows, b)], n)
    if any(row[n] for row, _ in rest):
        return None
    x = _back(pivots, d, n, n)
    kernel = _null_vectors(pivots, d, n)
    if kernel:
        f = len(kernel)
        gram_pivots, _, q = _echelon(
            [[_dot(u, v) for v in kernel] + [_dot(u, x)] for u in kernel], f)
        t = _back(gram_pivots, q, f, f)
        x = [q * v for v in x]
        for u, tu in zip(kernel, t):
            if tu:
                x = [xi - tu * ui for xi, ui in zip(x, u)]
        d *= q
    return (d, x) if d > 0 else (-d, [-v for v in x])
