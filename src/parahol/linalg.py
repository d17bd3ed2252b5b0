"""Exact linear algebra over the rationals.

Matrices are lists of rows of ints or Fractions, and every answer is
exact, as the classifier's rank tests require. There is one elimination,
`_echelon`: fraction-free (Bareiss) row reduction of dense integer rows,
with back substitution (`_back`) over its last pivot. The solves answer
as integers over one denominator, (den, ints).

- `nullspace` and `solve_min_norm_scaled` run it on the whole matrix:
  the classifier's grade blocks are dense and small (dimension at most 6
  on the benchmark's pools, 26 at most).
- `rank` and `solve_scaled` serve construction: the Gram inverse, the
  Killing rank and the grading element, at dimension up to 253. They run
  it on one connected block of A at a time (`_blocks`), and the matrices
  of construction split into small blocks. The Gram matrix and the
  Killing rows are 1×1 blocks on conformal (3,0), (2,1), (2,2), (4,1)
  and (21,0), and 1×1 blocks and one n×n block on cr(n); only the rank
  that checks generation by grade −1 is one block. On the whole matrix,
  Bareiss would carry the product of all the pivots (2^253 on the 2·I
  Gram matrix of conformal(21,0)), and every back substitution would be
  dense.
"""

import itertools
import math
import operator
from fractions import Fraction

ZERO = Fraction(0)


def _blocks(a_rows, b_cols=()):
    """The connected blocks of A, with the columns of B that meet them:
    [rows, cols, ts] index lists, each ascending, or None when a zero row
    of A meets a nonzero entry of B (then A·X = B has no solution).

    Rows and columns of A are joined by A's nonzero entries; a union-find
    over the columns, each linked to the smallest column of its block,
    finds the blocks. A zero row is in no block, and a zero column is a
    block with no rows. Column t of B is in the ts of every block whose
    rows it meets.
    """
    columns = range(len(a_rows[0]) if a_rows else 0)
    supports = [[*itertools.compress(columns, row)] for row in a_rows]
    root = [*columns]
    for cols in supports:
        for c in cols[1:]:
            r = cols[0]
            while root[r] != r:
                r = root[r]
            while root[c] != c:
                c = root[c]
            root[max(r, c)] = min(r, c)
    # root[c] <= c, so one ascending pass leaves each column at its block's root
    blocks = {}
    for c, r in enumerate(root):
        r = root[c] = root[r]
        if r == c:
            blocks[c] = [], [c], []
        else:
            blocks[r][1].append(c)
    for i, cols in enumerate(supports):
        if cols:
            blocks[root[cols[0]]][0].append(i)
    rows = range(len(a_rows))
    for t, col in enumerate(b_cols):
        for i in itertools.compress(rows, col):
            if not supports[i]:
                return None
            ts = blocks[root[supports[i][0]]][2]
            if not ts or ts[-1] != t:
                ts.append(t)
    return blocks.values()


def _block_rows(a_rows, b_cols, rows, cols, ts):
    """The dense rows of [A | B] on one block: A at `rows` and `cols`,
    then the columns `ts` of B. Plain loops, not comprehensions: each
    comprehension is a call on CPython 3.11 and older, and a construction
    block is often one row and one column."""
    out = []
    for i in rows:
        row = a_rows[i]
        entries = []
        for c in cols:
            entries.append(row[c])
        for t in ts:
            entries.append(b_cols[t][i])
        out.append(entries)
    return out


def rank(rows):
    return sum(len(_echelon(_block_rows(rows, (), block_rows, cols, ()), len(cols))[0])
               for block_rows, cols, _ in _blocks(rows))


def solve_scaled(a_rows, b_cols):
    """One exact solution of A·X = B for all columns of B, free variables
    zero: (den, [X_0, X_1, ...]) with column t of the solution X_t/den,
    each X_t a list of ints; None when some column is inconsistent. B is
    given as a list of columns.

    Each block of A is eliminated with the columns of B that meet it, and
    solved by back substitution over den, the lcm of the blocks' last
    pivots. A block pivots on its leftmost independent columns, so the
    answer is that of the whole matrix.
    """
    blocks = _blocks(a_rows, b_cols)
    if blocks is None:
        return None
    solved = []
    for rows, cols, ts in blocks:
        if ts:
            m = len(cols)
            pivots, rest, d = _echelon(_block_rows(a_rows, b_cols, rows, cols, ts), m)
            for row, _ in rest:
                if any(row[m:]):
                    return None
            solved.append((pivots, d, cols, ts))
    den = math.lcm(*[d for _, d, _, _ in solved])
    n = len(a_rows[0]) if a_rows else 0
    xs = [[0] * n for _ in b_cols]
    for pivots, _, cols, ts in solved:
        m = len(cols)
        for k, t in enumerate(ts, m):
            x = xs[t]
            for c, v in zip(cols, _back(pivots, den, m, k)):
                x[c] = v
    return den, xs


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
