"""Exact linear algebra over the rationals.

Matrices are lists of lists of Fraction, vectors are lists of Fraction.
Everything here is tolerance-free: rank, kernel and solvability answers are
decided by exact arithmetic, which is what the classifier's rank tests
require.
"""

from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def frac_rows(rows):
    """Copy `rows` into mutable lists of Fraction."""
    return [[Fraction(v) for v in row] for row in rows]


def matvec(rows, vec):
    return [sum((r[j] * vec[j] for j in range(len(vec))), ZERO) for r in rows]


def matmul(a, b):
    """A·B, multiplying only nonzero entries of A by nonzero entries of B.

    Exact arithmetic makes the skipped products contribute nothing, so the
    result equals the dense product; the realization matrices this is used
    on are mostly zero.
    """
    ncols = len(b[0]) if b else 0
    b_rows = [[(j, v) for j, v in enumerate(row) if v != 0] for row in b]
    out = []
    for ra in a:
        row = [ZERO] * ncols
        for t, x in enumerate(ra):
            if x != 0:
                for j, v in b_rows[t]:
                    row[j] += x * v
        out.append(row)
    return out


def dot(u, v):
    return sum((u[i] * v[i] for i in range(len(u))), ZERO)


def is_zero_vector(vec):
    return all(v == 0 for v in vec)


def rref(rows, aug=0):
    """Reduced row echelon form in place; returns the pivot column list.

    The trailing `aug` columns are treated as augmentation: they are swept
    by row operations but never chosen as pivots.
    """
    if not rows:
        return []
    ncols = len(rows[0]) - aug
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(rows)):
            if rows[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = ONE / rows[r][c]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots


def rank(rows):
    if not rows:
        return 0
    work = frac_rows(rows)
    return len(rref(work))


def _reduce(a_rows, b_cols):
    """RREF of [A | B], B given as columns, pivoting in A's columns only.

    Returns (work, pivots, n) with n the column count of A; the A-columns of
    `work` are rref(A), whatever B is.
    """
    m = len(a_rows)
    n = len(a_rows[0]) if m else 0
    work = [
        [Fraction(a_rows[i][j]) for j in range(n)]
        + [Fraction(col[i]) for col in b_cols]
        for i in range(m)
    ]
    return work, rref(work, aug=len(b_cols)), n


def _consistent(work, pivots, n):
    return all(v == 0 for row in work[len(pivots):] for v in row[n:])


def _particular(work, pivots, n, t):
    """The solution for augmented column t with every free variable zero."""
    x = [ZERO] * n
    for r, c in enumerate(pivots):
        x[c] = work[r][n + t]
    return x


def _kernel(work, pivots, n):
    """Kernel basis of A from the A-columns of a reduced [A | B]."""
    pivot_set = set(pivots)
    basis = []
    for fc in range(n):
        if fc in pivot_set:
            continue
        vec = [ZERO] * n
        vec[fc] = ONE
        for r, pc in enumerate(pivots):
            vec[pc] = -work[r][fc]
        basis.append(vec)
    return basis


def solve_many(a_rows, b_cols):
    """Solve A·X = B for all columns of B with a single elimination.

    B is given as a list of columns. Raises ValueError on any inconsistent
    column; meant for systems known to be solvable (e.g. inverting a
    nonsingular matrix against the identity columns).
    """
    work, pivots, n = _reduce(a_rows, b_cols)
    if not _consistent(work, pivots, n):
        raise ValueError("inconsistent linear system")
    return [_particular(work, pivots, n, t) for t in range(len(b_cols))]


def solve(a_rows, b):
    """One exact solution of A·x = b, or None when none exists.

    The elimination is solve_many's. Free variables are set to zero: this
    is *a* solution, not the minimum-norm one (see solve_min_norm).
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
    work, pivots, n = _reduce(a_rows, [b])
    if not _consistent(work, pivots, n):
        return None
    x = _particular(work, pivots, n, 0)
    kernel = _kernel(work, pivots, n)
    t = solve([[dot(u, v) for v in kernel] for u in kernel],
              [dot(u, x) for u in kernel])
    for u, tu in zip(kernel, t):
        x = [xi - tu * ui for xi, ui in zip(x, u)]
    return x


def identity_vectors(n):
    return [[ONE if i == j else ZERO for i in range(n)] for j in range(n)]


def nullspace(a_rows):
    """Basis of the kernel of A (list of vectors)."""
    if not a_rows:
        return []
    return _kernel(*_reduce(a_rows, []))
