"""Dense Fraction linear algebra, kept as the tests' reference.

Plain reduced row echelon form on lists of Fractions, sharing no code with
`parahol.linalg`: particular solutions, kernel bases and the minimum-norm
solution. test_linalg compares the integer solver with it, and the
algebra and classifier references solve through it, so that no reference
shares a solver with the code it checks. `sparse_matrix` turns a dense
matrix into the {(row, col): value} map that the realization takes.
"""

from fractions import Fraction


def sparse_matrix(matrix):
    """{(row, col): value} over the nonzero entries of a dense matrix."""
    return {(i, j): v for i, row in enumerate(matrix)
            for j, v in enumerate(row) if v}


def dot(u, v):
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def matvec(rows, vec):
    return [sum((r[j] * vec[j] for j in range(len(vec))), Fraction(0))
            for r in rows]


def dense_matmul(a, b):
    return [[sum((a[i][t] * b[t][j] for t in range(len(b))), Fraction(0))
             for j in range(len(b[0]))] for i in range(len(a))]


def dense_rref(rows, aug=0):
    """Reduced row echelon form in place; returns the pivot column list.

    The trailing `aug` columns are swept by row operations but never chosen
    as pivots.
    """
    if not rows:
        return []
    ncols = len(rows[0]) - aug
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = 1 / rows[r][c]
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


def dense_reduce(a, b_cols):
    """(work, pivots, n, consistent) for the dense RREF of [A | B]."""
    n = len(a[0]) if a else 0
    work = [[Fraction(v) for v in row] + [Fraction(col[i]) for col in b_cols]
            for i, row in enumerate(a)]
    pivots = dense_rref(work, aug=len(b_cols))
    consistent = all(v == 0 for row in work[len(pivots):] for v in row[n:])
    return work, pivots, n, consistent


def dense_particular(work, pivots, n, t):
    x = [Fraction(0)] * n
    for r, c in enumerate(pivots):
        x[c] = work[r][n + t]
    return x


def dense_kernel(work, pivots, n):
    basis = []
    for fc in range(n):
        if fc in pivots:
            continue
        vec = [Fraction(0)] * n
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -work[r][fc]
        basis.append(vec)
    return basis


def dense_solve(a, b_cols):
    """The solution of A·X = B with every free variable zero, one list per
    column of B, or None when some column is inconsistent."""
    work, pivots, n, consistent = dense_reduce(a, b_cols)
    if not consistent:
        return None
    return [dense_particular(work, pivots, n, t) for t in range(len(b_cols))]


def dense_min_norm(a, b):
    """x_p − N·t with (NᵀN)·t = Nᵀ·x_p on the rref kernel basis N, or None
    when A·x = b is inconsistent."""
    work, pivots, n, consistent = dense_reduce(a, [b])
    if not consistent:
        return None
    x = dense_particular(work, pivots, n, 0)
    kernel = dense_kernel(work, pivots, n)
    gram = [[dot(u, v) for v in kernel] for u in kernel]
    gwork, gpivots, f, _ = dense_reduce(gram, [[dot(u, x) for u in kernel]])
    t = dense_particular(gwork, gpivots, f, 0)
    for u, tu in zip(kernel, t):
        x = [xi - tu * ui for xi, ui in zip(x, u)]
    return x
