"""Exact linear algebra: elimination, kernels, minimum-norm solves."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from parahol import linalg


def rand_matrix(rng, m, n, max_abs=6):
    return [[Fraction(rng.randint(-max_abs, max_abs), rng.choice([1, 2, 3]))
             for _ in range(n)] for _ in range(m)]


def matvec(rows, vec):
    return [sum((r[j] * vec[j] for j in range(len(vec))), Fraction(0))
            for r in rows]


def dot(u, v):
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def test_rank_known():
    assert linalg.rank([[1, 2], [2, 4]]) == 1
    assert linalg.rank([[1, 0], [0, 1]]) == 2
    assert linalg.rank([[0, 0], [0, 0]]) == 0


def test_solve_consistent_and_inconsistent():
    a = [[1, 2], [2, 4]]
    assert linalg.solve(a, [3, 6]) is not None
    assert linalg.solve(a, [3, 7]) is None


def test_solve_many_matches_solve():
    rng = random.Random(11)
    a = rand_matrix(rng, 4, 3)
    xs = [rand_matrix(rng, 3, 1) for _ in range(5)]
    cols = [matvec(a, [row[0] for row in x]) for x in xs]
    sols = linalg.solve_many(a, cols)
    for sol, col in zip(sols, cols):
        assert matvec(a, sol) == col


def test_solve_many_inconsistent_raises():
    with pytest.raises(ValueError):
        linalg.solve_many([[1, 2], [2, 4]], [[3, 7]])


def test_min_norm_solution_is_minimal_and_exact():
    rng = random.Random(5)
    for _ in range(30):
        a = rand_matrix(rng, 3, 5)
        x_true = [Fraction(rng.randint(-4, 4)) for _ in range(5)]
        b = matvec(a, x_true)
        x = linalg.solve_min_norm(a, b)
        assert x is not None
        assert matvec(a, x) == b
        # minimality: orthogonal to the kernel
        for v in linalg.nullspace(a):
            assert dot(x, v) == 0


def _dense_matmul(a, b):
    return [[sum((a[i][t] * b[t][j] for t in range(len(b))), Fraction(0))
             for j in range(len(b[0]))] for i in range(len(a))]


def test_min_norm_none_when_inconsistent():
    assert linalg.solve_min_norm([[1, 2], [2, 4]], [1, 3]) is None
    # seeded rank-deficient systems, about half of them inconsistent;
    # consistent ones must give the minimum-norm solution
    rng = random.Random(17)
    inconsistent = 0
    for _ in range(200):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        r = rng.randint(0, min(m, n) - 1)
        if r:
            a = _dense_matmul(rand_matrix(rng, m, r), rand_matrix(rng, r, n))
        else:
            a = [[Fraction(0)] * n for _ in range(m)]
        if rng.randrange(2):
            b = matvec(a, [Fraction(rng.randint(-4, 4)) for _ in range(n)])
        else:
            b = [Fraction(rng.randint(-4, 4)) for _ in range(m)]
        x = linalg.solve_min_norm(a, b)
        solvable = linalg.rank(a) == linalg.rank([row + [v] for row, v in zip(a, b)])
        assert (x is None) == (not solvable)
        if x is not None:
            assert len(x) == n and matvec(a, x) == b
            assert all(dot(x, v) == 0 for v in linalg.nullspace(a))
        inconsistent += not solvable
    assert inconsistent >= 50


def test_nullspace_dimension_and_membership():
    rng = random.Random(9)
    for _ in range(20):
        a = rand_matrix(rng, 4, 6)
        basis = linalg.nullspace(a)
        assert len(basis) == 6 - linalg.rank(a)
        for v in basis:
            assert not any(matvec(a, v))


# -- the dense elimination that linalg replaced, kept as a reference ---------


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


def dense_min_norm(a, b):
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


def sparse_matrix(rng, m, n, density):
    """m x n, each entry nonzero with probability `density`; rank-deficient
    (a product through an inner dimension below min(m, n)) a third of the time."""
    def entry():
        if rng.random() >= density:
            return Fraction(0)
        return Fraction(rng.choice([-3, -2, -1, 1, 2, 5]), rng.choice([1, 1, 2, 3]))
    if m and n and rng.randrange(3) == 0:
        inner = rng.randrange(min(m, n))
        left = [[entry() for _ in range(inner)] for _ in range(m)]
        right = [[entry() for _ in range(n)] for _ in range(inner)]
        return _dense_matmul(left, right) if inner else [[Fraction(0)] * n for _ in range(m)]
    return [[entry() for _ in range(n)] for _ in range(m)]


def mixed_matrix(rng, m, n, density):
    """sparse_matrix rescaled, which keeps its rank: each column by a factor
    over 1, 3, 7 or 9, and each nonzero row by a factor, some above 10^12,
    that makes its leading entry negative. Rows mix their denominators."""
    a = sparse_matrix(rng, m, n, density)
    cols = [Fraction(rng.choice([1, 2, 5]), rng.choice([1, 3, 7, 9])) for _ in range(n)]
    for row in a:
        row[:] = [v * c for v, c in zip(row, cols)]
        lead = next((v for v in row if v), None)
        if lead is not None:
            f = Fraction(rng.choice([1, 3, 10**12 + rng.randrange(10**12)]),
                         rng.choice([1, 2, 7, 9]))
            row[:] = [v * (-f if lead > 0 else f) for v in row]
    return a


SHAPES = [(0, 3), (1, 1), (3, 3), (2, 6), (6, 2), (5, 5), (4, 7), (7, 4), (3, 0)]


@pytest.mark.parametrize("density", [0.05, 0.25, 0.5, 1.0])
def test_sparse_elimination_matches_dense_reference(density):
    """rank, pivots, solve_many, solve (None included), nullspace and
    solve_min_norm agree exactly with the dense RREF, on 0-row, all-zero,
    wide, tall and rank-deficient matrices, and on the same shapes with
    mixed denominators and negative leading entries."""
    rng = random.Random(int(density * 1000))
    inconsistent = 0
    for shape, make in itertools.product(SHAPES * 12 + [(4, 4), (0, 0)],
                                         (sparse_matrix, mixed_matrix)):
        m, n = shape
        a = make(rng, m, n, density)
        if rng.randrange(2):
            b = matvec(a, [Fraction(rng.randint(-3, 3)) for _ in range(n)])
        else:
            b = [Fraction(rng.randint(-2, 2)) for _ in range(m)]
        cols = [matvec(a, [Fraction(rng.randint(-2, 2)) for _ in range(n)])
                for _ in range(2)]

        # a 0-row matrix carries no column count: both sides read it as 0 x 0
        work, pivots, n, _ = dense_reduce(a, [])
        reduced, _, consistent = linalg._eliminate(a)
        assert consistent
        assert sorted(reduced) == pivots
        assert linalg.rank(a) == len(pivots)
        for row, c in zip(work, pivots):
            assert {j: v for j, v in enumerate(row) if v != 0} == reduced[c]
        assert linalg.nullspace(a) == dense_kernel(work, pivots, n)

        work, pivots, _, ok = dense_reduce(a, cols)
        assert ok
        assert linalg.solve_many(a, cols) == [
            dense_particular(work, pivots, n, t) for t in range(len(cols))]

        work, pivots, _, ok = dense_reduce(a, [b])
        inconsistent += not ok
        expected = dense_particular(work, pivots, n, 0) if ok else None
        assert linalg.solve(a, b) == expected
        if not ok:
            with pytest.raises(ValueError):
                linalg.solve_many(a, cols + [b])
        assert linalg.solve_min_norm(a, b) == dense_min_norm(a, b)
    assert inconsistent >= 10


def fraction_projection_min_norm(a, b):
    """The Fraction kernel projection that solve_min_norm ran before its
    integer one: x_p − N·t with (NᵀN)·t = Nᵀ·x_p on the rref kernel basis."""
    pivots, n, consistent = linalg._eliminate(a, [b])
    if not consistent:
        return None
    x = linalg._particulars(pivots, n, 1)[0]
    kernel = linalg._kernel(pivots, n)
    if not kernel:
        return x
    t = linalg.solve([[dot(u, v) for v in kernel] for u in kernel],
                     [dot(u, x) for u in kernel])
    for u, tu in zip(kernel, t):
        x = [xi - tu * ui for xi, ui in zip(x, u)]
    return x


def test_min_norm_matches_the_fraction_projection():
    """solve_min_norm equals the Fraction projection, and
    solve_min_norm_scaled is the same answer as integers over one positive
    denominator, on seeded Fraction and mixed-denominator systems, many
    with kernel dimension >= 2 and many inconsistent."""
    rng = random.Random(43)
    wide_kernels = inconsistent = 0
    for _ in range(300):
        m, n = rng.randint(1, 6), rng.randint(2, 8)
        make = rng.choice([sparse_matrix, mixed_matrix])
        a = make(rng, m, n, rng.choice([0.3, 0.6, 1.0]))
        if rng.randrange(2):
            b = matvec(a, [Fraction(rng.randint(-3, 3), rng.choice([1, 2, 5]))
                           for _ in range(n)])
        else:
            b = [Fraction(rng.randint(-3, 3), rng.choice([1, 7])) for _ in range(m)]
        expected = fraction_projection_min_norm(a, b)
        assert linalg.solve_min_norm(a, b) == expected
        scaled = linalg.solve_min_norm_scaled(a, b)
        if expected is None:
            assert scaled is None
            inconsistent += 1
            continue
        den, x = scaled
        assert den > 0 and all(type(v) is int for v in x)
        assert [Fraction(v, den) for v in x] == expected
        wide_kernels += n - linalg.rank(a) >= 2
    assert wide_kernels >= 100 and inconsistent >= 50


def test_elimination_keeps_its_integer_pivot_rows_primitive(monkeypatch):
    """Every pivot row that the fraction-free elimination combines with is
    primitive (content 1) and has a positive leading entry."""
    pivots_seen = []
    combine = linalg._combine

    def spy(row, pivot, c):
        pivots_seen.append((dict(pivot), c))
        combine(row, pivot, c)

    monkeypatch.setattr(linalg, "_combine", spy)
    rng = random.Random(29)
    for m, n in SHAPES * 6:
        a = mixed_matrix(rng, m, n, 0.6)
        b = [Fraction(rng.randint(-4, 4), rng.choice([1, 2, 9])) for _ in range(m)]
        linalg.solve_many(a, [matvec(a, [Fraction(1)] * n)])
        linalg.solve(a, b)
    assert len(pivots_seen) > 100
    for pivot, c in pivots_seen:
        assert pivot[c] > 0
        assert all(type(v) is int for v in pivot.values())
        assert math.gcd(*pivot.values()) == 1
