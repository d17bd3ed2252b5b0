"""Exact linear algebra: elimination, kernels, minimum-norm solves."""

import random
from fractions import Fraction

import pytest

from parahol import linalg


def rand_matrix(rng, m, n, max_abs=6):
    return [[Fraction(rng.randint(-max_abs, max_abs), rng.choice([1, 2, 3]))
             for _ in range(n)] for _ in range(m)]


def test_rref_identity_pivots():
    rows = linalg.identity_vectors(4)
    assert linalg.rref(rows) == [0, 1, 2, 3]


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
    cols = [linalg.matvec(a, [row[0] for row in x]) for x in xs]
    sols = linalg.solve_many(a, cols)
    for sol, col in zip(sols, cols):
        assert linalg.matvec(a, sol) == col


def test_solve_many_inconsistent_raises():
    with pytest.raises(ValueError):
        linalg.solve_many([[1, 2], [2, 4]], [[3, 7]])


def test_min_norm_solution_is_minimal_and_exact():
    rng = random.Random(5)
    for _ in range(30):
        a = rand_matrix(rng, 3, 5)
        x_true = [Fraction(rng.randint(-4, 4)) for _ in range(5)]
        b = linalg.matvec(a, x_true)
        x = linalg.solve_min_norm(a, b)
        assert x is not None
        assert linalg.matvec(a, x) == b
        # minimality: orthogonal to the kernel
        for v in linalg.nullspace(a):
            assert linalg.dot(x, v) == 0


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
            a = linalg.matmul(rand_matrix(rng, m, r), rand_matrix(rng, r, n))
        else:
            a = [[Fraction(0)] * n for _ in range(m)]
        if rng.randrange(2):
            b = linalg.matvec(a, [Fraction(rng.randint(-4, 4)) for _ in range(n)])
        else:
            b = [Fraction(rng.randint(-4, 4)) for _ in range(m)]
        x = linalg.solve_min_norm(a, b)
        solvable = linalg.rank(a) == linalg.rank([row + [v] for row, v in zip(a, b)])
        assert (x is None) == (not solvable)
        if x is not None:
            assert len(x) == n and linalg.matvec(a, x) == b
            assert all(linalg.dot(x, v) == 0 for v in linalg.nullspace(a))
        inconsistent += not solvable
    assert inconsistent >= 50


def test_nullspace_dimension_and_membership():
    rng = random.Random(9)
    for _ in range(20):
        a = rand_matrix(rng, 4, 6)
        basis = linalg.nullspace(a)
        assert len(basis) == 6 - linalg.rank(a)
        for v in basis:
            assert linalg.is_zero_vector(linalg.matvec(a, v))


def _dense_matmul(a, b):
    return [[sum((a[i][t] * b[t][j] for t in range(len(b))), Fraction(0))
             for j in range(len(b[0]))] for i in range(len(a))]


@pytest.mark.parametrize("m,r,n", [(3, 4, 2), (1, 5, 4), (4, 1, 3), (5, 3, 5)])
def test_sparse_matmul_matches_dense_reference(m, r, n):
    rng = random.Random(m * 100 + r * 10 + n)
    for _ in range(20):
        a = rand_matrix(rng, m, r)
        b = rand_matrix(rng, r, n)
        # zero rows and columns in both factors, and scattered zero entries
        a[rng.randrange(m)] = [Fraction(0)] * r
        for row in b:
            row[rng.randrange(n)] = Fraction(0)
        for row in a:
            row[rng.randrange(r)] = Fraction(0)
        b[rng.randrange(r)] = [Fraction(0)] * n
        product = linalg.matmul(a, b)
        assert product == _dense_matmul(a, b)
        assert all(isinstance(v, Fraction) for row in product for v in row)
