"""Exact linear algebra: elimination, kernels, minimum-norm solves."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from parahol import linalg
from dense_reference import (
    dense_kernel,
    dense_matmul,
    dense_min_norm,
    dense_reduce,
    dense_solve,
    dot,
    matvec,
)


def rand_matrix(rng, m, n, max_abs=6):
    return [[Fraction(rng.randint(-max_abs, max_abs), rng.choice([1, 2, 3]))
             for _ in range(n)] for _ in range(m)]


def solve(a, b_cols):
    """solve_scaled read as Fraction columns; None stays None."""
    solution = linalg.solve_scaled(a, b_cols)
    if solution is None:
        return None
    den, cols = solution
    assert den > 0 and all(type(v) is int for col in cols for v in col)
    return [[Fraction(v, den) for v in col] for col in cols]


def min_norm(a, b):
    """solve_min_norm_scaled read as Fractions; None stays None."""
    solution = linalg.solve_min_norm_scaled(a, b)
    if solution is None:
        return None
    den, x = solution
    return [Fraction(v, den) for v in x]


def test_rank_known():
    assert linalg.rank([[1, 2], [2, 4]]) == 1
    assert linalg.rank([[1, 0], [0, 1]]) == 2
    assert linalg.rank([[0, 0], [0, 0]]) == 0


def test_solve_consistent_and_inconsistent():
    a = [[1, 2], [2, 4]]
    assert linalg.solve_scaled(a, [[3, 6]]) is not None
    assert linalg.solve_scaled(a, [[3, 7]]) is None


def test_solve_scaled_solves_every_column():
    rng = random.Random(11)
    a = rand_matrix(rng, 4, 3)
    xs = [rand_matrix(rng, 3, 1) for _ in range(5)]
    cols = [matvec(a, [row[0] for row in x]) for x in xs]
    sols = solve(a, cols)
    assert sols == dense_solve(a, cols)
    for sol, col in zip(sols, cols):
        assert matvec(a, sol) == col


def test_solve_scaled_is_none_on_an_inconsistent_column():
    assert linalg.solve_scaled([[1, 2], [2, 4]], [[3, 7]]) is None
    assert linalg.solve_scaled([[1, 2], [2, 4]], [[3, 6], [3, 7]]) is None


def test_min_norm_solution_is_minimal_and_exact():
    rng = random.Random(5)
    for _ in range(30):
        a = rand_matrix(rng, 3, 5)
        x_true = [Fraction(rng.randint(-4, 4)) for _ in range(5)]
        b = matvec(a, x_true)
        x = min_norm(a, b)
        assert x is not None
        assert matvec(a, x) == b
        # minimality: orthogonal to the kernel
        for v in linalg.nullspace(a):
            assert dot(x, v) == 0


def test_min_norm_none_when_inconsistent():
    assert linalg.solve_min_norm_scaled([[1, 2], [2, 4]], [1, 3]) is None
    # seeded rank-deficient systems, about half of them inconsistent;
    # consistent ones must give the minimum-norm solution
    rng = random.Random(17)
    inconsistent = 0
    for _ in range(200):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        r = rng.randint(0, min(m, n) - 1)
        if r:
            a = dense_matmul(rand_matrix(rng, m, r), rand_matrix(rng, r, n))
        else:
            a = [[Fraction(0)] * n for _ in range(m)]
        if rng.randrange(2):
            b = matvec(a, [Fraction(rng.randint(-4, 4)) for _ in range(n)])
        else:
            b = [Fraction(rng.randint(-4, 4)) for _ in range(m)]
        x = min_norm(a, b)
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
        return dense_matmul(left, right) if inner else [[Fraction(0)] * n for _ in range(m)]
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
    """rank, the pivot rows, solve_scaled (None included), nullspace and
    solve_min_norm_scaled agree exactly with the dense RREF (the integer
    answers read as Fractions), on 0-row, all-zero, wide, tall and
    rank-deficient matrices, and on the same shapes with mixed
    denominators and negative leading entries."""
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
            lead = reduced[c][c]
            assert ({j: v for j, v in enumerate(row) if v != 0}
                    == {j: Fraction(v, lead) for j, v in reduced[c].items()})
        assert linalg.nullspace(a) == dense_kernel(work, pivots, n)

        expected = dense_solve(a, cols)
        assert expected is not None
        assert solve(a, cols) == expected

        expected = dense_solve(a, [b])
        inconsistent += expected is None
        assert solve(a, [b]) == expected
        if expected is None:
            assert linalg.solve_scaled(a, cols + [b]) is None
        assert min_norm(a, b) == dense_min_norm(a, b)
    assert inconsistent >= 10


def test_min_norm_matches_the_fraction_projection():
    """solve_min_norm_scaled is the dense Fraction projection
    (`dense_min_norm`) as integers over one positive denominator, on
    seeded Fraction and mixed-denominator systems, many with kernel
    dimension >= 2 and many inconsistent."""
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
        expected = dense_min_norm(a, b)
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
        linalg.solve_scaled(a, [matvec(a, [Fraction(1)] * n)])
        linalg.solve_scaled(a, [b])
    assert len(pivots_seen) > 100
    for pivot, c in pivots_seen:
        assert pivot[c] > 0
        assert all(type(v) is int for v in pivot.values())
        assert math.gcd(*pivot.values()) == 1
