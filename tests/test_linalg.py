"""Exact linear algebra: elimination, kernels, minimum-norm solves."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from parahol import linalg
from parahol.families import build_conformal, build_cr
from parahol.sampling import kernel_instance, random_instance
from parahol.scales import default_scale
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


def padded_block_diagonal(rng, m, n, density):
    """m x n: `permuted_block_diagonal` on min(m, n) - 1 rows and columns,
    some of its blocks singular, set among zero rows and zero columns at
    seeded positions. `density` is not used; every such matrix splits into
    blocks, and solve_scaled meets a zero row and a zero column on each."""
    k = max(min(m, n) - 1, 0)
    block = permuted_block_diagonal(rng, k)
    rows, cols = sorted(rng.sample(range(m), k)), sorted(rng.sample(range(n), k))
    a = [[Fraction(0)] * n for _ in range(m)]
    for i, row in zip(rows, block):
        for j, v in zip(cols, row):
            a[i][j] = Fraction(v)
    return a


@pytest.mark.parametrize("density", [0.05, 0.25, 0.5, 1.0])
def test_rank_and_solves_match_dense_reference(density):
    """rank, solve_scaled (None included), nullspace and
    solve_min_norm_scaled agree exactly with the dense RREF (the integer
    answers read as Fractions), on 0-row, all-zero, wide, tall and
    rank-deficient matrices, on the same shapes with mixed denominators
    and negative leading entries, and on permuted block-diagonal ones with
    zero rows and zero columns. On those, the columns of B meet several
    blocks, and a right-hand side that is consistent but for one row makes
    one block inconsistent among many, or puts a nonzero entry on a zero
    row of A."""
    rng = random.Random(int(density * 1000))
    inconsistent = one_block_inconsistent = zero_row_met = 0
    for shape, make in itertools.product(SHAPES * 12 + [(4, 4), (0, 0)],
                                         (sparse_matrix, mixed_matrix, padded_block_diagonal)):
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
        assert linalg.rank(a) == len(pivots)
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

        if make is padded_block_diagonal:
            # one entry off a consistent right-hand side, on a zero row or on
            # a row that depends on the others: exactly one block fails
            consistent = matvec(a, [Fraction(rng.randint(-3, 3)) for _ in range(n)])
            zero_rows = [i for i in range(m) if not any(a[i])]
            dependent = [i for i in range(m) if any(a[i]) and
                         len(dense_reduce(a[:i] + a[i + 1:], [])[1]) == len(pivots)]
            for i in zero_rows[:1] + dependent[:1]:
                off = list(consistent)
                off[i] += 1
                assert dense_solve(a, [off]) is None
                assert linalg.solve_scaled(a, [off]) is None
                assert linalg.solve_scaled(a, cols + [off]) is None
                zero_row_met += i in zero_rows
                one_block_inconsistent += i in dependent
    assert inconsistent >= 10
    assert zero_row_met >= 20 and one_block_inconsistent >= 4


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


def big_dense(rng, m, n):
    """m x n with every entry nonzero: numerators up to 10^12 over
    denominators 1, 2, 3, 7 and 9."""
    return [[Fraction(rng.choice([-1, 1]) * rng.randint(1, 10**12), rng.choice([1, 2, 3, 7, 9]))
             for _ in range(n)] for _ in range(m)]


def low_rank(rng, m, n):
    """m x n of rank at most n - 3, so its kernel has dimension >= 3: a
    product through an inner dimension n - 3 to n - 6, with mixed
    denominators and numerators up to 10^12."""
    inner = n - rng.randint(3, 6)
    left = [[Fraction(rng.randint(-9, 9), rng.choice([1, 2, 5])) for _ in range(inner)]
            for _ in range(m)]
    return dense_matmul(left, big_dense(rng, inner, n))


def permuted_block_diagonal(rng, n):
    """n x n block-diagonal with blocks of size 1 to 3, entries not ±1 and
    some blocks singular, its rows and columns then permuted and some rows
    put in Fractions. A column's step leaves the rows of every other block
    untouched, so rows skip several steps before the elimination reads
    them again, and the pivots it meets are not ±1."""
    a = [[0] * n for _ in range(n)]
    at = 0
    while at < n:
        size = min(rng.randint(1, 3), n - at)
        block = [[rng.choice([-6, -3, -2, 0, 2, 4, 5, 7]) for _ in range(size)]
                 for _ in range(size)]
        if size > 1 and rng.randrange(4) == 0:
            block[-1] = [2 * v for v in block[0]]
        for i, row in enumerate(block):
            a[at + i][at:at + size] = row
        at += size
    rows, cols = rng.sample(range(n), n), rng.sample(range(n), n)
    a = [[a[i][j] for j in cols] for i in rows]
    for row in a:
        if rng.randrange(3) == 0:
            row[:] = [Fraction(v, rng.choice([3, 4])) for v in row]
    return a


def classifier_blocks(rng):
    """(A, b) on the blocks ad(X_0)|g_d that the classifier solves
    (`ad_block_scaled`), for seeded elements of conformal (3,0) and (6,0),
    cr(1) and cr(3), half of them kernel instances; b is in the image
    every other time."""
    for algebra in (build_conformal(3, 0), build_conformal(6, 0), build_cr(1), build_cr(3)):
        scale = default_scale(algebra)
        for i in range(16):
            x = random_instance(algebra, scale, rng) if i % 2 else kernel_instance(algebra, rng)
            for d in range(1, algebra.k + 1):
                _, block = algebra.ad_block_scaled(x.scaled(), d, d)
                n = len(block[0])
                if i % 2:
                    b = [rng.randint(-3, 3) for _ in range(n)]
                else:
                    b = matvec(block, [Fraction(rng.randint(-3, 3), rng.choice([1, 2]))
                                       for _ in range(n)])
                yield block, b


def large_systems(kind, rng):
    """(A, b) at the sizes the CLI reaches, 12 to 26 columns, b in the
    image every other time; a dense A has two more rows than columns when
    b is not, and fewer or as many when it is."""
    if kind == "classifier":
        yield from classifier_blocks(rng)
        return
    for i, n in enumerate((12, 15, 18, 21, 26) * (4 if kind == "block_diagonal" else 2)):
        if kind == "dense":
            m = n + 2 if i % 2 else rng.choice([n - 2, n])
            a = big_dense(rng, m, n)
        elif kind == "low_rank":
            m, a = n, low_rank(rng, n, n)
        else:
            m, a = n, permuted_block_diagonal(rng, n)
        if i % 2:
            b = [Fraction(rng.randint(-5, 5), rng.choice([1, 7])) for _ in range(m)]
        else:
            b = matvec(a, [Fraction(rng.randint(-5, 5), rng.choice([1, 3])) for _ in range(n)])
        yield a, b


@pytest.mark.parametrize("kind", ["dense", "block_diagonal", "low_rank", "classifier"])
def test_min_norm_and_nullspace_match_the_fraction_reference_at_cli_sizes(kind):
    """solve_min_norm_scaled and nullspace equal the dense Fraction
    references (`dense_min_norm`, `dense_kernel`) at the sizes the CLI
    reaches, up to the 26 x 26 blocks of cr(13): dense blocks with entries
    up to 10^12 and mixed denominators, permuted block-diagonal ones whose
    rows skip steps, rank-deficient ones with kernels of dimension >= 3,
    and the classifier's own blocks."""
    rng = random.Random(sum(map(ord, kind)))
    kernel_dims, inconsistent = [], 0
    for a, b in large_systems(kind, rng):
        work, pivots, n, _ = dense_reduce(a, [])
        basis = linalg.nullspace(a)
        assert basis == dense_kernel(work, pivots, n)
        kernel_dims.append(len(basis))
        expected = dense_min_norm(a, b)
        scaled = linalg.solve_min_norm_scaled(a, b)
        if expected is None:
            assert scaled is None
            inconsistent += 1
            continue
        den, x = scaled
        assert den > 0 and all(type(v) is int for v in x)
        assert [Fraction(v, den) for v in x] == expected
    assert inconsistent >= 3
    if kind == "low_rank":
        assert min(kernel_dims) >= 3
    if kind in ("block_diagonal", "classifier"):
        assert sum(dim > 0 for dim in kernel_dims) >= 3


def det(block):
    """The determinant by the Leibniz formula; blocks here are at most 4 x 4."""
    size = len(block)
    total = 0
    for perm in itertools.permutations(range(size)):
        inversions = sum(perm[i] > perm[j] for i, j in itertools.combinations(range(size), 2))
        total += (-1) ** inversions * math.prod(block[i][perm[i]] for i in range(size))
    return total


def test_solve_scaled_denominator_stays_within_the_blocks():
    """solve_scaled answers over the lcm of the blocks' last pivots, not
    over their product: 2·I of order 253 against the identity gives
    den = 2, and on seeded permuted block-diagonal integer matrices den
    divides the lcm of the blocks' |det|. Each block has an even
    determinant, so a whole-matrix elimination, whose denominator is
    |det A|, the product, fails both checks."""
    two = [[2 if i == j else 0 for j in range(253)] for i in range(253)]
    identity = [[1 if i == j else 0 for i in range(253)] for j in range(253)]
    den, xs = linalg.solve_scaled(two, identity)
    assert den == 2 and xs == identity

    rng = random.Random(31)
    for _ in range(40):
        blocks, count = [], rng.randint(2, 6)
        while len(blocks) < count:
            size = rng.randint(1, 4)
            block = [[rng.randint(-4, 4) for _ in range(size)] for _ in range(size)]
            block[0] = [2 * v for v in block[0]]
            if det(block):
                blocks.append(block)
        n = sum(map(len, blocks))
        a = [[0] * n for _ in range(n)]
        at = 0
        for block in blocks:
            for i, row in enumerate(block):
                a[at + i][at:at + len(row)] = row
            at += len(block)
        rows, columns = rng.sample(range(n), n), rng.sample(range(n), n)
        a = [[a[i][j] for j in columns] for i in rows]
        b_cols = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(3)]
        den, xs = linalg.solve_scaled(a, b_cols)
        assert math.lcm(*[abs(det(block)) for block in blocks]) % den == 0
        assert [[Fraction(v, den) for v in x] for x in xs] == dense_solve(a, b_cols)
