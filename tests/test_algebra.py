"""Graded algebra construction, bracket, Killing form, grading machinery."""

import functools
import itertools
import math
import random
from fractions import Fraction

import pytest

from parahol import families, linalg
from parahol.algebra import GradedLieAlgebra, _as_scalar
from parahol.errors import (
    DomainError,
    GradeRangeError,
    MismatchedAlgebraError,
    StructureError,
)
from parahol.families import (
    _check_su_conditions,
    _form_index,
    _realify,
    build,
    build_conformal,
    build_cr,
)
from parahol.sampling import random_element
from parahol.scales import default_scale
from dense_reference import (
    ReferenceRealization,
    killing_matrix,
    sparse_matrix,
    structure,
)
from test_acceptance import _first_jacobi_failure


@pytest.fixture(scope="module")
def so41():
    return build_conformal(3, 0)


@pytest.fixture(scope="module")
def su21():
    return build_cr(1)


CONFORMAL_SIGNATURES = [(2, 0), (3, 0), (1, 1), (2, 1), (0, 2)]


@pytest.mark.parametrize("p,q", CONFORMAL_SIGNATURES)
def test_conformal_dimensions(p, q):
    n = p + q
    algebra = build_conformal(p, q)
    assert algebra.dim == (n + 2) * (n + 1) // 2
    assert algebra.grade_dims() == (n, 1 + n * (n - 1) // 2, n)
    assert algebra.k == 1


def test_conformal_examples_from_block_count():
    assert build_conformal(3, 0).dim == 10
    assert build_conformal(3, 0).grade_dims() == (3, 4, 3)
    assert build_conformal(1, 1).dim == 6
    assert build_conformal(1, 1).grade_dims() == (2, 2, 2)


def test_cr_dimensions():
    algebra = build_cr(1)
    assert algebra.dim == 8
    assert algebra.grade_dims() == (1, 2, 2, 2, 1)
    algebra2 = build_cr(2)
    assert algebra2.dim == 15
    assert algebra2.grade_dims() == (1, 4, 5, 4, 1)


def test_constructor_rejections():
    with pytest.raises(ValueError):
        build_conformal(1, 0)
    with pytest.raises(ValueError):
        build_cr(0)
    with pytest.raises(ValueError):
        build("unknown", [1])


@pytest.mark.parametrize("maker", [
    lambda: build_conformal(2, 0),
    lambda: build_conformal(1, 1),
    lambda: build_cr(1),
])
def test_validate_passes_exactly(maker):
    # validate() raises on any nonzero residual; no tolerance anywhere
    algebra = maker()
    assert algebra.validate() is algebra


def test_bracket_antisymmetry_on_basis(so41):
    for i in range(so41.dim):
        e = so41.basis_element(i)
        assert so41.bracket(e, e).is_zero


def test_grading_element_eigenvalues(so41, su21):
    for algebra in (so41, su21):
        e = algebra.grading_element
        for i in range(algebra.dim):
            y = algebra.basis_element(i)
            assert algebra.bracket(e, y) == algebra.grade[i] * y


def test_grading_element_names(so41, su21):
    assert so41.grading_element == so41.basis_element("D")
    assert su21.grading_element == su21.basis_element("E")


def test_grading_element_rejects_grades_that_are_no_grading(so41):
    # swapping the grades of P_1 and K_1 keeps the Killing form
    # nondegenerate, but [P_2, K_1] in g_0 would then need grade -2
    grades = list(so41.grade)
    p1, k1 = so41.basis_index("P_1"), so41.basis_index("K_1")
    grades[p1], grades[k1] = grades[k1], grades[p1]
    relabelled = _relabelled(so41, grades)
    assert linalg.rank(relabelled._killing_rows[1]) == relabelled.dim
    with pytest.raises(StructureError, match="no grading element"):
        relabelled.grading_element


def test_bracket_pk_matches_matrix_realization(so41):
    """Independent route: multiply realization matrices and re-express them
    through the Fraction reference."""
    real = so41.realization
    reference = ReferenceRealization(_matrices(so41))
    for a in ("P_1", "P_2", "P_3"):
        for b in ("K_1", "K_2", "K_3"):
            x = so41.basis_element(a)
            y = so41.basis_element(b)
            mx, my = real.matrix_of(x), real.matrix_of(y)
            comm = [[sum(mx[i][t] * my[t][j] - my[i][t] * mx[t][j]
                         for t in range(real.size))
                     for j in range(real.size)] for i in range(real.size)]
            coords = reference.coordinates(comm)
            assert coords is not None
            assert so41.bracket(x, y).coeffs == tuple(coords)


def test_bracket_pk_frozen_values(so41):
    d = so41.basis_element("D")
    m12 = so41.basis_element("M_12")
    assert so41.bracket(so41.basis_element("P_1"), so41.basis_element("K_1")) == d
    assert so41.bracket(so41.basis_element("P_1"), so41.basis_element("K_2")) == -1 * m12


def test_bracket_bilinear_and_antisymmetric_random(so41):
    rng = random.Random(17)
    for _ in range(20):
        x = random_element(so41, rng)
        y = random_element(so41, rng)
        z = random_element(so41, rng)
        c = Fraction(rng.randint(-5, 5), 2)
        assert so41.bracket(x, y) == -1 * so41.bracket(y, x)
        assert so41.bracket(x + c * y, z) == so41.bracket(x, z) + c * so41.bracket(y, z)


def test_killing_symmetric_random(so41):
    rng = random.Random(23)
    for _ in range(10):
        x = random_element(so41, rng)
        y = random_element(so41, rng)
        assert so41.killing_form(x, y) == so41.killing_form(y, x)


@pytest.mark.parametrize("p,q", CONFORMAL_SIGNATURES)
def test_killing_of_grading_element_conformal(p, q):
    # eigenvalue count: B(E,E) = sum_i i^2 dim g_i = 2n; confirmed by trace
    algebra = build_conformal(p, q)
    e = algebra.grading_element
    n = p + q
    by_eigenvalues = sum(
        g * g * len(algebra.indices_of_grade(g))
        for g in range(-algebra.k, algebra.k + 1)
    )
    assert by_eigenvalues == 2 * n
    assert algebra.killing_form(e, e) == 2 * n


def test_killing_of_grading_element_cr(su21):
    e = su21.grading_element
    by_eigenvalues = sum(
        g * g * len(su21.indices_of_grade(g)) for g in range(-2, 3)
    )
    assert by_eigenvalues == 12
    assert su21.killing_form(e, e) == 12


def test_killing_grade_orthogonality(so41, su21):
    # ad x ad y strictly shifts degree when grades don't sum to zero
    for algebra in (so41, su21):
        for i in range(algebra.dim):
            for j in range(algebra.dim):
                if algebra.grade[i] + algebra.grade[j] != 0:
                    x = algebra.basis_element(i)
                    y = algebra.basis_element(j)
                    assert algebra.killing_form(x, y) == 0


def test_killing_ad_invariance(so41, su21):
    rng = random.Random(31)
    for algebra in (so41, su21):
        for _ in range(10):
            x = random_element(algebra, rng)
            y = random_element(algebra, rng)
            z = random_element(algebra, rng)
            lhs = algebra.killing_form(algebra.bracket(z, x), y)
            rhs = algebra.killing_form(x, algebra.bracket(z, y))
            assert lhs + rhs == 0


def test_killing_pairing_nondegenerate_per_grade(so41, su21):
    # B restricted to g_j x g_-j has full rank
    for algebra in (so41, su21):
        b = killing_matrix(algebra)
        for g in range(1, algebra.k + 1):
            rows = [[b[i][j] for j in algebra.indices_of_grade(-g)]
                    for i in algebra.indices_of_grade(g)]
            assert linalg.rank(rows) == len(rows)


def test_component_projection(so41):
    e = so41.grading_element
    assert so41.component(e, 0) == e
    assert so41.component(e, 1).is_zero
    x = so41.basis_element("P_1") + so41.basis_element("K_1")
    assert so41.component(x, 1) == so41.basis_element("K_1")


def test_components_partition_random(so41, su21):
    rng = random.Random(41)
    for algebra in (so41, su21):
        for _ in range(10):
            x = random_element(algebra, rng)
            total = algebra.zero()
            for g in range(-algebra.k, algebra.k + 1):
                total = total + x.component(g)
                assert algebra.from_grade_coords(
                    g, algebra.grade_coords(x, g)) == x.component(g)
            assert total == x
    with pytest.raises(ValueError):
        so41.from_grade_coords(1, [1, 2])


def test_component_range_error(so41):
    with pytest.raises(GradeRangeError):
        so41.component(so41.zero(), 2)


def test_grading_additivity_random(so41, su21):
    rng = random.Random(43)
    for algebra in (so41, su21):
        for _ in range(8):
            x = random_element(algebra, rng)
            y = random_element(algebra, rng)
            bxy = algebra.bracket(x, y)
            for c in range(-algebra.k, algebra.k + 1):
                expected = algebra.zero()
                for a in range(-algebra.k, algebra.k + 1):
                    b = c - a
                    if abs(b) <= algebra.k:
                        expected = expected + algebra.bracket(
                            x.component(a), y.component(b))
                assert bxy.component(c) == expected


@pytest.mark.parametrize("maker", [
    lambda: build_conformal(3, 0),
    lambda: build_conformal(2, 1),
    lambda: build_cr(1),
    lambda: build_cr(2),
])
def test_ad_block_matches_dense_structure_tensor(maker):
    """Every grade block of ad(x), for x with every coefficient nonzero,
    against sum_i x_i c_{i s}^l taken over the whole dense structure tensor."""
    algebra = maker()
    k = algebra.k
    c = structure(algebra)
    rng = random.Random(59)
    for _ in range(4):
        x = algebra.element_from_coeffs(
            [Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 2, 3]))
             for _ in range(algebra.dim)])
        for source in range(-k, k + 1):
            cols = algebra.indices_of_grade(source)
            for target in range(-k, k + 1):
                rows = algebra.indices_of_grade(target)
                reference = [[sum((x.coeffs[i] * c[i][s][l] for i in range(algebra.dim)),
                                  Fraction(0))
                              for s in cols] for l in rows]
                block = algebra.ad_block(x, source, target)
                assert block == reference
                if abs(target - source) > k:
                    assert all(v == 0 for row in block for v in row)


def test_negative_part_generated_by_grade_minus_one(su21):
    # bracket of grade -1 spans grade -2 (restated for the k=2 constructor)
    g1 = [su21.basis_element(i) for i in su21.indices_of_grade(-1)]
    span = [list(su21.bracket(a, b).coeffs) for a in g1 for b in g1]
    idx = su21.indices_of_grade(-2)
    rows = [[v[i] for i in idx] for v in span]
    assert linalg.rank(rows) == len(idx)


def test_mismatched_algebra_errors(so41):
    other = build_conformal(3, 0)
    x = so41.basis_element("D")
    y = other.basis_element("D")
    with pytest.raises(MismatchedAlgebraError):
        so41.bracket(x, y)
    with pytest.raises(MismatchedAlgebraError):
        so41.killing_form(x, y)
    with pytest.raises(MismatchedAlgebraError):
        x + y


def test_element_immutable(so41):
    x = so41.basis_element("D")
    with pytest.raises(AttributeError):
        x.coeffs = ()


def test_exactness_flag(so41):
    x = so41.basis_element("D")
    assert all(type(c) is Fraction for c in x.coeffs)
    with pytest.raises(DomainError):
        so41.element_from_coeffs([0.5] + [0] * (so41.dim - 1))


def test_elements_keep_one_scaled_form(so41, su21):
    """An element holds its coefficients as numerators over their lcm
    denominator, a unique pair: elements reached along different routes
    are equal with equal hashes, and arithmetic, components, grade
    coordinates and the Killing form agree with the same operations on
    the Fraction coefficients."""
    rng = random.Random(29)

    def coefficients(algebra):
        return [Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3, 4, 7, 10**6 + 3]))
                if rng.random() < 0.6 else Fraction(0) for _ in range(algebra.dim)]

    for algebra in (so41, su21):
        b = killing_matrix(algebra)
        for _ in range(20):
            cx, cy = coefficients(algebra), coefficients(algebra)
            x, y = algebra.element_from_coeffs(cx), algebra.element_from_coeffs(cy)
            c = Fraction(rng.randint(-5, 5), rng.randint(1, 6))
            assert x.coeffs == tuple(cx)
            assert x.den == math.lcm(*[v.denominator for v in cx])
            assert math.gcd(x.den, *x.nums) == 1
            assert x.scaled() == (x.den, {i: v for i, v in enumerate(x.nums) if v})
            assert (x + y).coeffs == tuple(u + v for u, v in zip(cx, cy))
            assert (x - y).coeffs == tuple(u - v for u, v in zip(cx, cy))
            assert (-x).coeffs == tuple(-u for u in cx)
            assert (c * x).coeffs == (x * c).coeffs == tuple(c * u for u in cx)
            assert (x + y) - y == x and hash((x + y) - y) == hash(x)
            for g in range(-algebra.k, algebra.k + 1):
                idx = algebra.indices_of_grade(g)
                assert x.component(g).coeffs == tuple(
                    u if i in idx else 0 for i, u in enumerate(cx))
                assert algebra.grade_coords(x, g) == [cx[i] for i in idx]
            assert algebra.killing_form(x, y) == sum(
                (cx[i] * b[i][j] * cy[j] for i in range(algebra.dim)
                 for j in range(algebra.dim)), Fraction(0))
        i = algebra.basis_index(algebra.basis_names[1])
        half = algebra.element_from_coeffs(
            [Fraction(1, 2) if t == i else 0 for t in range(algebra.dim)])
        assert algebra.from_scaled(6, {i: 3}) == half
        assert algebra.from_scaled(-6, {i: -3}) == half
        assert (half.den, half.nums[i]) == (2, 1)
        zero = algebra.from_scaled(5, {})
        assert zero == algebra.zero() == 0 * half and zero.den == 1 and zero.is_zero


@pytest.mark.parametrize("construct", [
    pytest.param(lambda a: a.element({"D": 0.5}), id="element"),
    pytest.param(lambda a: 0.5 * a.basis_element("D"), id="left_scalar"),
    pytest.param(lambda a: a.basis_element("D") * 2.0, id="right_scalar"),
    pytest.param(lambda a: a.element({"D": "1/2"}), id="string"),
    pytest.param(lambda a: a.element({"D": True}), id="boolean"),
    pytest.param(lambda a: True * a.basis_element("D"), id="boolean_scalar"),
])
def test_inexact_coefficients_raise_domain_error(so41, construct):
    with pytest.raises(DomainError):
        construct(so41)


def test_exact_scalars_are_read_unchanged():
    # an int basis-matrix entry is not rebuilt as a Fraction only to have
    # its numerator read back
    assert type(_as_scalar(3)) is int and _as_scalar(3) == 3
    half = Fraction(1, 2)
    assert _as_scalar(half) is half


def test_exp_ad_rejects_mixed_sign(so41):
    z = so41.basis_element("P_1") + so41.basis_element("K_1")
    with pytest.raises(ValueError):
        so41.exp_ad(z, so41.basis_element("D"))
    z0 = so41.basis_element("D")
    with pytest.raises(ValueError):
        so41.exp_ad(z0, so41.basis_element("P_1"))


# -- the Fraction bracket, exp_ad and ad_block that the scaled-integer ones
# -- replaced, kept as references over a Fraction pair table rebuilt here from
# -- the algebra's matrices, so that no reference shares the integer table ---


@functools.cache
def _reference_table(algebra):
    """The pair table {(i, j): ((l, c_ij^l), ...)} of the algebra's own
    matrices, in Fractions (`reference_from_matrices`), once per algebra."""
    return reference_from_matrices(_matrices(algebra))


def reference_bracket(algebra, x, y):
    """[x, y] summed in Fractions over the reference pair table."""
    table = _reference_table(algebra)
    out = [Fraction(0)] * algebra.dim
    for i, xc in enumerate(x.coeffs):
        for j, yc in enumerate(y.coeffs):
            if xc and yc:
                for l, c in table.get((i, j), ()):
                    out[l] += xc * yc * c
    return algebra.element_from_coeffs(out)


def reference_exp_ad(algebra, z, x):
    """e^{ad z}(x), one dense Fraction bracket per term."""
    if z.is_zero:
        return x
    signs = {1 if g > 0 else -1 for g in z.grades() if g != 0}
    if len(signs) > 1 or (z.grades() and 0 in z.grades()):
        raise ValueError("exp_ad requires a pure-sign graded argument")
    term = x
    total = x
    factorial = 1
    for m in range(1, 2 * algebra.k + 2):
        term = reference_bracket(algebra, z, term)
        if term.is_zero:
            break
        factorial *= m
        total = total + term * Fraction(1, factorial)
    else:
        if not reference_bracket(algebra, z, term).is_zero:
            raise ValueError("exp_ad series failed to terminate")
    return total


def reference_ad_block(algebra, x, source_grade, target_grade):
    """ad(x): g_source -> g_target, summed in Fractions over the reference
    pair table."""
    rows = algebra.indices_of_grade(target_grade)
    cols = algebra.indices_of_grade(source_grade)
    row_of = {l: t for t, l in enumerate(rows)}
    block = [[Fraction(0)] * len(cols) for _ in rows]
    xs = [(i, x.coeffs[i])
          for i in algebra.indices_of_grade(target_grade - source_grade)
          if x.coeffs[i] != 0]
    table = _reference_table(algebra)
    for u, s in enumerate(cols):
        for i, xc in xs:
            for l, c in table.get((i, s), ()):
                block[row_of[l]][u] += xc * c
    return block


def _wide_rational(rng):
    """Zero a third of the time, else a small or a 13-digit numerator over
    1, 2, 3, 7 or 9."""
    if rng.randrange(3) == 0:
        return Fraction(0)
    num = rng.choice([rng.randint(1, 9), rng.randint(10**12, 10**13)])
    return Fraction(rng.choice([-1, 1]) * num, rng.choice([1, 2, 3, 7, 9]))


def _wide_element(algebra, rng, grades):
    return algebra.element_from_coeffs(
        [_wide_rational(rng) if g in grades else Fraction(0) for g in algebra.grade])


SCALED_MAKERS = [
    pytest.param(lambda: build_conformal(3, 0), id="conformal30"),
    pytest.param(lambda: build_conformal(2, 1), id="conformal21"),
    pytest.param(lambda: build_cr(1), id="cr1"),
    pytest.param(lambda: build_cr(2), id="cr2"),
    pytest.param(lambda: build_cr(3), id="cr3"),
]


@pytest.mark.parametrize("maker", SCALED_MAKERS)
def test_exp_ad_matches_fraction_reference(maker):
    """Seeded z of positive grades, of grade k alone and of grade -1 (as the
    flat gauge uses it) against the Fraction series, on x of every grade;
    coefficients over 1, 2, 3, 7 and 9, some above 10^12."""
    algebra = maker()
    k = algebra.k
    rng = random.Random(71)
    z_grades = [range(1, k + 1), (k,), (-1,)]
    x_grades = [range(-k, k + 1), range(0, k + 1), (-k,)]
    for _ in range(6):
        for zg in z_grades:
            z = _wide_element(algebra, rng, zg)
            for xg in x_grades:
                x = _wide_element(algebra, rng, xg)
                result = algebra.exp_ad(z, x)
                assert result == reference_exp_ad(algebra, z, x)
                assert all(type(c) is Fraction for c in result.coeffs)
    assert algebra.exp_ad(algebra.zero(), x) is x


def _mixed_conformal21():
    """conformal(2,1) built from its basis matrices times 1/3, 2/7, 5 and
    -3/4 in turn (see _mixed_matrices): D = 84, and a table scale that is
    neither 1 nor 2."""
    base = build_conformal(2, 1)
    return GradedLieAlgebra.from_matrices(
        base.basis_names, base.grade, [sparse_matrix(m) for m in _mixed_matrices(base)],
        base.family, base.params)


@pytest.mark.parametrize("maker", [
    pytest.param(_mixed_conformal21, id="conformal21_mixed"),
    pytest.param(lambda: build_cr(1), id="cr1"),
    pytest.param(lambda: build_cr(2), id="cr2"),
    pytest.param(lambda: build_cr(3), id="cr3"),
])
def test_bracket_and_grading_element_match_fraction_reference_off_scale_one(maker):
    """On tables whose scale S is not 1, bracket must divide by S: seeded
    wide x and y of every grade against the Fraction bracket, and the
    grading element by its defining [E, e_i] = grade(i)·e_i under that
    bracket, which fixes E since ad is injective."""
    algebra = maker()
    assert algebra._scaled_table[0] != 1
    k = algebra.k
    rng = random.Random(97)
    for _ in range(6):
        x = _wide_element(algebra, rng, range(-k, k + 1))
        y = _wide_element(algebra, rng, range(-k, k + 1))
        result = algebra.bracket(x, y)
        assert result == reference_bracket(algebra, x, y)
        assert all(type(c) is Fraction for c in result.coeffs)
    e = algebra.grading_element
    assert all(type(c) is Fraction for c in e.coeffs)
    for i, g in enumerate(algebra.grade):
        y = algebra.basis_element(i)
        assert reference_bracket(algebra, e, y) == g * y


@pytest.mark.parametrize("maker", SCALED_MAKERS)
def test_ad_block_matches_fraction_reference(maker):
    algebra = maker()
    k = algebra.k
    rng = random.Random(73)
    for _ in range(4):
        x = _wide_element(algebra, rng, range(-k, k + 1))
        for source in range(-k, k + 1):
            for target in range(-k, k + 1):
                assert (algebra.ad_block(x, source, target)
                        == reference_ad_block(algebra, x, source, target))


# -- the Fraction construction that the scaled-integer one replaced, kept as
# -- a reference ------------------------------------------------------------------


def reference_from_matrices(matrices):
    """The pair table {(i, j): ((l, c_ij^l), ...)} of [B_i, B_j] for i < j
    and its negation for (j, i), in Fractions."""
    real = ReferenceRealization(matrices)
    table = {}
    for i, a in enumerate(real.basis):
        for j in range(i + 1, len(real.basis)):
            b = real.basis[j]
            comm = {}
            for (r, t), v in a.items():
                for (t2, c), w in b.items():
                    if t2 == t:
                        comm[(r, c)] = comm.get((r, c), Fraction(0)) + v * w
            for (r, t), v in b.items():
                for (t2, c), w in a.items():
                    if t2 == t:
                        comm[(r, c)] = comm.get((r, c), Fraction(0)) - v * w
            coords = real.sparse_coordinates({p: v for p, v in comm.items() if v != 0})
            if coords is None:
                raise StructureError("matrix brackets leave the span of the basis")
            if coords:
                table[(i, j)] = tuple(sorted(coords.items()))
                table[(j, i)] = tuple((l, -c) for l, c in table[(i, j)])
    return table


def _fraction_table(algebra):
    """The algebra's integer table C/S read as a Fraction pair table
    {(i, j): ((l, c_ij^l), ...)}, the form reference_from_matrices builds."""
    scale, table = algebra._scaled_table
    return {(i, j): tuple((l, Fraction(c, scale)) for l, c in entries)
            for i, row in table.items() for j, entries in row.items()}


def _lcm_of_denominators(table):
    return math.lcm(*[c.denominator for entries in table.values() for _, c in entries])


def reference_killing_matrix(table, dim):
    """B_ij = Σ_{l,m} c_il^m c_jm^l over a pair table, in Fractions."""
    index = {}  # (m, l) -> [(j, c_jm^l)]
    for (j, m), entries in table.items():
        for l, c in entries:
            index.setdefault((m, l), []).append((j, c))
    b = [[Fraction(0)] * dim for _ in range(dim)]
    for (i, l), entries in table.items():
        for m, c in entries:
            for j, cj in index.get((m, l), ()):
                b[i][j] += c * cj
    return tuple(tuple(row) for row in b)


BUILD_ALGEBRAS = [(build_conformal, p) for p in
                  [(3, 0), (2, 1), (3, 1), (4, 0), (2, 2), (4, 1), (5, 0), (6, 0)]]
BUILD_ALGEBRAS += [(build_cr, (n,)) for n in (1, 2, 3)]


@pytest.mark.parametrize("maker,params", BUILD_ALGEBRAS,
                         ids=[f"{m.__name__[6:]}{''.join(map(str, p))}"
                              for m, p in BUILD_ALGEBRAS])
def test_construction_matches_fraction_reference(maker, params):
    algebra = maker(*params)
    table = reference_from_matrices(_matrices(algebra))
    assert _fraction_table(algebra) == table
    assert algebra._scaled_table[0] == _lcm_of_denominators(table)
    assert killing_matrix(algebra) == reference_killing_matrix(table, algebra.dim)


@pytest.mark.parametrize("family,params", [("conformal", [3, 0]), ("conformal", [2, 2]),
                                           ("cr", [2])])
def test_no_fraction_killing_matrix_is_kept(family, params):
    """Validation and the grading element read the integer Killing rows
    only, and the default scale reads none: no Fraction Killing matrix is
    left on the algebra, and killing_form still reads the same values as
    those rows."""
    algebra = build(family, params)
    algebra.validate()
    default_scale(algebra)
    assert "killing_matrix" not in vars(algebra)
    assert not hasattr(algebra, "killing_matrix")
    den, rows = algebra._killing_rows
    assert killing_matrix(algebra) == tuple(tuple(Fraction(v, den) for v in r) for r in rows)
    assert "killing_matrix" not in vars(algebra)


_MIXED_FACTORS = [Fraction(1, 3), Fraction(2, 7), Fraction(5), Fraction(-3, 4)]


def _mixed_matrices(algebra):
    """The algebra's basis matrices scaled by 1/3, 2/7, 5 and -3/4 in turn,
    so that both the basis and the inverse Gram matrix carry denominators
    other than 1."""
    return [[[f * v for v in row] for row in m] for f, m in
            zip(itertools.cycle(_MIXED_FACTORS), _matrices(algebra))]


def test_mixed_denominators_match_fraction_reference():
    base = build_conformal(2, 1)
    matrices = _mixed_matrices(base)
    algebra = GradedLieAlgebra.from_matrices(
        base.basis_names, base.grade, [sparse_matrix(m) for m in matrices],
        base.family, base.params)
    # Ĝ = 84²·G, and its inverse G⁻¹/84² is not integer
    assert algebra.realization._scale == 84
    assert any((g / 84 ** 2).denominator != 1
               for col in ReferenceRealization(matrices).dual for _, g in col)
    table = reference_from_matrices(matrices)
    assert _fraction_table(algebra) == table
    assert algebra._scaled_table[0] == _lcm_of_denominators(table)
    assert killing_matrix(algebra) == reference_killing_matrix(table, algebra.dim)
    assert algebra.validate() is algebra


def test_span_check_matches_fraction_reference_on_mixed_denominators():
    """On a basis with mixed denominators, the integer construction and the
    Fraction reference agree: a basis matrix moved by a multiple of another
    one spans the same algebra and gives the same table, and one moved by an
    entry off the span is refused with the same message."""
    base = build_conformal(2, 1)
    matrices = _mixed_matrices(base)
    rng = random.Random(89)

    def construct(moved):
        return GradedLieAlgebra.from_matrices(
            base.basis_names, base.grade, [sparse_matrix(m) for m in moved],
            base.family, base.params)

    for _ in range(6):
        k, l = rng.sample(range(len(matrices)), 2)
        r = _wide_rational(rng)
        inside = list(matrices)
        inside[k] = [[u + r * v for u, v in zip(a, b)]
                     for a, b in zip(matrices[k], matrices[l])]
        assert _fraction_table(construct(inside)) == reference_from_matrices(inside)
        outside = [[list(row) for row in m] for m in matrices]
        # no basis matrix has a (1, 1) entry
        outside[k][1][1] += Fraction(rng.choice([1, 2, 3]), rng.choice([1, 5, 7]))
        message = "matrix brackets leave the span of the basis"
        with pytest.raises(StructureError, match=message):
            reference_from_matrices(outside)
        with pytest.raises(StructureError, match=message):
            construct(outside)


def _unimodular_pair(size, rng):
    """(g, g⁻¹) for g a product of 3·size integer elementary matrices
    I + c·E_ab (a ≠ b), as dense int matrices."""
    g = [[int(r == c) for c in range(size)] for r in range(size)]
    inverse = [list(row) for row in g]
    for _ in range(3 * size):
        a, b = rng.sample(range(size), 2)
        c = rng.choice([-2, -1, 1, 2])
        # g·(I + c·E_ab) adds c·column a to column b; (I − c·E_ab)·g⁻¹
        # subtracts c·row b from row a
        for row in g:
            row[b] += c * row[a]
        inverse[a] = [u - c * v for u, v in zip(inverse[a], inverse[b])]
    return g, inverse


def _conjugated(algebra, g, inverse):
    """g·B_k·g⁻¹ for each basis matrix B_k = M_k/D, as dense matrices."""
    real = algebra.realization
    size, columns = real.size, list(zip(*inverse))
    out = []
    for m in real._integer_matrices:
        gm = [[0] * size for _ in range(size)]
        for (t, c), v in m.items():
            for r in range(size):
                gm[r][c] += g[r][t] * v
        out.append([[Fraction(sum(a * b for a, b in zip(row, col)), real._scale)
                     for col in columns] for row in gm])
    return out


CONJUGATED_MAKERS = [(build_conformal, (2, 0)), (build_conformal, (3, 0)),
                     (build_conformal, (2, 1)), (build_cr, (1,)), (build_cr, (2,))]


@pytest.mark.parametrize("maker,params", CONJUGATED_MAKERS,
                         ids=[f"{m.__name__[6:]}{''.join(map(str, p))}"
                              for m, p in CONJUGATED_MAKERS])
def test_table_is_invariant_under_unimodular_conjugation(maker, params):
    """Conjugating every basis matrix by one unimodular integer g keeps the
    brackets, so the table is the same, in value and in order, although the
    conjugated matrices are dense and their Gram matrix is not diagonal. The
    first conjugated matrix moved by 1 in one entry is refused with the
    message of the Fraction reference, which stops at the first pair."""
    algebra = maker(*params)
    size = algebra.realization.size
    g, inverse = _unimodular_pair(size, random.Random(97))
    assert ([[sum(a * b for a, b in zip(row, col)) for col in zip(*inverse)] for row in g]
            == [[int(r == c) for c in range(size)] for r in range(size)])
    conjugated = _conjugated(algebra, g, inverse)
    assert sum(v != 0 for m in conjugated for row in m for v in row) > 2 * sum(
        len(m) for m in algebra.realization._integer_matrices)

    def construct(matrices):
        return GradedLieAlgebra.from_matrices(
            algebra.basis_names, algebra.grade, [sparse_matrix(m) for m in matrices],
            algebra.family, algebra.params)

    first, *rest = [sparse_matrix(m) for m in conjugated]
    assert any(sum(v * m.get(pos, 0) for pos, v in first.items()) for m in rest)
    scale, table = construct(conjugated)._scaled_table
    assert scale == algebra._scaled_table[0]
    assert ([(i, list(row.items())) for i, row in table.items()]
            == [(i, list(row.items())) for i, row in algebra._scaled_table[1].items()])
    rng = random.Random(101)
    conjugated[0][rng.randrange(size)][rng.randrange(size)] += 1
    with pytest.raises(StructureError) as reference:
        reference_from_matrices(conjugated)
    with pytest.raises(StructureError) as refusal:
        construct(conjugated)
    assert str(refusal.value) == str(reference.value)


def test_products_that_cancel_give_no_table_entry():
    # X = E_01, H = diag(1, −1) and the identity I: [H, I] and [X, I] are sums
    # of nonzero products that cancel, and only [X, H] = −2X is left
    algebra = GradedLieAlgebra.from_matrices(
        ["X", "H", "I"], [1, 0, 0], [{(0, 1): 1}, {(0, 0): 1, (1, 1): -1},
                                     {(0, 0): 1, (1, 1): 1}], "gl", (2,))
    assert algebra._scaled_table == (1, {0: {1: ((0, -2),)}, 1: {0: ((0, 2),)}})


def test_a_bracket_off_every_basis_position_leaves_the_span():
    # [E_01, E_10] = diag(1, −1) sits on (0, 0) and (1, 1), which no basis
    # matrix touches: its inner product with every basis matrix is 0, and
    # its norm is 2
    with pytest.raises(StructureError, match="matrix brackets leave the span of the basis"):
        GradedLieAlgebra.from_matrices(
            ["X", "Y"], [1, -1], [{(0, 1): 1}, {(1, 0): 1}], "gl", (2,))


def test_exp_ad_rejects_an_argument_from_another_algebra(so41):
    other = build_conformal(3, 0)
    z, x = so41.basis_element("P_1"), so41.basis_element("D")
    with pytest.raises(MismatchedAlgebraError):
        so41.exp_ad(other.basis_element("P_1"), x)
    with pytest.raises(MismatchedAlgebraError):
        so41.exp_ad(z, other.basis_element("D"))


def test_exp_ad_rejects_a_series_that_does_not_terminate(so41):
    # labelled grade 1, D passes the pure-sign check, but ad(D) is not
    # nilpotent: ad(D)^m P_1 = ±P_1 for every m
    grades = list(so41.grade)
    grades[so41.basis_index("D")] = 1
    relabelled = _relabelled(so41, grades)
    z, x = relabelled.basis_element("D"), relabelled.basis_element("P_1")
    with pytest.raises(ValueError, match="failed to terminate"):
        reference_exp_ad(relabelled, z, x)
    with pytest.raises(ValueError, match="failed to terminate"):
        relabelled.exp_ad(z, x)


def test_structure_error_on_bad_grading():
    # a grade map violating additivity must be caught exactly
    algebra = build_conformal(2, 0)
    bad_grades = list(algebra.grade)
    bad_grades[0] = 1
    with pytest.raises(StructureError):
        _relabelled(algebra, bad_grades).validate()


def test_from_matrices_rejects_brackets_leaving_the_span():
    # [E_12, E_21] = H is not in span{E_12, E_21}
    with pytest.raises(StructureError):
        GradedLieAlgebra.from_matrices(
            ["X", "Y"], [1, -1], [{(0, 1): 1}, {(1, 0): 1}], "gl", (2,),
        )


def test_grading_element_rejects_non_additive_grades():
    algebra = build_conformal(2, 0)
    bad_grades = list(algebra.grade)
    bad_grades[0] = 1
    with pytest.raises(StructureError):
        _relabelled(algebra, bad_grades).grading_element


def test_grading_element_rejects_degenerate_killing_form():
    # so(3,1) plus a central grade-0 vector: the grading element is only
    # determined up to that vector
    algebra = _with_central_vector(build_conformal(2, 0), 0)
    with pytest.raises(StructureError):
        algebra.grading_element


def test_jacobi_residual_exactly_zero_conformal20():
    # validity requirement: validate() would raise on any nonzero residual
    algebra = build_conformal(2, 0)
    for i in range(algebra.dim):
        for j in range(algebra.dim):
            for l in range(algebra.dim):
                ei = algebra.basis_element(i)
                ej = algebra.basis_element(j)
                el = algebra.basis_element(l)
                total = (algebra.bracket(algebra.bracket(ei, ej), el)
                         + algebra.bracket(algebra.bracket(ej, el), ei)
                         + algebra.bracket(algebra.bracket(el, ei), ej))
                assert total.is_zero


def test_from_matrices_rejects_a_linearly_dependent_basis():
    # X and 2X commute, so every bracket is in the span, but the basis is not
    # a basis
    with pytest.raises(StructureError):
        GradedLieAlgebra.from_matrices(
            ["X", "Y"], [1, 1], [{(0, 1): 1}, {(0, 1): 2}], "gl", (2,),
        )


_X, _Y, _H = {(0, 1): 1}, {(1, 0): 1}, {(0, 0): 1, (1, 1): -1}


@pytest.mark.parametrize("names,grades,matrices", [
    pytest.param(["X", "H", "Z"], [1, 0, 0], [_X, _H], id="fewer_matrices"),
    pytest.param(["X"], [1], [_X, _Y, _H], id="more_matrices"),
    pytest.param(["X", "Y"], [1, -1, 0], [_X, _Y], id="more_grades"),
    pytest.param(["X", "Y"], [1, -1], [_X, {(-1, 0): 1}], id="negative_index"),
    pytest.param(["X", "Y"], [1, -1], [_X, {1: 1}], id="key_not_a_pair"),
    pytest.param([], [], [], id="empty"),
])
def test_from_matrices_rejects_malformed_input(names, grades, matrices):
    with pytest.raises(StructureError):
        GradedLieAlgebra.from_matrices(names, grades, matrices, "gl", (2,))


@pytest.mark.parametrize("value", [
    pytest.param(0.5, id="half_float"),
    pytest.param(0.1, id="binary_fraction"),
    pytest.param(True, id="bool"),
    pytest.param(2.0, id="integral_float"),
])
def test_matrix_entries_must_be_exact(value):
    """A basis matrix entry that is not an int or a Fraction raises
    DomainError, as an element coefficient does, rather than being read as
    the binary fraction it stands for."""
    with pytest.raises(DomainError):
        GradedLieAlgebra.from_matrices(
            ["X", "Y", "H"], [1, -1, 0], [{(0, 1): value}, _Y, _H], "sl", (2,))


def _matrices(algebra):
    """The dense basis matrices of the algebra's realization."""
    real = algebra.realization
    return [real.matrix_of(algebra.basis_element(i)) for i in range(algebra.dim)]


def _relabelled(algebra, grades):
    """The algebra rebuilt from its own matrices under other grade labels."""
    return GradedLieAlgebra.from_matrices(
        algebra.basis_names, grades, [sparse_matrix(m) for m in _matrices(algebra)],
        algebra.family, algebra.params)


def _with_central_vector(algebra, grade):
    """The algebra plus a central vector C of the given grade: each basis
    matrix gets a zero 1x1 block, and C is the unit 1x1 block."""
    size = algebra.realization.size
    matrices = [sparse_matrix(m) for m in _matrices(algebra)] + [{(size, size): 1}]
    return GradedLieAlgebra.from_matrices(
        algebra.basis_names + ("C",), algebra.grade + (grade,), matrices,
        algebra.family, algebra.params)


def _dense(algebra):
    return [[list(row) for row in plane] for plane in structure(algebra)]


def _from_adjoint(algebra, structure):
    """from_matrices on ad(e_i) of a structure table: entry (l, j) is c_ij^l."""
    dim = len(structure)
    adjoint = [[[structure[i][j][l] for j in range(dim)] for l in range(dim)]
               for i in range(dim)]
    return GradedLieAlgebra.from_matrices(
        algebra.basis_names, algebra.grade, [sparse_matrix(m) for m in adjoint],
        algebra.family, algebra.params)


def test_from_matrices_rejects_a_jacobi_violation():
    # scaling [P_1, K_1] and [K_1, P_1] together keeps antisymmetry and the
    # grading, and breaks Jacobi on (P_1, P_2, K_1); its adjoint matrices
    # then do not close under the bracket it names
    algebra = build_conformal(2, 0)
    i, j = algebra.basis_index("P_1"), algebra.basis_index("K_1")
    structure = _dense(algebra)
    structure[i][j] = [2 * c for c in structure[i][j]]
    structure[j][i] = [2 * c for c in structure[j][i]]
    assert _first_jacobi_failure(structure) == (0, 1, 4)
    with pytest.raises(StructureError, match="leave the span"):
        _from_adjoint(algebra, structure)


@pytest.mark.parametrize("maker", [
    lambda: build_conformal(2, 0),
    lambda: build_conformal(3, 0),
    lambda: build_cr(1),
])
def test_adjoint_matrices_rebuild_the_table(maker):
    # ad is faithful on a semisimple algebra, so its matrices rebuild the
    # table exactly. Each mutation keeps antisymmetry: it scales the
    # brackets of one nonzero pair (i, j) and (j, i) together, or gives one
    # commuting pair a bracket. Each of these breaks Jacobi, by the
    # exhaustive reference, and must be rejected
    algebra = maker()
    dim = algebra.dim
    assert (_fraction_table(_from_adjoint(algebra, _dense(algebra)))
            == _fraction_table(algebra))
    rng = random.Random(83)
    for step in range(12):
        structure = _dense(algebra)
        pairs = [(i, j) for i in range(dim) for j in range(i + 1, dim)
                 if any(structure[i][j]) == (step % 2 == 0)]
        i, j = rng.choice(pairs)
        if step % 2 == 0:
            f = rng.choice([Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(-3, 2)])
            structure[i][j] = [f * c for c in structure[i][j]]
            structure[j][i] = [f * c for c in structure[j][i]]
        else:
            l = rng.randrange(dim)
            c = rng.choice([Fraction(1), Fraction(-2), Fraction(1, 3)])
            structure[i][j][l] = c
            structure[j][i][l] = -c
        assert _first_jacobi_failure(structure) is not None
        with pytest.raises(StructureError, match="leave the span"):
            _from_adjoint(algebra, structure)


def test_validate_rejects_a_negative_part_not_generated_by_grade_minus_one():
    # sl(2) with F, H, E at grades -2, 0, 2: additive, a nondegenerate
    # Killing form and grading element H, but g_-1 = 0 reaches no g_-2
    algebra = GradedLieAlgebra.from_matrices(
        ["F", "H", "E"], [-2, 0, 2], [_Y, _H, _X], "sl", (2,))
    assert algebra.k == 2
    assert algebra.grade_dims() == (1, 0, 1, 0, 1)
    assert algebra.grading_element == algebra.basis_element("H")
    with pytest.raises(StructureError, match="negative part is not generated by grade -1"):
        algebra.validate()
    # so(3,1) plus a central grade -2 vector, which no bracket of grade -1
    # reaches either; its Killing form is degenerate as well
    with pytest.raises(StructureError):
        _with_central_vector(build_conformal(2, 0), -2).validate()


def test_validate_refuses_every_moved_or_swapped_grade_label():
    """Grading additivity comes from the grading element check alone. Each
    basis vector moved to each other grade in [-k, k], and each pair of
    basis vectors of different grades swapped, breaks additivity: 248
    relabellings of conformal(2,0), conformal(1,1), cr(1) and cr(2). The
    Killing form does not depend on the labels, so validate() must refuse
    each one for want of a grading element, not let the generation check
    read a table that is not additive."""
    count = 0
    for algebra in (build_conformal(2, 0), build_conformal(1, 1), build_cr(1), build_cr(2)):
        matrices = [sparse_matrix(m) for m in _matrices(algebra)]
        grades = algebra.grade
        relabellings = [grades[:i] + (h,) + grades[i + 1:]
                        for i, g in enumerate(grades)
                        for h in range(-algebra.k, algebra.k + 1) if h != g]
        for i, j in itertools.combinations(range(algebra.dim), 2):
            if grades[i] != grades[j]:
                swapped = list(grades)
                swapped[i], swapped[j] = grades[j], grades[i]
                relabellings.append(tuple(swapped))
        for moved in relabellings:
            relabelled = GradedLieAlgebra.from_matrices(
                algebra.basis_names, moved, matrices, algebra.family, algebra.params)
            with pytest.raises(StructureError, match="no grading element exists"):
                relabelled.validate()
        count += len(relabellings)
    assert count == 248


def test_validate_rejects_a_degenerate_killing_form():
    algebra = _with_central_vector(build_conformal(2, 0), 0)
    with pytest.raises(StructureError, match="Killing form is degenerate"):
        algebra.validate()


@pytest.mark.parametrize("entries,message", [
    # E_11 is Hermitian, not skew-Hermitian, for the form
    ([(1, 1, 1, 0)], "violates the Hermitian form condition"),
    # i E_11 is skew-Hermitian but has complex trace i
    ([(1, 1, 0, 1)], "is not traceless"),
])
def test_su_conditions_reject_bad_realified_matrices(entries, message):
    m = 3
    form = _form_index(_realify(m, [(0, 2, 1, 0), (2, 0, 1, 0), (1, 1, 1, 0)]))
    with pytest.raises(StructureError, match=message):
        _check_su_conditions(_realify(m, entries), form, m, "X")


def test_build_budget_is_the_closed_form_dimension(monkeypatch):
    monkeypatch.setattr(families, "MAX_BUILD_DIM", 15)
    assert build("conformal", [2, 2]).dim == 15
    assert build("cr", [2]).dim == 15
    with pytest.raises(ValueError, match="dimension 21 exceeds"):
        build("conformal", [3, 2])
    with pytest.raises(ValueError, match="dimension 24 exceeds"):
        build("cr", [3])
    # the family constructors themselves are not budgeted
    assert build_cr(3).dim == 24
