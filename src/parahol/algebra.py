"""Graded semisimple Lie algebras with exact rational structure constants.

A GradedLieAlgebra stores a basis, one integer grade per basis vector and
one sparse table of its structure constants: the nonzero c_ij^l of each
basis pair as integers C_ij^l over one common scale S, c = C/S. Every
algebra comes from a matrix realization (`GradedLieAlgebra.from_matrices`)
of sparse basis matrices {(row, col): int or Fraction}: the bracket of
each basis pair i < j is the sparse commutator of the two basis matrices
expressed through the Frobenius dual basis, checked by exact
reconstruction, and the pair (j, i) gets its negation (`_structure_table`).
Those exact checks, with the linear independence of the basis matrices,
make e_i ↦ B_i an injective bracket-preserving map into a matrix algebra,
so antisymmetry and the Jacobi identity hold by construction. The algebra
then keeps only the matrices themselves (`MatrixRealization`). An element
holds its coefficients the same way, as integer numerators over the lcm
of their denominators. Construction, `bracket`, `exp_ad`, `ad_block`, the
Killing form and the grading element compute on that integer table and on
those numerators, and make an element from the integer result. The
series, the blocks and the Killing covector are also open on scaled
integers (`exp_ad_scaled`, `ad_block_scaled`, `killing_covector_scaled`,
on (den, {index: int}) pairs that `AlgebraElement.scaled` makes and
`from_scaled` reads back), so that the classifier and the scales can stay
on integers between them; `exp_ad` and `ad_block` are their Fraction
views. The Killing form is kept as integer rows only. Validation checks
exactly the axioms that depend on the grade labels and the choice of
algebra (grading additivity, generation of the negative part by grade
−1, nondegenerate Killing form), so downstream code can rely on all of
them without tolerances.

The grade layout of the basis is known here only: callers reach ad(x) one
grade block at a time through `ad_block(x, source_grade, target_grade)`,
and read or write one grade's coordinates through `grade_coords` and
`from_grade_coords`.
"""

import math
from fractions import Fraction
from functools import cached_property

from . import linalg
from .errors import (
    DomainError,
    GradeRangeError,
    MismatchedAlgebraError,
    StructureError,
)

ZERO = Fraction(0)


def _as_scalar(v):
    """A coefficient, unchanged; only ints (not bools) and Fractions pass."""
    if isinstance(v, Fraction) or (isinstance(v, int) and not isinstance(v, bool)):
        return v
    raise DomainError(
        f"coefficients must be exact rationals, got {type(v).__name__}")


class AlgebraElement:
    """A vector in a fixed algebra: one exact rational coefficient per basis
    vector.

    Immutable. The coefficients are held as scaled integers: one numerator
    per basis vector (`nums`) over their common denominator `den`, the lcm
    of the coefficients' denominators, so the pair is unique. That is the
    form the integer kernels take (`scaled`); `coeffs` reads the
    coefficients as Fractions. Coefficients come in as ints or Fractions;
    any other coefficient (a float or a bool included) raises DomainError.
    """

    __slots__ = ("algebra", "den", "nums")

    def __init__(self, algebra, coeffs):
        coeffs = [_as_scalar(c) for c in coeffs]
        if len(coeffs) != algebra.dim:
            raise ValueError(
                f"expected {algebra.dim} coefficients, got {len(coeffs)}"
            )
        den = math.lcm(*[c.denominator for c in coeffs])
        nums = tuple([c.numerator * (den // c.denominator) for c in coeffs])
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "nums", nums)

    @classmethod
    def _from_integers(cls, algebra, den, nums):
        """The element nums/den for a nonzero int den and a list of one int
        per basis vector, reduced to the unique pair."""
        g = math.gcd(den, *nums)
        if den < 0:
            g = -g
        if g != 1:
            den //= g
            nums = [v // g for v in nums]
        x = cls.__new__(cls)
        object.__setattr__(x, "algebra", algebra)
        object.__setattr__(x, "den", den)
        # tuple() of a list, not of a generator: CPython sizes a tuple built
        # from an iterator by a guess and resizes it
        object.__setattr__(x, "nums", tuple(nums))
        return x

    def __setattr__(self, name, value):
        raise AttributeError("AlgebraElement is immutable")

    @property
    def coeffs(self):
        """The coefficients as a tuple of Fractions, in basis order."""
        den = self.den
        return tuple([Fraction(v, den) if v else ZERO for v in self.nums])

    def scaled(self, indices=None):
        """(den, {i: nums[i]}) over the nonzero coefficients at `indices`
        (all of them by default): the (den, {index: int}) pair that the
        `*_scaled` kernels take."""
        nums = self.nums
        if indices is None:
            return self.den, {i: v for i, v in enumerate(nums) if v}
        return self.den, {i: nums[i] for i in indices if nums[i]}

    @property
    def is_zero(self):
        return not any(self.nums)

    def _combine(self, other, sign):
        self._check_same(other)
        den = math.lcm(self.den, other.den)
        a, b = den // self.den, sign * (den // other.den)
        return AlgebraElement._from_integers(
            self.algebra, den, [a * u + b * v for u, v in zip(self.nums, other.nums)])

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        return AlgebraElement._from_integers(self.algebra, self.den,
                                             [-v for v in self.nums])

    def __mul__(self, scalar):
        scalar = _as_scalar(scalar)
        p = scalar.numerator
        return AlgebraElement._from_integers(
            self.algebra, self.den * scalar.denominator, [p * v for v in self.nums])

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return (self.algebra is other.algebra and self.den == other.den
                and self.nums == other.nums)

    def __hash__(self):
        return hash((id(self.algebra), self.den, self.nums))

    def _check_same(self, other):
        if not isinstance(other, AlgebraElement):
            raise TypeError("expected an AlgebraElement")
        if self.algebra is not other.algebra:
            raise MismatchedAlgebraError(
                "elements belong to different algebras"
            )

    def bracket(self, other):
        self._check_same(other)
        return self.algebra.bracket(self, other)

    def component(self, grade):
        return self.algebra.component(self, grade)

    def grades(self):
        """Sorted list of grades carrying a nonzero coefficient."""
        return sorted({self.algebra.grade[i] for i, v in enumerate(self.nums) if v})

    def coeff(self, name):
        return Fraction(self.nums[self.algebra.basis_index(name)], self.den)

    def __repr__(self):
        if self.is_zero:
            return "<0>"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            name = self.algebra.basis_names[i]
            if c == 1:
                parts.append(name)
            elif c == -1:
                parts.append(f"-{name}")
            else:
                parts.append(f"{c}*{name}")
        return "<" + " + ".join(parts).replace("+ -", "- ") + ">"


class MatrixRealization:
    """The defining matrix realization ρ: one square matrix B_k per basis
    vector, held as the integer matrix M_k = D·B_k over one common D.

    Each B_k comes in as a sparse {(row, col): int or Fraction} map, and
    all are square of `size`, 1 + the largest index of a nonzero entry. D
    (`_scale`) is the lcm of the denominators of every basis-matrix entry
    (1 on the conformal family, 2 on cr), and each M_k is a sparse
    {(row, col): int} map of its nonzero entries. An empty basis and a
    malformed key raise StructureError (`_exact_matrix`); an inexact entry
    raises DomainError. The realization keeps ρ only: the structure
    constants are read off it once, by `_structure_table`.
    """

    def __init__(self, basis_matrices):
        if not basis_matrices:
            raise StructureError("a basis of at least one matrix is required")
        sparse = [_exact_matrix(m) for m in basis_matrices]
        self.size = 1 + max((i for m in sparse for pos in m for i in pos), default=0)
        self._scale = math.lcm(*[v.denominator for m in sparse for v in m.values()])
        self._integer_matrices = tuple(_integer_matrix(m, self._scale) for m in sparse)

    def matrix_of(self, element):
        """Exact dense matrix of an element X/d: Σ_k X_k·M_k over d·D."""
        n = self.size
        d, xs = element.scaled()
        out = [[0] * n for _ in range(n)]
        for k, c in xs.items():
            for (i, j), v in self._integer_matrices[k].items():
                out[i][j] += c * v
        den = d * self._scale
        return [[Fraction(v, den) if v else ZERO for v in row] for row in out]


class GradedLieAlgebra:
    """Finite-dimensional |k|-graded Lie algebra given by structure constants.

    [e_i, e_j] = Σ_l c_ij^l e_l, with grade(i) ∈ [-k, k]. Only the nonzero
    constants are stored, once, in `_scaled_table` = (S, table), with S the
    lcm of their denominators (1 on the conformal family, 2 on cr) and
    table[i][j] = ((l, S·c_ij^l), ...) as integers in increasing l. Instances
    are built by `from_matrices` only, are immutable after construction,
    and all cached data is derived.
    """

    @classmethod
    def from_matrices(cls, basis_names, grades, matrices, k, family, params):
        """Build structure constants from a faithful matrix realization.

        One basis name, one grade and one sparse basis matrix
        {(row, col): int or Fraction} per basis vector (see
        MatrixRealization). `_structure_table` expresses each commutator
        [B_i, B_j] with i < j in the basis, checked by exact
        reconstruction, and rejects a bracket outside the span and a
        linearly dependent basis with StructureError. [B_j, B_i] =
        -[B_i, B_j] and [B_i, B_i] = 0 hold exactly for matrices, so they
        are not formed. Once both checks pass, e_i ↦ B_i is an injective
        linear map that carries the table's bracket to the matrix
        commutator, so the table is antisymmetric and satisfies Jacobi. A
        semisimple algebra known by its structure constants comes in
        through its adjoint matrices, a faithful realization since its
        center is trivial. The algebra keeps the realization, ρ alone, for
        the flat model's matrices.
        """
        if not len(basis_names) == len(grades) == len(matrices):
            raise StructureError(
                "one grade and one matrix per basis vector are required")
        name_index = {n: i for i, n in enumerate(basis_names)}
        if len(name_index) != len(basis_names):
            raise StructureError("basis names are not distinct")
        realization = MatrixRealization(matrices)
        scale, table = _structure_table(realization._integer_matrices,
                                        realization._scale)
        algebra = cls.__new__(cls)
        algebra.basis_names = tuple(basis_names)
        algebra.grade = tuple(int(g) for g in grades)
        algebra.dim = len(basis_names)
        algebra.k = int(k)
        algebra.family = family
        algebra.params = tuple(params)
        algebra._scaled_table = (scale, table)
        algebra.realization = realization
        algebra._name_index = name_index
        return algebra

    # -- basic queries ---------------------------------------------------------

    def basis_index(self, name):
        try:
            return self._name_index[name]
        except KeyError:
            raise KeyError(f"no basis vector named {name!r}") from None

    def basis_element(self, name_or_index):
        i = (name_or_index if isinstance(name_or_index, int)
             else self.basis_index(name_or_index))
        coeffs = [ZERO] * self.dim
        coeffs[i] = Fraction(1)
        return AlgebraElement(self, coeffs)

    def zero(self):
        return AlgebraElement(self, [ZERO] * self.dim)

    def element(self, named):
        """Element from a {basis name: coefficient} mapping."""
        coeffs = [ZERO] * self.dim
        for name, c in named.items():
            coeffs[self.basis_index(name)] = c
        return AlgebraElement(self, coeffs)

    def element_from_coeffs(self, coeffs):
        return AlgebraElement(self, coeffs)

    def indices_of_grade(self, i):
        return self._grade_indices.get(i, ())

    @cached_property
    def _grade_indices(self):
        table = {}
        for idx, g in enumerate(self.grade):
            table.setdefault(g, []).append(idx)
        return {g: tuple(ix) for g, ix in table.items()}

    def grade_dims(self):
        """Dimension of each grading component, from grade -k to k."""
        return tuple(len(self.indices_of_grade(g)) for g in range(-self.k, self.k + 1))

    # -- core operations -------------------------------------------------------

    def bracket(self, x, y):
        """Lie bracket: for x = X/dx, y = Y/dy over the lcms of their
        denominators, ad_C(X)Y over dx·dy·S (`_scaled_bracket`, as exp_ad)."""
        if x.algebra is not self or y.algebra is not self:
            raise MismatchedAlgebraError("bracket arguments must live in this algebra")
        scale, table = self._scaled_table
        dx, xs = x.scaled()
        dy, ys = y.scaled()
        return self.from_scaled(dx * dy * scale, _scaled_bracket(table, xs, ys))

    def from_scaled(self, den, values):
        """The element values/den for a {l: int} map; the inverse of
        `AlgebraElement.scaled`."""
        nums = [0] * self.dim
        for l, v in values.items():
            nums[l] = v
        return AlgebraElement._from_integers(self, den, nums)

    def ad_block(self, x, source_grade, target_grade):
        """Matrix of ad(x): g_source -> g_target.

        Rows follow the basis order of g_target and columns that of
        g_source. Only the grade (target - source) part of x contributes,
        by grading additivity; a grade outside [-k, k] gives an empty or
        zero block. The Fraction view of `ad_block_scaled`.
        """
        part = x.scaled(self.indices_of_grade(target_grade - source_grade))
        den, block = self.ad_block_scaled(part, source_grade, target_grade)
        return [[Fraction(v, den) if v else ZERO for v in row] for row in block]

    def ad_block_scaled(self, x, source_grade, target_grade):
        """ad_block on scaled integers: for x = (dx, {i: X_i}) standing for
        X/dx, the pair (dx·S, rows) with rows the integer block of
        ad_C(X): g_source -> g_target over the integer table C/S. Only X's
        coefficients of grade (target - source) are read."""
        rows = self.indices_of_grade(target_grade)
        cols = self.indices_of_grade(source_grade)
        row_of = {l: t for t, l in enumerate(rows)}
        block = [[0] * len(cols) for _ in rows]
        scale, table = self._scaled_table
        dx, xs = x
        xs = [(table.get(i, {}), xs[i])
              for i in self.indices_of_grade(target_grade - source_grade) if i in xs]
        for u, s in enumerate(cols):
            for row, xc in xs:
                for l, c in row.get(s, ()):
                    block[row_of[l]][u] += xc * c
        return dx * scale, block

    def grade_coords(self, x, grade):
        """Coefficients of x on the grade-`grade` basis vectors, in basis order."""
        return [Fraction(x.nums[i], x.den) for i in self.indices_of_grade(grade)]

    def from_grade_coords(self, grade, coords):
        """The element of g_grade with the given coordinates (see grade_coords)."""
        idx = self.indices_of_grade(grade)
        if len(coords) != len(idx):
            raise ValueError(
                f"grade {grade} has dimension {len(idx)}, got {len(coords)} coordinates"
            )
        coords = [_as_scalar(c) for c in coords]
        den = math.lcm(*[c.denominator for c in coords])
        nums = [0] * self.dim
        for i, c in zip(idx, coords):
            nums[i] = c.numerator * (den // c.denominator)
        return AlgebraElement._from_integers(self, den, nums)

    @cached_property
    def _killing_rows(self):
        """(S², rows): the Killing matrix as integer rows over S², with S the
        table's scale, B_ij = rows[i][j]/S².

        B_ij = trace(ad e_i ∘ ad e_j) = Σ_{l,m} c_il^m c_jm^l, summed as
        integers over the table C/S. Each nonzero C_il^m is matched with the
        nonzero C_jm^l through an index (m, l) -> [(j, C_jm^l)], so only
        products of two nonzero constants are formed.
        """
        scale, table = self._scaled_table
        index = {}
        for j, row in table.items():
            for m, entries in row.items():
                for l, c in entries:
                    index.setdefault((m, l), []).append((j, c))
        b = [[0] * self.dim for _ in range(self.dim)]
        for i, row in table.items():
            out = b[i]
            for l, entries in row.items():
                for m, c in entries:
                    for j, cj in index.get((m, l), ()):
                        out[j] += c * cj
        return scale * scale, tuple(tuple(r) for r in b)

    def killing_covector_scaled(self, x, indices):
        """B(x, e_i) for each basis index i in `indices`, on scaled integers:
        the pair (x.den·S², [Σ_j nums_j·B̂_ji, ...]) with B̂ = S²·B the
        integer Killing matrix, one pass over the rows of x's support."""
        den, rows = self._killing_rows
        out = [0] * len(indices)
        for j, c in x.scaled()[1].items():
            row = rows[j]
            for t, i in enumerate(indices):
                b = row[i]
                if b:
                    out[t] += c * b
        return x.den * den, out

    def killing_form(self, x, y):
        """B(x, y) = trace(ad x ∘ ad y): x's covector paired with y's
        numerators, over the product of the two denominators."""
        if x.algebra is not self or y.algebra is not self:
            raise MismatchedAlgebraError("killing_form arguments must live in this algebra")
        den, covector = self.killing_covector_scaled(x, range(self.dim))
        return Fraction(sum(c * v for c, v in zip(covector, y.nums) if v), den * y.den)

    def component(self, x, grade):
        """Projection onto the grade-i piece; zero element when absent."""
        if x.algebra is not self:
            raise MismatchedAlgebraError("component argument must live in this algebra")
        if abs(grade) > self.k:
            raise GradeRangeError(
                f"grade {grade} outside [-{self.k}, {self.k}]"
            )
        nums = [0] * self.dim
        for i in self.indices_of_grade(grade):
            nums[i] = x.nums[i]
        return AlgebraElement._from_integers(self, x.den, nums)

    @cached_property
    def grading_element(self):
        """The element E with [E, x] = i·x on each grade-i basis vector.

        Such an E has ad E = diag(grades), so B(E, e_j) = Σ_l grade(l)·c_{jl}^l
        = r_j/S over the integer table C/S: with B = B̂/S² on the integer
        Killing rows, one integer solve B̂·E = S·r, whose nondegeneracy
        (checked here) makes E unique. An exact check of the integer bracket
        [E, e_i] on every basis vector, with E = X/d over the lcm of its
        denominators, then decides whether E exists.
        """
        self._check_killing_nondegenerate()
        scale, table = self._scaled_table
        rhs = [0] * self.dim
        for j, row in table.items():
            rhs[j] = scale * sum(self.grade[l] * c for l, entries in row.items()
                                 for m, c in entries if m == l)
        den, (nums,) = linalg.solve_scaled(self._killing_rows[1], [rhs])
        e = AlgebraElement._from_integers(self, den, nums)
        d, es = e.scaled()
        for i, g in enumerate(self.grade):
            if _scaled_bracket(table, es, {i: 1}) != ({i: g * d * scale} if g else {}):
                raise StructureError("no grading element exists")
        return e

    def exp_ad(self, z, x):
        """e^{ad z}(x) as a finite sum; requires ad(z) nilpotent.

        Nilpotency is guaranteed when every grade in z's support has the
        same sign, which is the only way this is called. Returns x itself
        when z is zero. The Fraction view of `exp_ad_scaled`.
        """
        if z.algebra is not self or x.algebra is not self:
            raise MismatchedAlgebraError("exp_ad arguments must live in this algebra")
        if z.is_zero:
            return x
        signs = {1 if g > 0 else -1 for g in z.grades() if g != 0}
        if len(signs) > 1 or (z.grades() and 0 in z.grades()):
            raise ValueError("exp_ad requires a pure-sign graded argument")
        return self.from_scaled(*self.exp_ad_scaled(z.scaled(), x.scaled()))

    def exp_ad_scaled(self, z, x):
        """exp_ad on scaled integers: z = (dz, {i: Z_i}) and x = (dx, {i: X_i})
        stand for Z/dz and X/dx, and the result is the pair (den, {l: int})
        of e^{ad z}(x), which may hold zero values. The m-th term
        ad(z)^m x / m! is ad_C(Z)^m X over dx·(dz·S)^m·m! on the table C/S;
        the sum is kept over that one running denominator. The caller
        guarantees that ad(z) is nilpotent (exp_ad checks it).
        """
        scale, table = self._scaled_table
        dz, zs = z
        den, term = x
        total = dict(term)
        step = dz * scale
        for m in range(1, 2 * self.k + 2):
            term = _scaled_bracket(table, zs, term)
            if not term:
                break
            f = step * m
            den *= f
            total = {l: v * f for l, v in total.items()}
            for l, v in term.items():
                total[l] = total.get(l, 0) + v
        else:
            if _scaled_bracket(table, zs, term):
                raise ValueError("exp_ad series failed to terminate")
        return den, total

    # -- validation ------------------------------------------------------------

    def validate(self):
        """Check exactly the invariants that depend on the grade labels and
        on the choice of algebra; raises StructureError.

        These are grading additivity, generation of the negative part by
        grade −1 and a nondegenerate Killing form. Antisymmetry and Jacobi
        need no check: `from_matrices` proved them (see there).
        """
        self._check_grading_additivity()
        self._check_generated_by_first_negative()
        self._check_killing_nondegenerate()
        return self

    def _check_grading_additivity(self):
        for i, row in self._scaled_table[1].items():
            for j, entries in row.items():
                g = self.grade[i] + self.grade[j]
                for l, _ in entries:
                    if abs(g) > self.k or self.grade[l] != g:
                        raise StructureError(
                            f"grading additivity fails: [{self.basis_names[i]},"
                            f"{self.basis_names[j]}] has grade-{self.grade[l]} support"
                        )

    def _check_generated_by_first_negative(self):
        """[g_-1, g_-(d-1)] = g_-d for d = 2..k, which by induction on d
        says that grade −1 generates the negative part. The integer blocks
        ad(e_i) come from the table, sound once grading additivity holds."""
        for d in range(2, self.k + 1):
            columns = [col for i in self.indices_of_grade(-1)
                       for col in zip(*self.ad_block_scaled((1, {i: 1}), 1 - d, -d)[1])]
            if linalg.rank(columns) != len(self.indices_of_grade(-d)):
                raise StructureError("negative part is not generated by grade -1")

    @cached_property
    def _killing_rank(self):
        # shared by validate() and grading_element, which both need it
        return linalg.rank(self._killing_rows[1])

    def _check_killing_nondegenerate(self):
        if self._killing_rank != self.dim:
            raise StructureError("Killing form is degenerate")

    def __repr__(self):
        return f"GradedLieAlgebra({self.family}{self.params}, dim={self.dim}, k={self.k})"


def _scaled_bracket(table, z, y):
    """Integer bracket ad_C(Z)Y over the integer table C, on sparse
    {index: int} maps; the nonzero entries only."""
    out = {}
    for i, zc in z.items():
        row = table.get(i, {})
        for j, yc in y.items():
            entries = row.get(j)
            if entries:
                f = zc * yc
                for l, c in entries:
                    out[l] = out.get(l, 0) + f * c
    return {l: v for l, v in out.items() if v}


def _structure_table(matrices, scale):
    """(S, table) of the Lie algebra spanned by the basis B_k = M_k/D, for
    the integer matrices M_k and their common denominator D = `scale`.

    Each commutator [B_i, B_j] with i < j is formed sparsely and expressed
    in the basis through the Frobenius dual basis: with G_kl = <B_k, B_l>
    the Gram matrix of the entrywise inner product, the coordinates of a
    matrix M are G⁻¹·(<B_l, M>)_l, followed by an exact check that they
    reconstruct M. G is positive definite exactly when the basis is
    linearly independent, so a singular G raises StructureError ("basis
    matrices are linearly dependent"), and so does a bracket that fails
    the check ("matrix brackets leave the span of the basis").

    All of this runs on scaled integers. The M_k have the Gram matrix
    Ĝ = D²·G, and one sparse elimination (`linalg.solve_scaled` against
    the identity columns) inverts it as Ĝ⁻¹ = H/h, with H integer and h
    the lcm of the denominators of Ĝ⁻¹; on the built-in families Ĝ has one
    or two nonzero entries per row. [M_i, M_j] = D²·[B_i, B_j] then has
    the coordinates (H·I)/h in the basis M_k, I_l = <M_l, [M_i, M_j]>; it
    is in the span exactly when Σ_k (H·I)_k·M_k = h·[M_i, M_j], and
    c_ij^l = (H·I)_l/(h·D).
    """
    dim = len(matrices)
    rows = tuple(_by_row(m) for m in matrices)
    # position -> ((basis index, D·value), ...) over the nonzero entries
    index = {}
    for k, m in enumerate(matrices):
        for pos, v in m.items():
            index.setdefault(pos, []).append((k, v))
    gram = [[0] * dim for _ in range(dim)]
    for entries in index.values():
        for k, v in entries:
            for l, w in entries:
                gram[k][l] += v * w
    inverse = linalg.solve_scaled(
        gram, [[0] * l + [1] + [0] * (dim - 1 - l) for l in range(dim)])
    if inverse is None:
        raise StructureError("basis matrices are linearly dependent")
    h, inverse_cols = inverse
    # column l of H as its nonzero (k, int) pairs
    dual = tuple(tuple((k, g) for k, g in enumerate(col) if g) for col in inverse_cols)
    brackets = {}
    for i in range(dim):
        for j in range(i + 1, dim):
            commutator = {}
            for p, q, sign in ((i, j, 1), (j, i, -1)):
                for (r, t), v in matrices[p].items():
                    for col, w in rows[q].get(t, ()):
                        commutator[(r, col)] = commutator.get((r, col), 0) + sign * v * w
            commutator = {pos: v for pos, v in commutator.items() if v}
            inner = {}
            for pos, v in commutator.items():
                for l, b in index.get(pos, ()):
                    inner[l] = inner.get(l, 0) + b * v
            coords = {}
            for l, s in inner.items():
                if s:
                    for k, g in dual[l]:
                        coords[k] = coords.get(k, 0) + g * s
            coords = {k: c for k, c in coords.items() if c}
            rebuilt = {}
            for k, c in coords.items():
                for pos, v in matrices[k].items():
                    rebuilt[pos] = rebuilt.get(pos, 0) + c * v
            if ({pos: v for pos, v in rebuilt.items() if v}
                    != {pos: h * v for pos, v in commutator.items()}):
                raise StructureError("matrix brackets leave the span of the basis")
            if coords:
                brackets[(i, j)] = coords
    # S = h·D/g with g the gcd of h·D and every (H·I)_l
    den = h * scale
    g = math.gcd(den, *[c for coords in brackets.values() for c in coords.values()])
    table = {}
    for (i, j), coords in brackets.items():
        entries = tuple(sorted((l, c // g) for l, c in coords.items()))
        table.setdefault(i, {})[j] = entries
        table.setdefault(j, {})[i] = tuple((l, -c) for l, c in entries)
    return den // g, table


def _exact_matrix(matrix):
    """{(row, col): int | Fraction} over the nonzero entries of a sparse matrix,
    each read by `_as_scalar`; a key that is not a (row, col) pair of
    nonnegative ints raises StructureError."""
    out = {}
    for pos, v in matrix.items():
        if not (isinstance(pos, tuple) and len(pos) == 2
                and all(type(i) is int and i >= 0 for i in pos)):
            raise StructureError("a matrix entry key must be a (row, col) pair "
                                 f"of nonnegative ints, got {pos!r}")
        v = _as_scalar(v)
        if v:
            out[pos] = v
    return out


def _integer_matrix(sparse, scale):
    """{(row, col): int}: a sparse Fraction matrix times `scale`, a common
    multiple of its denominators."""
    return {pos: v.numerator * (scale // v.denominator) for pos, v in sparse.items()}


def _by_row(sparse):
    """row -> ((col, value), ...) over a sparse matrix's nonzero entries."""
    rows = {}
    for (i, j), v in sparse.items():
        rows.setdefault(i, []).append((j, v))
    return rows
