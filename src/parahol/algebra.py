"""Graded semisimple Lie algebras with exact rational structure constants.

A GradedLieAlgebra stores a basis, one integer grade per basis vector and
a sparse table of the nonzero Fraction structure constants of each basis
pair; the dense rank-3 array is only derived on request. Every algebra
comes from a matrix realization (`GradedLieAlgebra.from_matrices`): the
bracket of each basis pair i < j is the sparse commutator of the two basis
matrices expressed through the Frobenius dual basis, checked by exact
reconstruction, and the pair (j, i) gets its negation. Those exact checks,
with the linear independence of the basis matrices, make e_i ↦ B_i an
injective bracket-preserving map into a matrix algebra, so antisymmetry
and the Jacobi identity hold by construction. Validation checks exactly
the axioms that depend on the grade labels and the choice of algebra
(grading additivity, generation of the negative part by grade −1,
nondegenerate Killing form), so downstream code can rely on all of them
without tolerances.

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
    """A coefficient as a Fraction; only ints (not bools) and Fractions pass."""
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int) and not isinstance(v, bool):
        return Fraction(v)
    raise DomainError(
        f"coefficients must be exact rationals, got {type(v).__name__}")


class AlgebraElement:
    """A vector in a fixed algebra, stored as one coefficient per basis vector.

    Immutable. Coefficients are exact Fractions: ints become Fractions, and
    any other coefficient (a float or a bool included) raises DomainError.
    """

    __slots__ = ("algebra", "coeffs")

    def __init__(self, algebra, coeffs):
        # tuple() of a list, not of a generator: CPython sizes a tuple built
        # from an iterator by a guess and resizes it, so each element built
        # would leave one more tuple in the interpreter's free lists
        coeffs = tuple([_as_scalar(c) for c in coeffs])
        if len(coeffs) != algebra.dim:
            raise ValueError(
                f"expected {algebra.dim} coefficients, got {len(coeffs)}"
            )
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("AlgebraElement is immutable")

    @property
    def is_zero(self):
        return not any(self.coeffs)

    def __add__(self, other):
        self._check_same(other)
        return AlgebraElement(
            self.algebra, [a + b for a, b in zip(self.coeffs, other.coeffs)]
        )

    def __sub__(self, other):
        self._check_same(other)
        return AlgebraElement(
            self.algebra, [a - b for a, b in zip(self.coeffs, other.coeffs)]
        )

    def __neg__(self):
        return AlgebraElement(self.algebra, [-a for a in self.coeffs])

    def __mul__(self, scalar):
        scalar = _as_scalar(scalar)
        return AlgebraElement(self.algebra, [scalar * a for a in self.coeffs])

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.algebra is other.algebra and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((id(self.algebra), self.coeffs))

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
        return sorted({self.algebra.grade[i] for i, c in enumerate(self.coeffs) if c})

    def coeff(self, name):
        return self.coeffs[self.algebra.basis_index(name)]

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
    """Defining matrix realization: one square Fraction matrix per basis vector.

    Basis matrices are held sparse, as {(row, col): value} maps of their
    nonzero entries. A matrix is expressed in the basis through the
    Frobenius dual basis: with G_kl = <B_k, B_l> the Gram matrix of the
    entrywise inner product, the coordinates of M are G⁻¹·(<B_l, M>)_l,
    followed by an exact check that they reconstruct M. G⁻¹ comes from one
    sparse elimination of [G | I] (`linalg.solve_many`); on the built-in
    families G has one or two nonzero entries per row. G is positive
    definite exactly when the basis is linearly independent, so a singular
    G is rejected on construction, as are matrices that are not square or
    not all of one size.
    """

    def __init__(self, basis_matrices):
        sizes = {len(m) for m in basis_matrices}
        sizes.update(len(row) for m in basis_matrices for row in m)
        if len(sizes) != 1:
            raise StructureError(
                "a basis of square matrices of one size is required")
        (self.size,) = sizes
        self.basis_matrices = tuple(_sparse(m) for m in basis_matrices)
        self._rows = tuple(_by_row(m) for m in self.basis_matrices)
        # position -> ((basis index, value), ...) over the nonzero entries
        index = {}
        for k, m in enumerate(self.basis_matrices):
            for pos, v in m.items():
                index.setdefault(pos, []).append((k, v))
        self._position_index = index
        dim = len(self.basis_matrices)
        gram = [[ZERO] * dim for _ in range(dim)]
        for entries in index.values():
            for k, v in entries:
                for l, w in entries:
                    gram[k][l] += v * w
        try:
            inverse_cols = linalg.solve_many(gram, linalg.identity_vectors(dim))
        except ValueError:
            raise StructureError("basis matrices are linearly dependent") from None
        # column l of G⁻¹ as its nonzero (k, value) pairs
        self._dual = tuple(
            tuple((k, g) for k, g in enumerate(col) if g != 0)
            for col in inverse_cols
        )

    def matrix_of(self, element):
        """Exact matrix of an element."""
        n = self.size
        out = [[ZERO] * n for _ in range(n)]
        for c, m in zip(element.coeffs, self.basis_matrices):
            if c == 0:
                continue
            for (i, j), v in m.items():
                out[i][j] += c * v
        return out

    def coordinates(self, matrix):
        """Express an exact matrix in the basis; None when outside the span."""
        entries = self._sparse_coordinates(_sparse(matrix))
        if entries is None:
            return None
        out = [ZERO] * len(self.basis_matrices)
        for k, c in entries:
            out[k] = c
        return out

    def _sparse_coordinates(self, sparse):
        """((k, c_k), ...) over the nonzero coordinates of a sparse matrix,
        in increasing k; None when the matrix is outside the span."""
        inner = {}
        for pos, v in sparse.items():
            for l, b in self._position_index.get(pos, ()):
                inner[l] = inner.get(l, ZERO) + b * v
        coords = {}
        for l, s in inner.items():
            if s != 0:
                for k, g in self._dual[l]:
                    coords[k] = coords.get(k, ZERO) + g * s
        rebuilt = {}
        for k, c in coords.items():
            for pos, v in self.basis_matrices[k].items():
                rebuilt[pos] = rebuilt.get(pos, ZERO) + c * v
        if {pos: v for pos, v in rebuilt.items() if v != 0} != sparse:
            return None
        return tuple(sorted((k, c) for k, c in coords.items() if c != 0))

    def _basis_commutator(self, i, j):
        """[B_i, B_j] as a sparse map of its nonzero entries."""
        out = {}
        for (r, t), v in self.basis_matrices[i].items():
            for c, w in self._rows[j].get(t, ()):
                out[(r, c)] = out.get((r, c), ZERO) + v * w
        for (r, t), v in self.basis_matrices[j].items():
            for c, w in self._rows[i].get(t, ()):
                out[(r, c)] = out.get((r, c), ZERO) - v * w
        return {pos: v for pos, v in out.items() if v != 0}


class GradedLieAlgebra:
    """Finite-dimensional |k|-graded Lie algebra given by structure constants.

    [e_i, e_j] = Σ_l c_ij^l e_l, with grade(i) ∈ [-k, k]. Only the nonzero
    constants are stored: each basis pair (i, j) with a nonzero bracket maps
    to its ((l, c_ij^l), ...) entries in increasing l. Instances are built
    by `from_matrices` only, are immutable after construction, and all
    cached data is derived.
    """

    @classmethod
    def from_matrices(cls, basis_names, grades, matrices, k, family, params):
        """Build structure constants from a faithful matrix realization.

        One basis name, one grade and one square matrix of a common size
        per basis vector. Each commutator [B_i, B_j] with i < j is formed
        sparsely and expressed in the basis through the Frobenius dual
        basis (see MatrixRealization); an exact reconstruction check
        rejects a bracket outside the span, and a linearly dependent basis
        is rejected too. Both raise StructureError. [B_j, B_i] = -[B_i, B_j]
        and [B_i, B_i] = 0 hold exactly for matrices, so they are not
        formed. Once both checks pass, e_i ↦ B_i is an injective linear map
        that carries the table's bracket to the matrix commutator, so the
        table is antisymmetric and satisfies Jacobi. A semisimple algebra
        known by its structure constants comes in through its adjoint
        matrices, a faithful realization since its center is trivial.
        """
        if not len(basis_names) == len(grades) == len(matrices):
            raise StructureError(
                "one grade and one matrix per basis vector are required")
        name_index = {n: i for i, n in enumerate(basis_names)}
        if len(name_index) != len(basis_names):
            raise StructureError("basis names are not distinct")
        realization = MatrixRealization(matrices)
        dim = len(basis_names)
        table = {}
        for i in range(dim):
            for j in range(i + 1, dim):
                entries = realization._sparse_coordinates(
                    realization._basis_commutator(i, j))
                if entries is None:
                    raise StructureError(
                        "matrix brackets leave the span of the basis")
                if entries:
                    table[(i, j)] = entries
                    table[(j, i)] = tuple((l, -c) for l, c in entries)
        algebra = cls.__new__(cls)
        algebra.basis_names = tuple(basis_names)
        algebra.grade = tuple(int(g) for g in grades)
        algebra.dim = dim
        algebra.k = int(k)
        algebra.family = family
        algebra.params = tuple(params)
        algebra._pair_table = table
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

    @cached_property
    def structure(self):
        """Dense view of the constants: structure[i][j][l] = c_ij^l.

        Built on first access from the sparse table; nothing in the algebra
        reads it.
        """
        dense = [[[ZERO] * self.dim for _ in range(self.dim)]
                 for _ in range(self.dim)]
        for (i, j), entries in self._pair_table.items():
            for l, c in entries:
                dense[i][j][l] = c
        return tuple(tuple(tuple(row) for row in plane) for plane in dense)

    def bracket(self, x, y):
        """Lie bracket, bilinear over the structure constants."""
        if x.algebra is not self or y.algebra is not self:
            raise MismatchedAlgebraError("bracket arguments must live in this algebra")
        out = [ZERO] * self.dim
        table = self._pair_table
        xs = [(i, c) for i, c in enumerate(x.coeffs) if c != 0]
        ys = [(j, c) for j, c in enumerate(y.coeffs) if c != 0]
        for i, xc in xs:
            for j, yc in ys:
                entries = table.get((i, j))
                if not entries:
                    continue
                f = xc * yc
                for l, c in entries:
                    out[l] = out[l] + f * c
        return AlgebraElement(self, out)

    def ad_block(self, x, source_grade, target_grade):
        """Matrix of ad(x): g_source -> g_target.

        Rows follow the basis order of g_target and columns that of
        g_source. Only the grade (target - source) part of x contributes,
        by grading additivity; a grade outside [-k, k] gives an empty or
        zero block. The entries are summed as scaled integers, over the
        integer pair table (`_scaled_table`) and that part of x put over
        the lcm of its denominators, and divided by the one common
        denominator at the end.
        """
        rows = self.indices_of_grade(target_grade)
        cols = self.indices_of_grade(source_grade)
        row_of = {l: t for t, l in enumerate(rows)}
        block = [[0] * len(cols) for _ in rows]
        scale, table = self._scaled_table
        dx, xs = _scaled(x.coeffs, self.indices_of_grade(target_grade - source_grade))
        xs = [(table.get(i, {}), xc) for i, xc in xs.items()]
        for u, s in enumerate(cols):
            for row, xc in xs:
                for l, c in row.get(s, ()):
                    block[row_of[l]][u] += xc * c
        den = dx * scale
        return [[Fraction(v, den) if v else ZERO for v in row] for row in block]

    def grade_coords(self, x, grade):
        """Coefficients of x on the grade-`grade` basis vectors, in basis order."""
        return [x.coeffs[i] for i in self.indices_of_grade(grade)]

    def from_grade_coords(self, grade, coords):
        """The element of g_grade with the given coordinates (see grade_coords)."""
        idx = self.indices_of_grade(grade)
        if len(coords) != len(idx):
            raise ValueError(
                f"grade {grade} has dimension {len(idx)}, got {len(coords)} coordinates"
            )
        coeffs = [ZERO] * self.dim
        for i, c in zip(idx, coords):
            coeffs[i] = c
        return AlgebraElement(self, coeffs)

    @cached_property
    def killing_matrix(self):
        """Gram matrix of the Killing form, B_ij = trace(ad e_i ∘ ad e_j).

        The trace is Σ_{l,m} c_il^m c_jm^l. Each nonzero c_il^m is matched
        with the nonzero c_jm^l through an index (m, l) -> [(j, c_jm^l)]
        built once from the pair table, so only products of two nonzero
        constants are formed.
        """
        index = {}
        for (j, m), entries in self._pair_table.items():
            for l, c in entries:
                index.setdefault((m, l), []).append((j, c))
        b = [[ZERO] * self.dim for _ in range(self.dim)]
        for (i, l), entries in self._pair_table.items():
            row = b[i]
            for m, c in entries:
                for j, cj in index.get((m, l), ()):
                    row[j] += c * cj
        return tuple(tuple(r) for r in b)

    def killing_form(self, x, y):
        """B(x, y) = trace(ad x ∘ ad y)."""
        if x.algebra is not self or y.algebra is not self:
            raise MismatchedAlgebraError("killing_form arguments must live in this algebra")
        b = self.killing_matrix
        total = ZERO
        for i, xc in enumerate(x.coeffs):
            if xc == 0:
                continue
            row = b[i]
            for j, yc in enumerate(y.coeffs):
                if yc != 0 and row[j] != 0:
                    total = total + xc * (row[j] * yc)
        return total

    def component(self, x, grade):
        """Projection onto the grade-i piece; zero element when absent."""
        if x.algebra is not self:
            raise MismatchedAlgebraError("component argument must live in this algebra")
        if abs(grade) > self.k:
            raise GradeRangeError(
                f"grade {grade} outside [-{self.k}, {self.k}]"
            )
        coeffs = [ZERO] * self.dim
        for i in self.indices_of_grade(grade):
            coeffs[i] = x.coeffs[i]
        return AlgebraElement(self, coeffs)

    @cached_property
    def grading_element(self):
        """The element E with [E, x] = i·x on each grade-i basis vector.

        Such an E has ad E = diag(grades), so B(E, e_j) = Σ_l grade(l)·c_{jl}^l:
        one solve in the Killing matrix, whose nondegeneracy (checked here)
        makes E unique. An exact check of [E, e_i] on every basis vector,
        summed from the pair table over E's support, then decides whether E
        exists.
        """
        self._check_killing_nondegenerate()
        rhs = [ZERO] * self.dim
        for (j, l), entries in self._pair_table.items():
            for m, c in entries:
                if m == l:
                    rhs[j] += self.grade[l] * c
        e = AlgebraElement(self, linalg.solve(self.killing_matrix, rhs))
        support = [(j, c) for j, c in enumerate(e.coeffs) if c]
        for i, g in enumerate(self.grade):
            image = {}  # [E, e_i]
            for j, c in support:
                for l, v in self._pair_table.get((j, i), ()):
                    image[l] = image.get(l, ZERO) + c * v
            if {l: v for l, v in image.items() if v} != ({i: g} if g else {}):
                raise StructureError("no grading element exists")
        return e

    @cached_property
    def _scaled_table(self):
        """(D, table): the pair table times D, the lcm of its denominators
        (1 on the conformal family, 2 on cr), as i -> {j: ((l, D·c_ij^l),
        ...)} over integers. Shared by `exp_ad` and `ad_block`."""
        scale = math.lcm(*{c.denominator for entries in self._pair_table.values()
                           for _, c in entries})
        table = {}
        for (i, j), entries in self._pair_table.items():
            table.setdefault(i, {})[j] = tuple(
                (l, c.numerator * (scale // c.denominator)) for l, c in entries)
        return scale, table

    def exp_ad(self, z, x):
        """e^{ad z}(x) as a finite sum; requires ad(z) nilpotent.

        Nilpotency is guaranteed when every grade in z's support has the
        same sign, which is the only way this is called. Returns x itself
        when z is zero. The series runs on scaled integers: with x = X/dx
        and z = Z/dz over the lcms of their denominators and the pair table
        C/D (`_scaled_table`), the m-th term ad(z)^m x / m! is ad_C(Z)^m X
        over dx·(dz·D)^m·m!. The sum is kept over that one running
        denominator, and a Fraction is made only for each nonzero
        coefficient of the result.
        """
        if z.algebra is not self or x.algebra is not self:
            raise MismatchedAlgebraError("exp_ad arguments must live in this algebra")
        if z.is_zero:
            return x
        signs = {1 if g > 0 else -1 for g in z.grades() if g != 0}
        if len(signs) > 1 or (z.grades() and 0 in z.grades()):
            raise ValueError("exp_ad requires a pure-sign graded argument")
        scale, table = self._scaled_table
        dz, zs = _scaled(z.coeffs)
        zs = [(table.get(i, {}), c) for i, c in zs.items()]
        den, term = _scaled(x.coeffs)
        total = dict(term)
        step = dz * scale
        for m in range(1, 2 * self.k + 2):
            term = _scaled_bracket(zs, term)
            if not term:
                break
            f = step * m
            den *= f
            total = {l: v * f for l, v in total.items()}
            for l, v in term.items():
                total[l] = total.get(l, 0) + v
        else:
            if _scaled_bracket(zs, term):
                raise ValueError("exp_ad series failed to terminate")
        coeffs = [ZERO] * self.dim
        for l, v in total.items():
            if v:
                coeffs[l] = Fraction(v, den)
        return AlgebraElement(self, coeffs)

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
        for (i, j), entries in self._pair_table.items():
            g = self.grade[i] + self.grade[j]
            for l, _ in entries:
                if abs(g) > self.k or self.grade[l] != g:
                    raise StructureError(
                        f"grading additivity fails: [{self.basis_names[i]},"
                        f"{self.basis_names[j]}] has grade-{self.grade[l]} support"
                    )

    def _check_generated_by_first_negative(self):
        """[g_-1, g_-(d-1)] = g_-d for d = 2..k, which by induction on d
        says that grade −1 generates the negative part. The blocks ad(e_i)
        come from the pair table, sound once grading additivity holds."""
        gen = [self.basis_element(i) for i in self.indices_of_grade(-1)]
        for d in range(2, self.k + 1):
            columns = [list(col) for e in gen
                       for col in zip(*self.ad_block(e, 1 - d, -d))]
            if linalg.rank(columns) != len(self.indices_of_grade(-d)):
                raise StructureError("negative part is not generated by grade -1")

    @cached_property
    def _killing_rank(self):
        # shared by validate() and grading_element, which both need it
        return linalg.rank(self.killing_matrix)

    def _check_killing_nondegenerate(self):
        if self._killing_rank != self.dim:
            raise StructureError("Killing form is degenerate")

    # -- serialization ---------------------------------------------------------

    def describe(self):
        """JSON-serializable description (family, params, basis, grades)."""
        return {
            "family": self.family,
            "params": list(self.params),
            "basis": list(self.basis_names),
            "grades": list(self.grade),
        }

    def __repr__(self):
        return f"GradedLieAlgebra({self.family}{self.params}, dim={self.dim}, k={self.k})"


def _scaled(coeffs, indices=None):
    """(d, {i: X_i}) with coeffs[i] = X_i/d over the nonzero coefficients
    at `indices` (all of them by default), d the lcm of their denominators.
    The lcm takes a list, not a generator, as AlgebraElement's tuple does."""
    if indices is None:
        indices = range(len(coeffs))
    nonzero = [(i, coeffs[i]) for i in indices if coeffs[i]]
    d = math.lcm(*[c.denominator for _, c in nonzero])
    return d, {i: c.numerator * (d // c.denominator) for i, c in nonzero}


def _scaled_bracket(zs, y):
    """Integer bracket ad_C(Z)Y on sparse {index: int} maps, with zs the
    ({j: entries} row of the scaled table, Z_i) pairs of Z's support."""
    out = {}
    for row, zc in zs:
        for j, yc in y.items():
            entries = row.get(j)
            if entries:
                f = zc * yc
                for l, c in entries:
                    out[l] = out.get(l, 0) + f * c
    return {l: v for l, v in out.items() if v}


def _sparse(matrix):
    """{(row, col): Fraction} map of the nonzero entries of a dense matrix."""
    return {(i, j): Fraction(v)
            for i, row in enumerate(matrix)
            for j, v in enumerate(row) if v != 0}


def _by_row(sparse):
    """row -> ((col, value), ...) over a sparse matrix's nonzero entries."""
    rows = {}
    for (i, j), v in sparse.items():
        rows.setdefault(i, []).append((j, v))
    return rows
