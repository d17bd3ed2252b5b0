"""Graded semisimple Lie algebras with exact rational structure constants.

A GradedLieAlgebra stores a basis, one integer grade per basis vector and
the full rank-3 structure constant array over Fraction. Construction
validates the algebra axioms exactly (antisymmetry, Jacobi, grading
additivity, generation of the negative part by grade −1, nondegenerate
Killing form), so downstream code can rely on them without tolerances.

The grade layout of the basis is known here only: callers reach ad(x) one
grade block at a time through `ad_block(x, source_grade, target_grade)`,
and read or write one grade's coordinates through `grade_coords` and
`from_grade_coords`.
"""

from fractions import Fraction
from functools import cached_property

from . import linalg
from .errors import (
    GradeRangeError,
    MismatchedAlgebraError,
    NoRealizationError,
    StructureError,
)

ZERO = Fraction(0)


def _as_scalar(v):
    """Normalize a coefficient: ints and Fractions stay exact, floats stay float."""
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, float):
        return v
    raise TypeError(f"unsupported coefficient type {type(v).__name__}")


class AlgebraElement:
    """A vector in a fixed algebra, stored as one coefficient per basis vector.

    Immutable. Coefficients are exact Fractions unless the element was built
    from floats, in which case `exact` is False and numeric consumers must
    treat results as approximate.
    """

    __slots__ = ("algebra", "coeffs")

    def __init__(self, algebra, coeffs):
        coeffs = tuple(_as_scalar(c) for c in coeffs)
        if len(coeffs) != algebra.dim:
            raise ValueError(
                f"expected {algebra.dim} coefficients, got {len(coeffs)}"
            )
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("AlgebraElement is immutable")

    @property
    def exact(self):
        return all(isinstance(c, Fraction) for c in self.coeffs)

    @property
    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

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
        return sorted({self.algebra.grade[i] for i, c in enumerate(self.coeffs) if c != 0})

    def coeff(self, name):
        return self.coeffs[self.algebra.basis_index(name)]

    def float_coeffs(self):
        return [float(c) for c in self.coeffs]

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
    """Defining matrix realization: one square Fraction matrix per basis vector."""

    def __init__(self, basis_matrices, form):
        self.basis_matrices = tuple(
            tuple(tuple(Fraction(v) for v in row) for row in m)
            for m in basis_matrices
        )
        self.form = tuple(tuple(Fraction(v) for v in row) for row in form)
        self.size = len(self.basis_matrices[0])

    def matrix_of(self, element):
        """Matrix of an element (exact when the element is exact)."""
        n = self.size
        out = [[ZERO] * n for _ in range(n)]
        for c, m in zip(element.coeffs, self.basis_matrices):
            if c == 0:
                continue
            for i in range(n):
                row = m[i]
                for j in range(n):
                    if row[j] != 0:
                        out[i][j] += c * row[j]
        return out

    @cached_property
    def _flat_basis(self):
        return [
            [m[i][j] for m in self.basis_matrices]
            for i in range(self.size)
            for j in range(self.size)
        ]

    def coordinates(self, matrix):
        """Express an exact matrix in the basis; None when outside the span."""
        flat = [matrix[i][j] for i in range(self.size) for j in range(self.size)]
        return linalg.solve(self._flat_basis, flat)


class GradedLieAlgebra:
    """Finite-dimensional |k|-graded Lie algebra given by structure constants.

    [e_i, e_j] = Σ_l structure[i][j][l] e_l, with grade(i) ∈ [-k, k].
    Instances are immutable after construction; all cached data is derived.
    """

    def __init__(self, basis_names, grades, structure, k, family, params,
                 realization=None):
        self.basis_names = tuple(basis_names)
        self.grade = tuple(int(g) for g in grades)
        self.dim = len(self.basis_names)
        self.k = int(k)
        self.family = family
        self.params = tuple(params)
        self.structure = tuple(
            tuple(tuple(Fraction(c) for c in row) for row in plane)
            for plane in structure
        )
        self.realization = realization
        self._name_index = {n: i for i, n in enumerate(self.basis_names)}
        if len(self._name_index) != self.dim:
            raise StructureError("basis names are not distinct")
        if len(self.grade) != self.dim:
            raise StructureError("one grade per basis vector is required")

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_matrices(cls, basis_names, grades, matrices, k, family, params,
                      form):
        """Build structure constants from a faithful matrix realization."""
        realization = MatrixRealization(matrices, form)
        dim = len(basis_names)
        n = realization.size
        mats = realization.basis_matrices
        flat_basis = realization._flat_basis
        bracket_cols = []
        for i in range(dim):
            for j in range(dim):
                comm = _commutator(mats[i], mats[j], n)
                bracket_cols.append([comm[a][b] for a in range(n) for b in range(n)])
        try:
            coords = linalg.solve_many(flat_basis, bracket_cols)
        except ValueError as exc:
            raise StructureError(
                "matrix brackets leave the span of the basis"
            ) from exc
        structure = [
            [coords[i * dim + j] for j in range(dim)] for i in range(dim)
        ]
        return cls(basis_names, grades, structure, k, family, params,
                   realization=realization)

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
    def _pair_table(self):
        table = {}
        for i in range(self.dim):
            for j in range(self.dim):
                entries = tuple(
                    (l, c) for l, c in enumerate(self.structure[i][j]) if c != 0
                )
                if entries:
                    table[(i, j)] = entries
        return table

    def bracket(self, x, y):
        """Lie bracket, bilinear over the structure constants (exact for exact inputs)."""
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
        zero block.
        """
        rows = self.indices_of_grade(target_grade)
        cols = self.indices_of_grade(source_grade)
        row_of = {l: t for t, l in enumerate(rows)}
        block = [[ZERO] * len(cols) for _ in rows]
        table = self._pair_table
        xs = [(i, x.coeffs[i])
              for i in self.indices_of_grade(target_grade - source_grade)
              if x.coeffs[i] != 0]
        for u, s in enumerate(cols):
            for i, xc in xs:
                for l, c in table.get((i, s), ()):
                    block[row_of[l]][u] += xc * c
        return block

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
        """Gram matrix of the Killing form, computed as trace(ad∘ad)."""
        b = [[ZERO] * self.dim for _ in range(self.dim)]
        c = self.structure
        for i in range(self.dim):
            for j in range(i, self.dim):
                total = ZERO
                for l in range(self.dim):
                    row = c[i][l]
                    for m in range(self.dim):
                        if row[m] != 0:
                            cm = c[j][m][l]
                            if cm != 0:
                                total += row[m] * cm
                b[i][j] = total
                b[j][i] = total
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
        makes E unique. An exact check on every basis vector then decides
        whether E exists.
        """
        self._check_killing_nondegenerate()
        c = self.structure
        rhs = [sum((self.grade[l] * c[j][l][l] for l in range(self.dim)), ZERO)
               for j in range(self.dim)]
        e = AlgebraElement(self, linalg.solve(self.killing_matrix, rhs))
        for i in range(self.dim):
            ei = self.basis_element(i)
            if self.bracket(e, ei) != self.grade[i] * ei:
                raise StructureError("no grading element exists")
        return e

    def exp_ad(self, z, x):
        """e^{ad z}(x) as a finite sum; requires ad(z) nilpotent.

        Nilpotency is guaranteed when every grade in z's support has the
        same sign, which is the only way this is called. Returns x itself
        when z is zero.
        """
        if z.is_zero:
            return x
        signs = {1 if g > 0 else -1 for g in z.grades() if g != 0}
        if len(signs) > 1 or (z.grades() and 0 in z.grades()):
            raise ValueError("exp_ad requires a pure-sign graded argument")
        term = x
        total = x
        factorial = 1
        for m in range(1, 2 * self.k + 2):
            term = self.bracket(z, term)
            if term.is_zero:
                break
            factorial *= m
            total = total + term * Fraction(1, factorial)
        else:
            if not self.bracket(z, term).is_zero:
                raise ValueError("exp_ad series failed to terminate")
        return total

    # -- validation ------------------------------------------------------------

    def validate(self):
        """Check every structural invariant exactly; raises StructureError."""
        self._check_antisymmetry()
        self._check_grading_additivity()
        self._check_jacobi()
        self._check_generated_by_first_negative()
        self._check_killing_nondegenerate()
        return self

    def _check_antisymmetry(self):
        for i in range(self.dim):
            for j in range(i, self.dim):
                for l in range(self.dim):
                    if self.structure[i][j][l] != -self.structure[j][i][l]:
                        raise StructureError(
                            f"antisymmetry fails at ({i},{j},{l})"
                        )

    def _check_grading_additivity(self):
        for i in range(self.dim):
            for j in range(self.dim):
                g = self.grade[i] + self.grade[j]
                for l, c in enumerate(self.structure[i][j]):
                    if c != 0 and (abs(g) > self.k or self.grade[l] != g):
                        raise StructureError(
                            f"grading additivity fails: [{self.basis_names[i]},"
                            f"{self.basis_names[j]}] has grade-{self.grade[l]} support"
                        )

    def _check_jacobi(self):
        for i in range(self.dim):
            ei = self.basis_element(i)
            for j in range(i + 1, self.dim):
                ej = self.basis_element(j)
                bij = self.bracket(ei, ej)
                for l in range(j + 1, self.dim):
                    el = self.basis_element(l)
                    total = (self.bracket(bij, el)
                             + self.bracket(self.bracket(ej, el), ei)
                             + self.bracket(self.bracket(el, ei), ej))
                    if not total.is_zero:
                        raise StructureError(
                            f"Jacobi identity fails on triple ({i},{j},{l})"
                        )

    def _check_generated_by_first_negative(self):
        neg_dim = sum(len(self.indices_of_grade(-g)) for g in range(1, self.k + 1))
        gen = [self.basis_element(i) for i in self.indices_of_grade(-1)]
        span = [list(e.coeffs) for e in gen]
        frontier = gen
        for _ in range(1, self.k):
            frontier = [
                self.bracket(self.basis_element(i), f)
                for i in self.indices_of_grade(-1)
                for f in frontier
            ]
            span.extend(list(f.coeffs) for f in frontier if not f.is_zero)
        if linalg.rank(span) != neg_dim:
            raise StructureError("negative part is not generated by grade -1")

    def _check_killing_nondegenerate(self):
        if linalg.rank([list(r) for r in self.killing_matrix]) != self.dim:
            raise StructureError("Killing form is degenerate")

    # -- realization access ----------------------------------------------------

    def require_realization(self):
        if self.realization is None:
            raise NoRealizationError(
                f"{self.family} algebra has no registered matrix realization"
            )
        return self.realization

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


def _commutator(a, b, n):
    out = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        for t in range(n):
            ait = a[i][t]
            bit = b[i][t]
            if ait != 0:
                for j in range(n):
                    if b[t][j] != 0:
                        out[i][j] += ait * b[t][j]
            if bit != 0:
                for j in range(n):
                    if a[t][j] != 0:
                        out[i][j] -= bit * a[t][j]
    return out
