"""Constructors for the built-in graded algebra families.

Both families are built from explicit block matrix realizations, each
basis matrix a sparse {(row, col): value} map of its nonzero entries: ints
on the conformal family, ints and the ±1/2 of J_a on cr. The derived
structure constants are exact:

* build_conformal(p, q): so(p+1, q+1) with its |1|-grading, preserving a
  split quadratic form whose first and last coordinates are a hyperbolic
  pair. Basis: P_1..P_n (grade -1), D and rotations M_ab (grade 0),
  K_1..K_n (grade +1).
* build_cr(n): su(n+1, 1) with its |2|-grading, realified over the reals
  (complex entries become 2x2 blocks; the algebra is exposed as a real Lie
  algebra of dimension (n+1)(n+3)). Basis: T (grade -2), P_1..P_2n
  (grade -1), E, J_a, U_ab, V_ab (grade 0), K_1..K_2n (grade +1),
  S (grade +2).
"""

from fractions import Fraction

from .algebra import GradedLieAlgebra
from .errors import StructureError

HALF = Fraction(1, 2)

# Largest algebra dimension `build` constructs. On a shared 2-core Intel
# Xeon host (Python 3.11), CLI algebra-info took a median of 0.20 s on
# conformal(21,0) (dim 253) and 0.22 s on cr(13) (dim 224), 5 runs each;
# building the next sizes in-process, cr(14) (dim 255) and conformal(24,0)
# (dim 325), took 0.30-0.31 and 0.34-0.35 s.
MAX_BUILD_DIM = 253


def build_conformal(p, q):
    """so(p+1, q+1) with the |1|-grading of conformal geometry.

    Requires p + q >= 2. Every invariant holds exactly on return: building
    from the matrix realization proves antisymmetry and Jacobi, and
    validate() checks the rest.
    """
    n = p + q
    if n < 2 or p < 0 or q < 0:
        raise ValueError("build_conformal requires p, q >= 0 with p + q >= 2")
    size = n + 2
    j = [1] * p + [-1] * q  # the form's diagonal between the hyperbolic pair

    # one (name, grade, basis matrix) triple per basis vector
    basis = [(f"P_{a + 1}", -1, {(1 + a, 0): 1, (size - 1, 1 + a): -j[a]})
             for a in range(n)]
    basis.append(("D", 0, {(0, 0): 1, (size - 1, size - 1): -1}))
    basis += [(f"M_{a + 1}{b + 1}", 0, {(1 + a, 1 + b): j[b], (1 + b, 1 + a): -j[a]})
              for a in range(n) for b in range(a + 1, n)]
    basis += [(f"K_{a + 1}", 1, {(1 + a, size - 1): 1, (0, 1 + a): -j[a]})
              for a in range(n)]
    names, grades, mats = zip(*basis)

    algebra = GradedLieAlgebra.from_matrices(
        names, grades, mats, k=1, family="conformal", params=(p, q)
    )
    algebra.validate()
    if algebra.grading_element != algebra.basis_element("D"):
        raise StructureError("conformal grading element is not D")
    return algebra


def build_cr(n):
    """su(n+1, 1) with its |2|-grading, as a real Lie algebra.

    The Hermitian form has a hyperbolic pair in the first/last complex
    coordinates. Complex matrices are realified, doubling the real
    dimension of each complex entry.
    """
    if n < 1:
        raise ValueError("build_cr requires n >= 1")
    m = n + 2

    # one (name, grade, complex entries) triple per basis vector, the
    # entries as (row, col, re, im) quadruples
    basis = [("T", -2, [(m - 1, 0, 0, 1)])]
    for a in range(1, n + 1):
        # v = e_a and v = i e_a; the (3,2) block carries -conj(v)
        basis.append((f"P_{2 * a - 1}", -1, [(a, 0, 1, 0), (m - 1, a, -1, 0)]))
        basis.append((f"P_{2 * a}", -1, [(a, 0, 0, 1), (m - 1, a, 0, 1)]))
    basis.append(("E", 0, [(0, 0, 1, 0), (m - 1, m - 1, -1, 0)]))
    # J_a = i E_aa with the trace-compensating scalar block -i/2
    basis += [(f"J_{a}", 0, [(0, 0, 0, -HALF), (a, a, 0, 1), (m - 1, m - 1, 0, -HALF)])
              for a in range(1, n + 1)]
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            basis.append((f"U_{a}{b}", 0, [(a, b, 1, 0), (b, a, -1, 0)]))
            basis.append((f"V_{a}{b}", 0, [(a, b, 0, 1), (b, a, 0, 1)]))
    for a in range(1, n + 1):
        basis.append((f"K_{2 * a - 1}", 1, [(a, m - 1, 1, 0), (0, a, -1, 0)]))
        basis.append((f"K_{2 * a}", 1, [(a, m - 1, 0, 1), (0, a, 0, 1)]))
    basis.append(("S", 2, [(0, m - 1, 0, 1)]))
    names, grades, entry_lists = zip(*basis)

    # the Hermitian form: a hyperbolic pair in the first and last
    # coordinates, the identity between them
    form = _form_index(_realify(m, [(0, m - 1, 1, 0), (m - 1, 0, 1, 0)]
                                + [(a, a, 1, 0) for a in range(1, n + 1)]))
    mats = [_realify(m, entries) for entries in entry_lists]
    for name, mat in zip(names, mats):
        _check_su_conditions(mat, form, m, name)

    algebra = GradedLieAlgebra.from_matrices(
        names, grades, mats, k=2, family="cr", params=(n,)
    )
    algebra.validate()
    if algebra.grading_element != algebra.basis_element("E"):
        raise StructureError("cr grading element is not E")
    return algebra


def _realify(m, entries):
    """The real 2m×2m matrix of the complex m×m matrix given by (row, col,
    re, im) quadruples, as {(row, col): value} over its nonzero entries."""
    mat = {}
    for i, j, re, im in entries:
        for pos, v in (((i, j), re), ((i, j + m), -im),
                       ((i + m, j), im), ((i + m, j + m), re)):
            mat[pos] = mat.get(pos, 0) + v
    return {pos: v for pos, v in mat.items() if v != 0}


def _form_index(form):
    """Row and column index of a sparse form {(i, j): value}:
    i -> [(j, value)] and j -> [(i, value)]."""
    rows, cols = {}, {}
    for (i, j), v in form.items():
        rows.setdefault(i, []).append((j, v))
        cols.setdefault(j, []).append((i, v))
    return rows, cols


def _check_su_conditions(mat, form, m, name):
    """Realified su condition: matᵀ·form + form·mat = 0 and complex trace 0.

    `mat` is a sparse matrix from `_realify` and `form` the `_form_index`
    of the realified Hermitian form, so the products are summed over the
    nonzero entries of both only.
    """
    form_rows, form_cols = form
    total = {}
    for (t, i), v in mat.items():
        # matᵀ·form: mat[t][i]·form[t][j] lands at (i, j)
        for j, f in form_rows.get(t, ()):
            total[(i, j)] = total.get((i, j), 0) + v * f
    for (t, j), v in mat.items():
        # form·mat: form[i][t]·mat[t][j] lands at (i, j)
        for i, f in form_cols.get(t, ()):
            total[(i, j)] = total.get((i, j), 0) + f * v
    if any(v != 0 for v in total.values()):
        raise StructureError(f"{name} violates the Hermitian form condition")
    re_tr = sum(mat.get((i, i), 0) for i in range(m))
    im_tr = sum(mat.get((i + m, i), 0) for i in range(m))
    if re_tr != 0 or im_tr != 0:
        raise StructureError(f"{name} is not traceless")


def build(family, params):
    """Dispatch used by the CLI: family name + parameter list.

    An algebra whose dimension exceeds MAX_BUILD_DIM is rejected with a
    ValueError before any work; build_conformal and build_cr themselves
    take any size.
    """
    if family == "conformal":
        if len(params) != 2:
            raise ValueError("conformal family takes params [p, q]")
        p, q = int(params[0]), int(params[1])
        _check_build_budget(family, (p + q + 1) * (p + q + 2) // 2)
        return build_conformal(p, q)
    if family == "cr":
        if len(params) != 1:
            raise ValueError("cr family takes params [n]")
        n = int(params[0])
        _check_build_budget(family, (n + 1) * (n + 3))
        return build_cr(n)
    raise ValueError(f"unknown family {family!r}")


def _check_build_budget(family, dim):
    if dim > MAX_BUILD_DIM:
        raise ValueError(f"{family} algebra of dimension {dim} exceeds the "
                         f"build budget of dimension {MAX_BUILD_DIM}")
