"""The flat conformal model: polynomial conformal Killing fields on R^{p,q}.

Elements of the conformal algebra act on the flat chart as the polynomial
vector fields

    X(x) = a + A x + s x + <x,x> b - 2 <b,x> x

with <.,.> the signature-(p,q) inner product, A skew with respect to it, s
the dilation coefficient and b the special-conformal part. The chart is a
single affine chart of the homogeneous model; points whose flow leaves it
are rejected rather than continued through a chart transition.

Every such field is conformal Killing, so construction checks only the
data; the test suite proves the identity for `evaluate` exactly on each
basis element, which by linearity covers every field.

This module also carries the identity checks: the exact ones, vanishing of
the adjoint-tractor derivative of the field's tractor and the structure
equation on constant frame fields (zero by construction), and the float
ones, flow equivariance in exponential coordinates
(`equivariance_residuals` also returns each sample's datum) and commutation
of the holonomy flow with the exponential-coordinate Weyl section in the
witness gauge (`weyl_section_check`, which reads the holonomy datum alone).
No module but this one and the identity suite built on it computes in
floats. Every flat-model group element exp(m) of a grade -1 or grade 1
element (a translation, the witness factor exp(±Z), a Weyl-section sample)
is the float closed form I + m + m²/2 (`_exp_grade_one`): the realization
on R^{n+2} has three grade levels, so m³ = 0. Every flow is classical
fixed-step RK4; a linear flow (`holonomy_flow`, the bundle flow) is a power
of the one-step matrix. The chart flows of many fields run as one stacked
RK4 (`_integrate_chart_flow` on `_field_values`, the one float copy of the
field formula), so the identity suite integrates all its equivariance
samples together. The float code imports numpy when called, so the exact
paths (construction, `evaluate`, `holonomy_at`, `classify_at`,
`tractor_derivative`) run on the standard library alone.
"""

import math
from fractions import Fraction

from .classify import Classification, HolonomyDatum, Record, Verdict, classify
from .constants import (
    CHART_HOMOGENEOUS_TOL,
    CHART_NORM_LIMIT,
    FD_STEP,
    FIELD_DILATION_SIGN,
    FIELD_SPECIAL_FACTOR,
    MAX_RK4_STEPS,
    RK4_STEP,
)
from .errors import (
    ChartEscapeError,
    DomainError,
    NonSingularPointError,
    WeylSectionInapplicableError,
)
from .families import build_conformal
from .jsonio import (
    at_path,
    fraction_from_json,
    fraction_to_json,
    vector_from_json,
)

ZERO = Fraction(0)
ONE = Fraction(1)


class FlatConformalField:
    """A conformal Killing field of flat R^{p,q}, identified with an algebra element."""

    def __init__(self, algebra, xi):
        if algebra.family != "conformal":
            raise DomainError("flat model fields require a conformal algebra")
        if xi.algebra is not algebra:
            raise DomainError("element belongs to a different algebra")
        self.algebra = algebra
        self.xi = xi
        p, q = algebra.params
        self.signature = (p, q)
        self.n = p + q
        self.metric = [ONE] * p + [-ONE] * q
        self._split_parts()

    # -- construction ----------------------------------------------------------

    @classmethod
    def from_parts(cls, p, q, a, linear, s, b, algebra=None):
        """Field from formula data: translation a, skew matrix A, dilation s,
        special part b. The matrix must be skew for the (p, q) inner product,
        and a given `algebra` must have signature (p, q).

        Each value is an int, a Fraction or a 'p/q' string; anything else
        (a float, a boolean, a malformed or zero-denominator string) raises
        DomainError."""
        n = p + q
        a = vector_from_json(a, "a")
        b = vector_from_json(b, "b")
        s = fraction_from_json(s, "s")
        rows = [vector_from_json(row, f"linear[{i}]") for i, row in enumerate(linear)]
        if len(a) != n or len(b) != n or len(rows) != n or any(len(r) != n for r in rows):
            raise DomainError("field part dimensions do not match the signature")
        if algebra is None:
            algebra = build_conformal(p, q)
        elif algebra.params != (p, q):
            raise DomainError(f"the algebra's signature is not ({p}, {q})")
        metric = [ONE] * p + [-ONE] * q
        for i in range(n):
            for j in range(n):
                if metric[i] * rows[i][j] + metric[j] * rows[j][i] != 0:
                    raise DomainError("linear part is not skew for the inner product")
        named = {}
        for i, v in enumerate(a):
            if v != 0:
                named[f"P_{i + 1}"] = v
        if s != 0:
            named["D"] = s / FIELD_DILATION_SIGN
        for i in range(n):
            for j in range(i + 1, n):
                # the rotation basis matrix has (i, j) entry J_jj
                c = rows[i][j] * metric[j]
                if c != 0:
                    named[f"M_{i + 1}{j + 1}"] = c
        for i, v in enumerate(b):
            if v != 0:
                named[f"K_{i + 1}"] = v / FIELD_SPECIAL_FACTOR
        return cls(algebra, algebra.element(named))

    @classmethod
    def from_json_dict(cls, doc, algebra=None):
        """Field from the `field` object of a flat-classify request.

        Errors carry the request locus: `$.field.a[0]`, `$.field.s`, ... for
        a value that is not a rational, `$.field` for parts that do not fit
        together.
        """
        with at_path("field"):
            p, q = (int(v) for v in doc["signature"])
            return cls.from_parts(
                p, q, vector_from_json(doc["a"], "field.a"),
                [vector_from_json(row, f"field.A[{i}]")
                 for i, row in enumerate(doc["A"])],
                fraction_from_json(doc["s"], "field.s"),
                vector_from_json(doc["b"], "field.b"), algebra=algebra)

    def _split_parts(self):
        n = self.n
        xi = self.xi
        self.a = tuple(xi.coeff(f"P_{i + 1}") for i in range(n))
        self.s = FIELD_DILATION_SIGN * xi.coeff("D")
        self.b = tuple(FIELD_SPECIAL_FACTOR * xi.coeff(f"K_{i + 1}")
                       for i in range(n))
        rows = [[ZERO] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                c = xi.coeff(f"M_{i + 1}{j + 1}")
                if c != 0:
                    rows[i][j] += c * self.metric[j]
                    rows[j][i] -= c * self.metric[i]
        self.linear = tuple(tuple(r) for r in rows)

    # -- evaluation ------------------------------------------------------------

    def evaluate(self, point):
        """Value of the polynomial vector field; exact Fractions."""
        x = vector_from_json(point, "point")
        if len(x) != self.n:
            raise DomainError(f"point must have dimension {self.n}")
        xx = sum((self.metric[i] * x[i] * x[i] for i in range(self.n)), ZERO)
        bx = sum((self.metric[i] * self.b[i] * x[i] for i in range(self.n)), ZERO)
        out = []
        for i in range(self.n):
            v = self.a[i] + self.s * x[i] + xx * self.b[i] - 2 * bx * x[i]
            v += sum((self.linear[i][j] * x[j] for j in range(self.n)), ZERO)
            out.append(v)
        return tuple(out)

    def evaluate_float(self, points):
        """Float values at the rows of an m×n array of points: the stacked
        formula `_field_values` on a stack of this one field."""
        import numpy as np

        return _field_values(_float_fields([self]), np.asarray(points, dtype=float))

    def is_singular_at(self, point):
        """Whether the field vanishes at the point, decided exactly."""
        return all(v == 0 for v in self.evaluate(point))

    # -- serialization ---------------------------------------------------------

    def to_json_dict(self):
        return {
            "a": [fraction_to_json(v) for v in self.a],
            "A": [[fraction_to_json(v) for v in row] for row in self.linear],
            "s": fraction_to_json(self.s),
            "b": [fraction_to_json(v) for v in self.b],
            "signature": [self.signature[0], self.signature[1]],
        }

    def __repr__(self):
        return f"FlatConformalField({self.signature}, xi={self.xi})"


# -- gauge transport and holonomy extraction ------------------------------------


def translation_element(algebra, point):
    """The grade -1 element whose chart flow is translation by `point`."""
    coords = vector_from_json(point, "point")
    named = {f"P_{i + 1}": c for i, c in enumerate(coords) if c != 0}
    return algebra.element(named)


def gauge_tractor(field, point):
    """Adjoint tractor of the field in the exponential gauge over `point`.

    Conjugation by the translation bringing the point to the origin;
    exact, and equal to the chart vector field in its grade -1 slot.
    """
    xhat = translation_element(field.algebra, point)
    return field.algebra.exp_ad(-1 * xhat, field.xi)


def holonomy_at(field, point):
    """HolonomyDatum of the field at a singular point.

    The grade -1 part of the transported tractor vanishes at a singularity
    (checked), so the transported tractor is the datum; non-singular points
    are rejected (they are locally inessential by the flow-box argument, no
    classification needed).
    """
    if not field.is_singular_at(point):
        raise NonSingularPointError(
            "field does not vanish here; it is locally inessential near "
            "non-singular points"
        )
    transported = gauge_tractor(field, point)
    if not transported.component(-1).is_zero:
        raise AssertionError("transported tractor kept a grade -1 part at a singularity")
    return HolonomyDatum(field.algebra, transported)


class FlatClassification(Record):
    """Classification of a field at a point, with the non-singular shortcut."""

    __slots__ = ("singular", "classification")

    def __init__(self, singular, classification):
        self.singular = singular
        self.classification = classification   # Classification when singular

    @property
    def verdict(self):
        if not self.singular:
            return "NonSingular"
        return "Essential" if self.classification.is_essential else "Inessential"

    @property
    def locally_inessential(self):
        return not self.singular or not self.classification.is_essential

    def to_json_dict(self):
        body = {"verdict": self.verdict, "singular": self.singular,
                "locally_inessential": self.locally_inessential}
        # a non-singular point reports the constant fields of Inessential
        inner = (Classification(Verdict.INESSENTIAL) if self.classification is None
                 else self.classification).to_json_dict()
        inner.pop("verdict")
        body.update(inner)
        return body


def classify_at(field, point):
    """Non-singular shortcut, else the holonomy dictionary at the point."""
    try:
        datum = holonomy_at(field, point)
    except NonSingularPointError:
        return FlatClassification(False, None)
    return FlatClassification(True, classify(datum))


# -- adjoint-tractor derivative --------------------------------------------------


def adjoint_connection(fn, direction, base_point):
    """Tractor connection along a grade -1 direction in the flat gauge.

    The exact central difference of the gauge function at x0 ± h·y, plus the
    algebraic bracket term with the direction. The difference equals the
    derivative whenever fn is at most quadratic in x, as the gauge tractor
    is (ad(x̂)³ = 0 on a |1|-grading).
    """
    algebra = direction.algebra
    if direction.grades() not in ([], [-1]):
        raise DomainError("direction must have pure grade -1")
    y = algebra.grade_coords(direction, -1)
    x0 = vector_from_json(base_point, "point")
    h = FD_STEP
    plus = fn([xi + h * yi for xi, yi in zip(x0, y)])
    minus = fn([xi - h * yi for xi, yi in zip(x0, y)])
    derivative = (plus - minus) * (1 / (2 * h))
    bracket_term = algebra.bracket(direction, fn(x0))
    return derivative + bracket_term


def tractor_derivative(field, direction, base_point):
    """Derivative of the field's adjoint tractor; exactly zero, since every
    field here is a conformal Killing field."""
    return adjoint_connection(lambda x: gauge_tractor(field, x),
                              direction, base_point)


# -- structure equation -----------------------------------------------------------


def curvature_check(y1, y2):
    """dω(Y1̂, Y2̂) + [ω(Y1̂), ω(Y2̂)] for constant frame fields; exactly zero.

    The first term reduces to -[Y1, Y2] (derivatives of constant functions
    vanish, the frame-field commutator is the constant field of the
    bracket) and cancels the algebraic term exactly.
    """
    algebra = y1.algebra
    for y in (y1, y2):
        if y.algebra is not algebra:
            raise DomainError("arguments belong to different algebras")
        if any(g >= 0 for g in y.grades()):
            raise DomainError("curvature check expects purely negative grades")
    d_omega = -1 * algebra.bracket(y1, y2)
    wedge = algebra.bracket(y1, y2)
    return d_omega + wedge


# -- numeric flow machinery --------------------------------------------------------


def _step_count(t):
    """RK4 steps for time t: |t| / RK4_STEP rounded, at least one. A time
    with no finite step count (infinite, NaN or overflowing) is refused, and
    so is one needing more than MAX_RK4_STEPS steps, which bounds the cost
    of every flow."""
    try:
        steps = abs(t) / RK4_STEP
    except OverflowError:  # an int too large for a float
        steps = math.inf
    if not math.isfinite(steps):
        raise DomainError(f"time {t!r} has no finite RK4 step count")
    n_steps = max(1, int(round(steps)))
    if n_steps > MAX_RK4_STEPS:
        raise DomainError(f"time {t!r} needs more than {MAX_RK4_STEPS} RK4 steps")
    return n_steps


def _float_fields(fields):
    """Float parts a, A, s, b and the metric of a stack of fields of one
    signature, each stacked along a first axis; s and the metric are n
    copies wide, so that every product in `_field_values` is row by row."""
    import numpy as np

    return (np.array([[float(v) for v in f.a] for f in fields]),
            np.array([[[float(v) for v in row] for row in f.linear] for f in fields]),
            np.array([[float(f.s)] * f.n for f in fields]),
            np.array([[float(v) for v in f.b] for f in fields]),
            np.array([[float(v) for v in f.metric] for f in fields]))


def _field_values(parts, x):
    """X_k(x_k) = a_k + A_k x_k + s_k x_k + <x_k,x_k> b_k - 2<b_k,x_k> x_k at
    each row x_k of the array x, for the stacked parts of `_float_fields`.

    The only float copy of the field formula. A stack of one field
    broadcasts over every row.
    """
    import numpy as np

    a, lin, s, b, met = parts
    mx = met * x
    xx = np.add.reduce(mx * x, axis=1, keepdims=True)
    bx = np.add.reduce(mx * b, axis=1, keepdims=True)
    return a + np.matmul(lin, x[:, :, None])[:, :, 0] + s * x + xx * b - 2.0 * bx * x


def _integrate_chart_flow(fields, starts, t):
    """Classical fixed-step RK4 for the chart ODEs x_k' = X_k(x_k) of a stack
    of fields of one signature, run together from the rows of `starts` to
    time t. The identity suite's equivariance samples take this one run.

    Returns the end points and, for each row, None or the time of the step
    at which it left the chart: a norm above CHART_NORM_LIMIT, or a point
    that is not finite. Nothing is raised mid-run; a row that left goes on
    silently and its end point means nothing.
    """
    import numpy as np

    parts = _float_fields(fields)
    x = np.array(starts, dtype=float)
    n_steps = _step_count(t)
    h = t / n_steps
    escape_times = [None] * len(x)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, n_steps + 1):
            k1 = _field_values(parts, x)
            k2 = _field_values(parts, x + 0.5 * h * k1)
            k3 = _field_values(parts, x + 0.5 * h * k2)
            k4 = _field_values(parts, x + h * k3)
            x = x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            # NaN compares False, so a non-finite row is outside too
            inside = np.add.reduce(x * x, axis=1) <= CHART_NORM_LIMIT ** 2
            if not inside.all():
                for k in np.flatnonzero(~inside):
                    if escape_times[k] is None:
                        escape_times[k] = i * h
                if None not in escape_times:
                    break
    return x, escape_times


def _linear_flow(rho, t):
    """Time-t flow of the linear ODE G' = rho·G by the chart flow's RK4: one
    step of length h multiplies by R = I + A + A²/2 + A³/6 + A⁴/24 with
    A = h·rho, so the whole run is a power of R. A stack of matrices rho
    gives the stack of their flows."""
    import numpy as np

    n_steps = _step_count(t)
    a = (t / n_steps) * rho
    eye = np.eye(rho.shape[-1])
    r = eye + a @ (eye + a @ (eye + a @ (eye + a / 4.0) / 3.0) / 2.0)
    return np.linalg.matrix_power(r, n_steps)


def holonomy_flow(datum, t):
    """exp(t·x) in the algebra's matrix realization, by `_linear_flow`."""
    return _linear_flow(_rho(datum.x), t)


def _rho(element):
    """The element's matrix in its algebra's realization, in floats."""
    import numpy as np

    rows = element.algebra.realization.matrix_of(element)
    return np.array([[float(v) for v in row] for row in rows], dtype=float)


def _exp_grade_one(m):
    """exp(m) = I + m + m²/2 for the float realization matrix m of an
    element of grade -1 or of grade 1.

    The series ends there: on R^{n+2} the grading element has only the
    eigenvalues 1, 0 and -1, and m moves each eigenspace one level, so
    m³ = 0.
    """
    import numpy as np

    return np.eye(m.shape[-1]) + m + (m @ m) / 2.0


def _chart_of_group_point(g):
    """Chart coordinates of g·(base point), via homogeneous coordinates.

    A non-finite point, or a homogeneous scale too small to divide by, has
    left the chart.
    """
    import numpy as np

    col = g[:, 0]
    scale = col[0]
    if (not np.isfinite(col).all()
            or abs(scale) < CHART_HOMOGENEOUS_TOL * max(1.0, float(np.linalg.norm(col)))):
        raise ChartEscapeError("group point left the chart")
    return col[1:-1] / scale


def equivariance_check(field, base_point, direction, t):
    """Commutation defect of the chart flow with the group-side formula.

    Left side: RK4 integration of the chart flow started at the chart point
    of exp^ω(u, Y). Right side: the same point computed group-theoretically
    as exp^ω(u, Ad(h^t)Y)·h^t in the matrix realization, read at the base
    point as u·h^t·exp(Y): every element of the parabolic maps the base
    point's homogeneous line to itself, so (h^t)⁻¹ only rescales the column
    that the chart reading divides out. Returns the chart distance, or
    raises ChartEscapeError when either side leaves the chart.

    A batch of one of `equivariance_residuals`.
    """
    (result,), _ = equivariance_residuals([(field, direction)], base_point, t)
    if isinstance(result, ChartEscapeError):
        raise result
    return result


def equivariance_residuals(samples, base_point, t):
    """`equivariance_check` for (field, direction) samples of one algebra
    that share the base point and t: one stacked chart-flow run and one
    stacked group side.

    Returns, for each sample, its residual or the ChartEscapeError that
    `equivariance_check` raises for it (the chart flow's escape, with its
    time, before the group side's), and its HolonomyDatum at the base point,
    which the run transports anyway, as two lists. An argument that is
    wrong for any sample (a direction not of grade -1, a base point where a
    field does not vanish, a t over the step budget) raises at once.
    """
    import numpy as np

    algebra = samples[0][0].algebra
    x0 = vector_from_json(base_point, "point")
    data, rhos, exp_ys, starts = [], [], [], []
    for field, direction in samples:
        if field.algebra is not algebra:
            raise DomainError("sample fields belong to different algebras")
        if direction.grades() not in ([], [-1]):
            raise DomainError("direction must have pure grade -1")
        datum = holonomy_at(field, x0)   # also enforces singularity
        data.append(datum)
        y = algebra.grade_coords(direction, -1)
        rhos.append(_rho(datum.x))
        exp_ys.append(_exp_grade_one(_rho(direction)))
        starts.append([float(v) + float(yi) for v, yi in zip(x0, y)])
    lhs, escape_times = _integrate_chart_flow([f for f, _ in samples], starts, t)

    u = _exp_grade_one(_rho(translation_element(algebra, x0)))
    # for large |t| these products overflow; the non-finite group point
    # that results is rejected below as a chart escape
    with np.errstate(over="ignore", invalid="ignore"):
        rhs_groups = u @ _linear_flow(np.array(rhos), t) @ np.array(exp_ys)
    results = []
    for x, escape_time, group in zip(lhs, escape_times, rhs_groups):
        if escape_time is not None:
            results.append(ChartEscapeError("flow left the chart",
                                            escape_time=escape_time))
            continue
        try:
            rhs = _chart_of_group_point(group)
        except ChartEscapeError as err:
            results.append(err)
            continue
        results.append(float(np.max(np.abs(x - rhs))))
    return results, data


def weyl_section_check(datum, t, n_samples=5, sample_scale=0.15):
    """Commutation defect of the flow exp(Z)·exp(tρ(X))·exp(-Z) of a
    conformal datum X, Z its witness, with the exponential-coordinate Weyl
    section; maximum positive-part offset over chart samples. A field ξ's
    datum at p is exp(-ad x̂)ξ, so this is ξ's bundle flow in the gauge over p.

    Requires X conjugate into grade 0 (Inessential or WeylReducible);
    otherwise no Weyl structure is preserved and the check refuses.
    """
    import numpy as np

    algebra = datum.algebra
    if algebra.family != "conformal":
        raise DomainError("the Weyl-section check requires a conformal algebra")
    if n_samples < 1:
        raise DomainError("the Weyl-section check needs at least one sample")
    witness = classify(datum).witness
    if witness is None:
        raise WeylSectionInapplicableError(
            "holonomy is not conjugate into the grade-0 part; no local "
            "Weyl structure is preserved"
        )
    n = sum(algebra.params)
    z = _rho(witness)
    rho_p = np.array([_rho(algebra.basis_element(f"P_{i + 1}")) for i in range(n)])

    # the right-invariant bundle ODE G' = rho(X)·G, in the witness gauge
    flow = _exp_grade_one(z) @ _linear_flow(_rho(datum.x), t) @ _exp_grade_one(-z)
    return max(_positive_offset(flow @ _exp_grade_one(np.tensordot(offset, rho_p, 1)),
                                rho_p, n)
               for offset in _sample_offsets(n, n_samples, sample_scale))


def _sample_offsets(n, n_samples, scale):
    import numpy as np

    offsets = [np.zeros(n)]
    for i in range(min(n, n_samples - 1)):
        e = np.zeros(n)
        e[i] = scale
        offsets.append(e)
    while len(offsets) < n_samples:
        v = np.array([scale * np.cos(1.0 + 2.7 * i + len(offsets))
                      for i in range(n)])
        offsets.append(v)
    return offsets[:n_samples]


def _positive_offset(q, rho_p, n):
    """Positive-part size of the Bruhat factorization q = exp(ŷ)·g0·exp(n̂₊).

    Factors the chart part off with the realization's own translation
    matrices, then reads the positive block of the remaining parabolic
    element. Anything that fails to factor (lower-left leakage) counts
    toward the defect as well.
    """
    import numpy as np

    y = _chart_of_group_point(q)
    q2 = _exp_grade_one(-np.tensordot(y, rho_p, 1)) @ q
    c = q2[0, 0]
    if abs(c) < CHART_HOMOGENEOUS_TOL:
        raise ChartEscapeError("parabolic factor degenerated")
    q2 = q2 / c
    r_block = q2[1:n + 1, 1:n + 1]
    b = np.linalg.solve(r_block, q2[1:n + 1, n + 1])
    leakage = float(np.max(np.abs(q2[1:, 0])))
    return max(float(np.max(np.abs(b))), leakage)
