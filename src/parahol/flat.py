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
witness gauge (`weyl_section_residuals`, which reads the holonomy data
alone). No module but this one and the identity suite built on it computes
in floats. Every flat-model group element exp(m) of a grade -1 or grade 1
element (a translation, the witness factor exp(±Z), a Weyl-section sample)
is the float closed form I + m + m²/2 (`_exp_grade_one`): the realization
on R^{n+2} has three grade levels, so m³ = 0. Every flow is classical
fixed-step RK4; a linear flow (`holonomy_flow`, the bundle flow) is a power
of the one-step matrix.

Both float checks run on stacks, with a number of numpy calls that does
not grow with the number of samples; the single checks
(`equivariance_check`, `weyl_section_check`) are their batches of one.
The field formula is homogeneous in u = (x, 1): X(x) = ((T·u)·u)[:n] for
one (n+1)×(n+1)×(n+1) array T per field (`_field_tensors`, the one float
copy of the formula, which `evaluate_float` reads too), whose last row is
zero, so u's last entry stays 1. The chart flows of many fields run as
one RK4 on the column stack of their u (`_integrate_chart_flow`), each
stage two matrix products (`_field_values`); the stack of T holds
m·(n+1)³ doubles for m fields, 10.6 MB at n = 21 and m = 125. The
Weyl-section pass classifies each datum once for its witness, then
forms every datum's bundle flow and every sample offset's group element
as stacks and reads all their chart points and positive parts at once
(`_chart_of_group_points`, `_positive_offsets`, one `np.linalg.solve`).
The float code imports numpy when called, so the exact paths
(construction, `evaluate`, `holonomy_at`, `classify_at`,
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
        """Float values at the rows of an m×n array of points: the
        contraction `_field_values` of this one field's tensor with the
        columns (x, 1)."""
        return _field_values(_field_tensors([self]), _columns(points))[:, :self.n, 0]

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
    of every flow. A flow reads an accepted t (an int or a Fraction too)
    as a float."""
    try:
        steps = abs(t) / RK4_STEP
    except OverflowError:  # an int too large for a float
        steps = math.inf
    if not math.isfinite(steps):
        raise DomainError(f"time {_excerpt(t)} has no finite RK4 step count")
    n_steps = max(1, int(round(steps)))
    if n_steps > MAX_RK4_STEPS:
        raise DomainError(f"time {_excerpt(t)} needs more than {MAX_RK4_STEPS} RK4 steps")
    return n_steps


def _excerpt(t):
    """repr(t) when it is short, as every float's is; otherwise its first
    eight characters and its length, so that a huge integer is named
    without echoing every digit."""
    text = repr(t)
    return text if len(text) <= 24 else f"{text[:8]}... ({len(text)} characters)"


def _field_tensors(fields):
    """The stacked field formula as one homogeneous quadratic form each.

    With u = (x, 1), X(x) = ((T·u)·u)[:n] for the (n+1)×(n+1)×(n+1) array
    T[i, j, l] of each field: T[i, n, n] = a_i, T[i, j, n] = (A + sI)_ij,
    T[i, j, j] += <e_j,e_j> b_i and T[i, i, j] += -2 <e_j,e_j> b_j, which
    is a + (A + sI)x + <x,x> b - 2<b,x> x. The last row is zero, so u's last
    entry stays exactly 1 under every RK4 step. Returned as one
    (m, (n+1)², n+1) array for a stack of m fields of one signature, the
    layout `_field_values` contracts.

    The only float copy of the field formula.
    """
    import numpy as np

    n = fields[0].n
    a = np.array([[float(v) for v in f.a] for f in fields])
    lin = np.array([[[float(v) for v in row] for row in f.linear] for f in fields])
    s = np.array([float(f.s) for f in fields])
    b = np.array([[float(v) for v in f.b] for f in fields])
    met = np.array([float(v) for v in fields[0].metric])
    idx = np.arange(n)
    tensor = np.zeros((len(fields), n + 1, n + 1, n + 1))
    tensor[:, :n, n, n] = a
    tensor[:, :n, :n, n] = lin + s[:, None, None] * np.eye(n)
    tensor[:, :n, idx, idx] = b[:, :, None] * met
    tensor[:, idx, idx, :n] += -2.0 * met * b[:, None, :]
    return tensor.reshape(len(fields), (n + 1) ** 2, n + 1)


def _columns(points):
    """The (m, n+1, 1) stack of columns (x, 1) for the rows x of an m×n
    array of points."""
    import numpy as np

    x = np.asarray(points, dtype=float)
    return np.concatenate([x, np.ones((len(x), 1))], axis=1)[:, :, None]


def _field_values(tensors, u):
    """(T_k·u_k)·u_k for each column u_k = (x_k, 1) of the (m, n+1, 1)
    stack u: X_k(x_k) in the first n entries and 0 in the last. A stack of
    one field broadcasts over every column."""
    m, size, _ = u.shape
    return (tensors @ u).reshape(m, size, size) @ u


def _integrate_chart_flow(fields, starts, t):
    """Classical fixed-step RK4 for the chart ODEs x_k' = X_k(x_k) of a stack
    of fields of one signature, run together from the rows of `starts` to
    time t, on the columns u_k = (x_k, 1) of `_field_values`. The identity
    suite's equivariance samples take this one run.

    Returns the end points and, for each row, None or the time of the step
    at which it left the chart: a norm above CHART_NORM_LIMIT, or a point
    that is not finite. Nothing is raised mid-run; a row that left goes on
    silently and its end point means nothing.
    """
    import numpy as np

    tensors = _field_tensors(fields)
    u = _columns(starts)
    n = u.shape[1] - 1
    n_steps = _step_count(t)
    h = float(t) / n_steps
    escape_times = [None] * len(u)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, n_steps + 1):
            k1 = _field_values(tensors, u)
            k2 = _field_values(tensors, u + 0.5 * h * k1)
            k3 = _field_values(tensors, u + 0.5 * h * k2)
            k4 = _field_values(tensors, u + h * k3)
            u = u + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            x = u[:, :n, 0]
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
    a = (float(t) / n_steps) * rho
    eye = np.eye(rho.shape[-1])
    r = eye + a @ (eye + a @ (eye + a @ (eye + a / 4.0) / 3.0) / 2.0)
    return np.linalg.matrix_power(r, n_steps)


def holonomy_flow(datum, t):
    """exp(t·x) in the algebra's matrix realization, by `_linear_flow`."""
    return _linear_flow(_rho(datum.x), t)


def _rho(element):
    """The element's matrix in its algebra's realization, in floats: each
    integer numerator over the common denominator, a correctly rounded
    division, so every entry is float() of the exact one."""
    import numpy as np

    real = element.algebra.realization
    den, entries = real.scaled_matrix_of(element)
    out = np.zeros((real.size, real.size))
    for (i, j), v in entries.items():
        out[i, j] = v / den
    return out


def _exp_grade_one(m):
    """exp(m) = I + m + m²/2 for the float realization matrix m of an
    element of grade -1 or of grade 1.

    The series ends there: on R^{n+2} the grading element has only the
    eigenvalues 1, 0 and -1, and m moves each eigenspace one level, so
    m³ = 0.
    """
    import numpy as np

    return np.eye(m.shape[-1]) + m + (m @ m) / 2.0


def _chart_of_group_points(gs):
    """Chart coordinates of g·(base point) for each g of a stack, via
    homogeneous coordinates, and for each whether it left the chart: a
    non-finite point, or a homogeneous scale too small to divide by. The
    point of a row that left reads 0."""
    import numpy as np

    cols = gs[:, :, 0]
    scale = cols[:, 0]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        escaped = ~np.isfinite(cols).all(axis=1) | (
            np.abs(scale) < CHART_HOMOGENEOUS_TOL
            * np.maximum(1.0, np.linalg.norm(cols, axis=1)))
        points = cols[:, 1:-1] / scale[:, None]
    return np.where(escaped[:, None], 0.0, points), escaped


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
    data, rhos, rho_ys, starts = [], [], [], []
    for field, direction in samples:
        if field.algebra is not algebra:
            raise DomainError("sample fields belong to different algebras")
        if direction.grades() not in ([], [-1]):
            raise DomainError("direction must have pure grade -1")
        datum = holonomy_at(field, x0)   # also enforces singularity
        data.append(datum)
        y = algebra.grade_coords(direction, -1)
        rhos.append(_rho(datum.x))
        rho_ys.append(_rho(direction))
        starts.append([float(v) + float(yi) for v, yi in zip(x0, y)])
    lhs, escape_times = _integrate_chart_flow([f for f, _ in samples], starts, t)

    u = _exp_grade_one(_rho(translation_element(algebra, x0)))
    # for large |t| these products overflow; the non-finite group point
    # that results is read below as a chart escape
    with np.errstate(over="ignore", invalid="ignore"):
        rhs_groups = (u @ _linear_flow(np.array(rhos), t)
                      @ _exp_grade_one(np.array(rho_ys)))
        rhs, escaped = _chart_of_group_points(rhs_groups)
        residuals = np.max(np.abs(lhs - rhs), axis=1).tolist()
    results = []
    for escape_time, out, residual in zip(escape_times, escaped.tolist(), residuals):
        if escape_time is not None:
            results.append(ChartEscapeError("flow left the chart",
                                            escape_time=escape_time))
        elif out:
            results.append(ChartEscapeError("group point left the chart"))
        else:
            results.append(residual)
    return results, data


def weyl_section_check(datum, t, n_samples=5, sample_scale=0.15):
    """Commutation defect of the flow exp(Z)·exp(tρ(X))·exp(-Z) of a
    conformal datum X, Z its witness, with the exponential-coordinate Weyl
    section; maximum positive-part offset over chart samples. A field ξ's
    datum at p is exp(-ad x̂)ξ, so this is ξ's bundle flow in the gauge over p.

    Requires X conjugate into grade 0 (Inessential or WeylReducible);
    otherwise no Weyl structure is preserved and the check refuses.

    A batch of one of `weyl_section_residuals`.
    """
    (result,) = weyl_section_residuals([datum], t, n_samples, sample_scale)
    if isinstance(result, Exception):
        raise result
    return result


def weyl_section_residuals(data, t, n_samples=5, sample_scale=0.15):
    """`weyl_section_check` for a list of data of one conformal algebra, in
    one stacked pass: one `classify` per datum for its witness, then one
    stacked bundle flow, one product with every sample offset's group
    element and one stacked positive-part reading (`_positive_offsets`).

    Returns, for each datum, its residual or the error that
    `weyl_section_check` raises for it: WeylSectionInapplicableError
    without a witness, or the ChartEscapeError of its first sample (in
    offset order) that fails to factor. An argument that is wrong for any
    datum (an algebra that is not conformal, no sample, a t over the step
    budget) raises at once, and so would the LinAlgError of a singular
    grade-0 block, which a parabolic group element does not have.
    """
    import numpy as np

    if any(datum.algebra.family != "conformal" for datum in data):
        raise DomainError("the Weyl-section check requires a conformal algebra")
    if n_samples < 1:
        raise DomainError("the Weyl-section check needs at least one sample")
    if len({id(datum.algebra) for datum in data}) > 1:
        raise DomainError("Weyl-section data belong to different algebras")
    results, xs, zs = [], [], []
    for datum in data:
        witness = classify(datum).witness
        if witness is None:
            results.append(WeylSectionInapplicableError(
                "holonomy is not conjugate into the grade-0 part; no local "
                "Weyl structure is preserved"))
            continue
        results.append(None)
        xs.append(_rho(datum.x))
        zs.append(_rho(witness))
    if not xs:
        return results
    algebra = data[0].algebra
    n = sum(algebra.params)
    rho_p = np.array([_rho(algebra.basis_element(f"P_{i + 1}")) for i in range(n)])
    offsets = np.array(_sample_offsets(n, n_samples, sample_scale))
    z = np.array(zs)

    # the right-invariant bundle ODE G' = rho(X)·G, in the witness gauge,
    # times each offset's group element: q[k, j] = flow_k·exp(offset_j)
    flows = _exp_grade_one(z) @ _linear_flow(np.array(xs), t) @ _exp_grade_one(-z)
    qs = flows[:, None] @ _exp_grade_one(np.tensordot(offsets, rho_p, 1))
    size = qs.shape[-1]
    offs = iter(_positive_offsets(qs.reshape(-1, size, size), rho_p, n))
    for k, result in enumerate(results):
        if result is None:
            # as one sample after the other: the first that fails raises
            row = [next(offs) for _ in range(n_samples)]
            escape = next((v for v in row if isinstance(v, ChartEscapeError)), None)
            results[k] = max(row) if escape is None else escape
    return results


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


def _positive_offsets(qs, rho_p, n):
    """Positive-part size of the Bruhat factorization q = exp(ŷ)·g0·exp(n̂₊)
    for each q of a stack, or the ChartEscapeError of a q that does not
    factor.

    Factors the chart part off with the realization's own translation
    matrices, then reads the positive block of the remaining parabolic
    element, all the stack's blocks in one solve. Anything that fails to
    factor (lower-left leakage) counts toward the defect as well.
    """
    import numpy as np

    ys, escaped = _chart_of_group_points(qs)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        q2 = _exp_grade_one(-np.tensordot(ys, rho_p, 1)) @ qs
        c = q2[:, 0, 0]
        degenerate = ~escaped & (np.abs(c) < CHART_HOMOGENEOUS_TOL)
        # a row that does not factor solves I·b = 0 in its place
        ok = ~(escaped | degenerate)
        q2 = np.where(ok[:, None, None], q2 / np.where(ok, c, 1.0)[:, None, None], 0.0)
        b = np.linalg.solve(
            np.where(ok[:, None, None], q2[:, 1:n + 1, 1:n + 1], np.eye(n)),
            q2[:, 1:n + 1, n + 1:n + 2])
        positive = np.max(np.abs(b), axis=(1, 2)).tolist()
        leakage = np.max(np.abs(q2[:, 1:, 0]), axis=1).tolist()
    return [ChartEscapeError("group point left the chart") if out
            else ChartEscapeError("parabolic factor degenerated") if degen
            else max(pos, leak)
            for out, degen, pos, leak in zip(escaped.tolist(), degenerate.tolist(),
                                             positive, leakage)]
