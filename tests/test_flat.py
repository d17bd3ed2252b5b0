"""Flat conformal model: field formula, transport, holonomy, numeric identities."""

import random
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest

from parahol import flat, identities
from parahol.classify import HolonomyDatum, Verdict, classify, conjugate_by_exp
from parahol.constants import CHART_NORM_LIMIT, FIELD_BRACKET_SIGN, MAX_RK4_STEPS, RK4_STEP
from parahol.errors import (
    ChartEscapeError,
    DomainError,
    NonSingularPointError,
    WeylSectionInapplicableError,
)
from parahol.families import build_conformal, build_cr
from parahol.flat import (
    FlatConformalField,
    _exp_grade_one,
    _integrate_chart_flow,
    _positive_offset,
    _rho,
    _sample_offsets,
    _step_count,
    classify_at,
    curvature_check,
    equivariance_check,
    equivariance_residuals,
    adjoint_connection,
    gauge_tractor,
    holonomy_at,
    holonomy_flow,
    tractor_derivative,
    translation_element,
    weyl_section_check,
)
from parahol.identities import conformal_killing_residual_fd, run_flat_identity_suite
from parahol.sampling import random_element, random_p_element, random_positive_element
from parahol.scales import default_scale


@pytest.fixture(scope="module")
def so41():
    return build_conformal(3, 0)


@pytest.fixture(scope="module")
def so31():
    return build_conformal(2, 0)


def zero_matrix(n):
    return [[0] * n for _ in range(n)]


# -- the polynomial formula -----------------------------------------------------


def test_translation_field_is_constant(so41):
    f = FlatConformalField.from_parts(3, 0, [2, -1, 3], zero_matrix(3), 0,
                                      [0, 0, 0], algebra=so41)
    for point in ([0, 0, 0], [5, 5, 5], [Fraction(-1, 2), 7, 0]):
        assert f.evaluate(point) == (2, -1, 3)
    assert not f.is_singular_at([0, 0, 0])


def test_dilation_field_is_euler(so41):
    f = FlatConformalField.from_parts(3, 0, [0, 0, 0], zero_matrix(3), 1,
                                      [0, 0, 0], algebra=so41)
    assert f.evaluate([2, 3, 5]) == (2, 3, 5)
    assert f.is_singular_at([0, 0, 0])


def test_special_field_value_euclidean_plane(so31):
    # b = e_1 at the point (1, 0): <x,x> b - 2 <b,x> x = (-1, 0)
    f = FlatConformalField.from_parts(2, 0, [0, 0], zero_matrix(2), 0,
                                      [1, 0], algebra=so31)
    assert f.evaluate([1, 0]) == (-1, 0)
    resid = conformal_killing_residual_fd(f, [Fraction(1, 2), Fraction(-1, 3)])
    assert resid < 1e-8


def test_from_parts_round_trip(so41):
    a = [1, Fraction(1, 2), 0]
    lin = [[0, 2, 0], [-2, 0, 1], [0, -1, 0]]
    f = FlatConformalField.from_parts(3, 0, a, lin, Fraction(-3, 2),
                                      [0, 1, 2], algebra=so41)
    assert f.a == (1, Fraction(1, 2), 0)
    assert f.s == Fraction(-3, 2)
    assert f.b == (0, 1, 2)
    assert f.linear == tuple(tuple(Fraction(v) for v in row) for row in lin)
    doc = f.to_json_dict()
    g = FlatConformalField.from_json_dict(doc, algebra=so41)
    assert g.xi == f.xi


def test_from_parts_rejects_non_skew(so41):
    with pytest.raises(DomainError):
        FlatConformalField.from_parts(3, 0, [0, 0, 0],
                                      [[1, 0, 0], [0, 0, 0], [0, 0, 0]],
                                      0, [0, 0, 0], algebra=so41)


@pytest.mark.parametrize("part", ["a", "s", "linear", "b"])
# "1.5" to "+3" parse as Fractions, but the request schema's rational
# pattern refuses them, and so does the library; both refuse a final
# newline too, which Python's `$` alone would let through
@pytest.mark.parametrize("bad", ["1/0", 0.1, True, "x",
                                 "1.5", "1e3", " 2 ", "1_000", "+3", "3\n"])
def test_from_parts_rejects_inexact_values(so41, part, bad):
    # the parser's locus in the message: a bad value on the diagonal of
    # `linear` would also fail the skew check, with another message
    parts = {"a": [0, 0, 0], "linear": zero_matrix(3), "s": 0, "b": [0, 0, 0]}
    if part == "s":
        parts["s"] = bad
        locus = "s:"
    elif part == "linear":
        parts["linear"][1][1] = bad
        locus = "linear[1][1]:"
    else:
        parts[part][2] = bad
        locus = f"{part}[2]:"
    with pytest.raises(DomainError, match="^" + re.escape(locus)):
        FlatConformalField.from_parts(3, 0, parts["a"], parts["linear"],
                                      parts["s"], parts["b"], algebra=so41)


def test_from_parts_accepts_rational_strings(so41):
    f = FlatConformalField.from_parts(3, 0, ["1/2", 0, 0], zero_matrix(3),
                                      Fraction(-3, 2), [0, 0, "2"], algebra=so41)
    assert f.a == (Fraction(1, 2), 0, 0)
    assert f.s == Fraction(-3, 2)
    assert f.b == (0, 0, 2)


def test_from_parts_skew_is_signature_dependent():
    alg = build_conformal(1, 1)
    # A = [[0, 1], [1, 0]] is skew for the (1,1) inner product
    f = FlatConformalField.from_parts(1, 1, [0, 0], [[0, 1], [1, 0]], 0,
                                      [0, 0], algebra=alg)
    assert f.evaluate([1, 0]) == (0, 1)
    with pytest.raises(DomainError):
        FlatConformalField.from_parts(1, 1, [0, 0], [[0, 1], [-1, 0]], 0,
                                      [0, 0], algebra=alg)


def test_from_parts_rejects_an_algebra_of_another_signature():
    # skew for (2,1) only; the (3,0) algebra would read it as the field
    # whose linear part is [[0, 0, -1], [0, 0, 0], [1, 0, 0]]
    with pytest.raises(DomainError, match=r"signature is not \(2, 1\)"):
        FlatConformalField.from_parts(2, 1, [0, 0, 0],
                                      [[0, 0, 1], [0, 0, 0], [1, 0, 0]], 0,
                                      [0, 0, 0], algebra=build_conformal(3, 0))


@pytest.mark.parametrize("signature", [(2, 1), (4, 0)])
def test_identity_suite_rejects_an_algebra_of_another_signature(signature):
    # (2,1) has the size of (3,0), so the suite would run on it and report
    # (3,0); (4,0) would fail inside numpy on mismatched shapes
    with pytest.raises(DomainError, match=r"signature is not \(3, 0\)"):
        run_flat_identity_suite(3, 0, samples=4, algebra=build_conformal(*signature))


def test_evaluate_equals_transported_tractor(so41):
    """Dual route: the chart field is the grade -1 slot of the gauge tractor."""
    rng = random.Random(29)
    idx = so41.indices_of_grade(-1)
    for _ in range(20):
        f = FlatConformalField(so41, random_element(so41, rng, max_abs=5))
        x = [Fraction(rng.randint(-6, 6), 3) for _ in range(3)]
        transported = gauge_tractor(f, x)
        assert list(f.evaluate(x)) == [transported.coeffs[i] for i in idx]


def test_conformal_killing_residual_random(so41):
    rng = random.Random(37)
    for _ in range(20):
        f = FlatConformalField(so41, random_element(so41, rng, max_abs=5))
        x = [Fraction(rng.randint(-8, 8), 4) for _ in range(3)]
        assert conformal_killing_residual_fd(f, x) < 1e-8


def test_algebra_to_field_is_anti_homomorphism(so31):
    """field([x,y]) = FIELD_BRACKET_SIGN * [field(x), field(y)], exactly.

    The commutator of two degree-2 polynomial fields is compared through
    its values on a 7x7 grid of rational points, which pins every
    coefficient of a polynomial of degree <= 6 in 2 variables; directional
    derivatives use a rational central difference, exact for quadratics.
    """
    rng = random.Random(41)
    pts = [(Fraction(i), Fraction(j)) for i in range(-3, 4) for j in range(-3, 4)]
    for _ in range(10):
        xi = random_element(so31, rng, max_abs=4)
        eta = random_element(so31, rng, max_abs=4)
        f_xi = FlatConformalField(so31, xi)
        f_eta = FlatConformalField(so31, eta)
        f_br = FlatConformalField(so31, so31.bracket(xi, eta))
        for x in pts:
            # [X, Y](x) = DY(x)·X(x) - DX(x)·Y(x), with exact directional
            # derivatives of polynomials evaluated via difference quotients
            # at rational points (degree <= 2, so a 3-point stencil is exact)
            vx = f_xi.evaluate(x)
            vy = f_eta.evaluate(x)
            dy_vx = _exact_directional(f_eta.evaluate, x, vx)
            dx_vy = _exact_directional(f_xi.evaluate, x, vy)
            commutator = tuple(a - b for a, b in zip(dy_vx, dx_vy))
            expected = f_br.evaluate(x)
            assert tuple(FIELD_BRACKET_SIGN * c for c in commutator) == expected


def _exact_directional(evaluate, x, direction):
    """Directional derivative of a degree-2 polynomial field, exactly:
    central difference with rational step h = 1 is exact for quadratics."""
    h = Fraction(1, 1)
    plus = evaluate([a + h * d for a, d in zip(x, direction)])
    minus = evaluate([a - h * d for a, d in zip(x, direction)])
    return tuple((p - m) / (2 * h) for p, m in zip(plus, minus))


def _conformal_killing_defects(evaluate, metric):
    """Nonzero entries of the conformal Killing operator of a degree-2 field,
    J_jj ∂_i X_j + J_ii ∂_j X_i - (2/n) div X J_ii δ_ij, exactly.

    The operator is affine in x, so it vanishes everywhere when it vanishes
    at the origin and at each unit vector, the points taken here.
    """
    n = len(metric)
    units = [[int(i == j) for j in range(n)] for i in range(n)]
    defects = []
    for x in [[0] * n] + units:
        grad = [_exact_directional(evaluate, x, e) for e in units]
        div = sum(grad[i][i] for i in range(n))
        for i in range(n):
            for j in range(n):
                c = metric[j] * grad[i][j] + metric[i] * grad[j][i]
                if i == j:
                    c -= Fraction(2, n) * div * metric[i]
                if c != 0:
                    defects.append((tuple(x), i, j, c))
    return defects


@pytest.mark.parametrize("signature", [(3, 0), (2, 1), (4, 0), (2, 2)])
def test_evaluate_is_conformal_killing_on_every_basis_element(signature):
    """evaluate() is linear in the algebra element, so the identity on each
    basis element proves it for every field of the signature."""
    algebra = build_conformal(*signature)
    for i in range(algebra.dim):
        field = FlatConformalField(algebra, algebra.basis_element(i))
        assert _conformal_killing_defects(field.evaluate, field.metric) == [], \
            algebra.basis_names[i]


def test_conformal_killing_defects_detect_a_halved_special_part(so41):
    # -<b,x> x in place of -2 <b,x> x: add one <b,x> x back to evaluate()
    field = FlatConformalField(so41, so41.basis_element("K_2"))

    def halved(x):
        bx = sum(m * b * v for m, b, v in zip(field.metric, field.b, x))
        return tuple(v + bx * xi for v, xi in zip(field.evaluate(x), x))

    assert _conformal_killing_defects(halved, field.metric) != []


@pytest.mark.parametrize("name,value", [
    ("FIELD_SPECIAL_FACTOR", Fraction(1, 2)),
    ("FIELD_SPECIAL_FACTOR", Fraction(3)),
    ("FIELD_DILATION_SIGN", Fraction(1)),
])
def test_identity_suite_fails_on_a_flipped_field_constant(so41, name, value, monkeypatch):
    monkeypatch.setattr(flat, name, value)
    suite = run_flat_identity_suite(3, 0, samples=4, seed=42, algebra=so41)
    assert suite["pass"] is False
    assert suite["max_residuals"]["equivariance"] > 1e-6


# -- singularities and holonomy ---------------------------------------------------


def test_is_singular_examples(so41):
    dil = FlatConformalField(so41, so41.basis_element("D"))
    assert dil.is_singular_at([0, 0, 0])
    trans = FlatConformalField(so41, so41.basis_element("P_1"))
    for p in ([0, 0, 0], [1, 2, 3]):
        assert not trans.is_singular_at(p)
    mixed = FlatConformalField(so41, so41.element({"M_12": 1, "K_1": 1}))
    assert mixed.is_singular_at([0, 0, 0])


def test_holonomy_of_dilation_field(so41):
    field = FlatConformalField(so41, so41.basis_element("D"))
    datum = holonomy_at(field, [0, 0, 0])
    assert datum.x == so41.basis_element("D")
    result = classify(datum)
    assert result.is_essential
    assert result.certificate.value == 6


def test_holonomy_of_rotation_field(so41):
    field = FlatConformalField(so41, so41.basis_element("M_12"))
    datum = holonomy_at(field, [0, 0, 0])
    assert datum.x == so41.basis_element("M_12")
    assert classify(datum).verdict is Verdict.INESSENTIAL


def test_invertible_rotation_with_special_part_inessential(so31):
    # A invertible on the support of b, s = 0: the witness is exact
    field = FlatConformalField.from_parts(
        2, 0, [0, 0], [[0, -1], [1, 0]], 0, [Fraction(1, 2), 0], algebra=so31)
    assert field.is_singular_at([0, 0])
    datum = holonomy_at(field, [0, 0])
    result = classify(datum)
    assert result.verdict is Verdict.INESSENTIAL
    conj = conjugate_by_exp(result.witness, datum.x)
    assert conj.component(1).is_zero
    assert default_scale(so31).lambda_prime_of_grade0(conj) == 0


def test_holonomy_requires_singularity(so41):
    field = FlatConformalField(so41, so41.basis_element("P_2"))
    with pytest.raises(NonSingularPointError):
        holonomy_at(field, [0, 0, 0])


def test_classify_at_shortcut(so41):
    field = FlatConformalField(so41, so41.basis_element("P_2"))
    result = classify_at(field, [0, 0, 0])
    assert result.verdict == "NonSingular"
    assert result.locally_inessential
    doc = result.to_json_dict()
    assert doc["singular"] is False and doc["witness"] is None


def test_holonomy_transport_two_step_consistency(so41):
    """Direct transport and transport through an intermediate translation
    agree exactly, and classification is gauge-independent."""
    rng = random.Random(59)
    for _ in range(10):
        xi0 = random_p_element(so41, rng, max_abs=4)
        p = [Fraction(rng.randint(-4, 4), 2) for _ in range(3)]
        shifted = so41.exp_ad(translation_element(so41, p), xi0)
        field = FlatConformalField(so41, shifted)
        assert field.is_singular_at(p)
        datum = holonomy_at(field, p)
        assert datum.x == xi0

        half = [v / 2 for v in p]
        step1 = so41.exp_ad(-1 * translation_element(so41, half), field.xi)
        step2 = so41.exp_ad(-1 * translation_element(so41, half), step1)
        assert step2 == gauge_tractor(field, p)
        assert classify(datum).verdict is classify(
            holonomy_at(field, p)).verdict


# -- adjoint-tractor derivative ----------------------------------------------------


def test_tractor_derivative_vanishes_on_killing_fields(so41):
    rng = random.Random(61)
    for _ in range(20):
        field = FlatConformalField(so41, random_element(so41, rng, max_abs=4))
        base = [Fraction(rng.randint(-4, 4), 4) for _ in range(3)]
        direction = so41.basis_element(f"P_{rng.randint(1, 3)}")
        out = tractor_derivative(field, direction, base)
        assert max(abs(float(c)) for c in out.coeffs) < 1e-6
        assert out.is_zero


def test_adjoint_connection_of_constant_is_bracket_term(so41):
    s = so41.element({"D": 2, "K_1": 1})
    direction = so41.basis_element("P_1")
    out = adjoint_connection(lambda x: s, direction, [0, 0, 0])
    expected = so41.bracket(direction, s)
    assert all(float(a) == pytest.approx(float(b), abs=1e-15)
               for a, b in zip(out.coeffs, expected.coeffs))
    assert not expected.is_zero


def test_tractor_derivative_linear_in_direction(so41):
    field = FlatConformalField(so41, so41.element({"D": 1, "K_2": 1}))
    base = [Fraction(1, 2), Fraction(-1, 3), 0]
    p1 = so41.basis_element("P_1")
    p2 = so41.basis_element("P_2")
    both = tractor_derivative(field, p1 + p2, base)
    split = (tractor_derivative(field, p1, base)
             + tractor_derivative(field, p2, base))
    assert max(abs(float(a) - float(b))
               for a, b in zip(both.coeffs, split.coeffs)) < 1e-8


def test_tractor_derivative_rejects_bad_direction(so41):
    field = FlatConformalField(so41, so41.basis_element("D"))
    with pytest.raises(DomainError):
        tractor_derivative(field, so41.basis_element("K_1"), [0, 0, 0])


# -- structure equation -------------------------------------------------------------


def test_curvature_zero_and_bilinear(so41):
    p = [so41.basis_element(f"P_{i}") for i in (1, 2, 3)]
    for y1 in p:
        for y2 in p:
            assert curvature_check(y1, y2).is_zero
    combo = curvature_check(p[0] + 2 * p[1], p[2])
    assert combo.is_zero


def test_curvature_rejects_mixed_grades(so41):
    with pytest.raises(DomainError):
        curvature_check(so41.basis_element("P_1"), so41.basis_element("D"))
    with pytest.raises(DomainError):
        curvature_check(so41.basis_element("K_1"), so41.basis_element("P_1"))


# -- flow equivariance ---------------------------------------------------------------


def test_equivariance_zero_time(so41):
    field = FlatConformalField(so41, so41.basis_element("M_12"))
    assert equivariance_check(field, [0, 0, 0], so41.basis_element("P_1"),
                              0.0) < 1e-14


@pytest.mark.parametrize("name", ["M_12", "D"])
@pytest.mark.parametrize("t", [0.1, -0.1])
def test_equivariance_small_time(so41, name, t):
    field = FlatConformalField(so41, so41.basis_element(name))
    res = equivariance_check(field, [0, 0, 0], so41.basis_element("P_1"), t)
    assert res < 1e-6


def test_equivariance_dilation_scales_direction(so41):
    """Ad(h^t)(Y) for the dilation holonomy is e^{-t}·Y in the realization."""
    field = FlatConformalField(so41, so41.basis_element("D"))
    datum = holonomy_at(field, [0, 0, 0])
    real = so41.realization
    rho_d = np.array([[float(v) for v in row]
                      for row in real.matrix_of(datum.x)])
    rho_y = np.array([[float(v) for v in row]
                      for row in real.matrix_of(so41.basis_element("P_1"))])
    diag = np.diag(rho_d)
    assert np.array_equal(rho_d, np.diag(diag))
    t = 0.1
    h = np.diag(np.exp(t * diag))
    h_inv = np.diag(np.exp(-t * diag))
    assert np.max(np.abs(holonomy_flow(datum, t) - h)) < 1e-12
    assert np.max(np.abs(h @ rho_y @ h_inv - np.exp(-t) * rho_y)) < 1e-12


def test_equivariance_requires_singular_base(so41):
    field = FlatConformalField(so41, so41.basis_element("P_1"))
    with pytest.raises(NonSingularPointError):
        equivariance_check(field, [0, 0, 0], so41.basis_element("P_1"), 0.1)


def test_flow_escape_raises_with_time(so41):
    # the expanding Euler flow x(t) = e^{2t}·x(0) blows past the chart guard
    # near t = 9.2, within the MAX_RK4_STEPS budget of |t| <= 10
    field = FlatConformalField.from_parts(3, 0, [0, 0, 0], zero_matrix(3), 2,
                                          [0, 0, 0], algebra=so41)
    with pytest.raises(ChartEscapeError) as err:
        equivariance_check(field, [0, 0, 0], so41.basis_element("P_1"), 10.0)
    assert err.value.escape_time is not None
    assert 9 < err.value.escape_time <= 10.0
    # a longer flow is refused before any step is taken
    with pytest.raises(DomainError, match=f"needs more than {MAX_RK4_STEPS} RK4 steps"):
        equivariance_check(field, [0, 0, 0], so41.basis_element("P_1"), 25.0)


def test_step_budget_is_ten_time_units():
    assert _step_count(10) == _step_count(-10.0) == MAX_RK4_STEPS
    for t in (10.5, -10.5):
        with pytest.raises(DomainError, match="needs more than"):
            _step_count(t)


@pytest.mark.parametrize("t", [Fraction(1, 10), Fraction(-1, 3), 1, -2])
def test_an_exact_time_flows_as_its_float(so41, t):
    field = FlatConformalField(so41, so41.element({"D": 1, "M_12": 2, "K_1": -1}))
    datum = holonomy_at(field, [0, 0, 0])
    flow = holonomy_flow(datum, t)
    assert flow.dtype == np.float64
    assert flow.tobytes() == holonomy_flow(datum, float(t)).tobytes()
    sample = [(field, so41.basis_element("P_2"))]
    exact, _ = equivariance_residuals(sample, [0, 0, 0], t)
    floated, _ = equivariance_residuals(sample, [0, 0, 0], float(t))
    assert type(exact[0]) is type(floated[0])
    assert repr(exact[0]) == repr(floated[0])


def test_the_suite_runs_an_exact_time_as_its_float(so41):
    exact = run_flat_identity_suite(3, 0, samples=4, seed=5, t=Fraction(1, 10), algebra=so41)
    floated = run_flat_identity_suite(3, 0, samples=4, seed=5, t=0.1, algebra=so41)
    assert exact["max_residuals"] == floated["max_residuals"]
    assert exact["pass"] is floated["pass"] is True


@pytest.mark.parametrize("build,seed", [
    (lambda: build_conformal(3, 0), 1),
    (lambda: build_conformal(21, 0), 2),
    # the cr basis has denominator 2, so entries need not be integers
    (lambda: build_cr(2), 3),
])
def test_rho_is_the_float_of_the_exact_matrix(build, seed):
    algebra = build()
    rng = random.Random(seed)
    for _ in range(10):
        x = random_element(algebra, rng)
        exact = algebra.realization.matrix_of(x)
        expected = np.array([[float(v) for v in row] for row in exact])
        assert _rho(x).tobytes() == expected.tobytes()


@pytest.mark.parametrize("signature", [(3, 0), (2, 1), (2, 2), (21, 0)])
@pytest.mark.parametrize("t", [0.1, -0.1])
def test_rk4_step_meets_its_error_target(signature, t, monkeypatch):
    # the chart flows of the identity suite's samples (singular fields at the
    # origin, started one unit along a translation) moved by halving the
    # step: step doubling puts RK4_STEP's error at 16/15 of that move, and
    # the target is 1/100 of the 1e-6 equivariance bound
    algebra = build_conformal(*signature)
    n = sum(signature)
    rng = random.Random(sum(signature) * 11 + signature[1])
    fields, starts = [], []
    for _ in range(12):
        fields.append(FlatConformalField(algebra, random_p_element(algebra, rng, max_abs=3)))
        starts.append(np.eye(n)[rng.randrange(n)])
    coarse, coarse_escapes = _integrate_chart_flow(fields, starts, t)
    monkeypatch.setattr(flat, "RK4_STEP", RK4_STEP / 2)
    fine, fine_escapes = _integrate_chart_flow(fields, starts, t)
    assert coarse_escapes == fine_escapes == [None] * len(fields)
    assert np.max(np.abs(coarse - fine)) <= 1e-8 * 15 / 16


@pytest.mark.parametrize("t,named", [
    (10 ** 400, "time 10000000... (401 characters) has"),
    (-(10 ** 400), "time -1000000... (402 characters) has"),
    # a float's repr is at most 24 characters, and is kept whole
    (-1.2345678901234567e+300, "time -1.2345678901234567e+300 needs"),
])
def test_step_count_refusal_names_the_time_by_a_bounded_excerpt(t, named):
    with pytest.raises(DomainError) as err:
        _step_count(t)
    assert str(err.value).startswith(named)
    assert len(str(err.value)) < 80


def test_group_side_overflow_is_a_chart_escape(so41):
    # the chart flow contracts to the origin, but exp(t·rho(h)) overflows
    field = FlatConformalField(so41, so41.element({"D": 100}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ChartEscapeError, match="group point left the chart"):
            equivariance_check(field, [0, 0, 0], so41.basis_element("P_1"), 10.0)


@pytest.mark.parametrize("coefficient", [10**30, 10**60])
def test_non_finite_chart_point_is_a_quiet_escape(so41, coefficient):
    # the first RK4 step overflows to inf and NaN; that is an escape at
    # that step, not a NaN residual that no tolerance fails
    field = FlatConformalField(so41, so41.element({"K_1": coefficient}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ChartEscapeError, match="flow left the chart") as err:
            equivariance_check(field, [0, 0, 0], so41.basis_element("P_1"), 0.1)
    assert err.value.escape_time is not None


def _chart_flow_one_sample(field, start, t):
    """Reference chart flow: RK4 for one field on its own, with the field
    formula written out here. Returns the end point and the escape time."""
    a = np.array([float(v) for v in field.a])
    lin = np.array([[float(v) for v in row] for row in field.linear])
    s = float(field.s)
    b = np.array([float(v) for v in field.b])
    met = np.array([float(v) for v in field.metric])

    def f(x):
        return a + lin @ x + s * x + ((met * x) @ x) * b - 2.0 * ((met * b) @ x) * x

    x = np.array(start, dtype=float)
    steps = max(1, int(round(abs(t) / RK4_STEP)))
    h = t / steps
    for i in range(1, steps + 1):
        k1 = f(x)
        k2 = f(x + 0.5 * h * k1)
        k3 = f(x + 0.5 * h * k2)
        k4 = f(x + h * k3)
        x = x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        if not np.linalg.norm(x) <= CHART_NORM_LIMIT:
            return x, i * h
    return x, None


@pytest.mark.parametrize("signature", [(3, 0), (2, 1), (4, 0), (2, 2)])
@pytest.mark.parametrize("stack", [1, 5])
def test_stacked_chart_flow_matches_one_run_per_sample(signature, stack):
    algebra = build_conformal(*signature)
    n = sum(signature)
    rng = random.Random(sum(signature) * 10 + stack)
    fields = [FlatConformalField(algebra, random_element(algebra, rng, max_abs=3))
              for _ in range(stack)]
    starts = [[rng.uniform(-0.5, 0.5) for _ in range(n)] for _ in range(stack)]
    ends, escape_times = _integrate_chart_flow(fields, starts, 0.1)
    assert ends.shape == (stack, n)
    for field, start, end, escape_time in zip(fields, starts, ends, escape_times):
        expected, expected_escape = _chart_flow_one_sample(field, start, 0.1)
        assert escape_time is expected_escape is None
        assert np.max(np.abs(end - expected)) < 1e-12


def _euler_field(algebra, s):
    return FlatConformalField.from_parts(3, 0, [0, 0, 0], zero_matrix(3), s,
                                         [0, 0, 0], algebra=algebra)


def test_an_escaping_sample_leaves_the_others_their_residuals(so41):
    direction = so41.basis_element("P_1")
    rotation = FlatConformalField(so41, so41.basis_element("M_12"))
    blowup = FlatConformalField(so41, so41.element({"K_1": 10**30}))
    (residual, escape), _ = equivariance_residuals(
        [(rotation, direction), (blowup, direction)], [0, 0, 0], 0.1)
    alone = equivariance_check(rotation, [0, 0, 0], direction, 0.1)
    assert abs(residual - alone) < 1e-12
    assert isinstance(escape, ChartEscapeError)
    assert str(escape) == "flow left the chart"


def test_each_escaping_sample_gets_its_own_escape_time(so41):
    # x(t) = e^{st}·x(0) leaves the chart near t = ln(1e8)/s
    direction = so41.basis_element("P_1")
    slow, fast = _euler_field(so41, 200), _euler_field(so41, 400)
    errors, _ = equivariance_residuals([(slow, direction), (fast, direction)],
                                       [0, 0, 0], 0.1)
    for field, err, leaves in zip((slow, fast), errors, (0.092, 0.046)):
        assert isinstance(err, ChartEscapeError)
        assert abs(err.escape_time - leaves) < 2e-3
        with pytest.raises(ChartEscapeError) as alone:
            equivariance_check(field, [0, 0, 0], direction, 0.1)
        assert alone.value.escape_time == err.escape_time


def test_equivariance_samples_share_one_algebra(so41, so31):
    samples = [(FlatConformalField(so41, so41.basis_element("D")), so41.basis_element("P_1")),
               (FlatConformalField(so31, so31.basis_element("D")), so31.basis_element("P_1"))]
    with pytest.raises(DomainError, match="different algebras"):
        equivariance_residuals(samples, [0, 0, 0], 0.1)


def test_suite_raises_the_first_escape_in_draw_order(so41, monkeypatch):
    # sample 1 leaves the chart later than sample 2, but is drawn first;
    # no Weyl-section check runs past sample 0. An Euler flow leaves at the
    # same step from every unit start, whichever direction was drawn
    drawn = iter([so41.basis_element("M_12"), so41.element({"D": -200}),
                  so41.element({"D": -400}), so41.basis_element("M_12")])
    monkeypatch.setattr(identities, "random_p_element",
                        lambda algebra, rng, max_abs: next(drawn))
    weyl_data = []
    check = identities.weyl_section_check

    def spy(datum, t):
        weyl_data.append(datum)
        return check(datum, t)

    monkeypatch.setattr(identities, "weyl_section_check", spy)
    with pytest.raises(ChartEscapeError) as err:
        run_flat_identity_suite(3, 0, samples=4, seed=0, algebra=so41)
    with pytest.raises(ChartEscapeError) as first:
        equivariance_check(_euler_field(so41, 200), [0, 0, 0],
                           so41.basis_element("P_1"), 0.1)
    assert err.value.escape_time == first.value.escape_time
    # at the origin a field's datum is the field's own element
    assert [d.x for d in weyl_data] == [so41.basis_element("M_12")]


def test_suite_transports_and_classifies_each_equivariance_sample_once(so41, monkeypatch):
    calls = {"holonomy_at": 0, "classify": 0}

    def counted(name):
        original = getattr(flat, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(flat, name, counted(name))
    suite = run_flat_identity_suite(3, 0, samples=4, seed=0, algebra=so41)
    assert suite["pass"]
    assert calls == {"holonomy_at": 4, "classify": 4}


# -- Weyl section --------------------------------------------------------------------


@pytest.mark.parametrize("name", ["M_12", "D"])
def test_weyl_section_commutes(so41, name):
    datum = HolonomyDatum(so41, so41.basis_element(name))
    assert weyl_section_check(datum, 0.1) < 1e-6


def test_weyl_section_in_witness_gauge(so41):
    datum = HolonomyDatum(so41, so41.element({"M_12": 1, "K_1": 1}))
    assert weyl_section_check(datum, 0.1) < 1e-6


def test_weyl_section_refuses_unkillable(so41):
    datum = HolonomyDatum(so41, so41.basis_element("K_1"))
    with pytest.raises(WeylSectionInapplicableError):
        weyl_section_check(datum, 0.1)


def test_weyl_section_needs_a_sample(so41):
    datum = HolonomyDatum(so41, so41.basis_element("D"))
    with pytest.raises(DomainError, match="at least one sample"):
        weyl_section_check(datum, 0.1, n_samples=0)


def test_weyl_section_requires_singularity(so41):
    # a field has a datum only where it vanishes
    field = FlatConformalField(so41, so41.basis_element("P_1"))
    with pytest.raises(NonSingularPointError):
        weyl_section_check(holonomy_at(field, [0, 0, 0]), 0.1)


def test_weyl_section_refuses_a_cr_datum():
    from parahol.families import build_cr

    cr = build_cr(1)
    with pytest.raises(DomainError, match="conformal"):
        weyl_section_check(HolonomyDatum(cr, cr.zero()), 0.1)


@pytest.mark.parametrize("signature,seed", [((3, 0), 0), ((2, 1), 1), ((2, 2), 2)])
def test_translated_field_keeps_the_datum_and_weyl_residual(signature, seed):
    # exp(ad p̂)ξ vanishes at p, and its datum there is exp(-ad p̂)exp(ad p̂)ξ = ξ
    algebra = build_conformal(*signature)
    n = sum(signature)
    rng = random.Random(seed)
    while True:
        xi = random_p_element(algebra, rng, max_abs=3)
        if classify(HolonomyDatum(algebra, xi)).witness is not None:
            break
    point = [Fraction(rng.randint(1, 4), 3) for _ in range(n)]
    moved = FlatConformalField(
        algebra, algebra.exp_ad(translation_element(algebra, point), xi))
    assert not moved.is_singular_at([0] * n)
    at_origin = holonomy_at(FlatConformalField(algebra, xi), [0] * n)
    at_point = holonomy_at(moved, point)
    assert at_point.x == at_origin.x == xi
    assert weyl_section_check(at_point, 0.1) == weyl_section_check(at_origin, 0.1)


# -- construction guards ---------------------------------------------------------------


def test_field_requires_conformal_family():
    from parahol.families import build_cr

    cr = build_cr(1)
    with pytest.raises(DomainError):
        FlatConformalField(cr, cr.basis_element("E"))


def test_field_requires_exact_coefficients(so41):
    with pytest.raises(DomainError):
        FlatConformalField(so41, so41.element_from_coeffs([0.25] + [0] * (so41.dim - 1)))


@pytest.mark.parametrize("bad", [0.1, True])
@pytest.mark.parametrize("call", [
    lambda field, point: field.evaluate(point),
    lambda field, point: field.is_singular_at(point),
    lambda field, point: holonomy_at(field, point),
    lambda field, point: classify_at(field, point),
    lambda field, point: translation_element(field.algebra, point),
    lambda field, point: tractor_derivative(
        field, field.algebra.basis_element("P_1"), point),
], ids=["evaluate", "is_singular_at", "holonomy_at", "classify_at",
        "translation_element", "tractor_derivative"])
def test_inexact_point_coordinates_raise_domain_error(so41, call, bad):
    # the zero field vanishes everywhere, so only the coordinate can fail
    field = FlatConformalField(so41, so41.zero())
    with pytest.raises(DomainError):
        call(field, [bad, 0, 0])


# -- the closed-form exponential and the Weyl-section bundle flow ---------------


def _dense_matmul(a, b):
    return [[sum((a[i][t] * b[t][j] for t in range(len(b))), Fraction(0))
             for j in range(len(b[0]))] for i in range(len(a))]


def _dense_exp_series(mat):
    """Σ_m mat^m / m! with dense products, up to the matrix size."""
    n = len(mat)
    out = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    term = [row[:] for row in out]
    for m in range(1, n + 1):
        term = [[v / m for v in row] for row in _dense_matmul(term, mat)]
        out = [[o + v for o, v in zip(ro, rt)] for ro, rt in zip(out, term)]
    return out


def _nilpotent_samples(algebra, rng, count=6):
    """Realization matrices of random grade -1 and positive elements."""
    real = algebra.realization
    for _ in range(count):
        yield real.matrix_of(random_element(algebra, rng, grades=[-1]))
        yield real.matrix_of(random_positive_element(algebra, rng))


@pytest.mark.parametrize("signature", [(3, 0), (2, 1), (4, 0), (2, 2)])
def test_exp_grade_one_is_the_exact_series(signature):
    algebra = build_conformal(*signature)
    rng = random.Random(sum(signature) * 7 + signature[1])
    for mat in _nilpotent_samples(algebra, rng):
        # three grade levels: the cube vanishes, so the series ends at the square
        cube = _dense_matmul(_dense_matmul(mat, mat), mat)
        assert all(v == 0 for row in cube for v in row)
        # float errors scale with the entries, which reach the tens here:
        # 1e-15 relative to the largest entry, and to |exp(m)|·|exp(-m)|
        m = np.array([[float(v) for v in row] for row in mat])
        exp_m = _exp_grade_one(m)
        exact = np.array([[float(v) for v in row] for row in _dense_exp_series(mat)])
        assert np.max(np.abs(exp_m - exact)) <= 1e-15 * np.max(np.abs(exact))
        exp_minus = _exp_grade_one(-m)
        assert np.all(np.abs(exp_m @ exp_minus - np.eye(len(mat)))
                      <= 1e-15 * (np.abs(exp_m) @ np.abs(exp_minus)))


@pytest.mark.parametrize("signature", [(3, 0), (2, 1)])
@pytest.mark.parametrize("seed", [0, 1])
def test_suite_counts_every_field_with_a_witness(signature, seed):
    p, q = signature
    n = p + q
    samples = 4
    algebra = build_conformal(p, q)
    suite = run_flat_identity_suite(p, q, samples=samples, seed=seed,
                                    algebra=algebra)
    # replay the suite's draws: the first loop's fields, points and
    # directions, then the singular fields of the Weyl-section loop
    rng = random.Random(seed)
    for _ in range(samples):
        random_element(algebra, rng, max_abs=4)
        [rng.randint(-4, 4) for _ in range(n)]
        rng.randint(1, n)
    expected = 0
    for _ in range(max(4, samples // 4)):
        field = FlatConformalField(algebra, random_p_element(algebra, rng, max_abs=3))
        rng.randint(1, n)
        expected += classify(holonomy_at(field, [0] * n)).witness is not None
    assert suite["weyl_section_cases"] == expected


def _weyl_groups_one_run_per_sample(field, t, n_samples, sample_scale):
    """The Weyl-section group elements q, each sample integrated on its own."""
    algebra = field.algebra
    real = algebra.realization
    n = field.n
    zeros = [0] * n
    zw = classify(holonomy_at(field, zeros)).witness
    exp_z = _dense_exp_series(real.matrix_of(zw))
    exp_minus_z = _dense_exp_series([[-v for v in row] for row in real.matrix_of(zw)])
    uf = np.array([[float(v) for v in row] for row in exp_minus_z])
    uf_inv = np.array([[float(v) for v in row] for row in exp_z])
    rho_xi = np.array([[float(v) for v in row] for row in real.matrix_of(field.xi)])
    rho_p = [np.array([[float(v) for v in row]
                       for row in real.matrix_of(algebra.basis_element(f"P_{i + 1}"))])
             for i in range(n)]
    size = len(uf)
    steps = max(1, int(round(abs(t) / RK4_STEP)))
    h = t / steps
    out = []
    for offset in _sample_offsets(n, n_samples, sample_scale):
        m = sum((c * rp for c, rp in zip(offset, rho_p)), np.zeros((size, size)))
        g = uf @ (np.eye(size) + m + (m @ m) / 2.0)
        for _ in range(steps):
            k1 = rho_xi @ g
            k2 = rho_xi @ (g + 0.5 * h * k1)
            k3 = rho_xi @ (g + 0.5 * h * k2)
            k4 = rho_xi @ (g + h * k3)
            g = g + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        out.append(uf_inv @ g)
    return out, rho_p


@pytest.mark.parametrize("signature,seed", [((3, 0), 3), ((2, 1), 4), ((4, 0), 5)])
def test_batched_weyl_section_matches_one_run_per_sample(signature, seed, monkeypatch):
    algebra = build_conformal(*signature)
    rng = random.Random(seed)
    n = sum(signature)
    while True:
        field = FlatConformalField(algebra, random_p_element(algebra, rng, max_abs=3))
        if classify(holonomy_at(field, [0] * n)).witness is not None:
            break
    seen = []

    def spy(q, rho_p, n):
        seen.append(q)
        return _positive_offset(q, rho_p, n)

    monkeypatch.setattr(flat, "_positive_offset", spy)
    worst = weyl_section_check(holonomy_at(field, [0] * n), 0.1, n_samples=5)
    reference, rho_p = _weyl_groups_one_run_per_sample(field, 0.1, 5, 0.15)
    assert len(seen) == len(reference) == 5
    for q, q_ref in zip(seen, reference):
        assert np.max(np.abs(q - q_ref)) < 1e-12
    expected = max(_positive_offset(q, rho_p, n) for q in reference)
    assert abs(worst - expected) < 1e-12
