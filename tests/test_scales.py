"""Scale elements, the exactness functional and its kernel."""

import gc
import random
import weakref
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dense_reference import dense_kernel, dense_reduce, structure
from parahol import linalg
from parahol.classify import HolonomyDatum, classify, conjugate_by_exp
from parahol.errors import DomainError, InvalidScaleError
from parahol.families import build, build_conformal, build_cr
from parahol.sampling import random_p_element, random_positive_element
from parahol.scales import ScaleData, default_scale, scale_from_element

# the algebras on which the scale elements are solved for directly
SCALE_FIXTURES = [("conformal", (2, 0)), ("conformal", (1, 1)),
                  ("conformal", (3, 0)), ("conformal", (2, 1)),
                  ("conformal", (2, 2)), ("conformal", (5, 1)),
                  ("cr", (1,)), ("cr", (2,)), ("cr", (3,))]
# the smallest of them, rebuilt for each Hypothesis example
SMALL_FIXTURES = SCALE_FIXTURES[:3] + SCALE_FIXTURES[6:7]


@pytest.fixture(scope="module")
def so41():
    return build_conformal(3, 0)


@pytest.fixture(scope="module")
def su21():
    return build_cr(1)


def test_default_scale_conformal(so41):
    scale = default_scale(so41)
    assert scale.e_lambda == so41.basis_element("D")
    assert scale.lambda_prime(so41.basis_element("D")) == 6
    for name in ("M_12", "M_13", "M_23"):
        assert scale.lambda_prime(so41.basis_element(name)) == 0
    assert len(scale.kernel_basis) == 3
    rotations = [list(so41.basis_element(n).coeffs)
                 for n in ("M_12", "M_13", "M_23")]
    kernel = [list(v.coeffs) for v in scale.kernel_basis]
    assert (linalg.rank(rotations) == linalg.rank(kernel)
            == linalg.rank(rotations + kernel))


def test_default_scale_cr(su21):
    scale = default_scale(su21)
    assert scale.e_lambda == su21.basis_element("E")
    assert scale.lambda_prime(su21.basis_element("E")) == 12
    assert scale.lambda_prime(su21.basis_element("J_1")) == 0
    assert len(scale.kernel_basis) == 1
    j1 = [list(su21.basis_element("J_1").coeffs)]
    kernel = [list(v.coeffs) for v in scale.kernel_basis]
    assert linalg.rank(j1) == linalg.rank(kernel) == linalg.rank(j1 + kernel)


def test_component_weights(so41, su21):
    for algebra in (so41, su21):
        scale = default_scale(algebra)
        for g in range(-algebra.k, algebra.k + 1):
            n = len(algebra.indices_of_grade(g))
            assert algebra.ad_block(scale.e_lambda, g, g) == [
                [g if u == t else 0 for u in range(n)] for t in range(n)]


@pytest.mark.parametrize("family,params", SCALE_FIXTURES)
def test_scalar_actions_on_grade_zero_are_multiples_of_the_grading_element(
        family, params):
    # unknowns: e's grade-0 coordinates x_t, then one scalar a_g per grade;
    # equations: ad(e)|g_g = a_g·I, entry by entry from the dense constants,
    # solved by the dense reference, which shares no code with parahol.linalg
    algebra = build(family, list(params))
    c = structure(algebra)
    zero_idx = algebra.indices_of_grade(0)
    grades = range(-algebra.k, algebra.k + 1)
    rows = []
    for g in grades:
        for s in algebra.indices_of_grade(g):
            for l in algebra.indices_of_grade(g):
                rows.append([c[t][s][l] for t in zero_idx]
                            + [-Fraction(s == l and h == g) for h in grades])
    kernel = dense_kernel(*dense_reduce(rows, [])[:3])
    assert len(kernel) == 1
    e = algebra.grading_element
    line = [e.coeffs[t] for t in zero_idx] + [Fraction(g) for g in grades]
    (v,) = kernel
    ratio = v[-1] / line[-1]
    assert v == [ratio * w for w in line]


_NONZERO_RATIONAL = st.builds(
    Fraction, st.integers(-50, 50).filter(bool), st.integers(1, 12))


@settings(max_examples=60, deadline=None)
@given(which=st.sampled_from(SMALL_FIXTURES),
       c=_NONZERO_RATIONAL)
def test_every_nonzero_multiple_of_the_grading_element_is_a_scale(which, c):
    algebra = build(which[0], list(which[1]))
    scale = scale_from_element(algebra, c * algebra.grading_element)
    assert scale.e_lambda == c * algebra.grading_element
    assert scale.covector == tuple(c * v for v in default_scale(algebra).covector)


@settings(max_examples=60, deadline=None)
@given(which=st.sampled_from(SMALL_FIXTURES),
       data=st.data())
def test_grade_zero_elements_off_the_grading_line_are_refused(which, data):
    algebra = build(which[0], list(which[1]))
    zero_idx = algebra.indices_of_grade(0)
    coords = data.draw(st.lists(
        st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4)),
        min_size=len(zero_idx), max_size=len(zero_idx)))
    e = algebra.from_grade_coords(0, coords)
    grading = algebra.grading_element
    assume(linalg.rank([list(e.coeffs), list(grading.coeffs)]) == 2)
    with pytest.raises(InvalidScaleError):
        scale_from_element(algebra, e)


def test_classify_leaves_the_kernel_basis_unmade():
    algebra = build_conformal(3, 0)
    classify(HolonomyDatum(algebra, algebra.basis_element("D")))
    scale = default_scale(algebra)
    assert "kernel_basis" not in vars(scale)
    assert len(scale.kernel_basis) == 3


def test_scale_from_grading_element_matches_default(so41):
    direct = scale_from_element(so41, so41.grading_element)
    default = default_scale(so41)
    assert direct.e_lambda == default.e_lambda
    assert direct.covector == default.covector


def test_scaled_element_doubles_functional_keeps_kernel(so41):
    e = so41.grading_element
    doubled = scale_from_element(so41, 2 * e)
    default = default_scale(so41)
    assert doubled.covector == tuple(2 * v for v in default.covector)
    doubled_kernel = [list(v.coeffs) for v in doubled.kernel_basis]
    default_kernel = [list(v.coeffs) for v in default.kernel_basis]
    assert (linalg.rank(doubled_kernel) == linalg.rank(default_kernel)
            == linalg.rank(doubled_kernel + default_kernel))


def test_rotation_is_not_a_scale_element(so41):
    # not even central in the grade-0 part for n = 3
    with pytest.raises(InvalidScaleError):
        scale_from_element(so41, so41.basis_element("M_12"))


def test_rotation_fails_scalar_action_for_n2():
    algebra = build_conformal(2, 0)
    # here the grade-0 part is abelian, so M_12 is central in it, but it
    # rotates the grade -1 component instead of scaling it
    with pytest.raises(InvalidScaleError):
        scale_from_element(algebra, algebra.basis_element("M_12"))


def test_cr_rotation_not_a_scale(su21):
    with pytest.raises(InvalidScaleError):
        scale_from_element(su21, su21.basis_element("J_1"))


def test_scale_requires_pure_grade_zero(so41):
    with pytest.raises(InvalidScaleError):
        scale_from_element(so41, so41.basis_element("D") + so41.basis_element("K_1"))


def test_zero_element_rejected(so41):
    with pytest.raises(InvalidScaleError):
        scale_from_element(so41, so41.zero())
    with pytest.raises(InvalidScaleError):
        ScaleData(so41, 0)


def test_lambda_prime_domain_and_values(so41):
    scale = default_scale(so41)
    assert scale.lambda_prime(so41.zero()) == 0
    e = so41.grading_element
    assert scale.lambda_prime(e) == so41.killing_form(e, e)
    assert scale.lambda_prime(e) > 0
    for v in scale.kernel_basis:
        assert scale.lambda_prime(v) == 0
    with pytest.raises(DomainError):
        scale.lambda_prime(so41.basis_element("P_1"))


def test_grade0_component_invariant_under_positive_conjugation(so41, su21):
    rng = random.Random(71)
    for algebra in (so41, su21):
        scale = default_scale(algebra)
        for _ in range(25):
            x = random_p_element(algebra, rng)
            z = random_positive_element(algebra, rng)
            conj = conjugate_by_exp(z, x)
            assert conj.component(0) == x.component(0)
            assert (scale.lambda_prime_of_grade0(conj)
                    == scale.lambda_prime_of_grade0(x))


def test_kernel_bracket_closed_with_vanishing_functional(so41):
    # asserted as computed for the conformal constructor
    scale = default_scale(so41)
    for a in scale.kernel_basis:
        for b in scale.kernel_basis:
            br = so41.bracket(a, b)
            assert br.grades() in ([], [0])
            assert scale.lambda_prime(br) == 0


def test_default_scale_is_computed_once_per_algebra(so41):
    assert default_scale(so41) is default_scale(so41)
    fresh = scale_from_element(so41, so41.grading_element)
    assert default_scale(so41).covector == fresh.covector
    assert default_scale(so41).kernel_basis == fresh.kernel_basis


def test_separate_builds_get_their_own_scale():
    first, second = build_conformal(2, 1), build_conformal(2, 1)
    assert default_scale(first) is not default_scale(second)
    assert default_scale(first).algebra is first
    assert default_scale(second).algebra is second
    with pytest.raises(DomainError, match="scale belongs to a different algebra"):
        HolonomyDatum(first, first.basis_element("D"), default_scale(second))


def test_default_scale_does_not_keep_its_algebra_alive():
    algebra = build_cr(1)
    default_scale(algebra)
    ref = weakref.ref(algebra)
    del algebra
    gc.collect()
    assert ref() is None
