"""Scale elements, the exactness functional and its kernel."""

import gc
import random
import weakref

import pytest

from parahol import linalg
from parahol.classify import HolonomyDatum, conjugate_by_exp
from parahol.errors import DomainError, InvalidScaleError
from parahol.families import build_conformal, build_cr
from parahol.sampling import random_p_element, random_positive_element
from parahol.scales import default_scale, lambda_prime, scale_from_element


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
            assert scale.component_weights[g] == g


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
    with pytest.raises(InvalidScaleError) as err:
        scale_from_element(so41, so41.basis_element("M_12"))
    assert err.value.component == 0


def test_rotation_fails_scalar_action_for_n2():
    algebra = build_conformal(2, 0)
    # here the grade-0 part is abelian, so the failure is the non-scalar
    # action on the grade -1 component
    with pytest.raises(InvalidScaleError) as err:
        scale_from_element(algebra, algebra.basis_element("M_12"))
    assert err.value.component == -1


def test_cr_rotation_not_a_scale(su21):
    with pytest.raises(InvalidScaleError) as err:
        scale_from_element(su21, su21.basis_element("J_1"))
    assert err.value.component in (-1, 1)


def test_scale_requires_pure_grade_zero(so41):
    with pytest.raises(InvalidScaleError):
        scale_from_element(so41, so41.basis_element("D") + so41.basis_element("K_1"))


def test_zero_element_rejected(so41):
    with pytest.raises(InvalidScaleError):
        scale_from_element(so41, so41.zero())


def test_lambda_prime_domain_and_values(so41):
    scale = default_scale(so41)
    assert lambda_prime(scale, so41.zero()) == 0
    e = so41.grading_element
    assert lambda_prime(scale, e) == so41.killing_form(e, e)
    assert lambda_prime(scale, e) > 0
    for v in scale.kernel_basis:
        assert lambda_prime(scale, v) == 0
    with pytest.raises(DomainError):
        lambda_prime(scale, so41.basis_element("P_1"))


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


def test_scale_serialization_shape(so41):
    doc = default_scale(so41).to_json_dict()
    assert set(doc) == {"e_lambda", "lambda_prime", "kernel"}
    assert len(doc["e_lambda"]) == so41.dim
    assert set(doc["lambda_prime"]) == {"D", "M_12", "M_13", "M_23"}
    assert len(doc["kernel"]) == 3
    # rationals go through the one JSON encoder: integers stay integers
    assert doc["lambda_prime"]["D"] == 6
    assert type(doc["lambda_prime"]["D"]) is int


def test_default_scale_is_computed_once_per_algebra(so41):
    assert default_scale(so41) is default_scale(so41)
    fresh = scale_from_element(so41, so41.grading_element)
    assert default_scale(so41).to_json_dict() == fresh.to_json_dict()


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
