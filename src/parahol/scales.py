"""Scale elements and the exactness functional on the grade-0 part.

A scale element is a central element of the grade-0 subalgebra acting by a
real scalar on every grading component. It determines the linear functional
lambda'(A) = B(e_lambda, A) on the grade-0 part; its kernel is the
hyperplane of infinitesimally exact directions that the classifier tests
against.

A grade-0 element e maps each grading component to itself, so both
conditions are read from the diagonal blocks of ad(e) alone, as integer
rows (`ad_block_scaled(e, g, g)`): the grade-0 block must be zero, and
every other block a multiple of the identity. The functional's covector, B(e, e_i) over
the grade-0 basis, is read in one pass over the Killing-matrix rows of e's
support (`killing_covector_scaled`), and lambda' is its integer dot product
with X_0's numerators.
"""

import math
from fractions import Fraction

from . import linalg
from .errors import DomainError, InvalidScaleError, MismatchedAlgebraError
from .jsonio import fraction_to_json


class ScaleData:
    """A validated scale element with its functional and kernel.

    Fields:
      algebra             owning GradedLieAlgebra
      e_lambda            the scale element (pure grade 0)
      covector            lambda' as one coefficient per grade-0 basis index
      kernel_basis        elements spanning Ker(lambda') in grade 0
      component_weights   grade i -> the scalar a_i with ad(e_lambda) = a_i id on grade i

    The covector is also kept as scaled integers, (den, ((i, C_i), ...))
    over its nonzero entries with i the basis index, so that lambda' is one
    integer dot product.
    """

    def __init__(self, algebra, e_lambda, covector, kernel_basis,
                 component_weights):
        self.algebra = algebra
        self.e_lambda = e_lambda
        self.covector = tuple(covector)
        self.kernel_basis = tuple(kernel_basis)
        self.component_weights = dict(component_weights)
        den = math.lcm(*[c.denominator for c in self.covector])
        self._scaled_covector = (den, tuple(
            (i, c.numerator * (den // c.denominator))
            for i, c in zip(algebra.indices_of_grade(0), self.covector) if c))

    def lambda_prime(self, a):
        """lambda'(A) = B(e_lambda, A) for A in the grade-0 part.

        Rejects elements with support outside grade 0.
        """
        if a.algebra is not self.algebra:
            raise DomainError("element belongs to a different algebra")
        if any(g != 0 for g in a.grades()):
            raise DomainError("lambda' is only defined on the grade-0 part")
        return self.lambda_prime_of_grade0(a)

    def lambda_prime_of_grade0(self, x):
        """lambda' applied to the grade-0 component of an arbitrary element.

        B(e_lambda, X_0) is linear in X_0, so it is the covector paired with
        X_0's numerators: one integer dot product over the two denominators.
        """
        if x.algebra is not self.algebra:
            raise MismatchedAlgebraError("element belongs to a different algebra")
        den, covector = self._scaled_covector
        nums = x.nums
        return Fraction(sum(c * nums[i] for i, c in covector), den * x.den)

    def to_json_dict(self):
        alg = self.algebra
        zero_idx = alg.indices_of_grade(0)
        return {
            "e_lambda": [fraction_to_json(c) for c in self.e_lambda.coeffs],
            "lambda_prime": {
                alg.basis_names[i]: fraction_to_json(self.covector[t])
                for t, i in enumerate(zero_idx)
            },
            "kernel": [[fraction_to_json(c) for c in v.coeffs]
                       for v in self.kernel_basis],
        }


def default_scale(algebra):
    """The scale determined by the grading element (exists for every family).

    Computed once per algebra, since algebras are immutable. The memo is
    kept on the algebra itself, so it is freed with it: a weak-keyed map
    would pin every algebra, because its scale refers back to it.
    """
    scale = getattr(algebra, "_default_scale", None)
    if scale is None:
        scale = scale_from_element(algebra, algebra.grading_element)
        algebra._default_scale = scale
    return scale


def scale_from_element(algebra, e):
    """Validate a grade-0 element as a scale element and assemble ScaleData.

    Raises InvalidScaleError when e is not central in the grade-0 part or
    ad(e) fails to act by a scalar on some grading component; the error
    carries the offending grade index. Centrality is checked first, then
    the scalar action from grade -k up.
    """
    if e.algebra is not algebra:
        raise DomainError("element belongs to a different algebra")
    if any(g != 0 for g in e.grades()):
        raise InvalidScaleError("scale element must have pure grade 0", component=None)

    # the diagonal blocks of ad(e) as integer rows, all over one denominator
    es = e.scaled()
    blocks = {g: algebra.ad_block_scaled(es, g, g) for g in range(-algebra.k, algebra.k + 1)}
    for u, i in enumerate(algebra.indices_of_grade(0)):
        if any(row[u] for row in blocks[0][1]):
            raise InvalidScaleError(
                f"not central in the grade-0 part: [e, {algebra.basis_names[i]}] != 0",
                component=0,
            )

    weights = {}
    for g, (den, block) in blocks.items():
        weight = block[0][0] if block else 0
        if any(v != (weight if u == t else 0)
               for t, row in enumerate(block) for u, v in enumerate(row)):
            raise InvalidScaleError(
                f"ad(e) is not scalar on grade {g}", component=g
            )
        weights[g] = Fraction(weight, den)

    # covector_i = B(e, e_i) over the grade-0 basis, as integers over den
    zero_idx = algebra.indices_of_grade(0)
    den, covector = algebra.killing_covector_scaled(e, zero_idx)
    # e is pure grade 0, so B(e, e) is the covector paired with e
    if not sum(e.nums[i] * v for i, v in zip(zero_idx, covector)):
        raise InvalidScaleError("B(e, e) = 0: degenerate scale element",
                                component=None)

    kernel_basis = [
        algebra.from_grade_coords(0, vec) for vec in linalg.nullspace([covector])
    ]
    covector = [Fraction(v, den) for v in covector]
    return ScaleData(algebra, e, covector, kernel_basis, weights)


def lambda_prime(scale, a):
    """Functional form of ScaleData.lambda_prime."""
    return scale.lambda_prime(a)
