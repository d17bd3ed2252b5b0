"""Scale elements and the exactness functional on the grade-0 part.

A scale element is a central element of the grade-0 subalgebra acting by a
real scalar on every grading component. It determines the linear functional
lambda'(A) = B(e_lambda, A) on the grade-0 part; its kernel is the
hyperplane of infinitesimally exact directions that the classifier tests
against.

A grade-0 element e maps each grading component to itself, so both
conditions are read from the diagonal blocks of ad(e) alone
(`ad_block(e, g, g)`): the grade-0 block must be zero, and every other
block a multiple of the identity.
"""

from fractions import Fraction

from . import linalg
from .errors import DomainError, InvalidScaleError
from .jsonio import fraction_to_json

ZERO = Fraction(0)


class ScaleData:
    """A validated scale element with its functional and kernel.

    Fields:
      algebra             owning GradedLieAlgebra
      e_lambda            the scale element (pure grade 0)
      covector            lambda' as one coefficient per grade-0 basis index
      kernel_basis        elements spanning Ker(lambda') in grade 0
      component_weights   grade i -> the scalar a_i with ad(e_lambda) = a_i id on grade i
    """

    def __init__(self, algebra, e_lambda, covector, kernel_basis,
                 component_weights):
        self.algebra = algebra
        self.e_lambda = e_lambda
        self.covector = tuple(covector)
        self.kernel_basis = tuple(kernel_basis)
        self.component_weights = dict(component_weights)

    def lambda_prime(self, a):
        """lambda'(A) = B(e_lambda, A) for A in the grade-0 part.

        Rejects elements with support outside grade 0.
        """
        if a.algebra is not self.algebra:
            raise DomainError("element belongs to a different algebra")
        if any(g != 0 for g in a.grades()):
            raise DomainError("lambda' is only defined on the grade-0 part")
        return self.algebra.killing_form(self.e_lambda, a)

    def lambda_prime_of_grade0(self, x):
        """lambda' applied to the grade-0 component of an arbitrary element."""
        return self.algebra.killing_form(self.e_lambda, x.component(0))

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

    blocks = {g: algebra.ad_block(e, g, g) for g in range(-algebra.k, algebra.k + 1)}
    for u, i in enumerate(algebra.indices_of_grade(0)):
        if any(row[u] for row in blocks[0]):
            raise InvalidScaleError(
                f"not central in the grade-0 part: [e, {algebra.basis_names[i]}] != 0",
                component=0,
            )

    weights = {}
    for g, block in blocks.items():
        weight = block[0][0] if block else ZERO
        if any(v != (weight if u == t else 0)
               for t, row in enumerate(block) for u, v in enumerate(row)):
            raise InvalidScaleError(
                f"ad(e) is not scalar on grade {g}", component=g
            )
        weights[g] = weight

    if algebra.killing_form(e, e) == 0:
        raise InvalidScaleError("B(e, e) = 0: degenerate scale element",
                                component=None)

    zero_idx = algebra.indices_of_grade(0)
    covector = [
        algebra.killing_form(e, algebra.basis_element(i)) for i in zero_idx
    ]
    kernel_basis = [
        algebra.from_grade_coords(0, vec)
        for vec in linalg.nullspace([list(map(Fraction, covector))])
    ]
    return ScaleData(algebra, e, covector, kernel_basis, weights)


def lambda_prime(scale, a):
    """Functional form of ScaleData.lambda_prime."""
    return scale.lambda_prime(a)
