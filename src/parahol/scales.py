"""Scale elements and the exactness functional on the grade-0 part.

A scale element is a central element e of the grade-0 subalgebra acting by
a real scalar on every grading component, with B(e, e) != 0. It determines
the linear functional lambda'(A) = B(e_lambda, A) on the grade-0 part; its
kernel is the hyperplane of infinitesimally exact directions that the
classifier tests against.

On an algebra that passes `validate()`, the scale elements are exactly the
multiples c·E, c != 0, of the grading element E (ad E = i on g_i). Let e
in g_0 act by a scalar a_i on each g_i:

  - 0 = [e, e] = a_0·e, so a_0 = 0 unless e = 0, and e is central in g_0;
  - g_{-i} is spanned by i-fold brackets of g_{-1}, so a_{-i} = i·a_{-1};
  - B is invariant and pairs g_i nondegenerately with g_{-i}, so
    0 = B([e, x], y) + B(x, [e, y]) = (a_i + a_{-i})·B(x, y) gives
    a_i = -a_{-i};
  - so ad e = c·ad E with c = -a_{-1}, and e = c·E because the centre of
    a semisimple algebra is trivial;
  - B(cE, cE) = c²·Σ_i i²·dim g_i, which is nonzero exactly when c != 0.

So `scale_from_element` reads c off one nonzero coordinate of E and checks
e == c·E, and `ScaleData` refuses c = 0. The argument needs the three
axioms `validate()` checks: on an algebra that has not passed it, an
element acting by scalars that is not a multiple of E is refused.

lambda' is read off the structure table's diagonal, with no Killing row.
ad E = diag(grade) on the basis, so B(E, e_j) = trace(ad E ∘ ad e_j) =
Σ_l grade(l)·c_jl^l = r_j/S (`grading_covector_scaled`), and
lambda'(X_0) = c·Σ_{j in g_0} X_0_j·r_j/S: one integer dot product with
X_0's numerators. Only the g_0 rows are needed: a basis vector e_j of grade
i != 0 has ad e_j mapping g_l to g_{l+i}, so its diagonal is zero and
r_j = 0. ad E is diagonal because `grading_element` has checked
[E, e_i] = grade(i)·e_i exactly on every basis vector.
"""

from fractions import Fraction

from .errors import DomainError, InvalidScaleError, MismatchedAlgebraError

_NOT_A_SCALE = "not a scale element: not a nonzero multiple of the grading element"


class ScaleData:
    """The scale c·E with its functional; c = 0 raises InvalidScaleError.

    Fields:
      algebra             owning GradedLieAlgebra
      e_lambda            the scale element c·E (pure grade 0)

    lambda' is kept as scaled integers, (den, ((i, C_i), ...)) over the
    nonzero C_i = B(e_lambda, e_i)·den on the grade-0 basis, with i the
    basis index, so that lambda' is one integer dot product.
    """

    def __init__(self, algebra, c):
        if not c:
            raise InvalidScaleError(_NOT_A_SCALE)
        self.algebra = algebra
        self.e_lambda = c * algebra.grading_element
        zero_idx = algebra.indices_of_grade(0)
        scale, r = algebra.grading_covector_scaled(zero_idx)
        self._scaled_covector = (c.denominator * scale, tuple(
            (i, c.numerator * v) for i, v in zip(zero_idx, r) if v))

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


def default_scale(algebra):
    """The scale determined by the grading element (exists for every family).

    Computed once per algebra, since algebras are immutable. The memo is
    kept on the algebra itself, so it is freed with it: a weak-keyed map
    would pin every algebra, because its scale refers back to it.
    """
    scale = getattr(algebra, "_default_scale", None)
    if scale is None:
        scale = ScaleData(algebra, 1)
        algebra._default_scale = scale
    return scale


def scale_from_element(algebra, e):
    """The scale of e; raises InvalidScaleError unless e = c·E with c != 0.

    c is read off the first nonzero coordinate of the grading element E
    (see the module docstring for why that one test suffices).
    """
    if e.algebra is not algebra:
        raise DomainError("element belongs to a different algebra")
    grading = algebra.grading_element
    i = next(i for i, v in enumerate(grading.nums) if v)
    c = Fraction(e.nums[i] * grading.den, e.den * grading.nums[i])
    if e != c * grading:
        raise InvalidScaleError(_NOT_A_SCALE)
    return ScaleData(algebra, c)
