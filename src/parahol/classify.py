"""Local essentiality of a singular infinitesimal automorphism from its holonomy.

A holonomy datum is an element X of the nonnegative part p = g_0 ⊕ ... ⊕ g_k
(the generator of the fiber motion over a fixed point, in some gauge),
together with a scale. The dictionary decided here:

  * X is conjugate under exp(p_+) into Ker(lambda')      -> Inessential
  * conjugate into g_0 but lambda'(X_0) != 0             -> WeylReducible
    (an automorphism of some Weyl structure but of no exact one;
    reported as essential)
  * not conjugate into g_0                               -> Essential

Only exp(p_+) is searched: grade-preserving conjugations fix both the
grade-0 component's functional value and Ker(lambda'), so with P a
semidirect product of the grade-preserving part and exp(p_+), the
restricted search already decides conjugacy under all of P. The grade-0
component itself is untouched by exp(p_+)-conjugation, which makes
lambda'(X_0) a conjugation invariant and the verdict well defined.

Algorithm: grade-by-grade exact linear elimination. With Z the sum of the
Z_j found so far, the degree-d part r_d of exp(ad Z)X must equal
ad(X_0)Z_d for some Z_d in g_d; Z_d is the minimum-norm solution, and when
none exists the verdict is Essential with the certificate that degree d is
unkillable. Adding Z_d changes no component of degree <= d, and if any Z in
p_+ conjugates X into g_0 then every partial solution leaves an r_d in the
image of ad(X_0), so a failure at degree d is a proof. Depth k >= 3 is
rejected.
"""

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import linalg
from .errors import DomainError, UnsupportedDepthError
from .jsonio import fraction_to_json
from .scales import default_scale


class Verdict(enum.Enum):
    INESSENTIAL = "Inessential"
    WEYL_REDUCIBLE = "WeylReducible"
    ESSENTIAL = "Essential"


@dataclass(frozen=True)
class LambdaNonzero:
    value: Fraction

    def to_json_dict(self):
        return {"lambda_nonzero": fraction_to_json(self.value)}


@dataclass(frozen=True)
class DegreeUnkillable:
    degree: int

    def to_json_dict(self):
        return {"degree_d_unkillable": self.degree}


@dataclass
class Classification:
    """Verdict record with witness or certificate.

    witness: Z in p_+ with conjugate_by_exp(Z, x) in Ker(lambda')
    (Inessential) or in g_0 (WeylReducible), checked exactly before it is
    returned. certificate: LambdaNonzero for WeylReducible, DegreeUnkillable
    for Essential. Every decision is exact; reports keep the constant
    "exact": true and "residual": null fields.
    """

    verdict: Verdict
    witness: Optional[object] = None
    certificate: Optional[object] = None

    @property
    def exact(self):
        return True

    @property
    def is_essential(self):
        return self.verdict is not Verdict.INESSENTIAL

    def to_json_dict(self):
        return {
            "verdict": "Essential" if self.is_essential else "Inessential",
            "weyl_reducible": self.verdict is Verdict.WEYL_REDUCIBLE,
            "witness": (None if self.witness is None
                        else [fraction_to_json(c) for c in self.witness.coeffs]),
            "certificate": (None if self.certificate is None
                            else self.certificate.to_json_dict()),
            "exact": True,
            "residual": None,
        }


class HolonomyDatum:
    """Generator of the holonomy of a singularity, in a fixed gauge.

    x must lie in the nonnegative part (grades 0..k); its coefficients are
    exact, as every element's are. Gauge changes act by conjugation and
    never produce negative components over a fixed point.
    """

    def __init__(self, algebra, x, scale=None):
        if x.algebra is not algebra:
            raise DomainError("datum element belongs to a different algebra")
        bad = [g for g in x.grades() if g < 0]
        if bad:
            raise DomainError(
                f"holonomy datum has negative-grade components {bad}"
            )
        self.algebra = algebra
        self.x = x
        self.scale = scale if scale is not None else default_scale(algebra)
        if self.scale.algebra is not algebra:
            raise DomainError("scale belongs to a different algebra")


def conjugate_by_exp(z, x):
    """e^{ad z}(x) for z in the positive part; an exact finite sum.

    ad(z) strictly raises degree, so the series terminates after at most 2k
    steps.
    """
    algebra = z.algebra
    if x.algebra is not algebra:
        raise DomainError("arguments belong to different algebras")
    if any(g <= 0 for g in z.grades()):
        raise DomainError("conjugation argument must have pure positive grades")
    return algebra.exp_ad(z, x)


@dataclass
class _KillResult:
    witness: Optional[object]
    certificate: Optional[object]


def kill_positive_part(datum):
    """Z in p_+ with conjugate_by_exp(Z, x) in g_0, or None when impossible."""
    return _kill_analysis(datum).witness


def classify(datum):
    """Run the holonomy dictionary on a datum; see the module docstring."""
    result = _kill_analysis(datum)
    if result.witness is None:
        return Classification(Verdict.ESSENTIAL, certificate=result.certificate)
    return conjugable_verdict(datum.scale.lambda_prime_of_grade0(datum.x),
                              result.witness)


def conjugable_verdict(ell, witness):
    """Dictionary step for an X that `witness` conjugates into g_0.

    ell is lambda'(X_0): zero gives Inessential, anything else
    WeylReducible with the LambdaNonzero certificate.
    """
    if ell == 0:
        return Classification(Verdict.INESSENTIAL, witness=witness)
    return Classification(Verdict.WEYL_REDUCIBLE, witness=witness,
                          certificate=LambdaNonzero(ell))


def holonomy_flow(datum, t):
    """exp(t·x) in the registered matrix realization (float matrix)."""
    import numpy as np
    import scipy.linalg

    realization = datum.algebra.require_realization()
    mat = realization.matrix_of(datum.x)
    return scipy.linalg.expm(t * np.array(mat, dtype=float))


# -- elimination stages --------------------------------------------------------


def _kill_analysis(datum):
    algebra = datum.algebra
    k = algebra.k
    if k > 2:
        raise UnsupportedDepthError(
            f"killing positive parts is implemented for depth k <= 2, got k={k}"
        )
    x = datum.x
    z = algebra.zero()
    for d in range(1, k + 1):
        r = algebra.grade_coords(algebra.exp_ad(z, x), d)
        if linalg.is_zero_vector(r):  # its minimum-norm solution is Z_d = 0
            continue
        z_d = linalg.solve_min_norm(algebra.ad_block(x, d, d), r)  # ad(X_0)|g_d
        if z_d is None:
            return _KillResult(None, DegreeUnkillable(d))
        z = z + algebra.from_grade_coords(d, z_d)
    return _verified(algebra, x, z)


def _verified(algebra, x, witness):
    """Exact internal check that the witness really kills the positive part."""
    conj = conjugate_by_exp(witness, x)
    for g in range(1, algebra.k + 1):
        if not conj.component(g).is_zero:
            raise AssertionError("witness failed exact verification")
    return _KillResult(witness, None)
