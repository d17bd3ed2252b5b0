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
rejected. Every step is exact; nothing in this module computes in floats.

The elimination runs on scaled integers from start to finish: X is read
once in the scaled form the element stores, and X and Z are pairs
(den, {basis index: int}). r_d comes from the integer series
(`exp_ad_scaled`), Z_d from the integer block of ad(X_0)|g_d
(`ad_block_scaled`) and the integer minimum-norm solve
(`linalg.solve_min_norm_scaled`), and the witness check conjugates on the
same integers. Fractions are made for the final witness and, in the scale,
for lambda'(X_0) only.
"""

import enum
import math

from . import linalg
from .errors import DomainError, UnsupportedDepthError
from .jsonio import fraction_to_json
from .scales import default_scale


class Verdict(enum.Enum):
    INESSENTIAL = "Inessential"
    WEYL_REDUCIBLE = "WeylReducible"
    ESSENTIAL = "Essential"


class Record:
    """A value record over its __slots__ fields, with the equality and repr
    a dataclass would give; `dataclasses` is not used because it imports
    `inspect`, which costs a CLI request more than the rest of its imports.
    Unhashable unless immutable (`_FrozenRecord`)."""

    __slots__ = ()

    def _fields(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    __hash__ = None

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({body})"


class _FrozenRecord(Record):
    """An immutable, hashable Record."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __hash__(self):
        return hash(self._fields())


class LambdaNonzero(_FrozenRecord):
    __slots__ = ("value",)

    def __init__(self, value):
        object.__setattr__(self, "value", value)

    def to_json_dict(self):
        return {"lambda_nonzero": fraction_to_json(self.value)}


class DegreeUnkillable(_FrozenRecord):
    __slots__ = ("degree",)

    def __init__(self, degree):
        object.__setattr__(self, "degree", degree)

    def to_json_dict(self):
        return {"degree_d_unkillable": self.degree}


class Classification(Record):
    """Verdict record with witness or certificate.

    witness: Z in p_+ with conjugate_by_exp(Z, x) in Ker(lambda')
    (Inessential) or in g_0 (WeylReducible), checked exactly before it is
    returned. certificate: LambdaNonzero for WeylReducible, DegreeUnkillable
    for Essential. Every decision is exact; reports keep the constant
    "exact": true and "residual": null fields.
    """

    __slots__ = ("verdict", "witness", "certificate")

    def __init__(self, verdict, witness=None, certificate=None):
        self.verdict = verdict
        self.witness = witness
        self.certificate = certificate

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

    __slots__ = ("algebra", "x", "scale")

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


def kill_positive_part(datum):
    """Z in p_+ with conjugate_by_exp(Z, x) in g_0, or None when impossible."""
    return _kill_analysis(datum)[0]


def classify(datum):
    """Run the holonomy dictionary on a datum; see the module docstring."""
    witness, certificate = _kill_analysis(datum)
    if witness is None:
        return Classification(Verdict.ESSENTIAL, certificate=certificate)
    return conjugable_verdict(datum.scale.lambda_prime_of_grade0(datum.x),
                              witness)


def conjugable_verdict(ell, witness):
    """Dictionary step for an X that `witness` conjugates into g_0.

    ell is lambda'(X_0): zero gives Inessential, anything else
    WeylReducible with the LambdaNonzero certificate.
    """
    if ell == 0:
        return Classification(Verdict.INESSENTIAL, witness=witness)
    return Classification(Verdict.WEYL_REDUCIBLE, witness=witness,
                          certificate=LambdaNonzero(ell))


# -- elimination stages --------------------------------------------------------


def _kill_analysis(datum):
    """(witness, certificate): the verified witness and None, or None and
    the DegreeUnkillable certificate.

    X and Z stay scaled integer pairs (den, {i: int}) throughout; the
    witness is made an element once, after verification.
    """
    algebra = datum.algebra
    k = algebra.k
    if k > 2:
        raise UnsupportedDepthError(
            f"killing positive parts is implemented for depth k <= 2, got k={k}"
        )
    x = datum.x.scaled()
    z = (1, {})
    for d in range(1, k + 1):
        den, total = algebra.exp_ad_scaled(z, x)
        r = [total.get(i, 0) for i in algebra.indices_of_grade(d)]
        if not any(r):  # its minimum-norm solution is Z_d = 0
            continue
        # ad(X_0)|g_d = block/block_den and r_d = r/den, so a solution w of
        # block·w = r gives Z_d = w·block_den/den
        block_den, block = algebra.ad_block_scaled(x, d, d)
        solution = linalg.solve_min_norm_scaled(block, r)
        if solution is None:
            return None, DegreeUnkillable(d)
        w_den, w = solution
        z = _plus(z, zip(algebra.indices_of_grade(d), w), w_den * den, block_den)
    return _verified(algebra, x, z)


def _plus(z, entries, den, factor):
    """The pair z plus the vector sum_i (factor·w_i/den) e_i, given as
    (i, w_i) entries on indices outside z's support, reduced by the gcd of
    the new denominator and numerators."""
    dz, zs = z
    m = math.lcm(dz, den)
    out = {i: v * (m // dz) for i, v in zs.items()}
    f = factor * (m // den)
    out.update((i, v * f) for i, v in entries if v)
    g = math.gcd(m, *out.values())
    return m // g, {i: v // g for i, v in out.items()}


def _verified(algebra, x, z):
    """Exact internal check that the witness really kills the positive
    part: grades 1..k of exp(ad Z)X are zero, on the scaled integers."""
    _, total = algebra.exp_ad_scaled(z, x)
    if any(total.get(i) for g in range(1, algebra.k + 1)
           for i in algebra.indices_of_grade(g)):
        raise AssertionError("witness failed exact verification")
    return algebra.from_scaled(*z), None
