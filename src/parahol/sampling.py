"""Deterministic random instance generation for oracle comparisons and tests.

Everything is driven by an explicit seed through random.Random; identical
seeds produce identical instances, which the CLI's determinism contract
relies on.
"""

import random
from fractions import Fraction

from . import linalg
from .errors import DomainError
from .jsonio import fraction_from_json

ZERO = Fraction(0)


def random_fraction(rng, max_abs=9, denominators=(1, 2, 3)):
    return Fraction(rng.randint(-max_abs, max_abs), rng.choice(denominators))


def random_element(algebra, rng, grades=None, max_abs=9, denominators=(1, 2, 3)):
    """Random exact element supported on the given grades (all when None)."""
    allowed = set(grades) if grades is not None else set(algebra.grade)
    coeffs = [
        random_fraction(rng, max_abs, denominators) if algebra.grade[i] in allowed
        else ZERO
        for i in range(algebra.dim)
    ]
    return algebra.element_from_coeffs(coeffs)


def random_p_element(algebra, rng, **kw):
    return random_element(algebra, rng, grades=range(0, algebra.k + 1), **kw)


def random_positive_element(algebra, rng, **kw):
    return random_element(algebra, rng, grades=range(1, algebra.k + 1), **kw)


def random_instance(algebra, scale, rng):
    """Random element of the nonnegative part, with the structural corners
    (zero grade-0 part, grade-0 part inside Ker(lambda'), zero positive
    part) forced on a quarter of draws each so every classifier branch is
    exercised."""
    x = random_p_element(algebra, rng)
    kind = rng.randrange(4)
    if kind == 1:
        x = x - x.component(0)
    elif kind == 2:
        x = _into_kernel(scale, x)
    elif kind == 3:
        x = x.component(0)
    return x


def _into_kernel(scale, x):
    """x shifted along e_lambda so that its grade-0 part lies in Ker(lambda'):
    x - (lambda'(x)/lambda'(e_lambda))·e_lambda, where lambda'(e_lambda) =
    B(e_lambda, e_lambda) is nonzero."""
    e = scale.e_lambda
    return x - (scale.lambda_prime_of_grade0(x) / scale.lambda_prime_of_grade0(e)) * e


def kernel_instance(algebra, rng):
    """Element of the nonnegative part whose X_0 kills a grade-1 element e.

    X_0 is a small integer combination of a kernel basis of X ↦ [e, X] on
    g_0, for a random small-integer e in g_1, so ad(X_0) on g_1 has a kernel
    that is in general not spanned by basis vectors, and the degree-1 solve
    has free directions. Every other draw is planted (conjugate into g_0 by a
    random positive element); the rest add a random positive part.
    """
    e = random_element(algebra, rng, grades=(1,), max_abs=2, denominators=(1,))
    x0 = algebra.zero()
    for v in linalg.nullspace(algebra.ad_block(e, 0, 1)):
        x0 = x0 + rng.randint(-2, 2) * algebra.from_grade_coords(0, v)
    if rng.randrange(2):
        return algebra.exp_ad(random_positive_element(algebra, rng, max_abs=3), x0)
    return x0 + random_positive_element(algebra, rng)


def lattice_point(algebra, rng, radius=Fraction(1), steps=1):
    """Random positive-part element with coordinates on the oracle lattice
    of an exact radius with `steps` >= 1 points per half-axis (a float
    radius or fewer steps raises DomainError)."""
    radius = fraction_from_json(radius, "radius")
    if steps < 1:
        raise DomainError(f"steps must be at least 1, got {steps}")
    values = [Fraction(i) * radius / steps for i in range(-steps, steps + 1)]
    coeffs = [ZERO] * algebra.dim
    for g in range(1, algebra.k + 1):
        for i in algebra.indices_of_grade(g):
            coeffs[i] = rng.choice(values)
    return algebra.element_from_coeffs(coeffs)


def planted_instance(algebra, scale, rng, radius=Fraction(1), steps=1):
    """Element conjugate to a grade-0 element by a lattice conjugation.

    The inverse lattice point is then an exact witness the brute-force
    search can find, so these instances are certified by the oracle.
    """
    x0 = random_element(algebra, rng, grades=(0,), max_abs=4)
    if rng.randrange(2):
        x0 = _into_kernel(scale, x0)
    z = lattice_point(algebra, rng, radius, steps)
    return algebra.exp_ad(z, x0)


def comparison_instances(algebra, scale, count, seed, radius=Fraction(1), steps=1):
    """Instance stream for classify-vs-oracle runs.

    Depth-1 algebras get the structured random mixture (the rank oracle
    decides everything). Depth-2 algebras alternate planted and random
    instances so the lattice oracle certifies a non-vacuous subset.
    """
    rng = random.Random(seed)
    out = []
    for i in range(count):
        if algebra.k >= 2 and i % 2 == 0:
            out.append(planted_instance(algebra, scale, rng, radius, steps))
        else:
            out.append(random_instance(algebra, scale, rng))
    return out
