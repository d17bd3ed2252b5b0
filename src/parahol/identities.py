"""Flat-model identity suite: residuals shared by the CLI and the test suite.

All checks run on the flat conformal model. Tolerances are part of the
contract: conformal Killing residual 1e-8 (finite differences), flow
equivariance 1e-6 for |t| <= 0.1, Weyl-section commutation 1e-6. The
adjoint derivative (an exact central difference) and the structure
equation are exactly zero; the adjoint derivative keeps its 1e-6 bound.
"""

import random
from fractions import Fraction

from .errors import WeylSectionInapplicableError
from .families import build_conformal
from .flat import (
    FlatConformalField,
    curvature_check,
    equivariance_check,
    tractor_derivative,
    weyl_section_check,
)
from .sampling import random_element, random_p_element

TOLERANCES = {
    "conformal_killing": 1e-8,
    "tractor_derivative": 1e-6,
    "curvature": 0.0,
    "equivariance": 1e-6,
    "weyl_section": 1e-6,
}


def conformal_killing_residual_fd(field, point, h=1e-5):
    """Finite-difference residual of the conformal Killing equation.

    Independent of the exact polynomial identity used at construction:
    derivatives come from central differences of evaluate().
    """
    import numpy as np

    n = field.n
    met = [float(m) for m in field.metric]
    x = np.array([float(v) for v in point], dtype=float)
    grad = np.zeros((n, n))
    for i in range(n):
        e = np.zeros(n)
        e[i] = h
        grad[i] = (field.evaluate_float(x + e) - field.evaluate_float(x - e)) / (2 * h)
    div = float(np.trace(grad))
    worst = 0.0
    for i in range(n):
        for j in range(n):
            s = met[j] * grad[i][j] + met[i] * grad[j][i]
            if i == j:
                s -= (2.0 / n) * div * met[i]
            worst = max(worst, abs(s))
    return worst


def run_flat_identity_suite(p=3, q=0, samples=20, seed=42, t=0.1, algebra=None):
    """Max residuals of every flat-model identity over seeded samples."""
    algebra = algebra if algebra is not None else build_conformal(p, q)
    n = p + q
    rng = random.Random(seed)

    ckv_worst = 0.0
    nabla_worst = 0.0
    for _ in range(samples):
        field = FlatConformalField(algebra, random_element(algebra, rng, max_abs=4))
        point = [Fraction(rng.randint(-4, 4), 4) for _ in range(n)]
        ckv_worst = max(ckv_worst, conformal_killing_residual_fd(field, point))
        direction = algebra.basis_element(f"P_{rng.randint(1, n)}")
        deriv = tractor_derivative(field, direction, point)
        nabla_worst = max(nabla_worst, max(abs(float(c)) for c in deriv.coeffs))

    curvature_worst = Fraction(0)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            out = curvature_check(algebra.basis_element(f"P_{i}"),
                                  algebra.basis_element(f"P_{j}"))
            curvature_worst = max(curvature_worst,
                                  max(abs(c) for c in out.coeffs))

    equiv_worst = 0.0
    weyl_worst = 0.0
    weyl_cases = 0
    for _ in range(max(4, samples // 4)):
        # fields with no translation part are singular at the origin
        xi = random_p_element(algebra, rng, max_abs=3)
        field = FlatConformalField(algebra, xi)
        direction = algebra.basis_element(f"P_{rng.randint(1, n)}")
        equiv_worst = max(
            equiv_worst, equivariance_check(field, [0] * n, direction, t)
        )
        try:
            weyl = weyl_section_check(field, [0] * n, t)
        except WeylSectionInapplicableError:
            continue
        weyl_worst = max(weyl_worst, weyl)
        weyl_cases += 1

    residuals = {
        "conformal_killing": ckv_worst,
        "tractor_derivative": nabla_worst,
        "curvature": float(curvature_worst),
        "equivariance": equiv_worst,
        "weyl_section": weyl_worst,
    }
    passed = (
        residuals["conformal_killing"] < TOLERANCES["conformal_killing"]
        and residuals["tractor_derivative"] < TOLERANCES["tractor_derivative"]
        and residuals["curvature"] == TOLERANCES["curvature"]
        and residuals["equivariance"] < TOLERANCES["equivariance"]
        and residuals["weyl_section"] < TOLERANCES["weyl_section"]
    )
    return {
        "signature": [p, q],
        "samples": samples,
        "seed": seed,
        "t": t,
        "max_residuals": residuals,
        "tolerances": dict(TOLERANCES),
        "weyl_section_cases": weyl_cases,
        "pass": passed,
    }
