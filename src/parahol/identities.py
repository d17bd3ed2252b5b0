"""Flat-model identity suite: residuals shared by the CLI and the test suite.

All checks run on the flat conformal model. Tolerances are part of the
contract: conformal Killing residual 1e-8 (finite differences), flow
equivariance 1e-6 and Weyl-section commutation 1e-6, both for |t| <= 0.1
only. The RK4 step (`constants.RK4_STEP`) is chosen for that range;
beyond it a seeded suite can fail at any step (at t = 0.5, 3 of 42
finished suites on five small signatures, at step 1e-3 and 2.5e-3 alike).
The adjoint derivative (an exact central difference) and the structure
equation are exactly zero; the adjoint derivative keeps its 1e-6 bound.
The structure equation is taken on constant frame fields, where it
vanishes by construction. A wrong coefficient in the field formula shows
as an equivariance residual far above its bound.

The suite calls public `flat` checks only, each once, on stacks. It draws
all its equivariance samples first, in seeded order, and integrates their
chart flows in one stacked RK4 run (`flat.equivariance_residuals`), which
also returns each sample's datum at the base point. It hands the data of
the samples before the first chart escape to one Weyl-section pass
(`flat.weyl_section_residuals`): those are the checks that one sample
after the other would reach. It then reads the results in draw order, so
a run ends with the error that checking one sample after the other would
raise: a Weyl-section escape of an earlier sample, else the first chart
escape.
"""

import random
from fractions import Fraction

from .errors import ChartEscapeError, DomainError, WeylSectionInapplicableError
from .families import build_conformal
from .flat import (
    FlatConformalField,
    curvature_check,
    equivariance_residuals,
    tractor_derivative,
    weyl_section_residuals,
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

    Derivatives come from float central differences of evaluate_float(),
    its 2n stencil points evaluated as one stack.
    The exact identity for evaluate() is a test on each basis element; this
    residual samples the float path that the flows integrate.
    """
    import numpy as np

    n = field.n
    met = [float(m) for m in field.metric]
    x = np.array([float(v) for v in point], dtype=float)
    step = h * np.eye(n)
    values = field.evaluate_float(np.concatenate([x + step, x - step]))
    grad = (values[:n] - values[n:]) / (2 * h)
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
    """Max residuals of every flat-model identity over seeded samples.

    A given `algebra` must have signature (p, q)."""
    if algebra is None:
        algebra = build_conformal(p, q)
    elif algebra.params != (p, q):
        raise DomainError(f"the algebra's signature is not ({p}, {q})")
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

    # draw every equivariance sample first, in the order the checks read
    # them, and integrate their chart flows in one stacked run
    draws = []
    for _ in range(max(4, samples // 4)):
        # fields with no translation part are singular at the origin
        xi = random_p_element(algebra, rng, max_abs=3)
        direction = algebra.basis_element(f"P_{rng.randint(1, n)}")
        draws.append((FlatConformalField(algebra, xi), direction))
    equivariance, data = equivariance_residuals(draws, [0] * n, t)
    # the Weyl-section checks that one check after the other would reach:
    # those of the samples before the first chart escape, in one pass
    escaped = next((k for k, r in enumerate(equivariance)
                    if isinstance(r, ChartEscapeError)), len(equivariance))
    weyl = weyl_section_residuals(data[:escaped], t)

    equiv_worst = max([0.0, *equivariance[:escaped]])
    weyl_worst = 0.0
    weyl_cases = 0
    for residual in weyl:
        if isinstance(residual, ChartEscapeError):
            raise residual
        if isinstance(residual, WeylSectionInapplicableError):
            continue
        weyl_worst = max(weyl_worst, residual)
        weyl_cases += 1
    if escaped < len(equivariance):
        raise equivariance[escaped]

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
