"""Graded semisimple Lie algebras and the holonomy essentiality dictionary.

Build the conformal or CR model algebra, form a holonomy datum from an
element of the nonnegative part (or extract one from a singular point of a
flat conformal Killing field), and classify: inessential, reducible to a
Weyl structure but essential, or essential with an obstruction certificate.
"""

from . import errors
from .algebra import AlgebraElement, GradedLieAlgebra, MatrixRealization
from .classify import (
    Classification,
    DegreeUnkillable,
    HolonomyDatum,
    LambdaNonzero,
    Verdict,
    classify,
    conjugate_by_exp,
    kill_positive_part,
)
from .families import build_conformal, build_cr
from .flat import (
    FlatClassification,
    FlatConformalField,
    classify_at,
    curvature_check,
    equivariance_check,
    gauge_tractor,
    holonomy_at,
    holonomy_flow,
    tractor_derivative,
    weyl_section_check,
)
from .identities import run_flat_identity_suite
from .oracle import OracleReport, brute_force_oracle
from .scales import ScaleData, default_scale, lambda_prime, scale_from_element

__version__ = "0.1.0"

__all__ = [
    "AlgebraElement",
    "Classification",
    "DegreeUnkillable",
    "FlatClassification",
    "FlatConformalField",
    "GradedLieAlgebra",
    "HolonomyDatum",
    "LambdaNonzero",
    "MatrixRealization",
    "OracleReport",
    "ScaleData",
    "Verdict",
    "brute_force_oracle",
    "build_conformal",
    "build_cr",
    "classify",
    "classify_at",
    "conjugate_by_exp",
    "curvature_check",
    "default_scale",
    "equivariance_check",
    "errors",
    "gauge_tractor",
    "holonomy_at",
    "holonomy_flow",
    "kill_positive_part",
    "lambda_prime",
    "run_flat_identity_suite",
    "scale_from_element",
    "tractor_derivative",
    "weyl_section_check",
]
