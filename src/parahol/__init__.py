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
from .scales import ScaleData, default_scale, scale_from_element

__version__ = "0.1.0"

# The flat model, its identity suite and the oracle load on first use: a
# process that only builds and classifies (a worker holding thousands of
# data) does not keep their code in memory.
_LAZY = {
    "flat": (
        "FlatClassification",
        "FlatConformalField",
        "classify_at",
        "curvature_check",
        "equivariance_check",
        "gauge_tractor",
        "holonomy_at",
        "holonomy_flow",
        "tractor_derivative",
        "weyl_section_check",
    ),
    "identities": ("run_flat_identity_suite",),
    "oracle": ("OracleReport", "brute_force_oracle"),
}
_MODULE_OF = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name):
    """Resolve a lazily loaded name from its module, on each access."""
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(f".{module}", __name__), name)


__all__ = sorted([
    "AlgebraElement",
    "Classification",
    "DegreeUnkillable",
    "GradedLieAlgebra",
    "HolonomyDatum",
    "LambdaNonzero",
    "MatrixRealization",
    "ScaleData",
    "Verdict",
    "build_conformal",
    "build_cr",
    "classify",
    "conjugate_by_exp",
    "default_scale",
    "errors",
    "kill_positive_part",
    "scale_from_element",
    *_MODULE_OF,
])
