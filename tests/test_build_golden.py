"""Pinned construction output of the built-in families.

The sha256 covers, for each algebra, every structure constant, every
Killing matrix entry and the grading element's coefficients, so a change
to how construction computes them that moves any value shows here. The
list is the benchmark's eleven build algebras plus the two smallest
conformal signatures.
"""

import hashlib
import json

from parahol.algebra import GradedLieAlgebra
from parahol.families import build

ALGEBRAS = (
    ("conformal", (3, 0)), ("conformal", (2, 1)), ("conformal", (3, 1)),
    ("conformal", (4, 0)), ("conformal", (2, 2)), ("conformal", (4, 1)),
    ("conformal", (5, 0)), ("conformal", (6, 0)), ("cr", (1,)), ("cr", (2,)),
    ("cr", (3,)), ("conformal", (2, 0)), ("conformal", (1, 1)),
)
GOLDEN_SHA256 = "1e1a511f7ec136ca665d99c6a115c06fa4cf5f4bf74498a82ab722d8f1584890"


def _strings(value):
    if isinstance(value, tuple):
        return [_strings(v) for v in value]
    return str(value)


def test_construction_output_matches_golden_hash():
    digest = hashlib.sha256()
    for family, params in ALGEBRAS:
        algebra = build(family, list(params))
        doc = [family, list(params), _strings(algebra.structure),
               _strings(algebra.killing_matrix),
               _strings(algebra.grading_element.coeffs)]
        digest.update(json.dumps(doc).encode() + b"\n")
    assert digest.hexdigest() == GOLDEN_SHA256


def test_the_sparse_table_is_the_only_stored_structure():
    for family, params in ALGEBRAS:
        algebra = build(family, list(params))
        assert "structure" not in vars(algebra)
        rebuilt = GradedLieAlgebra(algebra.basis_names, algebra.grade,
                                   algebra.structure, algebra.k, family, params)
        assert rebuilt._pair_table == algebra._pair_table
