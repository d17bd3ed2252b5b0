"""Brute-force cross-check for the holonomy classifier.

Two independent routes:

* rank certificate (k = 1): killability of the positive part is exactly the
  membership of X_1 in the image of ad(X_0) on grade 1, decided by a rank
  comparison. The elimination here is self-contained on purpose and shares
  no code with the solver used by the classifier.
* lattice search (any k <= 2): conjugate by every exp(Z) with Z on a
  rational lattice in the positive part and look for an exact kill. A
  finite lattice can certify Inessential/WeylReducible but never
  essentiality, so those runs may come back undecided.
"""

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .classify import (
    Classification,
    DegreeUnkillable,
    Verdict,
    conjugable_verdict,
    conjugate_by_exp,
)
from .errors import OracleRefusedError, UnsupportedDepthError

MAX_POSITIVE_DIM = 8
MAX_LATTICE_POINTS = 2_000_000

ZERO = Fraction(0)


@dataclass
class OracleReport:
    decided: bool
    classification: Optional[Classification]
    method: str
    points_checked: int

    def to_json_dict(self):
        return {
            "decided": self.decided,
            "classification": (None if self.classification is None
                               else self.classification.to_json_dict()),
            "method": self.method,
            "points_checked": self.points_checked,
        }


def brute_force_oracle(datum, grid_radius=Fraction(1), grid_steps=2):
    """Independent classification attempt; see the module docstring.

    Refuses algebras it cannot search exhaustively (k > 2 or a positive
    part of dimension > 8).
    """
    algebra = datum.algebra
    if algebra.k > 2:
        raise UnsupportedDepthError("oracle supports k <= 2 only")
    pos_idx = [i for g in range(1, algebra.k + 1)
               for i in algebra.indices_of_grade(g)]
    if len(pos_idx) > MAX_POSITIVE_DIM:
        raise OracleRefusedError(
            f"positive part has dimension {len(pos_idx)} > {MAX_POSITIVE_DIM}",
            "algebra")

    grid_radius = Fraction(grid_radius)
    lattice_witness, points = (None, 0)
    if grid_steps > 0:
        lattice_witness, points = _lattice_search(
            datum, pos_idx, grid_radius, grid_steps
        )
    elif _positive_part_is_zero(datum):
        lattice_witness, points = algebra.zero(), 1

    ell = datum.scale.lambda_prime_of_grade0(datum.x)

    if algebra.k == 1:
        killable, witness = _rank_certificate(datum)
        if lattice_witness is not None and not killable:
            raise AssertionError("lattice witness contradicts the rank certificate")
        if killable:
            cls = conjugable_verdict(ell, witness)
        else:
            cls = Classification(Verdict.ESSENTIAL,
                                 certificate=DegreeUnkillable(1))
        return OracleReport(True, cls, "rank-certificate", points)

    if lattice_witness is not None:
        return OracleReport(True, conjugable_verdict(ell, lattice_witness),
                            "lattice", points)
    return OracleReport(False, None, "lattice", points)


def _positive_part_is_zero(datum):
    return all(g <= 0 for g in datum.x.grades())


def _lattice_search(datum, pos_idx, radius, steps):
    algebra = datum.algebra
    axis = [Fraction(i) * radius / steps for i in range(-steps, steps + 1)]
    # zero first, then small points first: deterministic and finds cheap witnesses early
    axis.sort(key=lambda v: (abs(v), v))
    total = len(axis) ** len(pos_idx)
    if total > MAX_LATTICE_POINTS:
        raise OracleRefusedError(
            f"lattice has {total} points > {MAX_LATTICE_POINTS}", "grid_steps")
    checked = 0
    for combo in itertools.product(axis, repeat=len(pos_idx)):
        checked += 1
        coeffs = [ZERO] * algebra.dim
        for value, i in zip(combo, pos_idx):
            coeffs[i] = value
        z = algebra.element_from_coeffs(coeffs)
        conj = conjugate_by_exp(z, datum.x)
        if all(conj.component(g).is_zero for g in range(1, algebra.k + 1)):
            return z, checked
    return None, checked


def _rank_certificate(datum):
    """k = 1 decision by elimination on ad(X_0)|g_1 augmented with X_1.

    Returns (killable, witness); the witness comes from the same
    elimination (particular solution, free variables zero), so the whole
    route is disjoint from the classifier's minimum-norm solver.
    """
    algebra = datum.algebra
    rows = algebra.ad_block(datum.x, 1, 1)   # ad(X_0)|g_1
    rhs = algebra.grade_coords(datum.x, 1)

    n = len(rhs)
    work = [rows[i] + [rhs[i]] for i in range(n)]
    pivots = []
    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, n) if work[i][c] != 0), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        lead = work[r][c]
        work[r] = [v / lead for v in work[r]]
        for i in range(n):
            if i != r and work[i][c] != 0:
                f = work[i][c]
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
    for row in work[len(pivots):]:
        if row[n] != 0:
            return False, None
    coords = [ZERO] * n
    for i, c in enumerate(pivots):
        coords[c] = work[i][n]
    return True, algebra.from_grade_coords(1, coords)
