"""Brute-force cross-check for the holonomy classifier.

Two independent routes:

* rank certificate (k = 1): killability of the positive part is exactly the
  membership of X_1 in the image of ad(X_0) on grade 1, decided by a rank
  comparison. The elimination here is self-contained on purpose and shares
  no code with the solver used by the classifier.
* lattice search (any k <= 2): conjugate by every exp(Z) with Z on a
  rational lattice in the positive part and look for an exact kill. A
  finite lattice can certify Inessential/WeylReducible but never
  essentiality, so those runs may come back undecided. X lies in p, so
  the positive part of exp(ad Z)X is a polynomial in the coordinates of
  Z whose coefficients are brackets; the search builds it once per
  instance from `ad_block` and evaluates it at each point, in the order
  and with the count of a point-by-point search (see `_lattice_search`).
  It calls no exponential and nothing in `linalg`.
"""

import itertools
import math
import operator
from fractions import Fraction

from .classify import (
    Classification,
    DegreeUnkillable,
    Record,
    Verdict,
    conjugable_verdict,
)
from .errors import DomainError, OracleRefusedError, UnsupportedDepthError
from .jsonio import fraction_from_json

MAX_POSITIVE_DIM = 8
MAX_LATTICE_POINTS = 2_000_000

ZERO = Fraction(0)


class OracleReport(Record):
    """Outcome of one oracle run: whether it decided, the Classification
    when it did, the method ("rank-certificate" or "lattice") and the
    number of lattice points checked."""

    __slots__ = ("decided", "classification", "method", "points_checked")

    def __init__(self, decided, classification, method, points_checked):
        self.decided = decided
        self.classification = classification
        self.method = method
        self.points_checked = points_checked

    def to_json_dict(self):
        return {
            "decided": self.decided,
            "classification": (None if self.classification is None
                               else self.classification.to_json_dict()),
            "method": self.method,
            "points_checked": self.points_checked,
        }


def check_search_budget(algebra, grid_steps):
    """The oracle's static refusals, which depend on the algebra and the
    lattice size alone; returns the indices of the positive part.

    Refuses depth k > 2, a positive part of dimension > MAX_POSITIVE_DIM
    (argument "algebra") and, when grid_steps > 0, a lattice of more than
    MAX_LATTICE_POINTS points (argument "grid_steps"), so a caller can
    refuse a request before drawing any instance. A negative grid_steps
    raises DomainError.
    """
    if grid_steps < 0:
        raise DomainError("grid_steps must be nonnegative")
    if algebra.k > 2:
        raise UnsupportedDepthError("oracle supports k <= 2 only")
    pos_idx = [i for g in range(1, algebra.k + 1)
               for i in algebra.indices_of_grade(g)]
    if len(pos_idx) > MAX_POSITIVE_DIM:
        raise OracleRefusedError(
            f"positive part has dimension {len(pos_idx)} > {MAX_POSITIVE_DIM}",
            "algebra")
    total = (2 * grid_steps + 1) ** len(pos_idx)
    if grid_steps > 0 and total > MAX_LATTICE_POINTS:
        raise OracleRefusedError(
            f"lattice has {total} points > {MAX_LATTICE_POINTS}", "grid_steps")
    return pos_idx


def brute_force_oracle(datum, grid_radius=Fraction(1), grid_steps=2):
    """Independent classification attempt; see the module docstring.

    Refuses what `check_search_budget` refuses, a negative grid_steps
    included, and with DomainError an inexact grid radius (a float, say)
    and a zero one, whose lattice is the one point Z = 0.
    """
    algebra = datum.algebra
    pos_idx = check_search_budget(algebra, grid_steps)

    grid_radius = fraction_from_json(grid_radius, "grid_radius")
    if grid_radius == 0:
        raise DomainError("grid_radius must be nonzero")
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
    """First Z on the lattice with exp(ad Z)X in g_0, and the points walked.

    The lattice puts every coordinate of Z = Z_1 + Z_2 in p_+ on
    step·{-steps, ..., steps}, step = radius/steps, smallest first so that
    zero and other cheap witnesses come early; its points come in
    itertools.product order over pos_idx. X lies in p, so
    the positive part of exp(ad Z)X is a polynomial in Z:

      degree 1: X_1 + [Z_1, X_0]
      degree 2: X_2 + [Z_2, X_0] + [Z_1, X_1] + 1/2 [Z_1, [Z_1, X_0]]

    Its coefficient vectors come from the bracket once per instance and
    are scaled to integers, so each point costs a few integer dot products.
    pos_idx puts g_1 first, so the points of one g_1 prefix form a block
    over g_2 in a row. A prefix with a nonzero degree-1 part fails on its
    whole block, which is counted without being walked: points_checked is
    the number of points the search has ruled out, as if it tried each.
    """
    algebra, x = datum.algebra, datum.x
    step = radius / steps
    axis = sorted(range(-steps, steps + 1), key=lambda i: (abs(i * step), i * step))
    n1 = len(algebra.indices_of_grade(1))
    n2 = len(pos_idx) - n1

    # with Z_1 = step·sum a_u e_u and Z_2 = step·sum b_j f_j, ad_block gives
    # [Z_1, X_0] = -step·ad1·a, [Z_2, X_0] = -step·ad2·b, [Z_1, X_1] =
    # -step·adx1·a and [e_u, [e_v, X_0]] = [[X_0, e_v], e_u], column u of
    # ad_block([X_0, e_v], 1, 2)
    ad1 = algebra.ad_block(x, 1, 1)
    ad2 = algebra.ad_block(x, 2, 2)
    adx1 = algebra.ad_block(x, 1, 2)
    nested = [algebra.ad_block(algebra.from_grade_coords(1, [row[v] for row in ad1]), 1, 2)
              for v in range(n1)]
    half_sq = step * step / 2
    degree1 = _integer_rows([[c] + [-step * e for e in row]
                             for c, row in zip(algebra.grade_coords(x, 1), ad1)])
    degree2 = _integer_rows([
        [c] + [-step * e for e in adx1[r]]
        + [half_sq * nested[v][r][u] for u in range(n1) for v in range(n1)]
        + [-step * e for e in ad2[r]]
        for r, c in enumerate(algebra.grade_coords(x, 2))])
    split = 1 + n1 + n1 * n1
    prefix_part = [row[:split] for row in degree2]
    block_part = [row[split:] for row in degree2]

    block = len(axis) ** n2
    checked = 0
    for a in itertools.product(axis, repeat=n1):
        if any(_dot(row, (1,) + a) for row in degree1):
            checked += block
            continue
        monomials = (1,) + a + tuple(u * v for u in a for v in a)
        base = [_dot(row, monomials) for row in prefix_part]
        for b in itertools.product(axis, repeat=n2):
            checked += 1
            if not any(c + _dot(row, b) for c, row in zip(base, block_part)):
                coeffs = [ZERO] * algebra.dim
                for i, v in zip(pos_idx, a + b):
                    coeffs[i] = v * step
                return algebra.element_from_coeffs(coeffs), checked
    return None, checked


def _integer_rows(rows):
    """Rows of Fractions times the lcm of all their denominators: a common
    positive factor leaves every zero test unchanged."""
    scale = math.lcm(*[c.denominator for row in rows for c in row])
    return [[c.numerator * (scale // c.denominator) for c in row] for row in rows]


def _dot(row, values):
    return sum(map(operator.mul, row, values))


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
