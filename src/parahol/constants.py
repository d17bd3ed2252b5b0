"""Frozen numeric and sign conventions.

The algebra <-> vector-field conventions below were determined during
bring-up by exact comparison of the chart vector field (grade -1 part of
the translated adjoint tractor) against the fixed polynomial formula, and
are locked here; changing any of them silently breaks the flat-model
identities.
"""

from fractions import Fraction

# field parts (a, A, s, b) from an algebra element:
#   s_formula = FIELD_DILATION_SIGN * (coefficient of the grading element)
#   b_formula = FIELD_SPECIAL_FACTOR * (grade +1 coefficient vector)
# translations and rotations carry over with sign +1.
FIELD_DILATION_SIGN = Fraction(-1)
FIELD_SPECIAL_FACTOR = Fraction(-1, 2)

# the algebra-to-field map is an anti-homomorphism:
#   field([x, y]) = FIELD_BRACKET_SIGN * [field(x), field(y)]
FIELD_BRACKET_SIGN = -1

# classical fixed-step fourth-order integration of polynomial flows; a
# flow takes at most MAX_RK4_STEPS steps, so |t| <= 10
RK4_STEP = 1e-3
MAX_RK4_STEPS = 10_000

# exact central differences for the adjoint-tractor derivative; the gauge
# tractor is quadratic in the point, so any nonzero step gives the exact
# derivative
FD_STEP = Fraction(1, 100000)

# chart guards: reject trajectories this far out (the chart boundary is at
# infinity) and group elements whose homogeneous coordinate degenerates
CHART_NORM_LIMIT = 1e8
CHART_HOMOGENEOUS_TOL = 1e-9
