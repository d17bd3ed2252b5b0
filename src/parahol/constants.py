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
# flow takes at most MAX_RK4_STEPS steps, so |t| <= 10.
# Error target: at |t| = 0.1 the chart flow's discretization error,
# estimated by step doubling, is at most 1/100 of the 1e-6 equivariance
# bound. Worst equivariance residuals at t = 0.1, 6 seeds per signature:
#   signatures                                  1e-3     2.5e-3   5e-3
#   (1,1) (2,0) (3,0) (2,1) (2,2) (4,0) (8,2)   9.1e-12  3.6e-10  5.7e-9
#   (5,1) (6,0) (12,0) (11,10)                  2.7e-11  1.0e-9   1.6e-8
#   (21,0)                                      7.4e-11  2.9e-9   4.8e-8
# 5e-3 misses the target from (5,1) on. 2.5e-3 meets it on this grid, and
# by step doubling on (3,0), (2,1), (2,2) and (21,0) (a test). Rare samples
# of strongly indefinite signatures miss it: a step-doubling scan of every
# signature up to p + q = 21 found errors up to 1.2e-7, at (8,8), still
# under the bound.
RK4_STEP = 2.5e-3
MAX_RK4_STEPS = 4_000

# exact central differences for the adjoint-tractor derivative; the gauge
# tractor is quadratic in the point, so any nonzero step gives the exact
# derivative
FD_STEP = Fraction(1, 100000)

# chart guards: reject trajectories this far out (the chart boundary is at
# infinity) and group elements whose homogeneous coordinate degenerates
CHART_NORM_LIMIT = 1e8
CHART_HOMOGENEOUS_TOL = 1e-9
