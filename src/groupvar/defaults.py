"""Default tolerances and step sizes.

The documented values for 64-bit floats at unit-scale fields.  The finite-
difference steps and the symmetry tolerance are fixed; the others are the
defaults of function arguments or CLI settings.
"""

# Group invariant enforcement: constructors clean up violations below this,
# reject anything larger.
TAU_GROUP = 1e-9

# Admissibility: Frobenius distance of each constraint value from the identity.
TOL_ADMISSIBLE = 1e-10

# Central finite-difference step for Lagrangian differentials.
H_LAGRANGIAN = 1e-6

# Central-difference step of the Jacobi and two-form check and of dlam's right side.
H_JACOBI = 1e-5

# Invariance defect along the section below which a field counts as a
# symmetry in the Noether boundary sum.
SYMMETRY_TOL = 1e-9

# Euler-Poincare residual accepted as "critical".
EP_TOL = 1e-8

# Solver gradient norm target (per interior vertex).
G_TOL = 1e-10

# Agreement required between multiplier sweep paths.
CONS_TOL = 1e-9

# Smallest singular value treated as full rank in the regularity check.
RANK_TOL = 1e-8
