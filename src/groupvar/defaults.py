"""Default tolerances and step sizes.

All values are overridable through function arguments or the CLI; these are
the documented defaults for 64-bit floats at unit-scale fields.
"""

# Group invariant enforcement: constructors clean up violations below this,
# reject anything larger.
TAU_GROUP = 1e-9

# Admissibility: Frobenius distance of each constraint value from the identity.
TOL_ADMISSIBLE = 1e-10

# Central finite-difference step for Lagrangian differentials.
H_LAGRANGIAN = 1e-6

# Central-difference step of the Jacobi and two-form check and of dlam.
H_JACOBI = 1e-5

# Euler-Poincare residual accepted as "critical".
EP_TOL = 1e-8

# Solver gradient norm target (per interior vertex).
G_TOL = 1e-10

# Agreement required between multiplier sweep paths.
CONS_TOL = 1e-9

# Smallest singular value treated as full rank in the regularity check.
RANK_TOL = 1e-8
