"""Closed-form harmonic maps: the family g(i, j) = h0 U^i V^j.

For any h0, U and V in SO(n), every interior gradient block of the trace
energy is the skew part of c^T g_E + c^T g_N - g_W^T c - g_S^T c at the
centre c, and for this family c^T g_E = g_W^T c = V^-j U V^j and
c^T g_N = g_S^T c = V, so the field is critical whether or not U and V
commute.  Its reduced section is u = V^-j U V^j, v = V, and its energy is
W H (2n - tr U - tr V).  The solver returns it from its own boundary as
long as the total rotation across the window stays within the measured
domain, 2.8 rad: U and V turn by theta / W and theta / H.

    python tests/closed_form.py write FIELD --n 3 --width 128 --height 128 --theta 2
    python tests/closed_form.py check DIR --n 3 --width 128 --height 128 --theta 2

``write`` saves the family's field file, to pass to ``groupvar solve
--boundary``; ``check`` compares the solve's ``unreduced_field.txt`` and the
``final_energy`` of its ``solve_report.txt`` in DIR with the closed form and
exits 1 on a mismatch.  Both draw h0, U and V from ``family``'s default seed.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from groupvar import serialization
from groupvar.complexes import triangulated_grid
from groupvar.liegroup import exp_skew, random_skew

# Largest total rotation across the window at which the solver was measured
# to return the family rather than another critical point.
MAX_THETA = 2.8
# Per-entry distance of a solved field or section from the closed form.
FIELD_TOL = 1e-13
# Step of the central difference in ``derivative``, and the floor it sets on
# a Jacobi gauge's per-entry distance from the derivative: each entry of the
# difference carries about eps / step = 2.2e-10 of round-off, summed over n
# terms by g^-1.  Measured: 1.4-4.0e-10 on the windows of
# ``tests/test_closed_form.py``.
DERIVATIVE_STEP = 1e-6
DERIVATIVE_FLOOR = 1e-9


def turn(n: int, rng: np.random.Generator, angle: float) -> np.ndarray:
    """A random skew generator whose largest rotation angle is ``angle``."""
    a = random_skew(n, rng)
    return a * (angle / np.linalg.norm(a, 2))


def family(n: int, width: int, height: int, theta: float, seed: int = 1):
    """h0, the generators A and B of U = exp A and V = exp B, turning by
    theta / width and theta / height, from one seeded generator."""
    if not 0.0 <= theta <= MAX_THETA:
        raise ValueError(f"theta must lie in [0, {MAX_THETA}], got {theta}")
    rng = np.random.default_rng(seed)
    h0 = exp_skew(random_skew(n, rng))
    return h0, turn(n, rng, theta / width), turn(n, rng, theta / height)


def field(h0: np.ndarray, a: np.ndarray, b: np.ndarray, width: int,
          height: int) -> np.ndarray:
    """The (V, n, n) vertex field h0 U^i V^j, vertex ids row-major in j;
    each power is the exponential of a multiple of its generator."""
    u_pow = exp_skew(np.arange(width + 1)[:, None, None] * a)
    v_pow = exp_skew(np.arange(height + 1)[:, None, None] * b)
    g = h0 @ u_pow[None, :] @ v_pow[:, None]
    return g.reshape(-1, *h0.shape)


def section(a: np.ndarray, b: np.ndarray, width: int, height: int) -> np.ndarray:
    """The (V, 2, n, n) reduced section (V^-j U V^j, V), with the identity
    in the slots the window does not define (u on the right column, v on
    the top row), as ``reduction.reduce_field`` writes them."""
    n = a.shape[-1]
    v_pow = exp_skew(np.arange(height + 1)[:, None, None] * b)
    y = np.empty((height + 1, width + 1, 2, n, n))
    y[...] = np.eye(n)
    y[:, :-1, 0] = (v_pow.swapaxes(-1, -2) @ exp_skew(a) @ v_pow)[:, None]
    y[:-1, :, 1] = exp_skew(b)
    return y.reshape(-1, 2, n, n)


def derivative(h0: np.ndarray, a: np.ndarray, b: np.ndarray, da: np.ndarray,
               db: np.ndarray, width: int, height: int) -> np.ndarray:
    """The (V, n, n) left-trivialized derivative g^-1 dg/ds at s = 0 of the
    family h0 exp(A + s dA)^i exp(B + s dB)^j, a Jacobi field of the field
    at s = 0: the skew part of a central difference at DERIVATIVE_STEP."""
    g = field(h0, a, b, width, height)
    plus, minus = (field(h0, a + t * da, b + t * db, width, height)
                   for t in (DERIVATIVE_STEP, -DERIVATIVE_STEP))
    dg = g.swapaxes(-1, -2) @ (plus - minus) / (2.0 * DERIVATIVE_STEP)
    return 0.5 * (dg - dg.swapaxes(-1, -2))


def energy(a: np.ndarray, b: np.ndarray, width: int, height: int) -> float:
    """W H (2n - tr U - tr V)."""
    n = a.shape[-1]
    return width * height * (2.0 * n - np.trace(exp_skew(a)) - np.trace(exp_skew(b)))


def energy_tol(n: int, width: int, height: int) -> float:
    """Allowed |final_energy - energy|: each face term 2n - tr u - tr v
    cancels to its small value from traces of size n, so it carries a few
    ulps of 2n; 16 ulps per face.  Measured: under one ulp per face on
    every window of ``tests/test_closed_form.py``."""
    return 16 * np.finfo(float).eps * 2 * n * width * height


def _check(out: Path, n: int, width: int, height: int, theta: float) -> list[str]:
    h0, a, b = family(n, width, height, theta)
    _, got = serialization.load_unreduced_field(out / "unreduced_field.txt")
    report = dict(line.split("=", 1)
                  for line in (out / "solve_report.txt").read_text().splitlines())
    field_err = float(np.max(np.abs(got - field(h0, a, b, width, height))))
    energy_err = abs(float(report["final_energy"]) - energy(a, b, width, height))
    print(f"field error {field_err:.3e} (tolerance {FIELD_TOL:.0e}), energy error "
          f"{energy_err:.3e} (tolerance {energy_tol(n, width, height):.3e})")
    problems = []
    if not field_err <= FIELD_TOL:
        problems.append("the solved field is not the closed form")
    if not energy_err <= energy_tol(n, width, height):
        problems.append("final_energy is not W H (2n - tr U - tr V)")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("action", choices=("write", "check"))
    parser.add_argument("path", type=Path,
                        help="field file to write, or solve output directory to check")
    parser.add_argument("--n", type=int, default=3)
    parser.add_argument("--width", type=int, default=128)
    parser.add_argument("--height", type=int, default=128)
    parser.add_argument("--theta", type=float, default=2.0)
    args = parser.parse_args(argv)
    shape = (args.n, args.width, args.height, args.theta)
    if args.action == "write":
        h0, a, b = family(*shape)
        serialization.save_unreduced_field(
            args.path, triangulated_grid(args.width, args.height),
            field(h0, a, b, args.width, args.height))
        return 0
    problems = _check(args.path, *shape)
    print("\n".join(problems) or "the solve matches the closed form")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
