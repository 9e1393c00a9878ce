"""Matrix Lie group backend for SO(n).

Group elements are special-orthogonal matrices, algebra elements are skew
matrices, and the algebra dual is represented concretely by skew matrices
through the trace pairing <mu, xi> = tr(mu^T xi).  With this identification
the dual of the standard skew basis element E_kl is E_kl / 2, because
<E_kl, E_kl> = 2.  All operations are pure and all values immutable, so
everything here is safe to use from any number of workers.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .defaults import TAU_GROUP
from .errors import DomainError

__all__ = [
    "GroupElement",
    "AlgebraElement",
    "CoAlgebraElement",
    "identity",
    "exp",
    "exp_skew",
    "block_dot",
    "block_norms",
    "log_near_identity",
    "adjoint",
    "coadjoint",
    "pairing",
    "project_to_group",
    "skew_basis",
    "skew_basis_indices",
    "algebra_dim",
    "skew_to_coords",
    "coords_to_skew",
    "random_algebra",
]


def _as_square(matrix) -> np.ndarray:
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def _polar_factor(m: np.ndarray) -> np.ndarray:
    u, _ = scipy.linalg.polar(m)
    return u


class GroupElement:
    """A special-orthogonal matrix.

    The constructor accepts matrices whose orthogonality defect is below
    ``tau`` and re-orthonormalizes them (polar factor) instead of rejecting
    round-off level violations.  Matrices already orthogonal to working
    precision are stored bit-identically, which keeps file round trips exact.
    Anything farther than ``tau`` from the group is an error; use
    :func:`project_to_group` for genuine projection.
    """

    __slots__ = ("matrix",)

    _CLEAN = 1e-12

    def __init__(self, matrix, tau: float = TAU_GROUP):
        m = _as_square(matrix)
        defect = np.linalg.norm(m.T @ m - np.eye(m.shape[0]))
        if defect > tau:
            raise ValueError(
                f"matrix is {defect:.3e} from orthogonal, beyond tolerance {tau:.1e}"
            )
        if np.linalg.det(m) <= 0.0:
            raise ValueError("matrix is in the reflection component, det <= 0")
        if defect > self._CLEAN:
            m = _polar_factor(m)
        elif m.flags.writeable:
            m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    def __setattr__(self, name, value):
        raise AttributeError("GroupElement is immutable")

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def inverse(self) -> "GroupElement":
        return GroupElement(self.matrix.T)

    def __matmul__(self, other: "GroupElement") -> "GroupElement":
        return GroupElement(self.matrix @ other.matrix)

    def __repr__(self):
        return f"GroupElement(n={self.n})"


class AlgebraElement:
    """A skew-symmetric matrix; the skew part is enforced on construction."""

    __slots__ = ("matrix",)

    def __init__(self, matrix):
        m = _as_square(matrix)
        m = (m - m.T) / 2.0
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    def __setattr__(self, name, value):
        raise AttributeError("AlgebraElement is immutable")

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def __add__(self, other):
        return AlgebraElement(self.matrix + other.matrix)

    def __sub__(self, other):
        return AlgebraElement(self.matrix - other.matrix)

    def __mul__(self, scalar: float):
        return AlgebraElement(self.matrix * scalar)

    __rmul__ = __mul__

    def __neg__(self):
        return AlgebraElement(-self.matrix)

    def norm(self) -> float:
        return float(np.linalg.norm(self.matrix))

    def __repr__(self):
        return f"AlgebraElement(n={self.n}, norm={self.norm():.3e})"


# The trace pairing identifies the algebra dual with the skew matrices.
CoAlgebraElement = AlgebraElement


def identity(n: int) -> GroupElement:
    return GroupElement(np.eye(n))


def exp(xi: AlgebraElement) -> GroupElement:
    """Matrix exponential of one algebra element (scipy's Pade ``expm``).

    Used for boundary data, sampled instances, test curves and the Newton
    finite-difference steps; the solver retraction uses :func:`exp_skew`.
    """
    return GroupElement(scipy.linalg.expm(xi.matrix))


def exp_skew(xi: np.ndarray) -> np.ndarray:
    """Exponentials of a stack of skew matrices, shape (..., n, n).

    Closed forms (Gallier & Xu 2002), each written as I plus a correction so
    that exp(xi) - I keeps full relative accuracy for small xi.  For n <= 3,
    xi^3 = -theta^2 xi with theta^2 = ||xi||_F^2 / 2, and Rodrigues' formula
    exp(xi) = I + sinc(theta/pi) xi + sinc(theta/2pi)^2 xi^2 / 2 is exact
    (np.sinc(0) = 1, so theta = 0 needs no branch).  For n >= 4, with the
    Hermitian eigendecomposition i xi = V diag(w) V^H,
    exp(xi) = I + Re(V diag(-2 sin^2(w/2) - i sin w) V^H).
    ``xi`` must be skew; only its lower triangle is read when n >= 4.
    """
    n = xi.shape[-1]
    if n <= 3:
        theta = np.sqrt(np.sum(xi * xi, axis=(-2, -1)) / 2.0)[..., None, None]
        return np.eye(n) + np.sinc(theta / np.pi) * xi \
            + 0.5 * np.sinc(theta / (2.0 * np.pi)) ** 2 * (xi @ xi)
    w, v = np.linalg.eigh(1j * xi)
    c = -2.0 * np.sin(w / 2.0) ** 2 - 1j * np.sin(w)
    return np.eye(n) + ((v * c[..., None, :]) @ v.conj().swapaxes(-1, -2)).real


def block_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Frobenius inner product of corresponding n x n blocks of two stacks."""
    shape = a.shape[:-2] + (a.shape[-2] * a.shape[-1],)
    return np.vecdot(a.reshape(shape), b.reshape(shape))


def block_norms(x: np.ndarray) -> np.ndarray:
    """Frobenius norm of every n x n block; equals ``np.linalg.norm`` bit for bit."""
    return np.sqrt(block_dot(x, x))


def log_near_identity(g: GroupElement) -> AlgebraElement:
    """Principal matrix logarithm, restricted to ||g - I||_F < 1.

    Solvers only ever need the logarithm close to the identity, where the
    principal branch is unambiguous and the Schur-based algorithm is accurate.
    """
    n = g.n
    distance = np.linalg.norm(g.matrix - np.eye(n))
    if distance >= 1.0:
        raise DomainError(
            f"||g - I|| = {distance:.3f} >= 1, outside the principal log region"
        )
    log = scipy.linalg.logm(g.matrix)
    if np.iscomplexobj(log):
        if np.max(np.abs(log.imag)) > 1e-12:
            raise DomainError("logarithm came out complex, input too far from I")
        log = log.real
    return AlgebraElement(log)


def adjoint(g: GroupElement, xi: AlgebraElement) -> AlgebraElement:
    """Adjoint action g xi g^{-1}; preserves skewness."""
    return AlgebraElement(g.matrix @ xi.matrix @ g.matrix.T)


def coadjoint(g: GroupElement, mu: CoAlgebraElement) -> CoAlgebraElement:
    """Coadjoint action, defined by <Ad*_g mu, xi> = <mu, Ad_g xi>.

    In the trace-pairing representation this is g^{-1} mu g.  Note the
    contravariance: Ad*_g Ad*_h = Ad*_{hg}.
    """
    return CoAlgebraElement(g.matrix.T @ mu.matrix @ g.matrix)


def coadjoint_inverse(g: GroupElement, mu: CoAlgebraElement) -> CoAlgebraElement:
    """Inverse of :func:`coadjoint` at g, i.e. g mu g^{-1}."""
    return CoAlgebraElement(g.matrix @ mu.matrix @ g.matrix.T)


def pairing(mu: CoAlgebraElement, xi: AlgebraElement) -> float:
    """Duality pairing tr(mu^T xi); nondegenerate on skew matrices."""
    return float(np.trace(mu.matrix.T @ xi.matrix))


def project_to_group(matrix) -> GroupElement:
    """Nearest special-orthogonal matrix in Frobenius norm (polar factor).

    Requires det > 0 and a nonsingular input; reflection-branch or singular
    matrices have no nearby rotation and raise :class:`DomainError`.
    """
    m = _as_square(matrix)
    det = np.linalg.det(m)
    if det == 0.0 or not np.isfinite(det):
        raise DomainError("matrix is singular, projection undefined")
    if det < 0.0:
        raise DomainError("matrix has det < 0, nearest orthogonal is a reflection")
    u = _polar_factor(m)
    return GroupElement(u)


def algebra_dim(n: int) -> int:
    return n * (n - 1) // 2


def skew_basis_indices(n: int) -> list[tuple[int, int]]:
    """Index pairs (k, l), k < l, in lexicographic order."""
    return [(k, l) for k in range(n) for l in range(k + 1, n)]


def skew_basis(n: int) -> list[AlgebraElement]:
    """The standard skew basis: +1 at (k, l), -1 at (l, k), k < l."""
    out = []
    for k, l in skew_basis_indices(n):
        m = np.zeros((n, n))
        m[k, l] = 1.0
        m[l, k] = -1.0
        out.append(AlgebraElement(m))
    return out


def skew_to_coords(matrix: np.ndarray) -> np.ndarray:
    """Coordinates of a skew matrix over the standard basis (entry extraction)."""
    n = matrix.shape[0]
    return np.array([matrix[k, l] for k, l in skew_basis_indices(n)])


def coords_to_skew(coords: np.ndarray, n: int) -> np.ndarray:
    m = np.zeros((n, n))
    for c, (k, l) in zip(coords, skew_basis_indices(n)):
        m[k, l] = c
        m[l, k] = -c
    return m


def random_algebra(n: int, rng: np.random.Generator, scale: float = 1.0) -> AlgebraElement:
    """Scale times a skew matrix with basis coordinates uniform on [-1, 1]."""
    coords = rng.uniform(-1.0, 1.0, algebra_dim(n))
    return AlgebraElement(scale * coords_to_skew(coords, n))
