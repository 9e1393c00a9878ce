"""Matrix Lie group backend for SO(n).

Group elements are special-orthogonal matrices, algebra elements are skew
matrices, and the algebra dual is represented concretely by skew matrices
through the trace pairing <mu, xi> = tr(mu^T xi).  With this identification
the dual of the standard skew basis element E_kl is E_kl / 2, because
<E_kl, E_kl> = 2.  All operations are pure and all values immutable, so
everything here is safe to use from any number of workers.
"""

from __future__ import annotations

import functools

import numpy as np
import scipy.linalg

from .defaults import TAU_GROUP
from .errors import DomainError

__all__ = [
    "GroupElement",
    "AlgebraElement",
    "CoAlgebraElement",
    "identity",
    "group_array",
    "read_only",
    "skew_part",
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
    "algebra_dim",
    "skew_to_coords",
    "coords_to_skew",
    "random_skew",
    "random_algebra",
]

# Blocks closer than this to orthogonal are stored as given; farther ones (up
# to the validation tolerance) are replaced by their polar factor.
_CLEAN = 1e-12


def _as_square(matrix) -> np.ndarray:
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def _polar_factor(m: np.ndarray) -> np.ndarray:
    u, _ = scipy.linalg.polar(m)
    return u


def group_array(matrices) -> np.ndarray:
    """Validated read-only stack of SO(n) matrices, shape (..., n, n).

    This is the one membership check, made where data enters: element
    construction, file loading.  Every block must have finite entries, an
    orthogonality defect ||m^T m - I||_F within ``TAU_GROUP`` and det > 0;
    anything else raises ValueError.  Blocks whose defect is above 1e-12 are
    re-orthonormalized (polar factor); the others are stored bit-identically,
    which keeps file round trips exact.  Copies unless the input is already
    read-only.  Use :func:`project_to_group` for genuine projection.
    """
    m = np.asarray(matrices, dtype=float)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected square matrices, got shape {m.shape}")
    n = m.shape[-1]
    blocks = m.reshape(-1, n, n)

    def first(bad) -> str:
        """The first failing block, named by its flat index in a stack."""
        return f"matrix {int(np.argmax(bad))}" if m.ndim > 2 else "matrix"

    bad = ~np.isfinite(blocks).all(axis=(-2, -1))
    if bad.any():
        raise ValueError(f"{first(bad)} has non-finite entries")
    defect = block_norms(blocks.swapaxes(-1, -2) @ blocks - np.eye(n))
    bad = ~(defect <= TAU_GROUP)
    if bad.any():
        raise ValueError(f"{first(bad)} is {defect[np.argmax(bad)]:.3e} from "
                         f"orthogonal, beyond tolerance {TAU_GROUP:.1e}")
    bad = ~(np.linalg.det(blocks) > 0.0)
    if bad.any():
        raise ValueError(f"{first(bad)} is in the reflection component, det <= 0")
    dirty = np.flatnonzero(defect > _CLEAN)
    if dirty.size:
        m = m.copy()
        blocks = m.reshape(-1, n, n)
        for k in dirty:
            blocks[k] = _polar_factor(blocks[k])
    return read_only(m, m.shape[1:])


def read_only(values, tail: tuple[int, ...]) -> np.ndarray:
    """``values`` as a read-only float array of shape (count, *tail).

    Copies unless the input is already read-only.  Sections, fields,
    variations and multipliers hold their values this way; no membership
    check is made here.
    """
    a = np.asarray(values, dtype=float)
    if a.ndim != len(tail) + 1 or a.shape[1:] != tuple(tail):
        raise ValueError(f"expected shape (count, {', '.join(map(str, tail))}), "
                         f"got {a.shape}")
    if a.flags.writeable:
        a = a.copy()
        a.flags.writeable = False
    return a


def skew_part(x: np.ndarray) -> np.ndarray:
    """Blockwise skew part (X - X^T) / 2 of a (..., n, n) stack."""
    return (x - x.swapaxes(-1, -2)) / 2.0


class GroupElement:
    """A special-orthogonal matrix, validated by :func:`group_array`."""

    __slots__ = ("matrix",)

    def __init__(self, matrix):
        object.__setattr__(self, "matrix", group_array(_as_square(matrix)))

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
        m = skew_part(_as_square(matrix))
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


def log_near_identity(g: np.ndarray) -> np.ndarray:
    """Principal matrix logarithms of a (..., n, n) stack, each restricted to
    ||g - I||_F < 1; returns their skew parts.

    Solvers only ever need the logarithm close to the identity, where the
    principal branch is unambiguous and the Schur-based algorithm is accurate.
    """
    g = np.asarray(g, dtype=float)
    distance = max([0.0, *block_norms(g - np.eye(g.shape[-1])).ravel().tolist()])
    if distance >= 1.0:
        raise DomainError(
            f"||g - I|| = {distance:.3f} >= 1, outside the principal log region"
        )
    out = np.empty_like(g)
    for k in np.ndindex(g.shape[:-2]):
        log = scipy.linalg.logm(g[k])
        if np.iscomplexobj(log):
            if np.max(np.abs(log.imag)) > 1e-12:
                raise DomainError("logarithm came out complex, input too far from I")
            log = log.real
        out[k] = log
    return skew_part(out)


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


@functools.cache
def _upper(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only ``np.triu_indices(n, 1)``: the (k, l), k < l, in
    lexicographic order, which is the order of the skew basis."""
    k, l = np.triu_indices(n, 1)
    k.flags.writeable = l.flags.writeable = False
    return k, l


def skew_basis(n: int) -> np.ndarray:
    """The standard skew basis as a (d, n, n) stack: +1 at (k, l), -1 at (l, k)."""
    k, l = _upper(n)
    basis = np.zeros((k.size, n, n))
    basis[np.arange(k.size), k, l] = 1.0
    basis[np.arange(k.size), l, k] = -1.0
    return basis


def skew_to_coords(matrix: np.ndarray) -> np.ndarray:
    """Coordinates of (a stack of) skew matrices over the standard basis."""
    return matrix[(..., *_upper(matrix.shape[-1]))]


def coords_to_skew(coords: np.ndarray, n: int) -> np.ndarray:
    """Skew matrices from basis coordinates, shape (..., d) -> (..., n, n)."""
    coords = np.asarray(coords, dtype=float)
    k, l = _upper(n)
    m = np.zeros(coords.shape[:-1] + (n, n))
    m[..., k, l] = coords
    m[..., l, k] = -coords
    return m


def random_skew(n: int, rng: np.random.Generator, scale: float = 1.0,
                shape: tuple[int, ...] = ()) -> np.ndarray:
    """A shape + (n, n) stack of scale times skew matrices whose basis
    coordinates are uniform on [-1, 1], drawn block after block in row-major
    order, so a stack draws what repeated single draws would."""
    return scale * coords_to_skew(rng.uniform(-1.0, 1.0, shape + (algebra_dim(n),)), n)


def random_algebra(n: int, rng: np.random.Generator, scale: float = 1.0) -> AlgebraElement:
    """Scale times a skew matrix with basis coordinates uniform on [-1, 1]."""
    return AlgebraElement(random_skew(n, rng, scale))
