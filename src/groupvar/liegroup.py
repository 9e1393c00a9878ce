"""Matrix Lie group backend for SO(n).

Group, algebra and coalgebra data are plain float arrays, (..., n, n)
stacks: special-orthogonal matrices for the group and skew matrices for the
algebra, whose dual is represented concretely by skew matrices through the
trace pairing <mu, xi> = tr(mu^T xi) (:func:`block_dot`).  With this
identification the dual of the standard skew basis element E_kl is E_kl / 2,
because <E_kl, E_kl> = 2.  All operations are pure and checked arrays are
read-only, so everything here is safe to use from any number of workers.
"""

from __future__ import annotations

import functools

import numpy as np

from .defaults import TAU_GROUP
from .errors import DomainError, MembershipError

__all__ = [
    "GroupElement",
    "group_array",
    "read_only",
    "skew_part",
    "exp",
    "exp_skew",
    "block_dot",
    "block_norms",
    "max_norm",
    "log_near_identity",
    "adjoint",
    "adjoint_matrix",
    "coadjoint",
    "polar_factor",
    "project_to_group",
    "skew_basis",
    "step_matrices",
    "algebra_dim",
    "skew_to_coords",
    "coords_to_skew",
    "random_skew",
]

# Blocks closer than this to orthogonal are stored as given; farther ones (up
# to the validation tolerance) are replaced by their polar factor.
_CLEAN = 1e-12


def _as_square(matrix) -> np.ndarray:
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def group_array(matrices) -> np.ndarray:
    """Validated read-only stack of SO(n) matrices, shape (..., n, n).

    This is the one membership check, made where data enters: the solver's
    boundary, file loading.  Every block must have finite entries, an
    orthogonality defect ||m^T m - I||_F within ``TAU_GROUP`` and det > 0;
    anything else raises ``MembershipError``, a ValueError naming the first
    failing block by its flat index.  Blocks whose defect is above 1e-12 are
    re-orthonormalized (polar factor); the others are stored bit-identically,
    which keeps file round trips exact.  Copies unless the input is already
    read-only.  Use :func:`project_to_group` for genuine projection.
    """
    m = np.asarray(matrices, dtype=float)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected square matrices, got shape {m.shape}")
    n = m.shape[-1]
    blocks = m.reshape(-1, n, n)

    def first(bad, reason) -> MembershipError:
        """The first failing block, named by its flat index in a stack."""
        return MembershipError(int(np.argmax(bad)) if m.ndim > 2 else None, reason)

    bad = ~np.isfinite(blocks).all(axis=(-2, -1))
    if bad.any():
        raise first(bad, "has non-finite entries")
    # a finite block far off the group may overflow: ~(defect <= TAU_GROUP) rejects it
    with np.errstate(over="ignore", invalid="ignore"):
        defect = block_norms(blocks.swapaxes(-1, -2) @ blocks - np.eye(n))
    bad = ~(defect <= TAU_GROUP)
    if bad.any():
        raise first(bad, f"is {defect[np.argmax(bad)]:.3e} from orthogonal, "
                         f"beyond tolerance {TAU_GROUP:.1e}")
    bad = ~(np.linalg.det(blocks) > 0.0)
    if bad.any():
        raise first(bad, "is in the reflection component, det <= 0")
    dirty = defect > _CLEAN
    if dirty.any() or m.flags.writeable:
        m = m.copy()
    if dirty.any():
        blocks = m.reshape(-1, n, n)
        blocks[dirty] = polar_factor(blocks[dirty])
    return read_only(m)


def read_only(a: np.ndarray) -> np.ndarray:
    """``a`` itself, its writeable flag cleared: how the package returns
    the fresh arrays it computes (sections, fields, variations,
    multipliers), so that nothing writes to them later.  No copy and no
    check is made here."""
    a.flags.writeable = False
    return a


def skew_part(x: np.ndarray) -> np.ndarray:
    """Blockwise skew part (X - X^T) / 2 of a (..., n, n) stack."""
    return (x - x.swapaxes(-1, -2)) / 2.0


class GroupElement:
    """A special-orthogonal matrix, validated by :func:`group_array`.

    Group data are arrays throughout the package, which builds none of
    these; the class stays because the benchmark's span table
    (``perfbench/spans.py``) names its constructor.
    """

    __slots__ = ("matrix",)

    def __init__(self, matrix):
        self.matrix = group_array(_as_square(matrix))


def exp(xi: np.ndarray) -> np.ndarray:
    """Matrix exponentials of a (..., n, n) stack of skew matrices,
    :func:`exp_skew` checked by :func:`group_array`.

    Used for boundary data, which enter the package here; the solver
    retraction and the sampled instances call :func:`exp_skew` unchecked.
    A block whose symmetric part exceeds ``TAU_GROUP`` raises ValueError,
    since :func:`exp_skew` takes skew input.
    """
    xi = np.asarray(xi, dtype=float)
    asymmetry = block_norms(xi + xi.swapaxes(-1, -2))
    if np.any(asymmetry > TAU_GROUP):
        raise ValueError(f"xi is {max_norm(asymmetry):.3e} from skew, beyond "
                         f"tolerance {TAU_GROUP:.1e}")
    return group_array(exp_skew(xi))


def exp_skew(xi: np.ndarray) -> np.ndarray:
    """Exponentials of a stack of skew matrices, shape (..., n, n).

    Each is written as I plus a correction, so that exp(xi) - I keeps full
    relative accuracy for small xi.  For n <= 3, xi^3 = -theta^2 xi with
    theta^2 = ||xi||_F^2 / 2, and Rodrigues' formula (Gallier & Xu 2002)
    exp(xi) = I + sinc(theta/pi) xi + sinc(theta/2pi)^2 xi^2 / 2 is exact;
    both factors come from one sin(y) / y in np.sinc's own operations, bit
    for bit its values, with y = eps where y = 0, so theta = 0 needs no
    branch.  For n >= 4, Taylor's polynomial with scaling and squaring
    (Higham 2005): each block is halved s times, s >= 0 the least with
    ||xi / 2^s||_F < 1/4, where the degree-12 polynomial T for exp - I is
    within eps relative to its value; T <- 2T + T^2 then squares I + T,
    s times for that block alone, so a block's result does not depend on
    the rest of its stack.  ``xi`` must be skew.
    """
    n = xi.shape[-1]
    if n <= 3:
        theta = np.sqrt(np.sum(xi * xi, axis=(-2, -1)) / 2.0)
        y = np.pi * (theta[..., None] / _HALF_TURNS)
        y = np.where(y, y, _EPS)
        s = (np.sin(y) / y)[..., None]
        a, b = s[..., :1, :], s[..., 1:, :]
        return (_eye(n) + a * xi) + (0.5 * b ** 2) * (xi @ xi)
    x = xi.reshape(-1, n, n)
    # 4 ||x||_F < 2^e, so 2^-e x has norm below 1/4
    squarings = np.maximum(np.frexp(4.0 * block_norms(x))[1], 0)
    x = np.ldexp(x, -squarings[:, None, None])
    # Paterson-Stockmeyer: T = B0 + x^4 (B1 + x^4 B2), where Bj is the sum of
    # x^i / (4j + i)! over i = 1..4, so I is never formed
    x2 = x @ x
    powers = (x, x2, x2 @ x, x2 @ x2)
    b0, b1, b2 = (sum(c * p for c, p in zip(row, powers)) for row in _TAYLOR)
    t = b0 + powers[3] @ (b1 + powers[3] @ b2)
    for k in range(squarings.max(initial=0)):
        live = np.flatnonzero(squarings > k)
        u = t[live]
        t[live] = 2.0 * u + u @ u
    return _eye(n) + t.reshape(xi.shape)


# exp_skew: theta / pi and theta / 2 pi are the arguments of its two sinc
# factors; np.sinc maps 0 to eps before dividing
_HALF_TURNS = np.array([np.pi, 2.0 * np.pi])
_EPS = np.finfo(float).eps
# exp_skew for n >= 4: row j holds 1 / (4j + i)! for i = 1..4
_TAYLOR = (1.0 / np.cumprod(np.arange(1.0, 13.0))).reshape(3, 4).tolist()


@functools.cache
def _eye(n: int) -> np.ndarray:
    """Read-only n x n identity."""
    eye = np.eye(n)
    eye.flags.writeable = False
    return eye


def block_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Frobenius inner product of corresponding n x n blocks of two stacks,
    whose leading shapes broadcast, each summed by numpy's loop, not BLAS."""
    return np.einsum("...ij,...ij->...", a, b)


def block_norms(x: np.ndarray) -> np.ndarray:
    """Frobenius norm of every n x n block, the same inside a stack as alone
    on every BLAS kernel set."""
    return np.sqrt(block_dot(x, x))


def max_norm(*norms: np.ndarray) -> float:
    """Largest entry of some arrays of norms; 0.0 when they are all empty and
    NaN when any entry is NaN, so a NaN never reads as small."""
    worst = 0.0
    for a in norms:
        # np.maximum propagates NaN, also through ``initial``
        worst = np.asarray(a).max(initial=worst)
    return float(worst)


def log_near_identity(g: np.ndarray) -> np.ndarray:
    """Principal logarithms of a (..., n, n) stack of rotations, each
    restricted to ||g - I||_F < 1; returns skew matrices.

    The inverse of :func:`exp_skew`, in closed form (Gallier & Xu 2002).  The
    skew part S = (g - g^T) / 2 of g = exp(xi) has the eigenvectors of xi and
    the sines of its rotation angles for eigenvalues, and ||g - I||_F < 1
    keeps every angle below pi/3, where arcsin inverts the sine.  For n <= 3,
    S = sin(theta) xi / theta with sin(theta) = ||S||_F / sqrt(2), so
    xi = S arcsin(s) / s.  For n >= 4, with i S = V diag(s) V^H,
    xi = S + Re(V diag(-i (arcsin(s) - s)) V^H), which keeps full relative
    accuracy for small xi.  Only the skew part of g is read beyond the domain
    check, which rejects non-finite entries too.
    """
    g = np.asarray(g, dtype=float)
    n = g.shape[-1]
    distance = block_norms(g - np.eye(n))
    if not np.all(distance < 1.0):
        raise DomainError(
            f"||g - I|| = {max_norm(distance):.3f} >= 1 or not finite, outside "
            f"the principal log region"
        )
    s = skew_part(g)
    if n <= 3:
        sine = np.sqrt(np.sum(s * s, axis=(-2, -1)) / 2.0)[..., None, None]
        return s * (np.arcsin(sine) / np.where(sine > 0.0, sine, 1.0))
    w, v = np.linalg.eigh(1j * s)
    c = -1j * (np.arcsin(w) - w)
    return s + skew_part(((v * c[..., None, :]) @ v.conj().swapaxes(-1, -2)).real)


def adjoint(g: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """Blockwise adjoint action Ad_g xi = g xi g^T of stacks whose leading
    shapes broadcast, taken by its skew part.

    On the dual side this is the inverse coadjoint action Ad*_{g^{-1}}.
    """
    return skew_part(g @ xi @ g.swapaxes(-1, -2))


def coadjoint(g: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Blockwise coadjoint action, defined by <Ad*_g mu, xi> = <mu, Ad_g xi>
    in the trace pairing (:func:`block_dot`), taken by its skew part.

    In the trace-pairing representation this is g^T mu g, which is also
    Ad_{g^{-1}}.  Note the contravariance: Ad*_g Ad*_h = Ad*_{hg}.
    """
    return skew_part(g.swapaxes(-1, -2) @ mu @ g)


def polar_factor(m: np.ndarray) -> np.ndarray:
    """Orthogonal polar factors w vh of a (..., n, n) stack, from the batched
    SVD w diag(s) vh; the nearest orthogonal matrix of each block in Frobenius
    norm.  No check: a block with det <= 0 gets a reflection or an arbitrary
    factor."""
    w, _, vh = np.linalg.svd(m)
    return w @ vh


def project_to_group(matrix) -> np.ndarray:
    """Nearest special-orthogonal matrix in Frobenius norm (:func:`polar_factor`).

    Requires det > 0 and a nonsingular input; reflection-branch or singular
    matrices have no nearby rotation and raise :class:`DomainError`.
    """
    m = _as_square(matrix)
    det = np.linalg.det(m)
    if det == 0.0 or not np.isfinite(det):
        raise DomainError("matrix is singular, projection undefined")
    if det < 0.0:
        raise DomainError("matrix has det < 0, nearest orthogonal is a reflection")
    return group_array(polar_factor(m))


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


@functools.cache
def step_matrices(n: int, h: float) -> np.ndarray:
    """exp(h E) for every skew basis element E, a read-only (d, n, n) stack
    (:func:`exp_skew`); built once per (n, h) for the finite-difference
    derivatives."""
    steps = exp_skew(h * skew_basis(n))
    steps.flags.writeable = False
    return steps


def skew_to_coords(matrix: np.ndarray) -> np.ndarray:
    """Coordinates of (a stack of) skew matrices over the standard basis."""
    return matrix[(..., *_upper(matrix.shape[-1]))]


def adjoint_matrix(p: np.ndarray) -> np.ndarray:
    """Matrices of xi -> p xi p^T over the skew basis for a (..., n, n)
    stack, shape (..., d, d): entry [(k, l), (a, b)] is
    p_ka p_lb - p_kb p_la, the second compound of p."""
    k, l = _upper(p.shape[-1])
    row_k, row_l = k[:, None], l[:, None]
    return p[..., row_k, k] * p[..., row_l, l] - p[..., row_k, l] * p[..., row_l, k]


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
