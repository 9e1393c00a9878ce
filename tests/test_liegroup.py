import numpy as np
import pytest
import scipy.linalg

from groupvar import liegroup as lg
from groupvar.errors import DomainError


def rand_skew(n, seed, scale=1.0):
    return lg.random_skew(n, np.random.default_rng(seed), scale)


def test_exp_of_zero_is_identity():
    g = lg.exp(np.zeros((3, 3)))
    assert np.array_equal(g, np.eye(3)) and not g.flags.writeable


def test_exp_planar_rotation_closed_form():
    e12 = lg.skew_basis(2)[0]
    g = lg.exp((np.pi / 2) * e12)
    assert np.allclose(g, [[0.0, 1.0], [-1.0, 0.0]], atol=1e-14)
    theta = 0.37
    g = lg.exp(theta * e12)
    expected = [[np.cos(theta), np.sin(theta)], [-np.sin(theta), np.cos(theta)]]
    assert np.allclose(g, expected, atol=1e-14)


@pytest.mark.parametrize("n,seed", [(2, 0), (3, 1), (4, 2), (5, 3)])
def test_exp_inverse_pair(n, seed):
    xi = rand_skew(n, seed)
    g = lg.exp(xi) @ lg.exp(-1.0 * xi)
    assert np.linalg.norm(g - np.eye(n)) <= 1e-12


def test_exp_lands_on_group():
    for seed in range(5):
        g = lg.exp(rand_skew(3, seed, 2.0))
        assert np.linalg.norm(g.T @ g - np.eye(3)) <= 1e-12
        assert np.linalg.det(g) > 0


def test_exp_stack_checks_every_block():
    stack = lg.random_skew(3, np.random.default_rng(25), 2.0, (2, 3))
    g = lg.exp(stack)
    assert g.shape == stack.shape and not g.flags.writeable
    for block in np.ndindex(2, 3):
        assert np.linalg.norm(g[block].T @ g[block] - np.eye(3)) <= 1e-12
    stack[1, 2, 0, 1] = np.nan
    with pytest.raises(ValueError, match="matrix 5 has non-finite"):
        lg.exp(stack)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_exp_rejects_non_skew_input(n):
    xi = rand_skew(n, 30 + n)
    with pytest.raises(ValueError):
        lg.exp(xi + 0.1 * np.eye(n))
    with pytest.raises(ValueError, match="from skew"):
        lg.exp(np.stack([xi, np.triu(xi)]))
    assert np.array_equal(lg.exp(xi), lg.exp_skew(xi))


EXP_THETAS = [0.0, 1e-9, 1e-6, 1e-3, 0.1, 1.0, 3.0, 2.0 * np.pi - 0.01]


def skew_stack(n, shape, theta, seed):
    """Random skew matrices of a stack shape, each with ||xi||_F^2 / 2 = theta^2."""
    a = np.random.default_rng(seed).standard_normal(shape + (n, n))
    a = a - a.swapaxes(-1, -2)
    return theta * a / np.sqrt(np.sum(a * a, axis=(-2, -1)) / 2.0)[..., None, None]


@pytest.mark.parametrize("shape", [(), (4,), (2, 3)])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_exp_skew_matches_expm(n, shape):
    """The closed forms against per-block Pade expm; for small xi the error
    is also small relative to exp(xi) - I, not only to exp(xi), and xi = 0
    gives the identity exactly."""
    eye = np.eye(n)
    for k, theta in enumerate(EXP_THETAS):
        xi = skew_stack(n, shape, theta, 100 * n + k)
        out = lg.exp_skew(xi)
        assert out.shape == xi.shape
        if theta == 0.0:
            assert np.array_equal(out, np.broadcast_to(eye, out.shape))
        for block in np.ndindex(shape):
            got, ref = out[block], scipy.linalg.expm(xi[block])
            assert np.max(np.abs(got - ref)) <= 1e-12
            if 0.0 < theta <= 1.0:
                assert np.linalg.norm(got - ref) \
                    <= 1e-14 * np.linalg.norm(ref - eye)
            assert np.linalg.norm(got.T @ got - eye) <= 1e-14
            assert np.linalg.det(got) > 0.0


SINC_THETAS = [0.0, 1e-300, 1e-200, 1e-100, 1e-30, 1e-15, 1e-9,
               np.pi - 1e-9, np.nextafter(np.pi, 0.0), np.pi, np.pi + 1e-9, 0.7]


def _exp_skew_sinc(xi):
    """Rodrigues' formula through ``np.sinc``, the form ``exp_skew`` inlined."""
    theta = np.sqrt(np.sum(xi * xi, axis=(-2, -1)) / 2.0)[..., None, None]
    return np.eye(xi.shape[-1]) + np.sinc(theta / np.pi) * xi \
        + 0.5 * np.sinc(theta / (2.0 * np.pi)) ** 2 * (xi @ xi)


@pytest.mark.parametrize("shape", [(), (len(SINC_THETAS),), (2, 3, 4)])
@pytest.mark.parametrize("n", [2, 3])
def test_exp_skew_equals_the_sinc_form_bit_for_bit(n, shape):
    count = int(np.prod(shape))
    for offset in range(len(SINC_THETAS)):
        thetas = np.resize(np.roll(SINC_THETAS, -offset), count).reshape(shape)
        xi = skew_stack(n, shape, 1.0, 10 * n + offset) * thetas[..., None, None]
        assert lg.exp_skew(xi).tobytes() == _exp_skew_sinc(xi).tobytes()


# Frobenius norms for the Taylor branch (n >= 4), from 1e-300 to past 3 pi:
# from no squaring of the block to six
TAYLOR_NORMS = np.concatenate([10.0 ** np.arange(-300.0, 0.0, 20.0),
                               np.linspace(0.1, 3.0 * np.pi + 0.1, 12)])


def skew_with_norms(n, norms, seed):
    """Random skew matrices of a stack shape with the given Frobenius norms."""
    a = np.random.default_rng(seed).standard_normal(norms.shape + (n, n))
    a = a - a.swapaxes(-1, -2)
    return a * (norms / lg.block_norms(a))[..., None, None]


@pytest.mark.parametrize("n", [4, 5, 6])
def test_exp_skew_taylor_matches_expm_over_norms(n):
    """One stack of mixed norms against per-block Pade expm; up to norm 1
    the error is also small relative to exp(xi) - I, measured in units of
    its largest entry, where a Frobenius norm of 1e-300 entries would
    underflow."""
    eye = np.eye(n)
    xi = skew_with_norms(n, TAYLOR_NORMS, 200 + n)
    out = lg.exp_skew(xi)
    for k, norm in enumerate(TAYLOR_NORMS):
        got, ref = out[k], scipy.linalg.expm(xi[k])
        assert np.max(np.abs(got - ref)) <= 1e-12
        if norm <= 1.0:
            unit = np.max(np.abs(ref - eye))
            assert np.linalg.norm((got - ref) / unit) \
                <= 1e-14 * np.linalg.norm((ref - eye) / unit)
        assert np.linalg.norm(got.T @ got - eye) <= 1e-14
        assert np.linalg.det(got) > 0.0


@pytest.mark.parametrize("n", [4, 5, 6])
def test_exp_skew_taylor_block_alone_equals_the_block_in_a_stack(n):
    """Blocks of one stack take different numbers of squarings; each comes
    out byte for byte as it does alone or in a row of the stack."""
    norms = np.resize(TAYLOR_NORMS[::-1], (3, 9))
    xi = skew_with_norms(n, norms, 300 + n)
    stack = lg.exp_skew(xi)
    for row in range(3):
        assert lg.exp_skew(xi[row]).tobytes() == stack[row].tobytes()
    for block in np.ndindex(norms.shape):
        assert lg.exp_skew(xi[block]).tobytes() == stack[block].tobytes()


@pytest.mark.parametrize("n", [4, 5, 6])
def test_exp_skew_taylor_of_zero_is_the_identity(n):
    """Zero blocks give I exactly: alone, in a stack beside a block that
    takes six squarings, and as an empty stack's shape."""
    eye = np.eye(n)
    assert np.array_equal(lg.exp_skew(np.zeros((n, n))), eye)
    out = lg.exp_skew(skew_with_norms(n, np.array([0.0, 9.0, 0.0]), 400 + n))
    assert np.array_equal(out[::2], np.stack([eye, eye]))
    assert lg.exp_skew(np.zeros((2, 0, n, n))).shape == (2, 0, n, n)


def test_log_identity():
    assert np.array_equal(lg.log_near_identity(np.eye(4)), np.zeros((4, 4)))


@pytest.mark.parametrize("seed", range(6))
def test_log_exp_roundtrip(seed):
    xi = rand_skew(3, seed, 0.5 / 2.0)
    back = lg.log_near_identity(lg.exp(xi))
    assert np.linalg.norm(back - xi) <= 1e-10


def _scaled_to_distance(xi, target):
    """xi scaled by the largest factor (bisection) with ||exp(xi) - I||_F < target."""
    n = xi.shape[-1]
    lo, hi = 0.0, 4.0 / np.linalg.norm(xi)
    for _ in range(60):
        mid = (lo + hi) / 2.0
        if np.linalg.norm(scipy.linalg.expm(mid * xi) - np.eye(n)) < target:
            lo = mid
        else:
            hi = mid
    return lo * xi


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_log_matches_logm(n):
    """The closed form against scipy's logm from ||xi|| = 1e-9 up to
    ||g - I||_F -> 1.  logm loses relative accuracy for small xi (its error
    is about 1e-16 absolute), so it is compared absolutely; against the
    exact xi the closed form keeps full relative accuracy."""
    rng = np.random.default_rng(40 + n)
    for size in (1e-9, 1e-6, 1e-3, 0.1, 0.5, 0.9, 0.99, 0.999):
        for _ in range(5):
            xi = lg.random_skew(n, rng)
            xi = xi * (size / np.linalg.norm(xi)) if size < 1e-3 \
                else _scaled_to_distance(xi, size)
            g = scipy.linalg.expm(xi)
            log = lg.log_near_identity(g)
            ref = scipy.linalg.logm(g).real
            assert np.linalg.norm(log - (ref - ref.T) / 2.0) <= 1e-14
            assert np.linalg.norm(log - xi) <= 1e-14 * np.linalg.norm(xi)
            assert np.array_equal(log, -log.T)
    stack = scipy.linalg.expm(lg.random_skew(n, rng, 0.2, (2, 3)))
    assert np.array_equal(lg.log_near_identity(stack)[1, 2],
                          lg.log_near_identity(stack[1, 2]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_log_rejects_non_finite_entries(bad):
    g = np.eye(3)
    g[0, 1] = bad
    with pytest.raises(DomainError):
        lg.log_near_identity(g)
    with pytest.raises(DomainError):
        lg.log_near_identity(np.stack([np.eye(3), g]))


def test_log_outside_region_raises():
    far = lg.exp(np.pi * lg.skew_basis(2)[0])
    with pytest.raises(DomainError):
        lg.log_near_identity(far)


def test_adjoint_identity_and_oracle():
    xi = rand_skew(3, 7)
    assert np.allclose(lg.adjoint(np.eye(3), xi), xi)
    g = lg.exp(rand_skew(3, 8))
    e12 = lg.skew_basis(3)[0]
    oracle = g @ e12 @ g.T
    assert np.linalg.norm(lg.adjoint(g, e12) - oracle) <= 1e-14


def test_adjoint_composition():
    g = lg.exp(rand_skew(3, 9))
    h = lg.exp(rand_skew(3, 10))
    xi = rand_skew(3, 11)
    lhs = lg.adjoint(g @ h, xi)
    rhs = lg.adjoint(g, lg.adjoint(h, xi))
    assert np.linalg.norm(lhs - rhs) <= 1e-13


def test_coadjoint_identity_and_duality():
    mu = rand_skew(3, 12)
    assert np.allclose(lg.coadjoint(np.eye(3), mu), mu)
    g = lg.exp(rand_skew(3, 13))
    basis = lg.skew_basis(3)
    lhs = lg.block_dot(lg.coadjoint(g, mu), basis)
    rhs = lg.block_dot(mu, lg.adjoint(g, basis))
    assert lhs.shape == (3,)
    assert np.max(np.abs(lhs - rhs)) <= 1e-13


def test_coadjoint_contravariance():
    g = lg.exp(rand_skew(3, 14))
    h = lg.exp(rand_skew(3, 15))
    mu = rand_skew(3, 16)
    lhs = lg.coadjoint(g, lg.coadjoint(h, mu))
    rhs = lg.coadjoint(h @ g, mu)
    assert np.linalg.norm(lhs - rhs) <= 1e-13


def test_coadjoint_inverse():
    g = lg.exp(rand_skew(3, 17))
    mu = rand_skew(3, 18)
    back = lg.coadjoint(g, lg.adjoint(g, mu))
    assert np.linalg.norm(back - mu) <= 1e-14


@pytest.mark.parametrize("n", [2, 3, 5])
def test_stacked_actions_equal_their_blocks(n):
    """Both actions broadcast a single algebra element over a stack of group
    matrices, and every block equals the single-matrix formula bit for bit."""
    rng = np.random.default_rng(26 + n)
    g = lg.exp(lg.random_skew(n, rng, 1.0, (2, 3)))
    xi = lg.random_skew(n, rng)
    ad, coad = lg.adjoint(g, xi), lg.coadjoint(g, xi)
    for block in np.ndindex(2, 3):
        p = g[block]
        assert ad[block].tobytes() == ((p @ xi @ p.T - (p @ xi @ p.T).T) / 2.0).tobytes()
        assert coad[block].tobytes() == ((p.T @ xi @ p - (p.T @ xi @ p).T) / 2.0).tobytes()
        assert np.array_equal(ad[block], -ad[block].T)


def test_pairing_gram_matrix():
    basis = lg.skew_basis(4)
    gram = lg.block_dot(basis[:, None], basis[None])
    assert np.allclose(gram, 2.0 * np.eye(len(basis)), rtol=0.0, atol=1e-15)
    assert lg.block_dot(np.zeros((4, 4)), basis[0]) == 0.0


@pytest.mark.parametrize("n", range(2, 11))
def test_block_pairing_in_a_stack_equals_the_block_alone(n):
    """Every block of a C-ordered stack pairs and norms bit for bit as a
    fresh copy of itself.  At odd n every other block starts 8 bytes past a
    16-byte boundary, where some BLAS kernel sets sum in another order."""
    rng = np.random.default_rng(60 + n)
    a, b = rng.normal(size=(401, n, n)), rng.normal(size=(401, n, n))
    assert np.array_equal(lg.block_dot(a, b),
                          [lg.block_dot(x.copy(), y.copy()) for x, y in zip(a, b)])
    assert np.array_equal(lg.block_norms(a), [lg.block_norms(x.copy()) for x in a])


def test_project_small_perturbation():
    rng = np.random.default_rng(19)
    m = np.eye(3) + 1e-9 * rng.standard_normal((3, 3))
    assert np.linalg.norm(lg.project_to_group(m) - np.eye(3)) <= 1e-8


def test_project_fixes_group_elements():
    g = lg.exp(rand_skew(3, 20))
    assert np.linalg.norm(lg.project_to_group(g) - g) <= 1e-14


def test_project_rejects_reflections_and_singular():
    with pytest.raises(DomainError):
        lg.project_to_group(np.diag([1.0, 1.0, -1.0]))
    with pytest.raises(DomainError):
        lg.project_to_group(np.zeros((3, 3)))


def test_group_element_validation():
    with pytest.raises(ValueError):
        lg.GroupElement(np.eye(3) + 1e-3)
    with pytest.raises(ValueError):
        lg.GroupElement(np.diag([1.0, -1.0, 1.0]))
    rng = np.random.default_rng(21)
    near = lg.exp(rand_skew(3, 22)) + 1e-11 * rng.standard_normal((3, 3))
    cleaned = lg.GroupElement(near)
    assert np.linalg.norm(cleaned.matrix.T @ cleaned.matrix - np.eye(3)) <= 1e-14


def test_basis_indices_order():
    coords = np.arange(1.0, 4.0)
    m = lg.coords_to_skew(coords, 3)
    assert [m[0, 1], m[0, 2], m[1, 2]] == [1.0, 2.0, 3.0]
    assert lg.algebra_dim(5) == 10
    assert np.array_equal(lg.skew_to_coords(m), coords)


@pytest.mark.parametrize("n", range(2, 7))
def test_skew_coordinates_roundtrip(n):
    """The index-array coordinates equal the entry-by-entry loops they
    replaced, also on stacks."""
    pairs = [(k, l) for k in range(n) for l in range(k + 1, n)]
    rng = np.random.default_rng(n)
    coords = rng.standard_normal((2, 3, lg.algebra_dim(n)))
    stack = lg.coords_to_skew(coords, n)
    for block in np.ndindex(coords.shape[:-1]):
        loop = np.zeros((n, n))
        for c, (k, l) in zip(coords[block], pairs):
            loop[k, l] = c
            loop[l, k] = -c
        assert np.array_equal(stack[block], loop)
        assert np.array_equal(np.signbit(stack[block]), np.signbit(loop))
        assert np.array_equal(lg.skew_to_coords(loop),
                              np.array([loop[k, l] for k, l in pairs]))
    assert np.array_equal(lg.skew_to_coords(stack), coords)
    basis = lg.skew_basis(n)
    assert np.array_equal(lg.skew_to_coords(basis), np.eye(len(pairs)))
    assert np.array_equal(basis, -basis.swapaxes(-1, -2))


def test_group_array_checks_every_block():
    rng = np.random.default_rng(24)
    good = np.array([lg.exp(rand_skew(3, s)) for s in range(4)])
    checked = lg.group_array(good)
    assert np.array_equal(checked, good) and not checked.flags.writeable
    near = good + 1e-11 * rng.standard_normal(good.shape)
    cleaned = lg.group_array(near)
    assert np.linalg.norm(cleaned.swapaxes(-1, -2) @ cleaned - np.eye(3),
                          axis=(-2, -1)).max() <= 1e-14
    for bad in (np.nan, np.inf):
        broken = good.copy()
        broken[2, 1, 1] = bad
        with pytest.raises(ValueError, match="matrix 2 has non-finite"):
            lg.group_array(broken)
    reflected = good.copy()
    reflected[1] = reflected[1] @ np.diag([1.0, 1.0, -1.0])
    with pytest.raises(ValueError, match="matrix 1 is in the reflection"):
        lg.group_array(reflected)
    with pytest.raises(ValueError, match="from orthogonal"):
        lg.group_array(good + 1e-3)
    with pytest.raises(ValueError, match="non-finite"):
        lg.GroupElement(np.full((3, 3), np.nan))
