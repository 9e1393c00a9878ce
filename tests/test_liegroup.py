import numpy as np
import pytest
import scipy.linalg

from groupvar import liegroup as lg
from groupvar.errors import DomainError


def rand_alg(n, seed, scale=1.0):
    return lg.random_algebra(n, np.random.default_rng(seed), scale)


def test_exp_of_zero_is_identity():
    z = lg.AlgebraElement(np.zeros((3, 3)))
    assert np.array_equal(lg.exp(z).matrix, np.eye(3))


def test_exp_planar_rotation_closed_form():
    e12 = lg.AlgebraElement(lg.skew_basis(2)[0])
    g = lg.exp((np.pi / 2) * e12)
    assert np.allclose(g.matrix, [[0.0, 1.0], [-1.0, 0.0]], atol=1e-14)
    theta = 0.37
    g = lg.exp(theta * e12)
    expected = [[np.cos(theta), np.sin(theta)], [-np.sin(theta), np.cos(theta)]]
    assert np.allclose(g.matrix, expected, atol=1e-14)


@pytest.mark.parametrize("n,seed", [(2, 0), (3, 1), (4, 2), (5, 3)])
def test_exp_inverse_pair(n, seed):
    xi = rand_alg(n, seed)
    g = lg.exp(xi).matrix @ lg.exp(-1.0 * xi).matrix
    assert np.linalg.norm(g - np.eye(n)) <= 1e-12


def test_exp_lands_on_group():
    for seed in range(5):
        g = lg.exp(rand_alg(3, seed, 2.0))
        assert np.linalg.norm(g.matrix.T @ g.matrix - np.eye(3)) <= 1e-12
        assert np.linalg.det(g.matrix) > 0


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


def test_log_identity():
    assert np.array_equal(lg.log_near_identity(lg.identity(4).matrix),
                          np.zeros((4, 4)))


@pytest.mark.parametrize("seed", range(6))
def test_log_exp_roundtrip(seed):
    xi = rand_alg(3, seed, 0.5 / 2.0)
    back = lg.log_near_identity(lg.exp(xi).matrix)
    assert np.linalg.norm(back - xi.matrix) <= 1e-10


def test_log_outside_region_raises():
    e12 = lg.AlgebraElement(lg.skew_basis(2)[0])
    far = lg.exp(np.pi * e12)
    with pytest.raises(DomainError):
        lg.log_near_identity(far.matrix)


def test_adjoint_identity_and_oracle():
    xi = rand_alg(3, 7)
    assert np.allclose(lg.adjoint(lg.identity(3), xi).matrix, xi.matrix)
    g = lg.exp(rand_alg(3, 8))
    e12 = lg.AlgebraElement(lg.skew_basis(3)[0])
    oracle = g.matrix @ e12.matrix @ g.matrix.T
    assert np.linalg.norm(lg.adjoint(g, e12).matrix - oracle) <= 1e-14


def test_adjoint_composition():
    g = lg.exp(rand_alg(3, 9))
    h = lg.exp(rand_alg(3, 10))
    xi = rand_alg(3, 11)
    lhs = lg.adjoint(g @ h, xi)
    rhs = lg.adjoint(g, lg.adjoint(h, xi))
    assert np.linalg.norm(lhs.matrix - rhs.matrix) <= 1e-13


def test_coadjoint_identity_and_duality():
    mu = lg.CoAlgebraElement(rand_alg(3, 12).matrix)
    assert np.allclose(lg.coadjoint(lg.identity(3), mu).matrix, mu.matrix)
    g = lg.exp(rand_alg(3, 13))
    for e in map(lg.AlgebraElement, lg.skew_basis(3)):
        lhs = lg.pairing(lg.coadjoint(g, mu), e)
        rhs = lg.pairing(mu, lg.adjoint(g, e))
        assert abs(lhs - rhs) <= 1e-13


def test_coadjoint_contravariance():
    g = lg.exp(rand_alg(3, 14))
    h = lg.exp(rand_alg(3, 15))
    mu = lg.CoAlgebraElement(rand_alg(3, 16).matrix)
    lhs = lg.coadjoint(g, lg.coadjoint(h, mu))
    rhs = lg.coadjoint(h @ g, mu)
    assert np.linalg.norm(lhs.matrix - rhs.matrix) <= 1e-13


def test_coadjoint_inverse():
    g = lg.exp(rand_alg(3, 17))
    mu = lg.CoAlgebraElement(rand_alg(3, 18).matrix)
    back = lg.coadjoint(g, lg.coadjoint_inverse(g, mu))
    assert np.linalg.norm(back.matrix - mu.matrix) <= 1e-14


def test_pairing_gram_matrix():
    basis = lg.skew_basis(4)
    for a, ea in enumerate(basis):
        for b, eb in enumerate(map(lg.AlgebraElement, basis)):
            mu = lg.CoAlgebraElement(ea)
            expected = 2.0 if a == b else 0.0
            assert lg.pairing(mu, eb) == pytest.approx(expected, abs=1e-15)
    zero = lg.CoAlgebraElement(np.zeros((4, 4)))
    assert lg.pairing(zero, lg.AlgebraElement(basis[0])) == 0.0


def test_project_small_perturbation():
    rng = np.random.default_rng(19)
    m = np.eye(3) + 1e-9 * rng.standard_normal((3, 3))
    assert np.linalg.norm(lg.project_to_group(m).matrix - np.eye(3)) <= 1e-8


def test_project_fixes_group_elements():
    g = lg.exp(rand_alg(3, 20))
    assert np.linalg.norm(lg.project_to_group(g.matrix).matrix - g.matrix) <= 1e-14


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
    near = lg.exp(rand_alg(3, 22)).matrix + 1e-11 * rng.standard_normal((3, 3))
    cleaned = lg.GroupElement(near)
    assert np.linalg.norm(cleaned.matrix.T @ cleaned.matrix - np.eye(3)) <= 1e-14


def test_algebra_element_skew_enforced():
    rng = np.random.default_rng(23)
    raw = rng.standard_normal((4, 4))
    xi = lg.AlgebraElement(raw)
    assert np.array_equal(xi.matrix, -xi.matrix.T)
    assert np.allclose(xi.matrix, (raw - raw.T) / 2.0)


def test_immutability():
    g = lg.identity(3)
    with pytest.raises(AttributeError):
        g.matrix = np.zeros((3, 3))
    with pytest.raises(ValueError):
        g.matrix[0, 0] = 5.0


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
    good = np.array([lg.exp(rand_alg(3, s)).matrix for s in range(4)])
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
