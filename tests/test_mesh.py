import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chebdde.cheb_mesh import diff_matrix, make_mesh
from _reference import interpolate, lagrange_eval, lebesgue_constant


def test_make_mesh_n2_nodes():
    mesh = make_mesh(2)
    assert mesh.n == 2
    assert mesh.nodes[0] == 0.0
    assert mesh.nodes[2] == -1.0
    assert abs(mesh.nodes[1] - (-0.5)) < 1e-15


def test_make_mesh_n1_endpoints_only():
    mesh = make_mesh(1)
    assert list(mesh.nodes) == [0.0, -1.0]


def test_make_mesh_n4_midpoint():
    mesh = make_mesh(4)
    assert abs(mesh.nodes[2] - (-0.5)) < 1e-15


def test_make_mesh_rejects_degenerate():
    with pytest.raises(ValueError):
        make_mesh(0)


def test_mesh_invariants():
    for n in (1, 2, 3, 7, 16, 40):
        mesh = make_mesh(n)
        assert mesh.nodes[0] == 0.0
        assert mesh.nodes[n] == -1.0
        assert np.all(np.diff(mesh.nodes) < 0)
        assert np.all(mesh.nodes >= -1.0) and np.all(mesh.nodes <= 0.0)
        w = mesh.bary_weights
        assert np.all(w != 0.0)
        # consecutive weights alternate in sign
        assert np.all(w[:-1] * w[1:] < 0.0)


def test_lagrange_cardinality_exact():
    mesh = make_mesh(5)
    for i, theta in enumerate(mesh.nodes):
        for j in range(6):
            expected = 1.0 if i == j else 0.0
            assert lagrange_eval(mesh, j, theta) == expected


def test_lagrange_partition_of_unity_pointwise():
    mesh = make_mesh(7)
    total = sum(lagrange_eval(mesh, j, -0.3) for j in range(8))
    assert abs(total - 1.0) < 1e-14


def test_lagrange_linear_basis():
    # n=1 basis: ell_0(theta) = theta + 1
    mesh = make_mesh(1)
    assert abs(lagrange_eval(mesh, 0, -0.25) - 0.75) < 1e-15


def test_lagrange_rejects_bad_index():
    mesh = make_mesh(3)
    with pytest.raises(ValueError):
        lagrange_eval(mesh, 4, -0.5)


def test_partition_of_unity_grid():
    grid = np.linspace(-1.0, 0.0, 1000)
    for n in (1, 2, 3, 5, 8, 13, 21, 34, 40):
        mesh = make_mesh(n)
        for theta in grid:
            total = sum(lagrange_eval(mesh, j, theta) for j in range(n + 1))
            assert abs(total - 1.0) < 1e-13


def test_diff_matrix_n2_exact():
    op = diff_matrix(make_mesh(2))
    expected_D = np.array([[0.0, -1.0], [4.0, -3.0]])
    expected_d0 = np.array([1.0, -1.0])
    assert np.max(np.abs(op.D - expected_D)) < 1e-14
    assert np.max(np.abs(op.d0 - expected_d0)) < 1e-14


def test_diff_matrix_constant_column():
    for n in (1, 2, 5, 12, 23):
        op = diff_matrix(make_mesh(n))
        assert np.max(np.abs(op.d0 + op.D @ np.ones(n))) < 1e-12


def test_diff_matrix_cubic():
    # derivative of p(theta) = theta^3 is known analytically
    mesh = make_mesh(6)
    op = diff_matrix(mesh)
    vals = mesh.nodes**3
    deriv = op.d0 * vals[0] + op.D @ vals[1:]
    assert np.max(np.abs(deriv - 3.0 * mesh.nodes[1:] ** 2)) < 1e-12


def test_diff_matrix_polynomial_exactness():
    # (d0 | D) reproduces derivatives of every polynomial of degree <= n
    rng = np.random.default_rng(7)
    for n in (2, 5, 11, 20):
        mesh = make_mesh(n)
        op = diff_matrix(mesh)
        for _ in range(5):
            coeffs = rng.uniform(-2.0, 2.0, size=n + 1)
            p = np.polynomial.Polynomial(coeffs)
            dp = p.deriv()
            vals = p(mesh.nodes)
            deriv = op.d0 * vals[0] + op.D @ vals[1:]
            exact = dp(mesh.nodes[1:])
            scale = np.max(np.abs(exact)) + 1.0
            assert np.max(np.abs(deriv - exact)) / scale < 1e-11


@settings(max_examples=60)
@given(n=st.integers(1, 40),
       coeffs=st.lists(st.floats(-2.0, 2.0), min_size=41, max_size=41))
def test_diff_matrix_exact_on_random_polynomials(n, coeffs):
    # a Chebyshev series on [-1, 0] keeps the degree-40 values well
    # conditioned; the rounding of D grows like n^2
    p = np.polynomial.Chebyshev(coeffs[: n + 1], domain=[-1.0, 0.0])
    mesh = make_mesh(n)
    op = diff_matrix(mesh)
    vals = p(mesh.nodes)
    deriv = op.d0 * vals[0] + op.D @ vals[1:]
    err = np.max(np.abs(deriv - p.deriv()(mesh.nodes[1:])))
    assert err <= 1e-12 * n * n * (1.0 + max(map(abs, coeffs)))


def test_interpolate_partition_of_unity():
    mesh = make_mesh(9)
    for theta in (-1.0, -0.77, -0.5, -0.1, 0.0):
        assert abs(interpolate(mesh, 1.0, np.ones(9), theta) - 1.0) < 1e-14


def test_interpolate_degree_one_reproduction():
    mesh = make_mesh(6)
    for theta in (-0.9, -0.44, -0.12):
        val = interpolate(mesh, mesh.nodes[0], mesh.nodes[1:], theta)
        assert abs(val - theta) < 1e-14


def test_interpolate_exponential_spectral():
    # exp(-0.33) = 0.71892373343192618... (frozen oracle value)
    mesh = make_mesh(10)
    vals = np.exp(mesh.nodes)
    got = interpolate(mesh, vals[0], vals[1:], -0.33)
    assert abs(got - 0.7189237334319262) < 1e-10


def test_interpolate_vector_values():
    mesh = make_mesh(4)
    head = np.array([1.0, 2.0])
    tail = np.tile(head, (4, 1))
    out = interpolate(mesh, head, tail, -0.6)
    assert np.max(np.abs(out - head)) < 1e-14


def test_interpolate_length_mismatch():
    mesh = make_mesh(4)
    with pytest.raises(ValueError):
        interpolate(mesh, 1.0, np.ones(3), -0.5)


def test_lebesgue_constant_n1():
    assert lebesgue_constant(make_mesh(1)) == 1.0


def test_lebesgue_constant_n2():
    # reduced basis on {-1/2, -1}: |2(theta+1)| + |2*theta+1| peaks at
    # theta = 0 with value 3 (hand computation)
    val = lebesgue_constant(make_mesh(2))
    assert abs(val - 3.0) < 1e-12


def test_lebesgue_constant_linear_growth():
    # measured ratios Lambda_n / n stay below a modest constant; the bound
    # is asserted from measurement, not from theory
    ns = np.arange(4, 33, 4)
    vals = np.array([lebesgue_constant(make_mesh(int(n))) for n in ns])
    assert np.all(vals <= 2.0 * ns)
    assert np.all(np.diff(vals) > 0.0)
