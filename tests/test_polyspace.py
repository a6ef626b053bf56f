import numpy as np
import pytest

from cdgbrinkman.mesh import generate_polygonal, generate_uniform_triangular
from cdgbrinkman.polyspace import derivative_matrix, dim_poly, poly_exponents
from polyref import (MonomialBasis, cell_quadrature, edge_quadrature,
                     gram_cholesky, gram_matrix, gram_solve)

UNIT_SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


def test_dim_formula():
    for m in range(10):
        assert dim_poly(m) == (m + 1) * (m + 2) // 2
        assert len(poly_exponents(m)) == dim_poly(m)


def test_basis_constant_and_centering():
    b = MonomialBasis(1, center=[0.3, 0.7], scale=2.0)
    v = b.values([[0.5, 0.2]])
    assert v[0, 0] == 1.0
    c = b.values([[0.3, 0.7]])
    assert np.allclose(c[:, 0], [1.0, 0.0, 0.0])


def test_basis_gradient_finite_difference(rng):
    # central differences, step 1e-6: independent oracle for the chain rule
    b = MonomialBasis(5, center=[0.4, 0.6], scale=0.8)
    pts = rng.random((8, 2))
    gx, gy = b.gradients(pts)
    h = 1e-6
    fx = (b.values(pts + [h, 0]) - b.values(pts - [h, 0])) / (2 * h)
    fy = (b.values(pts + [0, h]) - b.values(pts - [0, h])) / (2 * h)
    scale = np.abs(gx).max() + np.abs(gy).max()
    assert np.abs(gx - fx).max() / scale < 1e-7
    assert np.abs(gy - fy).max() / scale < 1e-7


def test_derivative_matrix_maps_values_to_gradients(rng):
    # D_i applied to the monomial values gives the term-by-term derivatives
    # (without the 1/hT factor) at any point, for every degree up to 8
    pts = rng.uniform(-1.0, 1.0, (12, 2))
    for m in range(9):
        b = MonomialBasis(m, center=[0.0, 0.0], scale=1.0)
        vals = b.values(pts)
        for d, grad in enumerate(b.gradients(pts)):
            assert np.abs(derivative_matrix(m, d) @ vals - grad).max() <= (
                1e-13 * max(1.0, np.abs(grad).max()))


def test_cell_quadrature_unit_square():
    r = cell_quadrature(UNIT_SQUARE, 4)
    assert r.integrate(np.ones(len(r.weights))) == pytest.approx(1.0, abs=1e-14)
    x, y = r.points[:, 0], r.points[:, 1]
    assert r.integrate(x ** 2 * y ** 2) == pytest.approx(1.0 / 9.0, abs=1e-14)


def test_cell_quadrature_regular_hexagon():
    th = np.linspace(0.0, 2.0 * np.pi, 7)[:-1]
    hexa = np.column_stack([np.cos(th), np.sin(th)])
    r = cell_quadrature(hexa, 2)
    area = 3.0 * np.sqrt(3.0) / 2.0
    assert abs(r.integrate(np.ones(len(r.weights))) - area) < 1e-13


def test_cell_quadrature_monomial_exactness(rng):
    # random convex-ish polygon; compare each monomial against a much
    # higher-order rule on the same fan
    poly = np.array([[0, 0], [0.9, 0.1], [1.2, 0.8], [0.5, 1.3], [-0.2, 0.7]])
    deg = 7
    r = cell_quadrature(poly, deg)
    ref = cell_quadrature(poly, deg + 14)
    for p in range(deg + 1):
        for q in range(deg + 1 - p):
            a = r.integrate(r.points[:, 0] ** p * r.points[:, 1] ** q)
            b = ref.integrate(ref.points[:, 0] ** p * ref.points[:, 1] ** q)
            assert abs(a - b) <= 1e-12 * max(1.0, abs(b))


def test_edge_quadrature():
    r = edge_quadrature([0.0, 0.0], [1.0, 0.0], 1)
    assert r.weights.sum() == pytest.approx(1.0, abs=1e-14)
    r3 = edge_quadrature([0.0, 0.0], [1.0, 0.0], 3)
    assert r3.integrate(r3.points[:, 0] ** 3) == pytest.approx(0.25, abs=1e-14)


def test_edge_weights_sum_to_length_on_mesh():
    m = generate_polygonal(4)
    for (v0, v1), length in zip(m.edge_vertices, m.edge_lengths):
        r = edge_quadrature(m.vertices[v0], m.vertices[v1], 5)
        assert r.weights.sum() == pytest.approx(length, abs=1e-14)


def test_gram_constant_basis_is_area():
    b = MonomialBasis(0, center=[0.5, 0.5], scale=1.0)
    g = gram_matrix(b, cell_quadrature(UNIT_SQUARE, 2))
    assert g.shape == (1, 1)
    assert g[0, 0] == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("family_n", [("tri", 2), ("rect", 2), ("poly", 4)])
def test_gram_spd_up_to_degree_nine(family_n):
    from conftest import MESH_FAMILIES

    family, n = family_n
    mesh = MESH_FAMILIES[family](n)
    for m in range(10):
        for i, c in enumerate(mesh.cells):
            basis = MonomialBasis(m, c.centroid, c.diameter)
            rule = cell_quadrature(mesh.cell_vertices(i), 2 * m)
            g = gram_matrix(basis, rule)
            gram_cholesky(g, where=f"{family} cell {i}")  # must not raise


def test_gram_reproducing_property(rng):
    mesh = generate_uniform_triangular(2)
    c = mesh.cells[0]
    m = 4
    basis = MonomialBasis(m, c.centroid, c.diameter)
    rule = cell_quadrature(mesh.cell_vertices(0), 2 * m)
    g = gram_matrix(basis, rule)
    chol = gram_cholesky(g)
    coef = rng.uniform(-1, 1, basis.dim)
    member = coef @ basis.values(rule.points)
    rhs = basis.values(rule.points) @ (rule.weights * member)
    rec = gram_solve(chol, rhs)
    # cond(G) ~ 1e8 here: a backward-stable solve reproduces the polynomial
    # to roundoff, while its coefficients carry errors up to cond(G) * eps
    err = rec - coef
    assert np.sqrt(err @ g @ err / (coef @ g @ coef)) <= 1e-13
    kappa = np.linalg.cond(g)
    assert np.abs(err).max() <= kappa * np.finfo(float).eps * np.abs(coef).max()
