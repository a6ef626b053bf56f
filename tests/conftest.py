"""Shared helpers: mesh families and analytic polynomial oracles."""

import numpy as np
import pytest

from cdgbrinkman.mesh import (generate_polygonal, generate_uniform_rectangular,
                              generate_uniform_triangular)
from cdgbrinkman.solver import MAX_SWEEPS
from polyref import MonomialBasis, cell_quadrature, gram_cholesky, gram_solve

MESH_FAMILIES = {
    "tri": generate_uniform_triangular,
    "rect": generate_uniform_rectangular,
    "poly": generate_polygonal,
}


@pytest.fixture
def rng():
    return np.random.default_rng(20240611)


def random_polynomial(degree, rng, scale=1.0):
    """A random 2D polynomial with analytic value and gradient closures.

    The gradient is differentiated term by term, independently of any
    weak-gradient machinery, so it can serve as an exactness oracle.
    """
    exps = [(d - i, i) for d in range(degree + 1) for i in range(d + 1)]
    coef = rng.uniform(-scale, scale, size=len(exps))

    def value(pts):
        pts = np.atleast_2d(pts)
        out = np.zeros(len(pts))
        for (p, q), c in zip(exps, coef):
            out += c * pts[:, 0] ** p * pts[:, 1] ** q
        return out

    def grad(pts):
        pts = np.atleast_2d(pts)
        gx = np.zeros(len(pts))
        gy = np.zeros(len(pts))
        for (p, q), c in zip(exps, coef):
            if p > 0:
                gx += c * p * pts[:, 0] ** (p - 1) * pts[:, 1] ** q
            if q > 0:
                gy += c * q * pts[:, 0] ** p * pts[:, 1] ** (q - 1)
        return np.column_stack([gx, gy])

    return value, grad


# the x of the notch's inner edge at which the C-shaped cell's centroid lies
# on that edge's line
NOTCH_ON_CENTROID = 0.4721359549993876


def notched_square(x):
    """Vertices and loops of the unit square cut into a C-shaped cell 0
    and the notch 1 that fills it, the notch's inner edge at ``x``.

    The C-shaped cell is not star-shaped about its centroid: at y = 0.5,
    the centroid sees the notch's top and bottom edges from outside the
    cell.  At x = 0.3 the centroid lies in the notch; at x =
    NOTCH_ON_CENTROID it lies on the line of the notch's inner edge.
    """
    verts = [[0, 0], [1, 0], [1, 0.4], [x, 0.4], [x, 0.6], [1, 0.6], [1, 1],
             [0, 1]]
    return verts, [[0, 1, 2, 3, 4, 5, 6, 7], [3, 2, 5, 4]]


def normal_out_of(mesh, edge, cell):
    """Unit normal of ``edge`` pointing out of ``cell``, one of its cells."""
    minus, plus = mesh.edge_cells[edge]
    if cell == minus:
        return mesh.edge_normals[edge]
    if cell == plus:
        return -mesh.edge_normals[edge]
    raise ValueError(f"cell {cell} is not incident to edge {edge}")


def locate(disc, cell):
    """Class index and slot of ``cell`` in the stacked arrays of ``disc``.

    Also returns ``tables(points, dim, grad=False)``: the leading ``dim``
    basis functions of the cell at ``points`` (their x and y derivatives
    with ``grad``), from polyspace monomials and the class's transform.
    """
    ci = next(i for i, c in enumerate(disc.classes) if cell in c.cells)
    cls = disc.classes[ci]
    slot = int(np.searchsorted(cls.cells, cell))
    basis = MonomialBasis(cls.j, disc.mesh.cells[cell].centroid,
                          disc.mesh.cells[cell].diameter)

    def tables(points, dim, grad=False):
        raw = basis.gradients(points) if grad else [basis.values(points)]
        out = [cls.transform[slot, :dim, :dim] @ r[:dim] for r in raw]
        return out if grad else out[0]

    return ci, slot, tables


def project_scalar_field(disc, fn, block_name):
    """Per-cell L2 projection onto the leading "k" or "p" basis functions.

    Returns (n_cells, dim) coefficients, so ``dofs[c]`` is cell c's vector.
    """
    dim = {"k": disc.dim_k, "p": disc.dim_p}[block_name]
    out = np.zeros((disc.mesh.n_cells, dim))
    for c in range(disc.mesh.n_cells):
        ci, _, tables = locate(disc, c)
        rule = cell_quadrature(disc.mesh.cell_vertices(c),
                               2 * disc.classes[ci].j + 2)
        vals = tables(rule.points, dim)
        gram = (vals * rule.weights) @ vals.T
        out[c] = gram_solve(gram_cholesky(gram), vals @ (rule.weights
                                                          * fn(rule.points)))
    return out


def refinement_stopped_by_rule(history):
    """The solver's stopping rule holds for a ``refinement_residuals``
    history: the last sweep failed to halve the relative residual of K, or
    the sweeps reached the cap (the last entry is the constrained one)."""
    sweeps = history[:-1]
    return (len(sweeps) == MAX_SWEEPS + 1
            or (len(sweeps) >= 2 and not sweeps[-1] < 0.5 * sweeps[-2]))
