"""Runnable problem catalog: manufactured solutions and raster permeability.

The trigonometric benchmark pairs the divergence-free velocity
(sin(2 pi x) cos(2 pi y), -cos(2 pi x) sin(2 pi y)) with the zero-mean
pressure x^2 y^2 - 1/9 and the smooth inverse permeability
a (sin(2 pi x) + 1.1); the body force follows by substitution into the
momentum equation.  Raster fields are piecewise-constant lookups on a
row-major grid over the unit square (row 0 at the top, image convention).
"""

import math
from dataclasses import dataclass
from importlib import resources
from typing import Callable

import numpy as np

from .assembly import BrinkmanProblem

__all__ = [
    "ManufacturedProblem",
    "example1",
    "polynomial_patch",
    "RasterKappa",
    "load_kappa_raster",
    "sample_raster_path",
    "cavity_problem",
    "constant_flow_problem",
]

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class ManufacturedProblem(BrinkmanProblem):
    """A Brinkman problem with a known exact solution.

    ``u`` maps points to (n, 2); ``grad_u`` to (n, 2, 2) with entry
    [q, r, d] = d u_r / d x_d; ``p`` to (n,).
    """

    u: Callable = None
    grad_u: Callable = None
    p: Callable = None


def example1(mu=1.0, a=1.0):
    """Trigonometric benchmark on the unit square with parameters mu, a."""
    if mu <= 0 or a <= 0:
        raise ValueError("mu and a must be positive")

    def u(pts):
        x, y = pts[:, 0], pts[:, 1]
        return np.column_stack([
            np.sin(TWO_PI * x) * np.cos(TWO_PI * y),
            -np.cos(TWO_PI * x) * np.sin(TWO_PI * y),
        ])

    def grad_u(pts):
        x, y = pts[:, 0], pts[:, 1]
        sx, cx = np.sin(TWO_PI * x), np.cos(TWO_PI * x)
        sy, cy = np.sin(TWO_PI * y), np.cos(TWO_PI * y)
        g = np.empty((len(pts), 2, 2))
        g[:, 0, 0] = TWO_PI * cx * cy
        g[:, 0, 1] = -TWO_PI * sx * sy
        g[:, 1, 0] = TWO_PI * sx * sy
        g[:, 1, 1] = -TWO_PI * cx * cy
        return g

    def p(pts):
        x, y = pts[:, 0], pts[:, 1]
        return x * x * y * y - 1.0 / 9.0

    def kappa_inv(pts):
        return a * (np.sin(TWO_PI * pts[:, 0]) + 1.1)

    def f(pts):
        x, y = pts[:, 0], pts[:, 1]
        vel = u(pts)
        react = 8.0 * math.pi ** 2 + kappa_inv(pts)
        grad_p = np.column_stack([2.0 * x * y * y, 2.0 * x * x * y])
        return mu * react[:, None] * vel + grad_p

    return ManufacturedProblem(mu=mu, kappa_inv=kappa_inv, f=f, g=u,
                               u=u, grad_u=grad_u, p=p)


def _derivative(poly, axis, scale=1):
    """scale times d poly / dx (axis 0) or d poly / dy (axis 1) of a
    polynomial {(a, b): c} meaning the sum of c x^a y^b."""
    return {(a - (axis == 0), b - (axis == 1)): scale * (a, b)[axis] * c
            for (a, b), c in poly.items() if (a, b)[axis]}


def _field(polys, shape):
    """The map from points (n, 2) to the polynomials' values, (n, *shape)."""
    def values(pts):
        x, y = pts[:, 0], pts[:, 1]
        out = np.zeros((len(pts), len(polys)))
        for i, poly in enumerate(polys):
            for (a, b), c in poly.items():
                out[:, i] += c * x ** a * y ** b
        return out.reshape((len(pts),) + shape)
    return values


def _stream_problem(psi, p, mu, kappa0):
    """u = (d psi/dy, -d psi/dx), pressure p, constant kappa^{-1} = kappa0
    and f = -mu lap u + mu kappa0 u + grad p: divergence-free and
    consistent by construction."""
    vel = [_derivative(psi, 1), _derivative(psi, 0, -1)]
    # d u_r / d x_d row by row, then d^2 u_r / d x_d^2 in the same order
    grad = [_derivative(ur, d) for ur in vel for d in (0, 1)]
    second = [_derivative(g, d) for g, d in zip(grad, (0, 1, 0, 1))]
    u, d2u = _field(vel, (2,)), _field(second, (2, 2))
    grad_p = _field([_derivative(p, 0), _derivative(p, 1)], (2,))

    def f(pts):
        return (-mu * d2u(pts).sum(axis=2) + mu * kappa0 * u(pts)
                + grad_p(pts))

    return ManufacturedProblem(
        mu=mu, kappa_inv=lambda pts: np.full(len(pts), kappa0), f=f, g=u,
        u=u, grad_u=_field(grad, (2, 2)), p=_field([p], ()))


_PATCHES = {
    # psi = y - 2x + xy + (x^2 + y^2)/2: u = (1 + x + y, 2 - x - y)
    1: ({(0, 1): 1, (1, 0): -2, (1, 1): 1, (2, 0): 0.5, (0, 2): 0.5}, {}),
    # psi = x^3 + y^3 + x^2 y, p = x - 1/2
    2: ({(3, 0): 1, (0, 3): 1, (2, 1): 1}, {(1, 0): 1, (0, 0): -0.5}),
    # psi = x^4 + y^4 - x^3 y, p = x^2 + y^2 - 2/3
    3: ({(4, 0): 1, (0, 4): 1, (3, 1): -1},
        {(2, 0): 1, (0, 2): 1, (0, 0): -2.0 / 3.0}),
}


def polynomial_patch(k, mu=1.0, kappa0=1.0):
    """Divergence-free polynomial solution of degree k with p in P_{k-1}.

    Constant kappa^{-1} = kappa0 and zero-mean pressure on the unit square;
    exactly representable in the degree-k spaces, so the scheme reproduces
    it to roundoff.
    """
    if k not in _PATCHES:
        raise ValueError("patch solutions cover k in {1, 2, 3}")
    return _stream_problem(*_PATCHES[k], mu, kappa0)


# ---------------------------------------------------------------------------
# raster permeability fields
# ---------------------------------------------------------------------------

class RasterKappa:
    """Piecewise-constant kappa^{-1} on a rows x cols grid over [0,1]^2.

    Row 0 covers the top strip of the domain (image convention: grid[r][c]
    covers x in [c/cols, (c+1)/cols), y in [(rows-1-r)/rows, (rows-r)/rows)).
    The lookup returns the value of the grid cell containing each query
    point, bit-identical for queries inside one cell.
    """

    def __init__(self, grid):
        self.grid = np.asarray(grid, dtype=float)
        if self.grid.ndim != 2:
            raise ValueError("raster grid must be 2D")
        if self.grid.size == 0:
            raise ValueError("raster grid is empty ({} rows, {} cols)"
                             .format(*self.grid.shape))
        ok = np.isfinite(self.grid) & (self.grid > 0.0)
        if not ok.all():
            r, c = np.unravel_index(np.argmin(ok), self.grid.shape)
            raise ValueError(
                f"kappa_inv {self.grid[r, c]} at raster row {r}, col {c} "
                "is nonpositive or not finite")
        self.rows, self.cols = self.grid.shape

    def __call__(self, pts):
        pts = np.atleast_2d(pts)
        ix = np.clip((pts[:, 0] * self.cols).astype(int), 0, self.cols - 1)
        iy = np.clip((pts[:, 1] * self.rows).astype(int), 0, self.rows - 1)
        return self.grid[self.rows - 1 - iy, ix]

    @property
    def vmin(self):
        return float(self.grid.min())

    @property
    def vmax(self):
        return float(self.grid.max())


def load_kappa_raster(path):
    """Load a raster from CSV ('rows cols' header) or PGM (P2) file.

    PGM gray levels map linearly onto [lo, hi] taken from a comment line
    '# kappa-inv-map lo hi' (defaults to [1, 1e4]).
    """
    path = str(path)
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline().strip()
    if first.startswith("P2"):
        return _load_pgm(path)
    return _load_csv(path)


def _header_size(path, token, name):
    """A raster header's size ``token``, called ``name`` in the file's
    format; a size of 0 leaves the grid empty, which RasterKappa rejects."""
    try:
        if int(token) >= 0:
            return int(token)
    except ValueError:
        pass
    raise ValueError(f"{path}: header {name} must be a positive integer, "
                     f"got {token!r}")


def _load_csv(path):
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise ValueError(f"{path}: expected 'rows cols' header")
        rows = _header_size(path, header[0], "rows")
        cols = _header_size(path, header[1], "cols")
        # np.loadtxt warns on stderr about a file without values
        data = np.array(fh.read().split(), dtype=float)
    if data.size != rows * cols:
        raise ValueError(f"{path}: expected {rows * cols} values, found "
                         f"{data.size}")
    return RasterKappa(data.reshape(rows, cols))


def _load_pgm(path):
    lo, hi = 1.0, 1e4
    tokens = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("#"):
                parts = line[1:].split()
                if parts[:1] == ["kappa-inv-map"]:
                    if len(parts) < 3:
                        bound = ("lo", "hi")[len(parts) - 1]
                        raise ValueError(f"{path}: '# kappa-inv-map lo hi' "
                                         f"lacks its {bound} bound")
                    lo, hi = float(parts[1]), float(parts[2])
                continue
            tokens.extend(line.split())
    if tokens[:1] != ["P2"]:
        raise ValueError(f"{path}: not a P2 PGM file")
    if len(tokens) < 4:
        field = ("width", "height", "maxval")[len(tokens) - 1]
        raise ValueError(f"{path}: PGM header lacks its {field} field")
    cols = _header_size(path, tokens[1], "width")
    rows = _header_size(path, tokens[2], "height")
    maxval = int(tokens[3])
    if maxval <= 0:
        raise ValueError(f"{path}: PGM maxval must be positive, got {maxval}")
    vals = np.array(tokens[4:4 + rows * cols], dtype=float)
    if vals.size != rows * cols:
        raise ValueError(f"{path}: expected {rows * cols} gray values, found "
                         f"{vals.size}")
    return RasterKappa(lo + (hi - lo) * vals.reshape(rows, cols) / maxval)


def sample_raster_path(name):
    """Path of one of the bundled synthetic rasters.

    Names: 'blocky', 'vuggy', 'fiber'.  All span four orders of magnitude
    in kappa^{-1}; they are synthetic stand-ins, not digitizations of any
    published field.
    """
    fname = {"blocky": "blocky32.csv", "vuggy": "vuggy32.csv",
             "fiber": "fiber32.csv"}.get(name)
    if fname is None:
        raise ValueError(f"unknown sample raster {name!r}")
    return resources.files("cdgbrinkman").joinpath("data", "rasters", fname)


# ---------------------------------------------------------------------------
# lid-style through-flow setting shared by the raster examples
# ---------------------------------------------------------------------------

def cavity_problem(kappa, mu=0.01):
    """Uniform-inflow problem: f = 0 and g = (1, 0) on all of the boundary."""

    def f(pts):
        return np.zeros((len(pts), 2))

    def g(pts):
        out = np.zeros((len(pts), 2))
        out[:, 0] = 1.0
        return out

    return BrinkmanProblem(mu=mu, kappa_inv=kappa, f=f, g=g)


def constant_flow_problem(kappa0=1.0, mu=0.01):
    """Variant with f = mu kappa^{-1} (1,0): exact solution u=(1,0), p=0."""
    return _stream_problem({(0, 1): 1}, {}, mu, kappa0)
