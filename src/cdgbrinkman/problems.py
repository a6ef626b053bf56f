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
from typing import Callable, Optional

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


def polynomial_patch(k, mu=1.0, kappa0=1.0):
    """Divergence-free polynomial solution of degree k with p in P_{k-1}.

    Constant kappa^{-1} = kappa0 and zero-mean pressure on the unit square;
    exactly representable in the degree-k spaces, so the scheme reproduces
    it to roundoff.
    """
    if k == 1:
        # u from stream psi = x y + y^2/2 - x^2/2 (affine gradient)
        def u(pts):
            x, y = pts[:, 0], pts[:, 1]
            return np.column_stack([1.0 + x + y, 2.0 - y - x])

        def grad_u(pts):
            g = np.empty((len(pts), 2, 2))
            g[:, 0, 0] = 1.0
            g[:, 0, 1] = 1.0
            g[:, 1, 0] = -1.0
            g[:, 1, 1] = -1.0
            return g

        def p(pts):
            return np.zeros(len(pts))

        def grad_p(pts):
            return np.zeros((len(pts), 2))

        lap = (0.0, 0.0)
    elif k == 2:
        # stream psi = x^3 + y^3 + x^2 y
        def u(pts):
            x, y = pts[:, 0], pts[:, 1]
            return np.column_stack([3 * y * y + x * x,
                                    -3 * x * x - 2 * x * y])

        def grad_u(pts):
            x, y = pts[:, 0], pts[:, 1]
            g = np.empty((len(pts), 2, 2))
            g[:, 0, 0] = 2 * x
            g[:, 0, 1] = 6 * y
            g[:, 1, 0] = -6 * x - 2 * y
            g[:, 1, 1] = -2 * x
            return g

        def p(pts):
            return pts[:, 0] - 0.5

        def grad_p(pts):
            out = np.zeros((len(pts), 2))
            out[:, 0] = 1.0
            return out

        lap = (8.0, -6.0)
    elif k == 3:
        # stream psi = x^4 + y^4 - x^3 y
        def u(pts):
            x, y = pts[:, 0], pts[:, 1]
            return np.column_stack([4 * y ** 3 - x ** 3,
                                    -4 * x ** 3 + 3 * x * x * y])

        def grad_u(pts):
            x, y = pts[:, 0], pts[:, 1]
            g = np.empty((len(pts), 2, 2))
            g[:, 0, 0] = -3 * x * x
            g[:, 0, 1] = 12 * y * y
            g[:, 1, 0] = -12 * x * x + 6 * x * y
            g[:, 1, 1] = 3 * x * x
            return g

        def p(pts):
            x, y = pts[:, 0], pts[:, 1]
            return x * x + y * y - 2.0 / 3.0

        def grad_p(pts):
            return 2.0 * pts

        def lapf(pts):
            x, y = pts[:, 0], pts[:, 1]
            return np.column_stack([-6 * x + 24 * y, -24 * x + 6 * y])
    else:
        raise ValueError("patch solutions cover k in {1, 2, 3}")

    def kappa_inv(pts):
        return np.full(len(pts), kappa0)

    if k == 3:
        def f(pts):
            return (-mu * lapf(pts) + mu * kappa0 * u(pts) + grad_p(pts))
    else:
        def f(pts):
            lap_arr = np.broadcast_to(np.asarray(lap), (len(pts), 2))
            return -mu * lap_arr + mu * kappa0 * u(pts) + grad_p(pts)

    return ManufacturedProblem(mu=mu, kappa_inv=kappa_inv, f=f, g=u,
                               u=u, grad_u=grad_u, p=p)


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


def _load_csv(path):
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise ValueError(f"{path}: expected 'rows cols' header")
        rows, cols = int(header[0]), int(header[1])
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
    cols, rows, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
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

    def kappa_inv(pts):
        return np.full(len(pts), kappa0)

    def u(pts):
        out = np.zeros((len(pts), 2))
        out[:, 0] = 1.0
        return out

    def grad_u(pts):
        return np.zeros((len(pts), 2, 2))

    def p(pts):
        return np.zeros(len(pts))

    def f(pts):
        out = np.zeros((len(pts), 2))
        out[:, 0] = mu * kappa0
        return out

    return ManufacturedProblem(mu=mu, kappa_inv=kappa_inv, f=f, g=u,
                               u=u, grad_u=grad_u, p=p)
