"""Projections, discrete norms, the error-equation oracle, and rate reports.

Error functions are measured against the per-cell L2 projections of the
exact solution: e = (projected velocity) - (discrete velocity) and
eps = (projected pressure) - (discrete pressure).  The velocity energy norm
uses the homogeneous weak gradient, since both terms of e carry the same
boundary datum.
"""

import csv
import io
import math
import time
from dataclasses import dataclass, field
from typing import List

import numpy as np

from ._blas import one_blas_thread
from .assembly import assemble_system
from .solver import solve

__all__ = [
    "project_velocity",
    "project_pressure",
    "norm_triple_bar",
    "norm_l2_velocity",
    "norm_l2_pressure",
    "norm_pressure_jump",
    "norm_triple_bar_1",
    "velocity_error_l2",
    "error_equation_residual",
    "ErrorReport",
    "ConvergenceReport",
    "run_convergence",
    "CSV_COLUMNS",
]


# ---------------------------------------------------------------------------
# per-cell L2 projections
# ---------------------------------------------------------------------------

def _sample(disc, fn):
    return np.asarray(fn(disc.cell_points), dtype=float)


@one_blas_thread
def project_velocity(disc, u_exact):
    """Projection onto the piecewise [P_k]^2 space, as a global DOF vector."""
    return disc.cell_moments(_sample(disc, u_exact), disc.dim_k).ravel()


@one_blas_thread
def project_pressure(disc, p_exact):
    """Projection onto the piecewise P_{k-1} space."""
    return disc.cell_moments(_sample(disc, p_exact), disc.dim_p).ravel()


# ---------------------------------------------------------------------------
# discrete norms
# ---------------------------------------------------------------------------

@one_blas_thread
def norm_triple_bar(disc, problem, u):
    """Velocity energy norm: sqrt(mu ||grad_w v||^2 + mu ||kinv^{1/2} v||^2).

    Matches a(v, v) of the assembled A block to roundoff.
    """
    kv = problem.kappa_inv_at(disc.cell_points)
    coef = u[disc.velocity_dofs]
    quad = kv * (disc.cell_values(coef) ** 2).sum(axis=-1)
    total = float((disc.cell_weights * quad).sum())
    total += sum(float((g ** 2).sum()) for g in disc.apply(disc.vel, coef))
    return math.sqrt(max(problem.mu * total, 0.0))


@one_blas_thread
def norm_l2_velocity(disc, u):
    """L2 norm of a velocity: in orthonormal bases, that of its coefficients."""
    return float(np.linalg.norm(u))


@one_blas_thread
def norm_l2_pressure(disc, p):
    """L2 norm of a pressure, the norm of its coefficients (as above)."""
    return float(np.linalg.norm(p))


def _pressure_jump_sq(disc, p, inverse_weight=False):
    # each pair of twin points once, from its lower index
    take = disc.edge_twin > np.arange(len(disc.edge_twin))
    q = disc.edge_values(p[disc.pressure_dofs])
    # ||[[q]]||^2 integrates |q_m n + q_p (-n)|^2 = (q_m - q_p)^2
    diff = q[take] - q[disc.edge_twin[take]]
    h = disc.mesh.h
    fac = 1.0 / h if inverse_weight else h
    return float((fac * disc.edge_weights[take] * diff ** 2).sum())


@one_blas_thread
def norm_pressure_jump(disc, p):
    """||q||_h: sqrt(sum_e h ||[[q]]||_e^2), same edge set as the stabilizer."""
    return math.sqrt(max(_pressure_jump_sq(disc, p), 0.0))


@one_blas_thread
def norm_triple_bar_1(disc, problem, p):
    """Pressure energy norm:
    sqrt(||kappa^{1/2} grad_w~ q||^2 + sum h^{-1}||[[q]]||^2)."""
    total = _pressure_jump_sq(disc, p, True)
    kv = problem.kappa_inv_at(disc.cell_points)
    grad = disc.cell_values(disc.apply(disc.pre, p[disc.pressure_dofs]))
    total += float((disc.cell_weights * (grad ** 2).sum(axis=-1) / kv).sum())
    return math.sqrt(max(total, 0.0))


@one_blas_thread
def velocity_error_l2(disc, u, u_exact):
    """||u_exact - u_h|| by quadrature (not the projected error)."""
    diff = _sample(disc, u_exact) - disc.cell_values(u[disc.velocity_dofs])
    total = float((disc.cell_weights * (diff ** 2).sum(axis=-1)).sum())
    return math.sqrt(max(total, 0.0))


# ---------------------------------------------------------------------------
# error-equation oracle
# ---------------------------------------------------------------------------

@one_blas_thread
def error_equation_residual(disc, problem, system, solution):
    """Residuals of the two exact discrete error identities.

    For every velocity test DOF I and pressure test DOF alpha the identities

      (A e + B eps)_I          = (-mu L1 + mu L2 - mu L0 - L3 - L3x)_I
      (B^T e - S eps)_alpha    = (L4 - S (projected p))_alpha

    hold to quadrature/solver precision, where e and eps are the projected
    errors and the L-terms measure the projection defects of the exact
    solution.  L0 (the permeability projection defect) and L3x (the pressure
    jump/average cross term) vanish for piecewise-constant permeability and
    continuous projected pressure respectively; both are kept so the
    identity is exact for every runnable problem.  Returns a dict with the
    per-equation max residuals and the scale max(1, |F|_inf).
    """
    mu = problem.mu
    u_cells = _sample(disc, problem.u)
    uQ = disc.cell_moments(u_cells, disc.dim_k).ravel()
    pQ = project_pressure(disc, problem.p)
    # the projected exact gradient, per class in the target space
    gQ = disc.cell_moments(_sample(disc, problem.grad_u))
    e = uQ - solution.u
    eps = pQ - solution.p

    lhs1 = system.A @ e + system.B @ eps
    lhs2 = system.B.T @ e - system.S @ eps

    # cell terms: L0 (permeability defect) and L1 (weak-gradient defect)
    kv = problem.kappa_inv_at(disc.cell_points)
    uc = uQ[disc.velocity_dofs]
    du = u_cells - disc.cell_values(uc)
    # L0: (kinv (u - Q_h u), phi)_T
    rhs1 = -mu * disc.cell_moments(kv[:, None] * du, disc.dim_k).ravel()
    # L1: (grad_w u - grad_w Q_h u, grad_w phi)_T with grad_w u realized as
    # the projected exact gradient
    lifts = disc.lifting(disc.boundary_values(problem.g))
    t = [q - g - f for q, g, f in zip(gQ, disc.apply(disc.vel, uc), lifts)]
    rhs1 -= mu * disc.apply_transpose(disc.vel, t).ravel()

    # edge terms per half-edge point, owner side; the twin is the other side
    pts, twin, n = disc.edge_points, disc.edge_twin, disc.edge_normal
    inner = twin >= 0
    gv, uv, pv = (np.asarray(fn(pts), dtype=float)
                  for fn in (problem.grad_u, problem.u, problem.p))
    gq = disc.edge_values(gQ)
    uq = disc.edge_values(uc)
    pq = disc.edge_values(pQ[disc.pressure_dofs])
    # L2: <(grad u - Q grad u) . n_side, v - {v}>; v - {v} = (v - v_other)/2
    # inside, v on the boundary (homogeneous average)
    d_own = np.einsum("nrs,ns->nr", gv - gq, n)
    d_other = -np.einsum("nrs,ns->nr", gv - gq[twin], n)
    l2 = np.where(inner[:, None], 0.5 * (d_own - d_other), d_own)
    # L3: <p - Q p, v . n_side>; L3x: <[[Q p]], {v}> on interior edges
    l3 = n * ((pv - pq) + np.where(inner, 0.5 * (pq - pq[twin]), 0.0))[:, None]
    rhs1 += disc.edge_moments(mu * l2 - l3, disc.dim_k).ravel()
    # L4: <(u - Q u) . n_side, q - {q}>; q - {q} = (q - q_other)/2 inside
    du = ((uv - uq) * n).sum(axis=1)
    du_other = -((uv - uq[twin]) * n).sum(axis=1)
    l4 = np.where(inner, 0.5 * (du - du_other), 0.0)
    rhs2 = disc.edge_moments(l4, disc.dim_p).ravel() - system.S @ pQ

    scale = max(1.0, float(np.abs(system.F).max()))
    return {
        "res_momentum": float(np.abs(lhs1 - rhs1).max()),
        "res_mass": float(np.abs(lhs2 - rhs2).max()),
        "scale": scale,
    }


# ---------------------------------------------------------------------------
# convergence reporting
# ---------------------------------------------------------------------------

CSV_COLUMNS = ["h", "dof_u", "dof_p", "trb_e", "ord_trb", "l2_e", "ord_l2",
               "l2_eps", "ord_eps", "h_eps", "ord_h_eps", "seconds"]


@dataclass
class ErrorReport:
    """Error norms of one solve at labeled mesh size h."""

    h: float
    trb_e: float
    l2_e: float
    l2_eps: float
    h_eps: float
    dof_u: int
    dof_p: int
    seconds: float


@dataclass
class ConvergenceReport:
    """Per-level error reports plus log2 rates between consecutive levels."""

    reports: List[ErrorReport] = field(default_factory=list)

    RATE_COLUMNS = ("trb_e", "l2_e", "l2_eps", "h_eps")

    def rates(self):
        """Dict column -> list of log2(err(h)/err(h/2)), None on level 0."""
        out = {c: [None] for c in self.RATE_COLUMNS}
        for prev, cur in zip(self.reports, self.reports[1:]):
            ratio = math.log2(prev.h / cur.h)
            for c in self.RATE_COLUMNS:
                a, b = getattr(prev, c), getattr(cur, c)
                if a > 0 and b > 0:
                    out[c].append(math.log2(a / b) / ratio)
                else:
                    out[c].append(None)
        return out

    def to_csv(self, path):
        rates = self.rates()

        def fmt(v):
            return "" if v is None else f"{v:.4f}"

        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_COLUMNS)
            for i, r in enumerate(self.reports):
                writer.writerow([
                    f"{r.h:.10g}", r.dof_u, r.dof_p,
                    f"{r.trb_e:.6e}", fmt(rates["trb_e"][i]),
                    f"{r.l2_e:.6e}", fmt(rates["l2_e"][i]),
                    f"{r.l2_eps:.6e}", fmt(rates["l2_eps"][i]),
                    f"{r.h_eps:.6e}", fmt(rates["h_eps"][i]),
                    f"{r.seconds:.3f}",
                ])

    def table(self):
        """Plain-text table in the error/order column layout."""
        rates = self.rates()
        buf = io.StringIO()
        head = (f"{'h':>8} {'|||e|||':>12} {'order':>7} {'||e||':>12} "
                f"{'order':>7} {'||eps||':>12} {'order':>7}")
        buf.write(head + "\n")
        for i, r in enumerate(self.reports):
            def o(col):
                v = rates[col][i]
                return "     --" if v is None else f"{v:7.4f}"

            buf.write(
                f"{_as_fraction(r.h):>8} {r.trb_e:12.4e} {o('trb_e')} "
                f"{r.l2_e:12.4e} {o('l2_e')} {r.l2_eps:12.4e} {o('l2_eps')}\n")
        return buf.getvalue()


def _as_fraction(h):
    inv = 1.0 / h
    if abs(inv - round(inv)) < 1e-9:
        return f"1/{round(inv)}"
    return f"{h:.4g}"


@one_blas_thread
def run_convergence(problem, mesh_factory, k, n_divs, on_level=None):
    """Solve a manufactured problem across refinement levels.

    ``mesh_factory`` maps n_div to a Mesh; n_divs should double so the
    labeled h halves.  Returns a ConvergenceReport; ``on_level`` (if given)
    receives each ErrorReport as it completes.
    """
    # imported per call: perfbench/op.py wraps weakgrad.Discretization
    from .weakgrad import Discretization

    report = ConvergenceReport()
    for n in n_divs:
        t0 = time.perf_counter()
        mesh = mesh_factory(n)
        disc = Discretization(mesh, k)
        system = assemble_system(disc, problem)
        sol = solve(system)
        uQ = project_velocity(disc, problem.u)
        pQ = project_pressure(disc, problem.p)
        e = uQ - sol.u
        eps = pQ - sol.p
        rep = ErrorReport(
            h=mesh.labeled_h,
            trb_e=norm_triple_bar(disc, problem, e),
            l2_e=norm_l2_velocity(disc, e),
            l2_eps=norm_l2_pressure(disc, eps),
            h_eps=norm_pressure_jump(disc, eps),
            dof_u=disc.n_velocity_dofs,
            dof_p=disc.n_pressure_dofs,
            seconds=time.perf_counter() - t0,
        )
        report.reports.append(rep)
        if on_level is not None:
            on_level(rep)
    return report
