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

from .assembly import assemble_system
from .solver import solve

__all__ = [
    "project_velocity",
    "project_pressure",
    "project_tensor",
    "norm_triple_bar",
    "norm_l2_velocity",
    "norm_l2_pressure",
    "norm_pressure_jump",
    "norm_triple_bar_1",
    "velocity_error_l2",
    "pressure_error_l2",
    "error_equation_residual",
    "ErrorReport",
    "ConvergenceReport",
    "run_convergence",
    "CSV_COLUMNS",
]


# ---------------------------------------------------------------------------
# per-cell L2 projections
# ---------------------------------------------------------------------------

def _cell_values(disc, fn):
    """``fn`` at every cell quadrature point, split per shape class."""
    return disc.split(np.asarray(fn(disc.cell_points), dtype=float))


def _padded(x):
    """x with a trailing zero: gathers at the -1 of a boundary slot read 0."""
    return np.append(x, 0.0)


def project_velocity(disc, u_exact):
    """Projection onto the piecewise [P_k]^2 space, as a global DOF vector."""
    out = np.zeros(disc.n_velocity_dofs)
    for cls, uv in zip(disc.classes, _cell_values(disc, u_exact)):
        rhs = cls.phi[:, :disc.dim_k] @ (cls.weights[..., None] * uv)
        out[disc.velocity_dofs[cls.cells]] = (
            cls.gram_solve(rhs).transpose(0, 2, 1))
    return out


def project_pressure(disc, p_exact):
    """Projection onto the piecewise P_{k-1} space."""
    out = np.zeros(disc.n_pressure_dofs)
    for cls, pv in zip(disc.classes, _cell_values(disc, p_exact)):
        rhs = cls.phi[:, :disc.dim_p] @ (cls.weights * pv)[..., None]
        out[disc.pressure_dofs[cls.cells]] = cls.gram_solve(rhs)[..., 0]
    return out


def _tensor_coefficients(disc, grad_exact):
    """Per-class target-space coefficients (nc, 2, 2, dim_j) of a tensor."""
    out = []
    for cls, gv in zip(disc.classes, _cell_values(disc, grad_exact)):
        nc, nq = cls.weights.shape
        wg = (cls.weights[..., None] * gv.reshape(nc, nq, 4))
        coef = cls.gram_solve(cls.phi @ wg)
        out.append(coef.transpose(0, 2, 1).reshape(nc, 2, 2, cls.dim))
    return out


def project_tensor(disc, grad_exact):
    """Per-cell projection of a 2x2 tensor field onto the target space.

    Returns a list over cells of arrays (2, 2, dim_j): coefficients of each
    tensor entry in the cell's weak-gradient basis.
    """
    out = [None] * disc.mesh.n_cells
    for cls, coef in zip(disc.classes, _tensor_coefficients(disc, grad_exact)):
        for c, cc in zip(cls.cells, coef):
            out[c] = cc
    return out


# ---------------------------------------------------------------------------
# discrete norms
# ---------------------------------------------------------------------------

def norm_triple_bar(disc, problem, u):
    """Velocity energy norm: sqrt(mu ||grad_w v||^2 + mu ||kinv^{1/2} v||^2).

    Matches a(v, v) of the assembled A block to roundoff.
    """
    kv, tensor = problem.kappa_inv_at(disc.cell_points)
    up = _padded(u)
    total = 0.0
    for cls, vel, kc in zip(disc.classes, disc.vel, disc.split(kv)):
        vals = cls.values(u[disc.velocity_dofs[cls.cells]])
        if tensor:
            quad = np.einsum("cqr,cqrs,cqs->cq", vals, kc, vals)
        else:
            quad = kc * (vals ** 2).sum(axis=-1)
        total += problem.mu * float((cls.weights * quad).sum())
        for comp in (0, 1):
            loc = up[disc.columns(cls, disc.velocity_dofs[:, comp])]
            total += problem.mu * float(((vel.Z @ loc[..., None]) ** 2).sum())
    return math.sqrt(max(total, 0.0))


def norm_l2_velocity(disc, u):
    total = sum(cls.mass_sq(u[disc.velocity_dofs[cls.cells]])
                for cls in disc.classes)
    return math.sqrt(max(total, 0.0))


def norm_l2_pressure(disc, p):
    total = sum(cls.mass_sq(p[disc.pressure_dofs[cls.cells]])
                for cls in disc.classes)
    return math.sqrt(max(total, 0.0))


def _pressure_jump_sq(disc, p, inverse_weight=False, edges="interior",
                      weight="global-h"):
    take, h = disc.jump_points(edges, weight)
    q = disc.edge_values(p[disc.pressure_dofs])
    twin = disc.edge_twin
    # ||[[q]]||^2 integrates |q_m n + q_p (-n)|^2 = (q_m - q_p)^2
    diff = np.where(twin >= 0, q - q[twin], q)[take]
    fac = 1.0 / h[take] if inverse_weight else h[take]
    return float((fac * disc.edge_weights[take] * diff ** 2).sum())


def norm_pressure_jump(disc, p, edges="interior", weight="global-h"):
    """||q||_h: sqrt(sum_e h ||[[q]]||_e^2), same edge set as the stabilizer."""
    return math.sqrt(max(_pressure_jump_sq(disc, p, False, edges, weight), 0.0))


def norm_triple_bar_1(disc, problem, p, edges="interior", weight="global-h"):
    """Pressure energy norm: sqrt(||kappa^{1/2} grad_w~ q||^2 + sum h^{-1}||[[q]]||^2).

    Scalar permeability only (the tensor square root is not needed by any
    runnable problem).
    """
    total = _pressure_jump_sq(disc, p, True, edges, weight)
    kv, tensor = problem.kappa_inv_at(disc.cell_points)
    if tensor:
        raise NotImplementedError(
            "triple-bar-1 norm supports scalar permeability only")
    pp = _padded(p)
    for cls, pre, kc in zip(disc.classes, disc.pre, disc.split(kv)):
        loc = pp[disc.columns(cls, disc.pressure_dofs)]
        coef = (pre.W @ loc[..., None])[..., 0]
        grad = cls.values(coef.transpose(1, 0, 2))
        total += float((cls.weights * (grad ** 2).sum(axis=-1) / kc).sum())
    return math.sqrt(max(total, 0.0))


def velocity_error_l2(disc, u, u_exact):
    """||u_exact - u_h|| by quadrature (not the projected error)."""
    total = 0.0
    for cls, ex in zip(disc.classes, _cell_values(disc, u_exact)):
        vals = cls.values(u[disc.velocity_dofs[cls.cells]])
        total += float((cls.weights * ((ex - vals) ** 2).sum(axis=-1)).sum())
    return math.sqrt(max(total, 0.0))


def pressure_error_l2(disc, p, p_exact):
    total = 0.0
    for cls, ex in zip(disc.classes, _cell_values(disc, p_exact)):
        vals = cls.values(p[disc.pressure_dofs[cls.cells]])
        total += float((cls.weights * (ex - vals) ** 2).sum())
    return math.sqrt(max(total, 0.0))


# ---------------------------------------------------------------------------
# error-equation oracle
# ---------------------------------------------------------------------------

def error_equation_residual(disc, problem, system, solution,
                            stabilizer_edges="interior", s_weight="global-h"):
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
    n_u, dk, dp = disc.n_velocity_dofs, disc.dim_k, disc.dim_p
    uQ = project_velocity(disc, problem.u)
    pQ = project_pressure(disc, problem.p)
    gQ = _tensor_coefficients(disc, problem.grad_u)
    e = uQ - solution.u
    eps = pQ - solution.p

    lhs1 = system.A @ e + system.B @ eps
    lhs2 = system.B.T @ e - system.S @ eps

    rhs1 = np.zeros(n_u)
    kv, tensor = problem.kappa_inv_at(disc.cell_points)
    lifts = disc.boundary_lifting_rhs(disc.boundary_values(problem.g))
    up = _padded(uQ)

    # cell terms: L1 (weak-gradient defect) and L0 (permeability defect)
    for cls, vel, kc, uv, gq, lift in zip(
            disc.classes, disc.vel, disc.split(kv),
            _cell_values(disc, problem.u), gQ, lifts):
        own = disc.velocity_dofs[cls.cells]
        du = uv - cls.values(uQ[own])
        kdu = (np.einsum("cqrs,cqs->cqr", kc, du) if tensor
               else kc[..., None] * du)
        # L0: (kinv (u - Q_h u), phi)_T
        rhs1[own] -= mu * (cls.phi[:, :dk] @ (cls.weights[..., None] * kdu)
                           ).transpose(0, 2, 1)
        for comp in (0, 1):
            # L1: (grad_w u - grad_w Q_h u, grad_w phi)_T with grad_w u
            # realized as the projected exact gradient
            cols = disc.columns(cls, disc.velocity_dofs[:, comp])
            grad_q = (vel.W @ up[cols][..., None])[..., 0]
            t = gq[:, comp].transpose(1, 0, 2) - grad_q
            t -= cls.gram_solve(
                lift[comp].transpose(1, 2, 0)).transpose(2, 0, 1)
            contrib = (t[:, :, None, :] @ vel.B)[:, :, 0].sum(axis=0)
            keep = cols >= 0
            rhs1 -= mu * np.bincount(cols[keep], contrib[keep], minlength=n_u)

    # edge terms per half-edge point, owner side; the twin is the other side
    pts, twin, n = disc.edge_points, disc.edge_twin, disc.edge_normal
    inner = twin >= 0
    gv = np.asarray(problem.grad_u(pts), dtype=float)
    uv = np.asarray(problem.u(pts), dtype=float)
    pv = np.asarray(problem.p(pts), dtype=float)
    gq = np.empty_like(gv)
    for cls, coef in zip(disc.classes, gQ):
        for g in cls.groups:
            gq[g.start:g.stop] = np.einsum("crsd,cdq->cqrs", coef[g.slot],
                                           g.phi).reshape(-1, 2, 2)
    uq = disc.edge_values(uQ[disc.velocity_dofs])
    pq = disc.edge_values(pQ[disc.pressure_dofs])
    # L2: <(grad u - Q grad u) . n_side, v - {v}>; v - {v} = (v - v_other)/2
    # inside, v on the boundary (homogeneous average)
    d_own = np.einsum("nrs,ns->nr", gv - gq, n)
    d_other = -np.einsum("nrs,ns->nr", gv - gq[twin], n)
    l2 = np.where(inner[:, None], 0.5 * (d_own - d_other), d_own)
    # L3: <p - Q p, v . n_side>; L3x: <[[Q p]], {v}> on interior edges
    l3 = n * ((pv - pq) + np.where(inner, 0.5 * (pq - pq[twin]), 0.0))[:, None]
    w = disc.edge_weights[:, None]
    vel_dofs = disc.velocity_dofs[disc.edge_owner]
    rhs1 += np.bincount(vel_dofs.ravel(), (
        disc.trace_k[:, None, :] * (w * (mu * l2 - l3))[..., None]).ravel(),
        minlength=n_u)
    # L4: <(u - Q u) . n_side, q - {q}>; q - {q} = (q - q_other)/2 inside
    du = ((uv - uq) * n).sum(axis=1)
    du_other = -((uv - uq[twin]) * n).sum(axis=1)
    l4 = np.where(inner, 0.5 * (du - du_other), 0.0)
    rhs2 = np.bincount(disc.pressure_dofs[disc.edge_owner].ravel(),
                       (disc.trace_k[:, :dp] * (w * l4[:, None])).ravel(),
                       minlength=disc.n_pressure_dofs)
    rhs2 -= system.S @ pQ

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
    trb1_eps: float
    dof_u: int
    dof_p: int
    seconds: float


@dataclass
class ConvergenceReport:
    """Per-level error reports plus log2 rates between consecutive levels."""

    reports: List[ErrorReport] = field(default_factory=list)

    RATE_COLUMNS = ("trb_e", "l2_e", "l2_eps", "h_eps", "trb1_eps")

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

    def final_rate(self, column):
        r = self.rates()[column]
        return r[-1] if r and r[-1] is not None else float("nan")

    def to_csv(self, path_or_buf):
        rates = self.rates()

        def fmt(v):
            return "" if v is None else f"{v:.4f}"

        close = False
        if isinstance(path_or_buf, (str, bytes)) or hasattr(path_or_buf, "__fspath__"):
            fh = open(path_or_buf, "w", newline="", encoding="utf-8")
            close = True
        else:
            fh = path_or_buf
        try:
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
        finally:
            if close:
                fh.close()

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


def run_convergence(problem, mesh_factory, k, n_divs, orthonormalize=False,
                    stabilizer_edges="interior", s_weight="global-h",
                    on_level=None):
    """Solve a manufactured problem across refinement levels.

    ``mesh_factory`` maps n_div to a Mesh; n_divs should double so the
    labeled h halves.  Returns a ConvergenceReport; ``on_level`` (if given)
    receives each ErrorReport as it completes.
    """
    from .weakgrad import Discretization

    report = ConvergenceReport()
    for n in n_divs:
        t0 = time.perf_counter()
        mesh = mesh_factory(n)
        disc = Discretization(mesh, k, orthonormalize=orthonormalize)
        system = assemble_system(disc, problem,
                                 stabilizer_edges=stabilizer_edges,
                                 s_weight=s_weight)
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
            h_eps=norm_pressure_jump(disc, eps, edges=stabilizer_edges,
                                     weight=s_weight),
            trb1_eps=norm_triple_bar_1(disc, problem, eps,
                                       edges=stabilizer_edges,
                                       weight=s_weight),
            dof_u=disc.n_velocity_dofs,
            dof_p=disc.n_pressure_dofs,
            seconds=time.perf_counter() - t0,
        )
        report.reports.append(rep)
        if on_level is not None:
            on_level(rep)
    return report
