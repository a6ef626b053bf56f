"""Command-line interface: convergence studies, single solves, patch tests.

Exit codes: 0 success, 1 numerical failure, 2 configuration error.
``CDG_THREADS`` caps BLAS/LAPACK parallelism for reproducible timings
through threadpoolctl.  Without threadpoolctl the cap cannot act, since
BLAS has loaded by then: a warning names the variables to set before
launch (OMP_NUM_THREADS, OPENBLAS_NUM_THREADS, MKL_NUM_THREADS).
"""

import argparse
import math
import os
import sys
from pathlib import Path

from .analysis import (norm_l2_pressure, norm_l2_velocity, norm_triple_bar,
                       project_pressure, project_velocity, run_convergence)
from .assembly import assemble_system
from .export import cell_center_fields, write_lattice_csv, write_summary, write_vtk
from .mesh import (MeshFormatError, MeshValidationError, generate_polygonal,
                   generate_uniform_rectangular, generate_uniform_triangular,
                   load_mesh)
from .problems import cavity_problem, example1, load_kappa_raster, polynomial_patch
from .solver import SolverError, solve
from .weakgrad import Discretization


class ConfigError(Exception):
    """Bad command-line configuration (exit code 2)."""


_FAMILIES = {
    "tri": generate_uniform_triangular,
    "rect": generate_uniform_rectangular,
    "poly": generate_polygonal,
}


def _apply_thread_cap():
    cap = os.environ.get("CDG_THREADS")
    if not cap:
        return
    try:
        n = max(1, int(cap))
    except ValueError:
        raise ConfigError(f"CDG_THREADS must be an integer, got {cap!r}")
    try:
        import threadpoolctl
    except ImportError:
        # BLAS read its thread variables when numpy loaded, before this runs
        print(f"warning: CDG_THREADS={n} not applied: threadpoolctl is not "
              "installed; set OMP_NUM_THREADS, OPENBLAS_NUM_THREADS and "
              "MKL_NUM_THREADS before launch instead", file=sys.stderr)
        return
    threadpoolctl.threadpool_limits(n)


def _parse_levels(spec):
    try:
        a, b = spec.split("..")
        lo, hi = int(a), int(b)
    except ValueError:
        raise ConfigError(f"--levels expects 'A..B', got {spec!r}")
    if lo < 1 or hi < lo:
        raise ConfigError(f"--levels range {spec!r} is not increasing")
    levels = []
    n = lo
    while n < hi:
        levels.append(n)
        n *= 2
    if n != hi:
        raise ConfigError(f"--levels end {hi} is not {lo} times a power of 2")
    levels.append(hi)
    return levels


def _check_positive(flag, value):
    if not (math.isfinite(value) and value > 0.0):
        raise ConfigError(f"{flag} must be finite and positive, got {value}")


def _mesh_factory(spec):
    if spec in _FAMILIES:
        return _FAMILIES[spec]
    if spec.startswith("file:"):
        path = spec[5:]
        if not Path(path).exists():
            raise ConfigError(f"--mesh file not found: {path}")
        return None
    raise ConfigError(f"--mesh must be tri|rect|poly|file:PATH, got {spec!r}")


def _add_common(p):
    p.add_argument("--k", type=int, default=1, choices=(1, 2, 3),
                   help="velocity polynomial degree")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--stabilizer-edges", default="interior",
                   choices=("interior", "all"),
                   help="edge set of the pressure jump stabilizer")
    p.add_argument("--s-weight", default="global-h",
                   choices=("global-h", "edge-h"),
                   help="h factor in the stabilizer")
    p.add_argument("--orthonormalize", action="store_true",
                   help="orthonormalize the cell bases (Gram-Cholesky)")


def _build_parser():
    ap = argparse.ArgumentParser(
        prog="cdg-brinkman",
        description="Polytopal CDG solver for Brinkman flow")
    sub = ap.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("converge", help="manufactured-solution rate study")
    pc.add_argument("--mesh", default="tri", help="tri|rect|poly")
    pc.add_argument("--mu", type=float, default=1.0)
    pc.add_argument("--a", type=float, default=1.0,
                    help="inverse-permeability amplitude")
    pc.add_argument("--levels", default="4..32", help="n_div range, e.g. 4..64")
    _add_common(pc)

    ps = sub.add_parser("solve", help="single solve with field export")
    ps.add_argument("--mesh", default="rect", help="tri|rect|poly|file:PATH")
    ps.add_argument("--n", type=int, default=128,
                    help="mesh resolution for generated families")
    ps.add_argument("--mu", type=float, default=0.01)
    ps.add_argument("--a", type=float, default=1.0,
                    help="amplitude when no raster is given")
    ps.add_argument("--kappa-raster", default=None,
                    help="CSV or PGM raster of kappa^{-1} over the unit square")
    ps.add_argument("--resolution", type=int, default=128,
                    help="sampling lattice for the CSV export")
    _add_common(ps)

    pp = sub.add_parser("patchtest", help="polynomial exactness suite")
    pp.add_argument("--all", action="store_true",
                    help="run every family and degree (default)")
    pp.add_argument("--tol", type=float, default=1e-9)
    _add_common(pp)
    return ap


def cmd_converge(args):
    factory = _mesh_factory(args.mesh)
    if factory is None:
        raise ConfigError("converge needs a refinable family (tri|rect|poly), "
                          "not --mesh file:PATH")
    levels = _parse_levels(args.levels)
    _check_positive("--mu", args.mu)
    _check_positive("--a", args.a)
    problem = example1(mu=args.mu, a=args.a)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)

    def progress(rep):
        print(f"  h={rep.h:.6g}  dofs={rep.dof_u + rep.dof_p}  "
              f"{rep.seconds:.2f}s", flush=True)

    report = run_convergence(problem, factory, args.k, levels,
                             orthonormalize=args.orthonormalize,
                             stabilizer_edges=args.stabilizer_edges,
                             s_weight=args.s_weight, on_level=progress)
    csv_path = outdir / f"converge_{args.mesh}_k{args.k}.csv"
    report.to_csv(csv_path)
    print(report.table())
    print(f"wrote {csv_path}")
    return 0


def cmd_solve(args):
    factory = _mesh_factory(args.mesh)
    _check_positive("--mu", args.mu)
    _check_positive("--a", args.a)
    if factory is not None:
        mesh = factory(args.n)
    else:
        mesh = load_mesh(args.mesh[5:])
    if args.kappa_raster is not None:
        if not Path(args.kappa_raster).exists():
            raise ConfigError(f"--kappa-raster file not found: {args.kappa_raster}")
        try:
            kappa = load_kappa_raster(args.kappa_raster)
        except ValueError as exc:
            raise ConfigError(f"--kappa-raster {args.kappa_raster}: {exc}")
        print(f"kappa^-1 range: [{kappa.vmin:.4g}, {kappa.vmax:.4g}]")
        problem = cavity_problem(kappa, mu=args.mu)
    else:
        problem = example1(mu=args.mu, a=args.a)
    disc = Discretization(mesh, args.k, orthonormalize=args.orthonormalize)
    system = assemble_system(disc, problem,
                             stabilizer_edges=args.stabilizer_edges,
                             s_weight=args.s_weight)
    solution = solve(system)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    fields = cell_center_fields(disc, solution.u, solution.p)
    write_vtk(outdir / "solution.vtk", mesh, fields)
    write_lattice_csv(outdir / "solution_grid.csv", disc, solution.u,
                      solution.p, resolution=args.resolution)
    write_summary(outdir / "summary.json", disc, solution,
                  extra={"mesh": args.mesh, "k": args.k, "mu": args.mu})
    print(f"solved {mesh.n_cells} cells, residual {solution.residual:.2e}")
    print(f"wrote {outdir / 'solution.vtk'}, {outdir / 'solution_grid.csv'}, "
          f"{outdir / 'summary.json'}")
    return 0


def cmd_patchtest(args):
    failures = 0
    for fname, factory in _FAMILIES.items():
        for k in (1, 2, 3):
            for n in (4, 8):
                mesh = factory(n)
                disc = Discretization(mesh, k,
                                      orthonormalize=args.orthonormalize)
                problem = polynomial_patch(k)
                system = assemble_system(
                    disc, problem, stabilizer_edges=args.stabilizer_edges,
                    s_weight=args.s_weight)
                sol = solve(system)
                e = project_velocity(disc, problem.u) - sol.u
                eps = project_pressure(disc, problem.p) - sol.p
                trb = norm_triple_bar(disc, problem, e)
                l2 = norm_l2_velocity(disc, e)
                lp = norm_l2_pressure(disc, eps)
                worst = max(trb, l2, lp)
                ok = worst <= args.tol
                failures += 0 if ok else 1
                print(f"{'PASS' if ok else 'FAIL'} {fname} k={k} 1/{n}: "
                      f"trb={trb:.2e} l2={l2:.2e} eps={lp:.2e}")
    return 0 if failures == 0 else 1


def main(argv=None):
    ap = _build_parser()
    args = ap.parse_args(argv)
    try:
        _apply_thread_cap()
        if args.command == "converge":
            return cmd_converge(args)
        if args.command == "solve":
            return cmd_solve(args)
        if args.command == "patchtest":
            return cmd_patchtest(args)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (MeshFormatError, MeshValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
