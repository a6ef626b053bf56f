"""Command-line interface: convergence studies, single solves, patch tests.

Exit codes: 0 success, 1 numerical failure, 2 configuration error.
"""

import argparse
import math
import sys
from pathlib import Path

from ._blas import one_blas_thread
from .analysis import run_convergence
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
# the smallest n_div each generator accepts
_MIN_DIVISIONS = {"tri": 1, "rect": 1, "poly": 2}


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


def _check_at_least(flag, value, lowest, why=""):
    if value < lowest:
        raise ConfigError(f"{flag} must be >= {lowest}{why}, got {value}")


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

    pp = sub.add_parser("patchtest", help="polynomial exactness suite "
                        "(every family, k = 1..3, n = 4 and 8)")
    pp.add_argument("--tol", type=float, default=1e-9)
    return ap


def cmd_converge(args):
    factory = _mesh_factory(args.mesh)
    if factory is None:
        raise ConfigError("converge needs a refinable family (tri|rect|poly), "
                          "not --mesh file:PATH")
    levels = _parse_levels(args.levels)
    _check_at_least("--levels", levels[0], _MIN_DIVISIONS[args.mesh],
                    f" for --mesh {args.mesh}")
    _check_positive("--mu", args.mu)
    _check_positive("--a", args.a)
    problem = example1(mu=args.mu, a=args.a)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)

    def progress(rep):
        print(f"  h={rep.h:.6g}  dofs={rep.dof_u + rep.dof_p}  "
              f"{rep.seconds:.2f}s", flush=True)

    report = run_convergence(problem, factory, args.k, levels,
                             on_level=progress)
    csv_path = outdir / f"converge_{args.mesh}_k{args.k}.csv"
    report.to_csv(csv_path)
    print(report.table())
    print(f"wrote {csv_path}")
    return 0


def cmd_solve(args):
    # every configuration check runs before any mesh is built
    factory = _mesh_factory(args.mesh)
    if factory is not None:
        _check_at_least("--n", args.n, _MIN_DIVISIONS[args.mesh],
                        f" for --mesh {args.mesh}")
    _check_positive("--mu", args.mu)
    _check_positive("--a", args.a)
    _check_at_least("--resolution", args.resolution, 1)
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
    if factory is not None:
        mesh = factory(args.n)
    else:
        mesh = load_mesh(args.mesh[5:])
    disc = Discretization(mesh, args.k)
    system = assemble_system(disc, problem)
    solution = solve(system)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    fields = cell_center_fields(disc, solution.u, solution.p)
    write_vtk(outdir / "solution.vtk", mesh, fields)
    write_lattice_csv(outdir / "solution_grid.csv", disc, solution.u,
                      solution.p, resolution=args.resolution)
    write_summary(outdir / "summary.json", disc, solution, fields,
                  extra={"mesh": args.mesh, "k": args.k, "mu": args.mu,
                         "kappa_inv_range": list(system.kappa_inv_range)})
    print(f"solved {mesh.n_cells} cells, residual {solution.residual:.2e}")
    print(f"wrote {outdir / 'solution.vtk'}, {outdir / 'solution_grid.csv'}, "
          f"{outdir / 'summary.json'}")
    return 0


def cmd_patchtest(args):
    _check_positive("--tol", args.tol)
    failures = 0
    for fname, factory in _FAMILIES.items():
        for k in (1, 2, 3):
            report = run_convergence(polynomial_patch(k), factory, k, (4, 8))
            for n, rep in zip((4, 8), report.reports):
                ok = max(rep.trb_e, rep.l2_e, rep.l2_eps) <= args.tol
                failures += 0 if ok else 1
                print(f"{'PASS' if ok else 'FAIL'} {fname} k={k} 1/{n}: "
                      f"trb={rep.trb_e:.2e} l2={rep.l2_e:.2e} "
                      f"eps={rep.l2_eps:.2e}")
    return 0 if failures == 0 else 1


@one_blas_thread
def main(argv=None):
    ap = _build_parser()
    args = ap.parse_args(argv)
    try:
        if args.command == "converge":
            return cmd_converge(args)
        if args.command == "solve":
            return cmd_solve(args)
        if args.command == "patchtest":
            return cmd_patchtest(args)
        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, MeshFormatError, MeshValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
