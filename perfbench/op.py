"""One benchmark operation, run by run.py in a fresh interpreter.

The operation imports the package from the checkout's ``src/``, runs one
workload instance and writes a JSON result file with:

- ``import_done``: ``time.monotonic()`` when the package import finished
  (CLOCK_MONOTONIC is system-wide on Linux, so the parent can subtract its
  own spawn time from it);
- ``spans``: ``[name, layer, start, end, parent]`` for every wrapped call;
- ``facts``: ``[span, {...}]`` counts observed at those calls;
- ``outputs``: the values the correctness gates check;
- ``versions``: Python, numpy, scipy and OpenBLAS versions.

Spans come from wrappers installed by this file around the package's public
functions; the package itself is not modified.  Without ``--trace`` only the
probe set is wrapped (mesh generators, ``Discretization``, ``solve``,
``run_convergence`` and ``cli.main``: a few calls per operation), which
gives set-up time, residuals and error norms.  With ``--trace`` every name
that ``cdgbrinkman.cli`` and ``cdgbrinkman.analysis`` import, the public
functions of ``analysis`` itself and ``weakgrad.Discretization`` (which
``run_convergence`` imports at call time) are wrapped as well.
"""

import time

T_START = time.monotonic()

import argparse  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

PROBES = {"generate_uniform_triangular", "generate_uniform_rectangular",
          "generate_polygonal", "load_mesh", "Discretization", "solve",
          "run_convergence", "main"}


class Recorder:
    """Spans and per-call facts, kept in memory until the operation ends."""

    def __init__(self, full):
        self.full = full
        self.spans = []
        self.facts = []
        self.stack = []
        self.outputs = {}

    def wrap(self, fn, layer):
        name = fn.__name__
        observe = OBSERVERS.get(name) if self.full else LIGHT_OBSERVERS.get(name)
        track_rss = self.full and name == "solve"
        rec = self

        def wrapper(*args, **kwargs):
            idx = len(rec.spans)
            parent = rec.stack[-1] if rec.stack else -1
            span = [name, layer, 0.0, 0.0, parent]
            rec.spans.append(span)
            rec.stack.append(idx)
            rss0 = _maxrss_mb() if track_rss else 0.0
            span[2] = time.monotonic()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.monotonic()
                rec.stack.pop()
            if observe is not None:
                fact = observe(rec, args, result)
                if track_rss:
                    fact["rss_growth_mb"] = _maxrss_mb() - rss0
                rec.facts.append([idx, fact])
            return result

        wrapper.__name__ = name
        return wrapper


def _maxrss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _system_nnz(system):
    """Stored nonzeros of the constrained saddle matrix, from its blocks."""
    return int(system.A.nnz + 2 * system.B.nnz + system.S.nnz
               + 2 * (system.m != 0).sum())


def _observe_mesh(rec, args, mesh):
    return {"cells": mesh.n_cells,
            "shape_classes": len({c.edge_count for c in mesh.cells})}


def _observe_disc(rec, args, disc):
    return {"cells": disc.mesh.n_cells}


def _observe_system(rec, args, system):
    return {"matrix_nnz": _system_nnz(system)}


def _observe_solve(rec, args, sol):
    fact = {"residual": sol.residual,
            "dofs": len(sol.u) + len(sol.p) + 1}
    if rec.full:
        fact["nnz_factor"] = sol.stats.get("nnz_factor", 0)
        fact["matrix_nnz"] = _system_nnz(args[0])
    return fact


def _observe_convergence(rec, args, report):
    rec.outputs["levels"] = [[r.trb_e, r.l2_e, r.l2_eps, r.h_eps]
                             for r in report.reports]
    return {}


LIGHT_OBSERVERS = {"solve": _observe_solve,
                   "run_convergence": _observe_convergence}
OBSERVERS = dict(LIGHT_OBSERVERS,
                 generate_uniform_triangular=_observe_mesh,
                 generate_uniform_rectangular=_observe_mesh,
                 generate_polygonal=_observe_mesh,
                 load_mesh=_observe_mesh,
                 Discretization=_observe_disc,
                 assemble_system=_observe_system)


def _is_package_callable(obj):
    mod = getattr(obj, "__module__", "") or ""
    return mod.startswith("cdgbrinkman.") and inspect.isfunction(obj)


def install(rec):
    """Replace the package's public names with span-recording wrappers."""
    import cdgbrinkman
    from cdgbrinkman import analysis, cli, weakgrad

    targets = {weakgrad.Discretization}
    for module in (cli, analysis):
        for obj in vars(module).values():
            if _is_package_callable(obj) and obj.__module__ != module.__name__:
                targets.add(obj)
    targets.update(getattr(analysis, n) for n in analysis.__all__
                   if inspect.isfunction(getattr(analysis, n)))
    targets.add(cli.main)
    if not rec.full:
        targets = {t for t in targets if t.__name__ in PROBES}
    wrappers = {id(t): rec.wrap(t, t.__module__.rsplit(".", 1)[1])
                for t in targets}

    for module in (cdgbrinkman, cli, analysis):
        for attr, obj in list(vars(module).items()):
            if attr.startswith("__"):
                continue
            if isinstance(obj, dict):
                # name -> function tables such as cli's mesh families
                for key, val in list(obj.items()):
                    if id(val) in wrappers:
                        obj[key] = wrappers[id(val)]
            elif id(obj) in wrappers:
                setattr(module, attr, wrappers[id(obj)])
    weakgrad.Discretization = wrappers[id(weakgrad.Discretization)]


# ---------------------------------------------------------------------------
# library workloads (the CLI workloads run cli.main with run.py's argv)
# ---------------------------------------------------------------------------

def _solve_example1(cb, rec, mesh, k, a):
    disc = cb.Discretization(mesh, k)
    problem = cb.example1(mu=1.0, a=a)
    system = cb.assemble_system(disc, problem)
    sol = cb.solve(system)
    e = cb.project_velocity(disc, problem.u) - sol.u
    eps = cb.project_pressure(disc, problem.p) - sol.p
    rec.outputs["norms"] = [cb.norm_triple_bar(disc, problem, e),
                            cb.norm_l2_velocity(disc, e),
                            cb.norm_l2_pressure(disc, eps)]
    return disc, problem, system, sol


def darcy_rect_k3(cb, rec):
    mesh = cb.generate_uniform_rectangular(16)
    _solve_example1(cb, rec, mesh, 3, 1e4)


def oracle_poly_k2(cb, rec):
    mesh = cb.generate_polygonal(16)
    disc, problem, system, sol = _solve_example1(cb, rec, mesh, 2, 1.0)
    rec.outputs["oracle"] = cb.error_equation_residual(disc, problem, system,
                                                       sol)


LIBRARY = {"darcy-rect-k3": darcy_rect_k3, "oracle-poly-k2": oracle_poly_k2}


def _versions():
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        openblas = "unknown"
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": openblas}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("cli_args", nargs="*",
                    help="arguments for cdg-brinkman (CLI workloads)")
    args = ap.parse_args()

    if args.workload in LIBRARY:
        import cdgbrinkman as entry
    else:
        import cdgbrinkman.cli as entry
    import_done = time.monotonic()

    rec = Recorder(full=args.trace)
    install(rec)
    if args.workload in LIBRARY:
        LIBRARY[args.workload](entry, rec)
        code = 0
    else:
        code = entry.main(args.cli_args)

    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump({"start": T_START, "import_done": import_done,
                   "exit": code, "spans": rec.spans, "facts": rec.facts,
                   "outputs": rec.outputs, "versions": _versions()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
