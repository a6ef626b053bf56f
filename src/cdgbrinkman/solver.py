"""Sparse symmetric quasi-definite solves for the saddle system.

The discrete problem is the bordered system

    [[A, B, 0], [B^T, -S, m], [0, m^T, 0]] [u; p; lam] = [F; G; 0],

whose last row fixes the pressure's constant mode by its zero mean.  The
solver never forms it.  Let c hold the pressure coefficients of the
constant function 1; in the orthonormal cell bases these are its moments,
so c = m.  Then B c = 0, and S c = 0
because S sums pressure jumps over interior edges only, where a constant
has none; so [0; c] spans the null space of K = [[A, B], [B^T, -S]].
Dotting the pressure rows with c gives the multiplier in closed form,
lam = c^T G / c^T m, and K [u; p] = [F; G - lam m] is then compatible,
even for a G that is not: lam absorbs the net flux.  Any solution of it is
moved along c to zero mean, p -= (m^T p / m^T c) c.  The dense row and
column of m never enter the factor.

K is Jacobi-equilibrated, and each scaled pressure diagonal entry is
shifted by -DELTA max(1, b_i), b_i the squared norm of its scaled column of
B.  With A positive definite and -S - shift negative definite the matrix is
quasi-definite, so it has a stable LDL^T factorization for every symmetric
ordering, with D = +1 on the velocities and -1 on the pressures (Vanderbei
1995, SIAM J. Optim. 5:100).  No pivot is ever chosen by value, so the
factor's size follows the pattern alone.  A pressure eliminated before
some of the velocities it couples to leaves entries of about b_i / shift
in the factor, which the max(1, b_i) keeps below 1/DELTA: with a shift of
DELTA alone, k = 3 at mu = 1e-3, a = 1 (b_i near 25) gave entries of 1e7,
and the float32 solve missed by more than the residual itself.

The factor is multifrontal over cell blocks (Duff & Reid 1983, ACM TOMS
9:302; Liu 1992, SIAM Rev. 34:82).  The symbolic phase dissects the cell
centroids (George 1973, SIAM J. Numer. Anal. 10:345): a subdomain of more
than LEAF_CELLS cells is halved at the median of its wider extent, and
the cells of the half with the thinner layer that K couples to the other
half form the separator.  A couples cells at distance 2 (A_T reads T and
its neighbours), so a separator is two cells wide; its cells next to the
rest of their half come last, so that each child's update reaches the
separator's pressures, which couple at distance 1, in one run.  Every tree
node is one dense front: its pivots are the DOFs of its cells, velocities
first, and its update DOFs those of its ancestors that its subtree couples
to.  The
tree gives the factor's exact size, its flop count and its largest working
set before any numeric work, so a factor that cannot fit in the available
memory is refused up front.

The numeric phase runs the fronts in postorder.  A front is assembled
from K's entries and its children's updates (extend-add), and its pivot
block [[H, A_up], [A_up^T, -G]] is factored by two Cholesky factors,
H = L_H L_H^T and G + W^T W = L_S L_S^T with W = L_H^{-1} A_up, which exist
because every Schur complement of a quasi-definite matrix is
quasi-definite.  A recursion over halves returns L_H^{-1} and L_S^{-1} by
matrix products (_inv_chol).  With Y = L^{-1} F_12 for the pivot block's
factor L, the front passes the lower block triangle of F_22 - Y^T (D Y) to
its parent and keeps L^{-1} and D Y, so the solve is matrix-vector
products.  Every dense kernel is numpy's, and the package loads no other
BLAS: scipy bundles an OpenBLAS of its own, and the two thread pools, used
in turn, slowed a 200 x 200 front eightfold at two threads.

K is factored once, in float32, which halves the factor's memory; the
residuals, corrections, multiplier and zero-mean step stay in float64.
DELTA = 1e-6 is about 8 ulp of a unit diagonal in float32, so the shift
survives the cast.  Each front sums W^T W, and factors G + W^T W, in
float64, and only then rounds L_S^{-1} to float32: W^T W is semidefinite
for any W, so the sum is at least as definite as G.  Along c the exact sum
is as small as the shift, while float32 sums of W^T W carry errors of about
6e-8 |W|^2; at rect n=3, k=3, mu=1e-3, a=1 (|W|^2 near 200, a shift near
2e-5) they made the block indefinite.  With the float64 sum, every input of
a regime scan (tri/rect/poly, n = 3..6, k = 1..3, mu = 1e-3..1, a = 1 and
1e4) factors at a tenth of DELTA too; with the float32 sum, 57 of its 216
inputs did not.

Each refinement sweep against the unshifted K (static pivots plus
refinement, Li & Demmel 1998, SC'98) solves K d = r for its
correction by right-preconditioned GMRES, the preconditioner being the
float32 solve followed by the zero-mean step, which removes the direction
c that the shift turns from null into nearly null.  GMRES stops once its
Arnoldi residual estimate falls to INNER_RTOL |r| (GMRES-based refinement,
Carson & Higham 2018, SIAM J. Sci. Comput. 40:A817; flexible GMRES, Arioli
& Duff 2009, ETNA 33:31).  The sweeps go on while each at least halves the
relative residual of K, up to MAX_SWEEPS, and keep the iterate with the
smallest; a single GMRES run instead left p at rect n=16, k=3, a=1e4 at
best 5e-12 from an extended-precision reference, the sweeps 1.1e-12.  The
rules depend on the values alone, so a re-run is bit-identical.

A solve runs numpy's OpenBLAS on one thread, as every entry point of the
package does (see ``_blas``), and the fronts of most factors are too small
to gain from more: on a 2-CPU host, fronts under about 3e7 flops ran
10-28 % slower at two threads than at one, and only those over about 1e8
flops gained, by 12-17 %.  So a solve takes more threads only where the
symbolic phase counts at least _THREADED_FLOPS flops in the whole factor:
then the factor and the refinement run at the caller's count, and when the
solve ends, an enclosing scope (``cli.main``, ``run_convergence``) gets one
thread back.  Switching per front instead restarted OpenBLAS's spinning
workers at every large front.  Below the gate the result does not depend
on the caller's count.
"""

from dataclasses import dataclass, field

import numpy as np

from ._blas import one_thread

__all__ = ["Solution", "SolverError", "SingularSystemError", "solve"]

# the least shift of the scaled pressure diagonal, the cap on refinement
# sweeps, each sweep's GMRES tolerance relative to the sweep's residual and
# its step cap, and the most cells of a leaf front (see the module
# docstring)
DELTA = 1e-6
MAX_SWEEPS = 10
INNER_RTOL = 1e-2
MAX_INNER = 30
LEAF_CELLS = 16
# the order up to which _inv_chol takes numpy's cholesky and inv
_INV_BLOCK = 64
# the least factor flop count at which the factor and the refinement run at
# the caller's BLAS thread count; every other solve runs on one thread.  On
# a 2-CPU host no factor of 1.21 GFLOP or less (rect n=32, k=1: 0.76; tri
# n=32, k=1: 1.08; poly n=16, k=2: 1.21) solved faster at two threads than
# at one, while rect n=16, k=3, a=1e4 (3.58), tri n=64, k=1 (9.8) and rect
# n=24, k=3 (13.2) solved 6-16 % faster (medians of 5, alternating)
_THREADED_FLOPS = 2e9


class SolverError(Exception):
    """Numerical failure in the linear solve.

    ``stats`` holds the ``Solution`` stats gathered before the failure.
    """

    def __init__(self, message, stats=None):
        super().__init__(message)
        self.stats = stats or {}


class SingularSystemError(SolverError):
    """The saddle matrix hit a zero pivot or missed the residual check."""


@dataclass
class Solution:
    """Velocity/pressure coefficients, multiplier, and solve diagnostics.

    ``stats`` holds ``ordering``, ``regularization`` (DELTA),
    ``nnz_factor`` (stored entries of the float32 factor L),
    ``factor_bytes`` (the bytes the factor holds: L^{-1} of each pivot
    block square, and D Y), ``fronts``,
    ``max_front`` (the order of the largest front), ``factor_flops``,
    ``refinement_residuals`` (the relative residual of K at each iterate,
    then the constrained system's final one, ``residual``),
    ``inner_iterations`` (the GMRES steps that made each iterate),
    ``blas_threads`` (the OpenBLAS thread count of the factor and the
    refinement: 1, the caller's count, or None where numpy's OpenBLAS was
    not found) and ``pressure_mean``.
    """

    u: np.ndarray
    p: np.ndarray
    multiplier: float
    residual: float
    stats: dict = field(default_factory=dict)


@dataclass
class _Tree:
    """Symbolic analysis of K: the fronts in postorder.

    Front f eliminates the tree positions ``start[f]:start[f + 1]``, its
    ``n_vel[f]`` velocities first; ``update[f]`` holds the (ascending)
    positions of its update DOFs and ``children[f]`` its child fronts.
    ``perm`` maps tree positions to DOFs.  ``entries`` counts the stored
    entries of L, ``held`` the float32 values the factor keeps (L^{-1} of
    each pivot block is held square), and ``peak`` the most values that the
    fronts and pending updates hold at once.
    """

    perm: np.ndarray
    start: np.ndarray
    n_vel: np.ndarray
    update: list
    children: list
    entries: int
    held: int
    peak: int
    flops: int

    @property
    def max_front(self):
        return max(int(e - s) + len(u) for s, e, u in
                   zip(self.start[:-1], self.start[1:], self.update))


def _unique(x):
    """The sorted distinct values of x (np.unique hashes, which is slower
    here by an order of magnitude)."""
    x = np.sort(x)
    return x[np.concatenate([x[:1] == x[:1], x[1:] != x[:-1]])]


def _ranges(starts, sizes):
    """The concatenated integer ranges starts[i]:starts[i] + sizes[i]."""
    ends = np.cumsum(sizes)
    return np.repeat(starts - ends + sizes, sizes) + np.arange(
        ends[-1] if len(ends) else 0)


def _dissect(cells, edges, xy, side, fronts, children):
    """Append the fronts of the subdomain ``cells`` in postorder and return
    its root fronts.

    ``edges`` (3, E) holds both directions of the subdomain's cell
    couplings, each flagged 1 where a pressure takes part in it (cells at
    distance 1) and 0 where only velocities do; ``side`` is scratch space.
    """
    if len(cells) <= LEAF_CELLS:
        fronts.append(cells)
        children.append([])
        return [len(fronts) - 1]
    x = xy[cells]
    order = np.argsort(x[:, np.argmax(np.ptp(x, axis=0))], kind="stable")
    half = len(cells) // 2
    side[cells[order[:half]]] = 0
    side[cells[order[half:]]] = 1
    a, b = side[edges[:2]]
    layers = [_unique(edges[0, (a == t) & (b != t)]) for t in (0, 1)]
    s = int(len(layers[1]) < len(layers[0]))
    sep = layers[s]
    side[sep] = 2
    a, b = side[edges[:2]]
    # the separator cells that a pressure couples to the rest of their half
    # go last: both children then reach the front's pressures in one run
    inner = np.zeros(len(side), bool)
    inner[edges[0, (a == 2) & (b == s) & (edges[2] == 1)]] = True
    sep = np.concatenate([sep[~inner[sep]], sep[inner[sep]]])
    parts = [(cells[side[cells] == t], edges[:, (a == t) & (b == t)])
             for t in (0, 1)]
    roots = [r for part, sub in parts if len(part)
             for r in _dissect(part, sub, xy, side, fronts, children)]
    if not len(sep):
        return roots
    fronts.append(sep)
    children.append(roots)
    return [len(fronts) - 1]


def _analyse(system, rows, cols):
    """The symbolic phase: the dissection tree of K's pattern (rows, cols)
    over the cells, with each front's pivots and update DOFs."""
    n_u, n_p, nc = system.n_u, system.n_p, system.n_cells
    dv, dp = n_u // nc, n_p // nc
    # block b holds the velocities (b < nc) or pressures (b >= nc) of cell
    # b mod nc; K's pattern is summarized by the blocks that it couples
    block = np.concatenate([np.arange(n_u) // dv,
                            nc + np.arange(n_p) // dp])
    pairs = _unique(block[rows] * (2 * nc) + block[cols])
    b1, b2 = pairs // (2 * nc), pairs % (2 * nc)
    cpl = _unique(((b1 % nc) * nc + b2 % nc) * 2 + ((b1 >= nc) | (b2 >= nc)))
    # a velocity-only pair is dropped where a pressure couples the cells too
    cpl = cpl[np.append(cpl[1:] // 2 != cpl[:-1] // 2, True)]
    edges = np.array([cpl // 2 // nc, cpl // 2 % nc, cpl % 2])
    edges = edges[:, edges[0] != edges[1]]
    fronts, children = [], []
    _dissect(np.arange(nc), edges, system.centroids, np.zeros(nc, np.int8),
             fronts, children)
    nf = len(fronts)
    # blocks in elimination order: per front its velocities, then pressures
    order = np.concatenate([np.concatenate([c, nc + c]) for c in fronts])
    rank = np.empty(2 * nc, np.int64)
    rank[order] = np.arange(2 * nc)
    size = np.where(order < nc, dv, dp)
    first = np.where(order < nc, order * dv, n_u + (order - nc) * dp)
    perm = _ranges(first, size)
    bstart = np.concatenate([[0], np.cumsum(size)])
    fblock = np.concatenate([[0], np.cumsum([2 * len(c) for c in fronts])])
    start = bstart[fblock]
    n_vel = np.array([len(c) * dv for c in fronts])
    # the later blocks that each front's pivots couple to in K
    front_of = np.repeat(np.arange(nf), np.diff(fblock))
    f1, r2 = front_of[rank[b1]], rank[b2]
    later = r2 >= fblock[f1 + 1]
    key = _unique(f1[later] * (2 * nc) + r2[later])
    cut = np.searchsorted(key // (2 * nc), np.arange(nf + 1))
    ublocks, update = [], []
    entries = held = flops = peak = live = 0
    for f in range(nf):
        ub = _unique(np.concatenate(
            [key[cut[f]:cut[f + 1]] % (2 * nc)]
            + [ublocks[c] for c in children[f]]))
        ub = ub[ub >= fblock[f + 1]]
        ublocks.append(ub)
        update.append(_ranges(bstart[ub], size[ub]))
        p, m = int(start[f + 1] - start[f]), len(update[-1])
        entries += p * (p + 1) // 2 + p * m
        held += p * p + p * m
        flops += p ** 3 // 3 + p * p * m + p * m * m
        # the front and its update's product coexist with the pending
        # updates, its children's among them
        peak = max(peak, live + (p + m) ** 2 + m * m)
        live += m * m - sum(len(update[c]) ** 2 for c in children[f])
    return _Tree(perm=perm, start=start, n_vel=n_vel, update=update,
                 children=children, entries=entries, held=held, peak=peak,
                 flops=flops)


def _available_bytes():
    """MemAvailable from /proc/meminfo, or None where it cannot be read."""
    try:
        with open("/proc/meminfo", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    return None


def _inv_chol(H):
    """L^{-1} for H = L L^T, from H's lower triangle by halves: L21 =
    H21 L11^{-T}, and L22^{-1} from H22 - L21 L21^T = L22 L22^T."""
    n = len(H)
    if n <= _INV_BLOCK:
        return np.tril(np.linalg.inv(np.linalg.cholesky(H)))
    h = n // 2
    X = np.zeros_like(H)
    X[:h, :h] = X1 = _inv_chol(H[:h, :h])
    L21 = H[h:, :h] @ X1.T
    X[h:, h:] = X3 = _inv_chol(H[h:, h:] - L21 @ L21.T)
    X[h:, :h] = -(X3 @ (L21 @ X1))
    return X


def _extend_add(F, loc, U):
    """F[loc, loc] += U on the lower triangles, loc ascending, one block per
    pair of contiguous runs of loc."""
    cut = np.flatnonzero(np.diff(loc) != 1) + 1
    src = np.concatenate([[0], cut, [len(loc)]]).tolist()
    runs = [(d, d + j1 - j0, j0, j1)
            for d, j0, j1 in zip(loc[src[:-1]].tolist(), src[:-1], src[1:])]
    for i, (r0, r1, i0, i1) in enumerate(runs):
        Fi, Ui = F[r0:r1], U[i0:i1]
        for c0, c1, j0, j1 in runs[:i + 1]:
            Fi[:, c0:c1] += Ui[:, j0:j1]


def _factor(K, tree):
    """The numeric phase: the LDL^T factor of K, given as its lower
    triangle's entries in the tree's numbering, grouped by front (see
    :func:`_by_front`).

    Only the lower triangle of a front is formed.  Returns per front
    (start, stop, velocities, update positions, L^{-1} of its pivot block,
    D Y).  A Cholesky factor that fails raises LinAlgError naming the block
    of K whose pivot it was.
    """
    rows, cols, data, cut = K
    factors, pending = [], {}
    for f, (s, e) in enumerate(zip(tree.start[:-1].tolist(),
                                   tree.start[1:].tolist())):
        upd, nv, p = tree.update[f], int(tree.n_vel[f]), e - s
        idx = np.concatenate([np.arange(s, e), upd])
        F = np.zeros((len(idx), len(idx)), data.dtype)
        lo, hi = cut[f], cut[f + 1]
        F[np.searchsorted(idx, rows[lo:hi]), cols[lo:hi] - s] = data[lo:hi]
        for child in tree.children[f]:
            cidx, U = pending.pop(child)
            _extend_add(F, np.searchsorted(idx, cidx), U)
        try:
            Ih = _inv_chol(F[:nv, :nv])
        except np.linalg.LinAlgError:
            raise np.linalg.LinAlgError("velocity block A") from None
        W = Ih @ F[nv:p, :nv].T
        # G + W^T W in float64 (see the module docstring)
        W64 = W.astype(np.float64)
        try:
            Is = _inv_chol(W64.T @ W64 - F[nv:p, nv:p]).astype(data.dtype)
        except np.linalg.LinAlgError:
            raise np.linalg.LinAlgError("pressure block (B, S)") from None
        inv = np.zeros((p, p), data.dtype)
        inv[:nv, :nv] = Ih
        inv[nv:, nv:] = Is
        inv[nv:, :nv] = -(Is @ (W.T @ Ih))
        Y = Ih @ F[p:, :nv].T
        Y = np.concatenate([Y, Is @ (F[p:, nv:p].T - W.T @ Y)])
        dy = np.concatenate([Y[:nv], -Y[nv:]])
        h = len(upd) // 2  # the update's upper-right block is never read
        F[p:, p:p + h] -= Y.T @ dy[:, :h]
        F[p + h:, p + h:] -= Y[:, h:].T @ dy[:, h:]
        pending[f] = (upd, np.ascontiguousarray(F[p:, p:]))
        del F, Y
        factors.append((s, e, nv, upd, inv, dy))
    return factors


def _scaled_entries(system):
    """K's entries, each stored once, in COO form: Jacobi-scaled, with the
    pressure shift on the diagonal.  Returns rows, cols, values and the
    scaling."""
    n_u, n_p = system.n_u, system.n_p
    A, B, S = system.A, system.B, system.S
    ra, rb, rs = A.row_ids(), B.row_ids(), S.row_ids()
    on_a, on = ra == A.indices, rs == S.indices  # the stored diagonals
    d = np.zeros(n_u + n_p)
    d[ra[on_a]] = np.abs(A.data[on_a])
    d[n_u + rs[on]] = np.abs(S.data[on])
    d[d == 0.0] = 1.0
    scale = 1.0 / np.sqrt(d)
    # the shift joins S's stored diagonal, and the pressures whose diagonal
    # S does not store get an entry of their own
    bare = np.ones(n_p, bool)
    bare[rs[on]] = False
    bare = np.flatnonzero(bare) + n_u
    rows = np.concatenate([ra, rb, B.indices + n_u, rs + n_u, bare])
    cols = np.concatenate([A.indices, B.indices + n_u, rb, S.indices + n_u,
                           bare])
    vals = np.concatenate([A.data, B.data, B.data, -S.data,
                           np.zeros(len(bare))])
    vals *= scale[rows] * scale[cols]
    coupling = np.bincount(B.indices, vals[A.nnz:A.nnz + B.nnz] ** 2, n_p)
    shift = -DELTA * np.maximum(1.0, coupling)
    at = A.nnz + 2 * B.nnz
    vals[at + np.flatnonzero(on)] += shift[S.indices[on]]
    vals[at + S.nnz:] = shift[bare - n_u]
    return rows, cols, vals, scale


def _by_front(tree, rows, cols, vals):
    """K's lower-triangle entries (rows, cols, vals) in the tree's
    numbering, rounded to float32, as (rows, cols, data, cut): those of
    front f, whose pivot range holds their column, are at cut[f]:cut[f + 1].
    """
    pos = np.argsort(tree.perm)
    rows, cols = pos[rows], pos[cols]
    lower = rows >= cols
    rows, cols = rows[lower], cols[lower]
    # summed in float64, rounded once
    vals = vals[lower].astype(np.float32)
    nf = len(tree.update)
    front = np.repeat(np.arange(nf), np.diff(tree.start))[cols].astype(
        np.min_scalar_type(nf))
    # a stable sort of small ints is a radix sort
    order = np.argsort(front, kind="stable")
    cut = np.concatenate([[0], np.cumsum(np.bincount(front, minlength=nf))])
    return rows[order], cols[order], vals[order], cut


def _factor_shifted(system, stats, threads):
    """Float32 factor of the scaled, shifted K.

    Returns ``apply(r)``, which maps a float64 residual r of K to the
    float64 correction D (D K D - E)^{-1} D r, with D the Jacobi scaling and
    E the pressure shift, and records the factor's stats.  ``threads`` is
    called with the factor's flop count before any numeric work.
    """
    rows, cols, vals, scale = _scaled_entries(system)
    tree = _analyse(system, rows, cols)
    threads(tree.flops)
    size = f"{system.n_u + system.n_p} DOFs, {len(vals)} stored entries"
    K = _by_front(tree, rows, cols, vals)
    del rows, cols, vals
    need = 4 * (tree.held + tree.peak)
    avail = _available_bytes()
    if avail is not None and need > avail:
        raise SolverError(
            f"factoring K ({size}) needs {tree.entries} stored entries of L "
            f"and {need / 1e9:.2f} GB, but only {avail / 1e9:.2f} GB is "
            "available", stats)
    try:
        fronts = _factor(K, tree)
    except MemoryError as exc:
        raise SolverError(f"out of memory factoring K ({size})",
                          stats) from exc
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(
            f"factorization hit a zero pivot in the {exc}", stats) from exc
    del K
    stats.update(nnz_factor=tree.entries, factor_bytes=4 * tree.held,
                 fronts=len(fronts), max_front=tree.max_front,
                 factor_flops=tree.flops)
    perm = tree.perm

    def apply(r):
        b = (scale * r)[perm].astype(np.float32)
        for s, e, nv, upd, inv, dy in fronts:
            z = b[s:e] = inv @ b[s:e]
            if len(upd):
                b[upd] -= z @ dy
        for s, e, nv, upd, inv, dy in reversed(fronts):
            t = b[s:e]
            t[nv:] *= -1.0
            if len(upd):
                t -= dy @ b[upd]
            b[s:e] = t @ inv
        x = np.empty(len(perm))
        x[perm] = b
        return scale * x

    return apply


def _matvec(system, x):
    """K x, from the blocks."""
    u, p = x[:system.n_u], x[system.n_u:]
    return np.concatenate([system.A @ u + system.B @ p,
                           system.B.T @ u - system.S @ p])


def _zero_mean(system, x):
    """x moved along [0; c] to zero pressure mean m^T p, in place."""
    p, m = x[system.n_u:], system.m
    p -= (float(m @ p) / float(m @ m)) * m
    return x


def _gmres(system, apply, r):
    """A correction d with |r - K d| <= INNER_RTOL |r|, and its step count,
    by right-preconditioned GMRES from d = 0 that keeps the preconditioned
    vectors (flexible GMRES)."""
    # K d is orthogonal to [0; c] = [0; m]: r's roundoff along it is dropped
    r = _zero_mean(system, r.copy())
    beta = float(np.linalg.norm(r))
    if beta == 0.0:
        return r, 0
    V, Z, H = [r / beta], [], np.zeros((MAX_INNER + 1, MAX_INNER))
    for j in range(MAX_INNER):
        Z.append(_zero_mean(system, apply(V[j])))
        w = _matvec(system, Z[j])
        for i, v in enumerate(V):  # modified Gram-Schmidt
            H[i, j] = v @ w
            w -= H[i, j] * v
        H[j + 1, j] = np.linalg.norm(w)
        # min |beta e_1 - H y| by a QR factorization of the Hessenberg H;
        # a NaN estimate compares false and ends the steps too
        q, R = np.linalg.qr(H[:j + 2, :j + 1], mode="complete")
        if not abs(q[0, j + 1]) > INNER_RTOL:
            break
        V.append(w / H[j + 1, j])
    y = np.linalg.solve(R[:j + 1], beta * q[0, :j + 1])
    return np.dot(y, Z), j + 1


def _refine(system, apply, g, rhs_norm, stats):
    """Zero-mean (u, p) with K [u; p] = [F; g] by refinement sweeps, and
    the constrained system's final residual; records the sweeps' stats."""
    rhs = np.concatenate([system.F, g])
    history = stats["refinement_residuals"] = []
    inner = stats["inner_iterations"] = []
    x, r = np.zeros(len(rhs)), rhs
    for _ in range(MAX_SWEEPS + 1):
        d, steps = _gmres(system, apply, r)
        inner.append(steps)
        prev, x = x, x + d
        r = rhs - _matvec(system, x)
        history.append(float(np.linalg.norm(r)) / rhs_norm)
        # a NaN residual compares false and ends the sweeps too
        if len(history) > 1 and not history[-1] < 0.5 * history[-2]:
            if not history[-1] < history[-2]:
                x = prev
            break
    x = _zero_mean(system, x)
    p = x[system.n_u:]
    res = float(np.linalg.norm(np.append(rhs - _matvec(system, x),
                                         -float(system.m @ p)))) / rhs_norm
    history.append(res)
    return x[:system.n_u], p, res


def solve(system, rtol=1e-9):
    """Solve the constrained saddle system to a relative residual <= rtol.

    numpy's OpenBLAS runs on one thread, except that a factor of at least
    _THREADED_FLOPS flops and the refinement after it run at the caller's
    thread count; the count is restored on return and on error (see
    ``_blas``).

    Raises SingularSystemError, with the stats gathered so far, on a zero
    pivot or a final residual above rtol, and SolverError, naming the DOF
    count and K's stored entries, when the factor will not fit in the
    available memory or runs out of it.
    """
    stats = {"ordering": "cell-nested-dissection", "regularization": DELTA}
    with one_thread() as callers:
        stats["blas_threads"] = None if callers is None else 1

        def threads(flops):
            if callers is not None and flops >= _THREADED_FLOPS:
                stats["blas_threads"] = callers()

        apply = _factor_shifted(system, stats, threads)
        # after the factor: over the gate these reductions then run at the
        # caller's count too, like every BLAS call of the numeric phase
        m, G = system.m, system.G
        lam = float(m @ G) / float(m @ m)
        g = G - lam * m
        # the residuals are relative, or absolute for a zero right-hand side
        rhs_norm = float(np.hypot(np.linalg.norm(system.F),
                                  np.linalg.norm(G))) or 1.0
        u, p, res = _refine(system, apply, g, rhs_norm, stats)
        # in the scope too: a long dot product can run threaded
        mean = float(m @ p)
    if not res <= rtol:
        raise SingularSystemError(
            f"direct solve residual {res:.3e} exceeds {rtol:.1e}", stats)
    stats["pressure_mean"] = mean
    return Solution(u=u, p=p, multiplier=lam, residual=res, stats=stats)
