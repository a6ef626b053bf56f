"""Fixed reference operation that measures the host's speed.

run.py times this script, in a fresh interpreter, before every untraced
operation.  It does the same kinds of work as the package and never imports
it: numpy and scipy imports, a Python loop over small dense solves (as the
per-cell weak-gradient build does) and a sparse LU factorization (as the
solver does).  Its wall time moves with the machine's speed only, so the
benchmark can report its time metrics at a fixed reference speed.
"""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

rng = np.random.default_rng(0)
total = 0.0
for _ in range(1000):
    a = rng.standard_normal((12, 12))
    a = a @ a.T + 12.0 * np.eye(12)
    total += float(np.linalg.solve(a, np.ones(12)).sum())
    total += sum(x * x for x in range(60))

n = 300
t = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
laplacian = (sp.kron(sp.eye(n), t) + sp.kron(t, sp.eye(n))).tocsc()
x = spla.splu(laplacian).solve(np.ones(n * n))
if not np.allclose(laplacian @ x, 1.0) or not np.isfinite(total):
    raise SystemExit("reference operation computed a wrong result")
