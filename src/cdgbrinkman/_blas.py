"""One OpenBLAS thread for the package's entry points.

numpy's dense kernels run on its bundled OpenBLAS.  After a threaded call,
OpenBLAS's worker threads spin, waiting for the next one, for about
0.12 s, and most of the package's products are too small to gain from
them: the stacked per-key Gram, Cholesky and moment products of
``Discretization`` (order up to 36 on hexagons at k = 2), assembly's
block products, the norms and the oracle.  At two threads, on a 2-CPU
host, the ``Discretization`` build of poly n=16, k=2 took 0.016-0.024 s
and its assembly 0.043-0.061 s, with CPU time twice the wall time, and in
2 of 8 processes 0.28-0.31 s and 0.09-0.10 s; at one thread they took
0.015-0.020 s and 0.041 s, with CPU time equal to wall time.

So every public entry point runs inside :func:`one_thread`:
``Discretization.__init__``, the public functions of ``assembly``,
``analysis``, ``export`` and ``solver``, and ``cli.main``.  A helper called
directly, such as a ``Discretization`` kernel, keeps the caller's count.
The only exception is ``solve``'s gate: a factor of at least
``solver._THREADED_FLOPS`` flops, and the refinement after it, run at the
caller's count (see ``solver``).

The count is OpenBLAS's own and process-global.  Scopes nest, and overlap
in several Python threads: the first to start reads the caller's count and
sets one thread, the last to finish restores the caller's count.  A scope
may raise the count to the caller's for the rest of its run; the count
stays raised while any scope that raised it runs, and when the last of
them ends, the scopes still running get one thread back.  So a solve over
the gate inside ``cli.main`` factors at the caller's count and the export
after it runs on one thread.  BLAS calls of other Python threads run at
the current count meanwhile.  Where numpy's OpenBLAS is not found (another
BLAS, another OS), nothing is changed.
"""

import contextlib
import ctypes
import functools
import threading
from pathlib import Path

import numpy as np


class _OpenBLAS:
    """numpy's OpenBLAS at ``path``, with its thread count's getter and
    setter, and the scopes running on it (see the module docstring)."""

    def __init__(self, path, get, put):
        self.path, self.get, self.set = path, get, put
        self._lock = threading.Lock()
        self._scopes = 0
        self._raised = 0
        self._caller = None

    @contextlib.contextmanager
    def one_thread(self):
        """One thread while the block runs.  Yields a function that raises
        the count to the caller's for the rest of the block and returns
        that count."""
        with self._lock:
            if not self._scopes:
                self._caller = self.get()
                self.set(1)
            self._scopes += 1
        raised = False

        def callers():
            nonlocal raised
            with self._lock:
                if not raised:
                    raised = True
                    self._raised += 1
                    self.set(self._caller)
                return self._caller

        try:
            yield callers
        finally:
            with self._lock:
                self._scopes -= 1
                self._raised -= raised
                if not self._scopes:
                    self.set(self._caller)
                elif raised and not self._raised:
                    self.set(1)


@functools.cache
def _openblas():
    """The OpenBLAS that numpy bundles, or None where it bundles none
    (another BLAS, another OS).  scipy bundles an OpenBLAS of its own,
    under its own directory."""
    libs = Path(np.__file__).resolve().parents[1] / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*")):
        lib = ctypes.CDLL(str(path))
        try:
            get = lib.scipy_openblas_get_num_threads64_
            put = lib.scipy_openblas_set_num_threads64_
        except AttributeError:
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
        return _OpenBLAS(path, get, put)
    return None


@contextlib.contextmanager
def one_thread():
    """:meth:`_OpenBLAS.one_thread` of numpy's OpenBLAS; where there is
    none, changes nothing and yields None."""
    blas = _openblas()
    if blas is None:
        yield None
        return
    with blas.one_thread() as callers:
        yield callers


def one_blas_thread(fn):
    """``fn``, run inside :func:`one_thread`."""

    @functools.wraps(fn)
    def run(*args, **kwargs):
        with one_thread():
            return fn(*args, **kwargs)

    return run
