"""Dense complex SVD: the stacked kernel that every singular value in the
package goes through, and the CPU-slot pool that runs independent tasks.

The pool is one per process.  ``run_tasks`` runs a task list on the calling
thread plus one worker thread per free slot: the usable CPUs (the process's
affinity set, so ``taskset`` restricts them) minus one for the caller,
minus the package workers already running; it is the only reader of the
CPU count.  Perturbation trials, the _BLOCK-bin chunks of ``svd_stack``
and the two tasks of ``sysid.simulate`` run this way.  A nested call, such
as the ``svd_stack`` of a trial, gets only the slots left free and runs
inline when there are none, so the package never runs more threads than
there are usable CPUs.  Each task writes only its own results, so the
results are bitwise those of a serial loop, whatever the number of
threads.  The ``sysid`` GEMMs stay off the pool: the BLAS threads them
itself, and package threads there would compete with the BLAS threads.  So
``simulate``'s tasks are its two random draws, x and the noise, each from
its own generator into its own array, and it convolves on the calling
thread after both.
"""

from __future__ import annotations

import contextvars
import os
import threading

import numpy as np

# Bins per LAPACK call, and so per task of svd_stack, on both paths: a
# chunk's U, sigma and V^H temporaries stay small next to the output, so the
# peak memory is the output plus one chunk per runner.
_BLOCK = 256

# worker threads of run_tasks alive in the process, counted under the lock
_pool_lock = threading.Lock()
_pool_busy = 0


def _claim(wanted: int) -> int:
    """Take up to ``wanted`` free slots of the pool; returns how many."""
    global _pool_busy
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    with _pool_lock:
        n = max(0, min(wanted, cpus - 1 - _pool_busy))
        _pool_busy += n
    return n


def _release(n: int) -> None:
    global _pool_busy
    with _pool_lock:
        _pool_busy -= n


def run_tasks(fn, items) -> list:
    """``[fn(x) for x in items]``, with the items spread over the calling
    thread and one worker thread per free slot of the pool.

    With n workers, runner r takes items r, r + n + 1, r + 2(n + 1), ...
    in turn; the caller is runner 0.  Each worker runs in a copy of the
    caller's context, so an ``np.errstate`` of the caller holds there too,
    and frees its slot when it ends.  A runner stops at its first failed
    item.  All workers are joined before this returns, and then the
    exception of the lowest-index failed item is raised: the one a serial
    loop raises, whatever the number of workers.
    """
    items = list(items)
    results = [None] * len(items)
    errors = []
    n = _claim(len(items) - 1)

    def run(first):
        for i in range(first, len(items), n + 1):
            try:
                results[i] = fn(items[i])
            except BaseException as exc:  # re-raised in the calling thread
                errors.append((i, exc))
                return

    def worker(first):
        try:
            run(first)
        finally:
            _release(1)

    threads = []
    try:
        for first in range(1, n + 1):
            t = threading.Thread(target=contextvars.copy_context().run,
                                 args=(worker, first))
            t.start()
            threads.append(t)
        run(0)
    finally:
        _release(n - len(threads))  # the slots of workers never started
        for t in threads:
            t.join()
    if errors:
        raise min(errors, key=lambda e: e[0])[1]
    return results


def _svd_block(mats, u, s, v, a: int) -> None:
    """Write the SVD of bins a .. a + _BLOCK - 1 of ``mats`` into ``u``,
    ``s``, ``v`` with one LAPACK call; ``u`` and ``v`` are None for the
    singular values alone."""
    b = a + _BLOCK
    if u is None:
        s[a:b] = np.linalg.svd(mats[a:b], compute_uv=False)
    else:
        u[a:b], s[a:b], vh = np.linalg.svd(mats[a:b], full_matrices=True)
        np.conj(np.swapaxes(vh, -1, -2), out=v[a:b])


def svd_stack(mats: np.ndarray, vectors: bool = True):
    """SVD of a (K, M, L) stack; returns (U, sigma, V) stacks.

    The package's only call into LAPACK's SVD.  With ``vectors=False`` only
    the singular values are computed and U and V are returned as None.

    The bins are cut into chunks of _BLOCK bins, and the chunks run as the
    tasks of ``run_tasks``, which alone decides how many threads share
    them.  Each matrix is decomposed on its own, so the results are bitwise
    those of one ``np.linalg.svd`` call on the whole stack, whatever the
    number of chunks or threads.
    """
    mats = np.asarray(mats, dtype=np.complex128)
    if mats.ndim != 3:
        raise ValueError("expected a (K, M, L) stack")
    if not np.all(np.isfinite(mats)):
        raise ValueError("non-finite input")
    k, m, l = mats.shape
    s = np.empty((k, min(m, l)))
    u = np.empty((k, m, m), dtype=np.complex128) if vectors else None
    v = np.empty((k, l, l), dtype=np.complex128) if vectors else None
    run_tasks(lambda a: _svd_block(mats, u, s, v, a), range(0, k, _BLOCK))
    return u, s, v
