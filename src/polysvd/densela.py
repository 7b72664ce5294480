"""Dense complex SVD: the stacked kernel that every singular value in the
package goes through."""

from __future__ import annotations

import os
import threading

import numpy as np

# Fewest bins a worker thread is given, and the bins per LAPACK call on the
# path with singular vectors: a chunk's U, sigma and V^H temporaries stay
# small next to the output, so the peak memory is the output plus a chunk
# per worker.
_BLOCK = 256


def _workers(k: int) -> int:
    """Threads for a stack of k matrices: the usable CPUs, at most one per
    _BLOCK bins, at least one."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, k // _BLOCK))


def _svd_block(mats, u, s, v, lo: int, hi: int) -> None:
    """Write the SVD of bins lo .. hi-1 of ``mats`` into ``u``, ``s``, ``v``;
    ``u`` and ``v`` are None for the singular values alone."""
    if u is None:
        s[lo:hi] = np.linalg.svd(mats[lo:hi], compute_uv=False)
        return
    for a in range(lo, hi, _BLOCK):
        b = min(a + _BLOCK, hi)
        u[a:b], s[a:b], vh = np.linalg.svd(mats[a:b], full_matrices=True)
        np.conj(np.swapaxes(vh, -1, -2), out=v[a:b])


def svd_stack(mats: np.ndarray, vectors: bool = True):
    """SVD of a (K, M, L) stack; returns (U, sigma, V) stacks.

    The package's only call into LAPACK's SVD.  With ``vectors=False`` only
    the singular values are computed and U and V are returned as None.

    The bins are cut into contiguous blocks, one per usable CPU and at
    least _BLOCK bins each.  The calling thread decomposes the first block
    and a new thread each of the others; all are joined before this
    returns, and a worker's exception is re-raised here.  Each matrix is
    decomposed on its own, so the results are bitwise those of one
    ``np.linalg.svd`` call on the whole stack, whatever the number of
    blocks.
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
    n = _workers(k)
    edges = [k * i // n for i in range(n + 1)]
    errors = []

    def work(lo, hi):
        try:
            _svd_block(mats, u, s, v, lo, hi)
        except BaseException as exc:  # re-raised in the calling thread
            errors.append(exc)

    threads = []
    try:
        for bounds in zip(edges[1:-1], edges[2:]):
            t = threading.Thread(target=work, args=bounds)
            t.start()
            threads.append(t)
        _svd_block(mats, u, s, v, edges[0], edges[1])
    finally:
        for t in threads:
            t.join()
    if errors:
        raise errors[0]
    return u, s, v
