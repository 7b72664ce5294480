"""Dense complex SVD: the stacked kernel that every singular value in the
package goes through, and its single-matrix form."""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass

import numpy as np

# Fewest bins a worker thread is given, and the bins per LAPACK call on the
# path with singular vectors: a chunk's U, sigma and V^H temporaries stay
# small next to the output, so the peak memory is the output plus a chunk
# per worker.
_BLOCK = 256


@dataclass(frozen=True)
class SvdResult:
    """Full SVD factors: A = U diag(sigma) V^H.

    U is M x M unitary, V is L x L unitary, sigma holds the min(M, L)
    singular values sorted descending and nonnegative.
    """

    U: np.ndarray
    sigma: np.ndarray
    V: np.ndarray

    def reconstruct(self) -> np.ndarray:
        m, n = self.U.shape[0], self.V.shape[0]
        s = np.zeros((m, n), dtype=np.complex128)
        r = self.sigma.size
        s[:r, :r] = np.diag(self.sigma)
        return self.U @ s @ self.V.conj().T


def svd(a) -> SvdResult:
    """Full SVD of one complex matrix: slice 0 of ``svd_stack(a[None])``."""
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    u, s, v = svd_stack(a[None])
    return SvdResult(U=u[0], sigma=s[0], V=v[0])


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
