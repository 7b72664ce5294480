"""Dense complex SVD: the stacked kernel that every singular value in the
package goes through, and its single-matrix form."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


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


def svd_stack(mats: np.ndarray, vectors: bool = True):
    """SVD of a (K, M, L) stack; returns (U, sigma, V) stacks.

    The package's only call into LAPACK's SVD.  With ``vectors=False`` only
    the singular values are computed and U and V are returned as None.
    """
    mats = np.asarray(mats, dtype=np.complex128)
    if not np.all(np.isfinite(mats)):
        raise ValueError("non-finite input")
    if not vectors:
        return None, np.linalg.svd(mats, compute_uv=False), None
    u, s, vh = np.linalg.svd(mats, full_matrices=True)
    return u, s, np.conj(np.swapaxes(vh, -1, -2))
