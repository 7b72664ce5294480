"""Dense complex matrix kernels: per-bin SVD, norms, column-space projectors."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Relative threshold separating genuine rank deficiency from
# double-precision noise in order-30 convolutions.
RANK_TOL = 1e-10


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


def _check(a) -> np.ndarray:
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    if not np.all(np.isfinite(a)):
        raise ValueError("non-finite input")
    return a


def svd(a) -> SvdResult:
    """Full SVD of a complex matrix (LAPACK backed)."""
    a = _check(a)
    u, s, vh = np.linalg.svd(a, full_matrices=True)
    return SvdResult(U=u, sigma=s, V=vh.conj().T)


def svd_stack(mats: np.ndarray, vectors: bool = True):
    """SVD of a (K, M, L) stack; returns (U, sigma, V) stacks.

    With ``vectors=False`` only the singular values are computed and U and
    V are returned as None.
    """
    mats = np.asarray(mats, dtype=np.complex128)
    if not np.all(np.isfinite(mats)):
        raise ValueError("non-finite input")
    if not vectors:
        return None, np.linalg.svd(mats, compute_uv=False), None
    u, s, vh = np.linalg.svd(mats, full_matrices=True)
    return u, s, np.conj(np.swapaxes(vh, -1, -2))


def spectral_norm(a) -> float:
    """Largest singular value."""
    return float(np.linalg.svd(_check(a), compute_uv=False)[0])


def smallest_sv(a) -> float:
    """Smallest of the min(M, L) singular values."""
    return float(np.linalg.svd(_check(a), compute_uv=False)[-1])


def colspace_projector(a, rank_tol: float = RANK_TOL):
    """Orthogonal projector onto the column space of ``a`` and its complement.

    Rank is decided by sigma_i > rank_tol * sigma_max.  Returns (P, P_perp),
    both M x M, Hermitian and idempotent.
    """
    if rank_tol <= 0:
        raise ValueError("rank_tol must be > 0")
    a = _check(a)
    u, s, _ = np.linalg.svd(a, full_matrices=True)
    m = a.shape[0]
    if s.size == 0 or s[0] == 0.0:
        rank = 0
    else:
        rank = int(np.sum(s > rank_tol * s[0]))
    ur = u[:, :rank]
    p = ur @ ur.conj().T
    return p, np.eye(m, dtype=np.complex128) - p
