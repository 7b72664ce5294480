"""Ground-truth systems with known analytic SVD factors.

Systems are built as A(z) = U(z) diag(sigma_m(z)) V^P(z) from paraunitary
U, V and parahermitian scalar singular values, so the construction is its
own oracle: the bin-wise singular values of A must equal the per-bin
descending moduli of the generator scalars.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .polymat import TRIM_TOL, PolyMatrix

FACTOR_TOL = 1e-10


@dataclass(frozen=True)
class SeededRng:
    """Deterministic random source: same (seed, stream) -> same draws.

    Thin wrapper over numpy's PCG64; the algorithm is pinned so frozen
    expected values in tests and golden files stay stable.  Independent
    trials use distinct stream ids and may run in parallel.
    """

    seed: int
    stream: int = 0

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream,))
        return np.random.Generator(np.random.PCG64(ss))


def as_generator(rng) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, SeededRng):
        return rng.generator()
    raise TypeError(f"cannot interpret {rng!r} as a random source")


def complex_normal(rng, shape, sigma2: float = 1.0) -> np.ndarray:
    """CN(0, sigma2) draws: real and imaginary parts i.i.d. N(0, sigma2/2).

    One standard_normal call with a trailing axis of size 2 fixes the draw
    order, so batched and per-element generation consume the stream alike;
    each (real, imaginary) pair is viewed as one complex128 and scaled in
    place, so the draws take no memory beyond the normals themselves.
    """
    g = as_generator(rng)
    z = g.standard_normal(tuple(shape) + (2,)).view(np.complex128)[..., 0]
    z *= np.sqrt(sigma2 / 2.0)
    return z


@dataclass(frozen=True)
class GroundTruthSystem:
    """Assembled system with its generating analytic SVD factors."""

    U: PolyMatrix
    sigmas: tuple
    V: PolyMatrix
    A: PolyMatrix
    # independent per-track oracles mapping an array of omegas to real
    # values, when the system has them (example1); None otherwise
    closed_forms: Optional[tuple] = None
    meta: dict = field(default_factory=dict)

    @property
    def rows(self) -> int:
        return self.A.rows

    @property
    def cols(self) -> int:
        return self.A.cols

    def to_json_dict(self) -> dict:
        return {
            "U": self.U.to_json_dict(),
            "sigmas": [s.to_json_dict() for s in self.sigmas],
            "V": self.V.to_json_dict(),
            "A": self.A.to_json_dict(),
            "meta": dict(self.meta),
        }


def elementary_pu(w) -> PolyMatrix:
    """Order-one elementary paraunitary factor (I - w w^H) + w w^H z^{-1}."""
    w = np.asarray(w, dtype=np.complex128).reshape(-1)
    nrm = np.linalg.norm(w)
    if abs(nrm - 1.0) > 1e-12:
        raise ValueError(f"w must be unit-norm (got ||w|| = {nrm!r})")
    p = np.outer(w, np.conj(w))
    eye = np.eye(w.size, dtype=np.complex128)
    return PolyMatrix(np.stack([eye - p, p], axis=-1), 0)


def random_paraunitary(dim: int, order: int, rng) -> PolyMatrix:
    """Product of ``order`` elementary factors with random unit vectors.

    Unit vectors are normalized i.i.d. complex Gaussian draws (the
    rotation-invariant choice).  Order 0 yields a random constant unitary
    matrix from QR orthonormalization of a complex Gaussian matrix.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    g = as_generator(rng)
    if order == 0:
        q, r = np.linalg.qr(complex_normal(g, (dim, dim)))
        # absorb the QR phase convention so the distribution is rotation
        # invariant rather than tied to the factorization's sign choices
        q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
        return PolyMatrix(q[:, :, None], 0)
    out = PolyMatrix.identity(dim)
    for _ in range(order):
        w = complex_normal(g, (dim,))
        out = out @ elementary_pu(w / np.linalg.norm(w))
    return out


def random_parahermitian_scalar(length: int, rng) -> PolyMatrix:
    """sigma(z) = s(z) + s^P(z) from ``length`` complex Gaussian taps of s.

    The result is a 1x1 parahermitian Laurent polynomial spanning powers
    z^{length-1} .. z^{-(length-1)}; its unit-circle values are real.
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    taps = complex_normal(rng, (1, 1, length))
    s = PolyMatrix(taps, 0)
    return s + s.parahermitian()


def _stacked_scalars(sigmas: Sequence[PolyMatrix]) -> PolyMatrix:
    """The 1x1 scalars stacked as the rows of one (R, 1, T) matrix, all
    aligned to their common lowest power."""
    lo = min(s.n_min for s in sigmas)
    hi = max(s.n_max for s in sigmas)
    out = np.zeros((len(sigmas), 1, hi - lo + 1), dtype=np.complex128)
    for m, s in enumerate(sigmas):
        t0 = s.n_min - lo
        out[m, 0, t0 : t0 + s.n_taps] = s.coeffs[0, 0]
    return PolyMatrix(out, lo)


def _diag_scalars(sigmas: Sequence[PolyMatrix], rows: int, cols: int) -> PolyMatrix:
    stacked = _stacked_scalars(sigmas)
    out = np.zeros((rows, cols, stacked.n_taps), dtype=np.complex128)
    m = np.arange(len(sigmas))
    out[m, m] = stacked.coeffs[:, 0]
    return PolyMatrix(out, stacked.n_min)


def assemble(
    U: PolyMatrix,
    sigmas: Sequence[PolyMatrix],
    V: PolyMatrix,
    closed_forms: Optional[Sequence[Callable[[np.ndarray], np.ndarray]]] = None,
    meta: Optional[dict] = None,
) -> GroundTruthSystem:
    """Build A = U diag(sigmas) V^P and verify the factor invariants.

    Raises ValueError when U or V fail the paraunitarity check, a sigma is
    not parahermitian, or the dimensions are inconsistent.
    """
    rows, cols = U.rows, V.rows
    if len(sigmas) != min(rows, cols):
        raise ValueError(f"need {min(rows, cols)} scalar singular values")
    if not U.is_paraunitary(FACTOR_TOL):
        raise ValueError("U is not paraunitary")
    if not V.is_paraunitary(FACTOR_TOL):
        raise ValueError("V is not paraunitary")
    for m, s in enumerate(sigmas):
        if (s.rows, s.cols) != (1, 1):
            raise ValueError(f"sigma {m} must be 1x1")
        if not s.is_parahermitian(FACTOR_TOL):
            raise ValueError(f"sigma {m} is not parahermitian")
    diag = _diag_scalars(sigmas, rows, cols)
    a = ((U @ diag) @ V.parahermitian()).trim(TRIM_TOL)
    return GroundTruthSystem(
        U=U,
        sigmas=tuple(sigmas),
        V=V,
        A=a,
        closed_forms=None if closed_forms is None else tuple(closed_forms),
        meta=dict(meta or {}),
    )


def example1() -> GroundTruthSystem:
    """The 2x2 fixture with singular values 1 + cos(omega)/2 and 2 sin(omega).

    sigma_1(z) = z/4 + 1 + z^{-1}/4, sigma_2(z) = -jz + jz^{-1}, with
    constant unitary U = [1, 1; 1, -1]/sqrt(2) and V = [1, 1; -1, 1]/sqrt(2).
    """
    rt2 = np.sqrt(2.0)
    u = PolyMatrix.constant(np.array([[1.0, 1.0], [1.0, -1.0]]) / rt2)
    v = PolyMatrix.constant(np.array([[1.0, 1.0], [-1.0, 1.0]]) / rt2)
    s1 = PolyMatrix(np.array([0.25, 1.0, 0.25], dtype=complex).reshape(1, 1, 3), -1)
    s2 = PolyMatrix(np.array([-1j, 0.0, 1j]).reshape(1, 1, 3), -1)
    forms = (
        lambda om: 1.0 + 0.5 * np.cos(om),
        lambda om: 2.0 * np.sin(om),
    )
    return assemble(u, (s1, s2), v, closed_forms=forms, meta={"name": "example1"})


def bigsys(rng) -> GroundTruthSystem:
    """Random 6x6 system: order-10 paraunitary U and V, length-6 scalars.

    Draw order is fixed (U, then V, then the six scalars) so a seed fully
    determines the system.
    """
    g = as_generator(rng)
    u = random_paraunitary(6, 10, g)
    v = random_paraunitary(6, 10, g)
    sigmas = [random_parahermitian_scalar(6, g) for _ in range(6)]
    meta = {
        "name": "bigsys",
        "paraunitary_order": 10,
        "scalar_len": 6,
    }
    if isinstance(rng, SeededRng):
        meta["seed"] = rng.seed
        meta["stream"] = rng.stream
    sys = assemble(u, sigmas, v, meta=meta)
    sys.meta["order_A"] = sys.A.order
    return sys


def reference_tracks(sys: GroundTruthSystem, n_bins: int) -> np.ndarray:
    """Majorized ground truth: per-bin descending |sigma_m(e^{j omega_k})|.

    The generator scalars, stacked as one (R, 1, T) matrix, are evaluated
    on the grid by one ``eval_grid`` call; ``closed_forms`` is not
    consulted, so it stays an independent oracle.  Shape (R, K); comparable
    track-by-track with majorized trajectories of the (perturbed) assembled
    system.
    """
    vals = np.real(_stacked_scalars(sys.sigmas).eval_grid(n_bins)[:, :, 0].T)
    return -np.sort(-np.abs(vals), axis=0)
