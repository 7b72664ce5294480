"""FIR MIMO system identification by the least-squares (Wiener) solution.

Excite a ground-truth system with white unit-variance sources, observe
noisy outputs, solve the sample normal equations over stacked regressors
(block Toeplitz up to edge terms, so they are built from lag products),
and decompose the resulting mean square error into coefficient-error
energy plus the noise floor.

The convolution and the lag products both run over the stacked regressor
Phi[n] = [x[n]; x[n-1]; ...], formed one cache-sized block of columns at a
time in one reused buffer and consumed by one GEMM per block.  The full
stack is never held, so memory stays O((L + M) N + block), the frame plus
one block.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .polymat import PolyMatrix
from .sysgen import GroundTruthSystem, as_generator, complex_normal

# Entries of one stacked-regressor block: 2**16 complex entries (1 MiB) keep
# each block GEMM in cache whatever the regressor dimension, where a fixed
# column count would make the blocks of a few-tap system needlessly narrow
_BLOCK_ENTRIES = 1 << 16


@dataclass(frozen=True)
class SignalFrame:
    """One simulated input/output record."""

    x: np.ndarray  # (L, N) unit-variance uncorrelated sources
    y: np.ndarray  # (M, N) outputs with additive noise
    sigma2_v: float
    n_samples: int


@dataclass(frozen=True)
class WienerEstimate:
    """Causal FIR estimate with taps 0..J_hat.

    condition is lambda_max / lambda_min of the regularized normal matrix
    R_xx + regularization I (inf if it is not positive definite), or None
    for an estimate that did not come from the normal equations.
    """

    A_hat: PolyMatrix
    J_hat: int
    regularization: float
    condition: Optional[float] = None


@dataclass(frozen=True)
class MseReport:
    xi_mse: float           # sample mean of ||A_hat * x - y||^2
    error_energy: float     # sum_n ||A_hat[n] - A[n]||_F^2
    noise_floor: float      # M * sigma2_v
    decomposition_gap: float


def causal_version(a: PolyMatrix):
    """Delay a system so all taps sit at nonnegative powers of z^{-1}.

    Returns (delayed matrix, delay); the delay is removed again before
    comparing an estimate against the ground truth.
    """
    delay = max(0, -a.n_min)
    return a.shifted(delay), delay


def _block_width(d: int, span: int) -> int:
    """Columns per regressor block of dimension d over span columns."""
    return min(max(1, _BLOCK_ENTRIES // d), max(1, span))


def _regressor_blocks(x: np.ndarray, n_taps: int, start: int, stop: int):
    """Yield (b0, b1, phi) over columns start..stop-1 of the stacked regressor.

    phi is the (n_taps L) x (b1 - b0) block of Phi[n] = [x[n]; x[n-1]; ...;
    x[n - n_taps + 1]], n = b0..b1-1, with x taken as zero before n = 0.
    Each block holds at most _BLOCK_ENTRIES entries (one column at least) in
    one buffer that the next block overwrites, so consume phi before
    advancing.
    """
    n_src = x.shape[0]
    d = n_taps * n_src
    width = _block_width(d, stop - start)
    buf = np.empty(d * width, dtype=np.complex128)
    for b0 in range(start, stop, width):
        b1 = min(b0 + width, stop)
        lo = b0 - n_taps + 1
        seg = x[:, max(lo, 0) : b1]
        if lo < 0:
            seg = np.concatenate([np.zeros((n_src, -lo), dtype=x.dtype), seg], axis=1)
        # win[l, k, s] = x[l, b0 + k + s - n_taps + 1]; s reversed is the tap t
        win = sliding_window_view(seg, n_taps, axis=1)
        phi = buf[: d * (b1 - b0)].reshape(n_taps, n_src, b1 - b0)
        phi[...] = win[:, :, ::-1].transpose(2, 0, 1)
        yield b0, b1, phi.reshape(d, b1 - b0)


def _convolve(a: PolyMatrix, x: np.ndarray) -> np.ndarray:
    """y[n] = sum_p A[p] x[n - p] with zero initial state, n = 0..N-1.

    One GEMM per regressor block: y[:, n_min + n] = A_flat Phi[n] with
    A_flat = [A[n_min], A[n_min + 1], ...], the taps side by side.
    """
    if a.n_min < 0:
        raise ValueError("convolution requires a causal system")
    n = x.shape[1]
    y = np.zeros((a.rows, n), dtype=np.complex128)
    span = n - a.n_min
    a_flat = a.coeffs.transpose(0, 2, 1).reshape(a.rows, a.n_taps * a.cols)
    for b0, b1, phi in _regressor_blocks(x, a.n_taps, 0, span):
        y[:, a.n_min + b0 : a.n_min + b1] = a_flat @ phi
    return y


def simulate(sys: GroundTruthSystem, n_samples: int, sigma2_v: float, rng) -> SignalFrame:
    """Drive the (causally delayed) system with CN(0, 1) sources.

    Additive noise is spatially and temporally white CN(0, sigma2_v).
    Requires n_samples to exceed the system order.
    """
    a_causal, _ = causal_version(sys.A)
    if n_samples <= a_causal.order:
        raise ValueError(f"n_samples = {n_samples} must exceed the system "
                         f"order {a_causal.order}")
    g = as_generator(rng)
    x = complex_normal(g, (a_causal.cols, n_samples), 1.0)
    y = _convolve(a_causal, x)
    if sigma2_v > 0:
        y += complex_normal(g, (a_causal.rows, n_samples), sigma2_v)
    return SignalFrame(x=x, y=y, sigma2_v=float(sigma2_v), n_samples=n_samples)


def _stacked_correlations(frame: SignalFrame, j_hat: int):
    """Sample R_xx and R_yx over regressors [x[n]; ...; x[n - J]], n >= J.

    The first j_hat samples (filter transient) are excluded, so the sums run
    over count = N - J regressors.  The first block row of R_xx and all of
    R_yx are the lag products sum_n [x[n]; y[n]] Phi[n]^H with the stacked
    regressor Phi[n] = [x[n]; ...; x[n - J]], accumulated one regressor
    block at a time as conj([x; y]_blk) Phi_blk^T and conjugated once at the
    end, so no conjugated or concatenated copy of the frame is made.
    Shifting the sum by one sample gives the exact edge recursion

        R[i, j] = R[i-1, j-1] + x[J-i] x[J-j]^H - x[N-i] x[N-j]^H,

    which fills the upper block triangle one row of blocks at a time; the
    lower block triangle is its Hermitian mirror.  Only one block of the
    stacked regressors is held at a time, so memory stays
    O((L + M) N + block), the frame plus one block.  Raises ValueError when
    count < d = (J + 1) L, where R_xx is singular.
    """
    x, y = frame.x, frame.y
    n_src, n_out = x.shape[0], y.shape[0]
    n = frame.n_samples
    d = (j_hat + 1) * n_src
    count = n - j_hat
    if count < d:
        raise ValueError(f"n_samples - j_hat = {count} is below the regressor "
                         f"dimension d = {d}")
    # conj(lag[r, j L + l]) = sum_n conj(z_r[n]) x_l[n - j], z = [x; y]
    lag = np.zeros((n_src + n_out, d), dtype=np.complex128)
    zc = np.empty((n_src + n_out) * _block_width(d, count), dtype=np.complex128)
    for b0, b1, phi in _regressor_blocks(x, j_hat + 1, j_hat, n):
        zc_blk = zc[: (n_src + n_out) * (b1 - b0)].reshape(n_src + n_out, b1 - b0)
        np.conjugate(x[:, b0:b1], out=zc_blk[:n_src])
        np.conjugate(y[:, b0:b1], out=zc_blk[n_src:])
        lag += zc_blk @ phi.T
    np.conjugate(lag, out=lag)
    # r[i, :, j] is block R[i, j] of R_xx; columns j L..(j + 1) L - 1 of
    # r_yx are the lag-j block of R_yx
    r = np.empty((j_hat + 1, n_src, j_hat + 1, n_src), dtype=np.complex128)
    r[0] = lag[:n_src].reshape(n_src, j_hat + 1, n_src)
    r_yx = lag[n_src:]
    for i in range(1, j_hat + 1):
        head = x[:, : j_hat - i + 1][:, ::-1]  # x[J - j], j = i..J
        tail = x[:, n - j_hat : n - i + 1][:, ::-1]  # x[N - j], j = i..J
        r[i, :, i:] = (r[i - 1, :, i - 1 : j_hat]
                       + head[:, :1, None] * head.conj().T
                       - tail[:, :1, None] * tail.conj().T)
        r[i, :, :i] = r[:i, :, i].conj().transpose(2, 0, 1)
    return r.reshape(d, d) / count, r_yx / count


def wiener_estimate(frame: SignalFrame, j_hat: int, reg: float = None) -> WienerEstimate:
    """Least-squares FIR estimate from the sample normal equations.

    Solves A_hat = R_yx (R_xx + reg I)^{-1} over the stacked regressors,
    with R_xx and R_yx from the lag products and edge recursion of
    _stacked_correlations.  reg = None applies the numerical floor
    1e-10 tr(R_xx)/D (D the stacked dimension); reg = 0 solves
    unregularized and raises numpy.linalg's LinAlgError on rank-deficient
    data.  Raises ValueError when the record holds fewer than D
    post-transient samples (N - J_hat < D).  The estimate carries the
    condition number of R_xx + reg I, from its eigenvalues.
    """
    if j_hat < 0:
        raise ValueError("j_hat must be >= 0")
    n_src = frame.x.shape[0]
    r_xx, r_yx = _stacked_correlations(frame, j_hat)
    d = (j_hat + 1) * n_src
    if reg is None:
        reg = 1e-10 * float(np.real(np.trace(r_xx))) / d
    lhs = r_xx + reg * np.eye(d)
    lam = np.linalg.eigvalsh(lhs)
    condition = float(lam[-1] / lam[0]) if lam[0] > 0 else np.inf
    # R_xx is Hermitian, so solving lhs^T Z = R_yx^T gives Z^T = A_hat
    a_flat = np.linalg.solve(lhs.T, r_yx.T).T
    taps = a_flat.reshape(r_yx.shape[0], j_hat + 1, n_src)
    return WienerEstimate(
        A_hat=PolyMatrix(np.moveaxis(taps, 1, 2), 0),
        J_hat=j_hat,
        regularization=float(reg),
        condition=condition,
    )


def error_system(est: WienerEstimate, sys: GroundTruthSystem) -> PolyMatrix:
    """E[n] = A_hat[n] - A[n], both aligned to the same causal delay."""
    a_causal, _ = causal_version(sys.A)
    if (est.A_hat.rows, est.A_hat.cols) != (a_causal.rows, a_causal.cols):
        raise ValueError("estimate and system dimensions disagree")
    return est.A_hat - a_causal


def mse_decomposition(
    frame: SignalFrame, est: WienerEstimate, sys: GroundTruthSystem
) -> MseReport:
    """Check xi_MSE = sum_n ||E[n]||_F^2 + M sigma_v^2 on the sample record.

    xi_mse averages over the post-transient samples (n >= J_hat); the gap
    term reports the absolute mismatch of the decomposition.
    """
    resid = _convolve(est.A_hat, frame.x)  # y_hat, made y_hat - y in place
    resid -= frame.y
    xi = float(np.mean(np.sum(np.abs(resid[:, est.J_hat :]) ** 2, axis=0)))
    err_energy = error_system(est, sys).frob_energy()
    noise_floor = frame.y.shape[0] * frame.sigma2_v
    return MseReport(
        xi_mse=xi,
        error_energy=err_energy,
        noise_floor=noise_floor,
        decomposition_gap=abs(xi - err_energy - noise_floor),
    )
