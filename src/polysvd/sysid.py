"""FIR MIMO system identification by the least-squares (Wiener) solution.

Excite a ground-truth system with white unit-variance sources, observe
noisy outputs, solve the sample normal equations over stacked regressors
(block Toeplitz up to edge terms, so they are built from lag products),
and decompose the resulting mean square error into coefficient-error
energy plus the noise floor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .polymat import PolyMatrix
from .sysgen import GroundTruthSystem, as_generator, complex_normal


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


def _convolve(a: PolyMatrix, x: np.ndarray) -> np.ndarray:
    """y[n] = sum_p A[p] x[n - p] with zero initial state, n = 0..N-1."""
    if a.n_min < 0:
        raise ValueError("convolution requires a causal system")
    n = x.shape[1]
    y = np.zeros((a.rows, n), dtype=np.complex128)
    for t in range(a.n_taps):
        p = a.n_min + t
        if p >= n:
            break
        y[:, p:] += a.coeffs[:, :, t] @ x[:, : n - p]
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
        y = y + complex_normal(g, (a_causal.rows, n_samples), sigma2_v)
    return SignalFrame(x=x, y=y, sigma2_v=float(sigma2_v), n_samples=n_samples)


def _stacked_correlations(frame: SignalFrame, j_hat: int):
    """Sample R_xx and R_yx over regressors [x[n]; ...; x[n - J]], n >= J.

    The first j_hat samples (filter transient) are excluded, so the sums run
    over count = N - J regressors.  The first block row of R_xx and all of
    R_yx come from J + 1 lag products [x[n]; y[n]] x[n - j]^H, one
    (L + M) x count by count x L product per lag j.  Shifting the sum by one
    sample gives the exact edge recursion

        R[i, j] = R[i-1, j-1] + x[J-i] x[J-j]^H - x[N-i] x[N-j]^H,

    which fills the upper block triangle one row of blocks at a time; the
    lower block triangle is its Hermitian mirror.  The stack of shifted
    regressors is never formed, so memory stays O((L + M) N), the size of
    the frame.  Raises ValueError when count < d = (J + 1) L, where R_xx is
    singular.
    """
    x, y = frame.x, frame.y
    n_src, n_out = x.shape[0], y.shape[0]
    n = frame.n_samples
    d = (j_hat + 1) * n_src
    count = n - j_hat
    if count < d:
        raise ValueError(f"n_samples - j_hat = {count} is below the regressor "
                         f"dimension d = {d}")
    xc = x.conj()
    z = np.concatenate([x[:, j_hat:], y[:, j_hat:]])
    # r[i, :, j] is block R[i, j] of R_xx, r_yx[:, j] the lag-j block of R_yx
    r = np.empty((j_hat + 1, n_src, j_hat + 1, n_src), dtype=np.complex128)
    r_yx = np.empty((n_out, j_hat + 1, n_src), dtype=np.complex128)
    for j in range(j_hat + 1):
        lag = z @ xc[:, j_hat - j : n - j].T
        r[0, :, j] = lag[:n_src]
        r_yx[:, j] = lag[n_src:]
    for i in range(1, j_hat + 1):
        head = x[:, : j_hat - i + 1][:, ::-1]  # x[J - j], j = i..J
        tail = x[:, n - j_hat : n - i + 1][:, ::-1]  # x[N - j], j = i..J
        r[i, :, i:] = (r[i - 1, :, i - 1 : j_hat]
                       + head[:, :1, None] * head.conj().T
                       - tail[:, :1, None] * tail.conj().T)
        r[i, :, :i] = r[:i, :, i].conj().transpose(2, 0, 1)
    return r.reshape(d, d) / count, r_yx.reshape(n_out, d) / count


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
    y_hat = _convolve(est.A_hat, frame.x)
    resid = y_hat[:, est.J_hat :] - frame.y[:, est.J_hat :]
    xi = float(np.mean(np.sum(np.abs(resid) ** 2, axis=0)))
    err_energy = error_system(est, sys).frob_energy()
    noise_floor = frame.y.shape[0] * frame.sigma2_v
    return MseReport(
        xi_mse=xi,
        error_energy=err_energy,
        noise_floor=noise_floor,
        decomposition_gap=abs(xi - err_energy - noise_floor),
    )
