"""FIR MIMO system identification by the least-squares (Wiener) solution.

Excite a ground-truth system with white unit-variance sources, observe
noisy outputs, solve the sample normal equations over stacked regressors
(block Toeplitz up to edge terms, so they are built from lag products),
and decompose the resulting mean square error into coefficient-error
energy plus the noise floor.

simulate draws x from the caller's generator and the measurement noise
from a child generator it spawns, each straight into its own array, as the
two tasks of ``densela.run_tasks``; then the calling thread adds the
convolution of x into y.  Neither draw reads the other's generator or
array, so the record is bitwise the same whichever thread draws which.

The convolution and the lag products both run over polyphase windows:
GEMM row g carries P consecutive samples and reads the P + back samples of
x they depend on, as overlapping read-only views of one small zero-padded,
time-major copy of a block's segment of x.  The convolution multiplies the
windows by a block-Toeplitz tap matrix, and the lag products are the block
diagonals of one Gram of the windows against P time-major samples of
[x; y] per row.  A frame owns its read-only x and y and keeps the lag
products of each fit, so the MSE split of an estimate with taps 0..J_hat
on the frame it was fit on takes xi from the normal equations and
convolves nothing.  Any other split streams the same convolution blocks:
each has the matching slice of y subtracted and adds its squared norm to
the residual sum, so no residual is stored.  One block is held at a time,
so memory stays O((L + M) N + block), the frame plus one block.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .densela import run_tasks
from .polymat import PolyMatrix, _integer, _nonnegative
from .sysgen import GroundTruthSystem, as_generator, complex_normal

# Window entries of one block: 2**16 complex entries (1 MiB) keep each block
# GEMM in cache whatever the window length, where a fixed group count would
# make the blocks of a few-tap system needlessly narrow.  The conjugated
# [x; y] block of _stacked_correlations is P (L + M) / ((P + J) L) times the
# window block, so it exceeds this when P M > J L: 1.6x on example 1 (J = 2)
_BLOCK_ENTRIES = 1 << 16

# Samples per polyphase group P: each GEMM row carries P consecutive
# samples, so a block's copy of x holds each sample about once rather than
# once per tap, and the GEMMs are P times wider; 4..16 were within ~15 % of
# each other on bigsys, 8 the fastest
_PHASES = 8

# The normal-equation MSE S_yy/C - 2 Re<A_hat, R_yx> + <A_hat R_xx, A_hat>
# cancels: its relative error is 1-2 eps (S_yy/C)/xi, so mse_decomposition
# uses it only where xi >= _XI_FLOOR S_yy/C (at most 5.3e-12 over 3000
# random small fits); a noiseless exact fit reads about -1e-15 and streams
_XI_FLOOR = 1e-4


@dataclass(frozen=True, eq=False)
class SignalFrame:
    """One input/output record: 2-D x and y of N samples each, sigma2_v finite and >= 0.

    The frame owns x and y, so the lag products it keeps cannot go stale:
    once the arguments pass their checks, an array that owns its data is
    made read-only in place, and a view, whose base may still be written,
    is replaced by a read-only copy.  A refused frame leaves the caller's
    arrays as they were.  A writable view the caller took of an owned
    array beforehand still writes through it, so keep none.  Frames
    compare by identity; pickling and copying rebuild a frame through the
    constructor, without lag products.
    """

    x: np.ndarray  # (L, N) unit-variance uncorrelated sources
    y: np.ndarray  # (M, N) outputs with additive noise
    sigma2_v: float
    # J_hat -> (R_xx, R_yx, S_yy/C) of _stacked_correlations
    _lags: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        if self.x.ndim != 2 or self.y.ndim != 2:
            raise ValueError(f"x and y must be 2-D, got {self.x.ndim}-D and "
                             f"{self.y.ndim}-D")
        if self.x.shape[1] != self.y.shape[1]:
            raise ValueError(f"x holds {self.x.shape[1]} samples but y holds "
                             f"{self.y.shape[1]}")
        _nonnegative(self.sigma2_v, "sigma2_v")
        for name in ("x", "y"):
            a = getattr(self, name)
            if not a.flags.owndata:
                a = a.copy()
                object.__setattr__(self, name, a)
            a.flags.writeable = False

    def __reduce__(self):
        return SignalFrame, (self.x, self.y, self.sigma2_v)

    @property
    def n_samples(self) -> int:
        return self.x.shape[1]


@dataclass(frozen=True)
class WienerEstimate:
    """Causal FIR estimate with taps 0..J_hat.

    condition is lambda_max / lambda_min of the regularized normal matrix
    R_xx + regularization I (inf if it is not positive definite), or None
    for an estimate that did not come from the normal equations.  It holds
    no frame: a hand-built, copied or pickled equal estimate splits its MSE
    bitwise as the fitted one does.
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


def _windows(x: np.ndarray, back: int, start: int, stop: int):
    """Yield (n0, n1, win) over samples start..stop-1 in polyphase groups.

    Group g of a block covers the P = _PHASES samples n = n0 + g P + p,
    p = 0..P-1; only the last group of the last block is ragged at stop.
    Row g of the (groups, (P + back) L) window is the time-major slice

        win[g, i L + l] = x[l, n0 + g P - back + i],   i = 0..P + back - 1,

    with x taken as zero outside 0..N-1.  The rows overlap: win is one
    read-only view of a zero-padded, time-major copy of the block's
    segment of x, held in one buffer that the next block overwrites, so
    consume win before advancing.  Each block holds at most _BLOCK_ENTRIES
    window entries (one group at least).
    """
    n_src, n = x.shape
    row = (_PHASES + back) * n_src
    groups = max(1, min(_BLOCK_ENTRIES // row, -(-(stop - start) // _PHASES)))
    buf = np.empty((groups * _PHASES + back) * n_src, dtype=np.complex128)
    windows = sliding_window_view(buf, row, writeable=False)[:: _PHASES * n_src]
    for n0 in range(start, stop, groups * _PHASES):
        n1 = min(n0 + groups * _PHASES, stop)
        g = -(-(n1 - n0) // _PHASES)
        lo, hi = n0 - back, n0 + g * _PHASES
        seg = buf[: (hi - lo) * n_src].reshape(hi - lo, n_src)
        a, b = max(lo, 0), min(hi, n)
        seg[: a - lo] = 0
        seg[a - lo : b - lo] = x[:, a:b].T
        seg[b - lo :] = 0
        yield n0, n1, windows[:g]


def _convolved_blocks(a: PolyMatrix, x: np.ndarray):
    """Yield (n0, n1, out) with out[i] = y[n0 + i], y[n] = sum_p A[p] x[n - p].

    The blocks cover n = n_min..N-1 with zero initial state (y[n] = 0 for
    n < n_min); out is a fresh, writable, time-major (n1 - n0, M) array.
    One GEMM per window block (back = T - 1): the P outputs of polyphase
    group g are win[g] @ H, with the block-Toeplitz tap matrix H of shape
    ((P + T - 1) L, P M) whose block (i, p) is the transposed tap
    coeffs[:, :, p + T - 1 - i] (zero outside 0..T-1), so
    y[:, n_min + n0 + g P + p] is block p of row g of the product.
    """
    if a.n_min < 0:
        raise ValueError("convolution requires a causal system")
    n = x.shape[1]
    n_out, n_src, n_taps = a.coeffs.shape
    h = np.zeros((_PHASES + n_taps - 1, n_src, _PHASES, n_out), dtype=np.complex128)
    for p in range(_PHASES):
        h[p : p + n_taps, :, p] = a.coeffs[:, :, ::-1].T
    h = h.reshape((_PHASES + n_taps - 1) * n_src, _PHASES * n_out)
    for n0, n1, win in _windows(x, n_taps - 1, 0, n - a.n_min):
        out = (win @ h).reshape(-1, n_out)
        yield a.n_min + n0, a.n_min + n1, out[: n1 - n0]


def _convolve(a: PolyMatrix, x: np.ndarray, y: np.ndarray) -> None:
    """Add y[n] += sum_p A[p] x[n - p] with zero initial state, n = 0..N-1."""
    for n0, n1, out in _convolved_blocks(a, x):
        y[:, n0:n1] += out.T


def simulate(sys: GroundTruthSystem, n_samples: int, sigma2_v: float, rng) -> SignalFrame:
    """Drive the (causally delayed) system with CN(0, 1) sources.

    Additive noise is spatially and temporally white CN(0, sigma2_v).  x is
    one (L, N) draw from ``rng``'s own stream, and the noise one (M, N)
    draw, straight into y, from the child generator ``rng.spawn(1)`` that
    each call takes, so consecutive calls on one generator draw their noise
    from its children 0, 1, ...; sigma2_v = 0 leaves y at zero and draws
    nothing from the child.  The two draws are the two tasks of
    ``densela.run_tasks``: x on the calling thread, the noise on a worker
    when the pool has a free slot and inline after x otherwise.  Each
    writes only its own array, so the record is bitwise the same either
    way.  Then the calling thread adds the convolution (_convolve) into y.
    n_samples must be an integer (TypeError otherwise) that exceeds the
    system order, and sigma2_v finite and >= 0 (ValueError otherwise).  Both
    are checked before anything is drawn or spawned.  x and y own their
    data, so the frame takes them over without a copy.
    """
    _nonnegative(sigma2_v, "sigma2_v")
    n_samples = _integer(n_samples, "n_samples")
    a_causal, _ = causal_version(sys.A)
    if n_samples <= a_causal.order:
        raise ValueError(f"n_samples = {n_samples} must exceed the system "
                         f"order {a_causal.order}")
    g = as_generator(rng)
    (noise_rng,) = g.spawn(1)
    x = np.empty((a_causal.cols, n_samples), dtype=np.complex128)
    y = np.zeros((a_causal.rows, n_samples), dtype=np.complex128)
    tasks = [lambda: complex_normal(g, x.shape, 1.0, out=x)]
    if sigma2_v > 0:
        tasks.append(lambda: complex_normal(noise_rng, y.shape, sigma2_v, out=y))
    run_tasks(lambda task: task(), tasks)
    _convolve(a_causal, x, y)
    return SignalFrame(x=x, y=y, sigma2_v=float(sigma2_v))


def _stacked_correlations(frame: SignalFrame, j_hat: int):
    """Sample R_xx, R_yx over regressors [x[n]; ...; x[n - J]], and S_yy/C.

    The first j_hat samples (filter transient) are excluded, so the sums run
    over C = count = N - J regressors; S_yy sums ||y[n]||^2 row by row.
    The frame keeps the three in _lags for mse_decomposition.  The
    first block row of R_xx and all of R_yx are the J + 1 lag products
    sum_n [x[n]; y[n]] x[n - j]^H.  Per window block (back = J, from n = J
    on), row g of Z_blk holds conj([x; y]) at the P samples n = J + g P + p
    of polyphase group g, time-major, and Z_blk^T win accumulates one
    (P (L + M)) x ((P + J) L) Gram.  Lag j is the sum of its P blocks
    (p, p + J - j), conjugated once at the end, so no conjugated or
    concatenated copy of the frame is made.
    Shifting the sum by one sample gives the exact edge recursion

        R[i, j] = R[i-1, j-1] + x[J-i] x[J-j]^H - x[N-i] x[N-j]^H,

    which fills the upper block triangle one row of blocks at a time; the
    lower block triangle is its Hermitian mirror.  Only one window block and
    its Z_blk are held at a time, so memory stays O((L + M) N + block), the
    frame plus one block; Z_blk is P (L + M) / ((P + J) L) times the window
    block (see _BLOCK_ENTRIES).  Raises ValueError when
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
    # gram[p, r, i, l] = sum_g conj(z_r[J + g P + p]) x_l[g P + i] over the
    # polyphase groups g, z = [x; y]; window sample i = p + J - j is lag j of
    # phase p, so conj(lag[r, j, l]) = sum_n conj(z_r[n]) x_l[n - j] sums one
    # block diagonal per phase
    n_z = n_src + n_out
    gram = np.zeros((_PHASES * n_z, (_PHASES + j_hat) * n_src), dtype=np.complex128)
    zc = None
    for n0, n1, win in _windows(x, j_hat, j_hat, n):
        if zc is None:
            zc = np.empty((win.shape[0] * _PHASES, n_z), dtype=np.complex128)
        zc_blk = zc[: win.shape[0] * _PHASES]
        np.conjugate(x[:, n0:n1].T, out=zc_blk[: n1 - n0, :n_src])
        np.conjugate(y[:, n0:n1].T, out=zc_blk[: n1 - n0, n_src:])
        zc_blk[n1 - n0 :] = 0
        gram += zc_blk.reshape(win.shape[0], _PHASES * n_z).T @ win
    gram = gram.reshape(_PHASES, n_z, _PHASES + j_hat, n_src)
    lag = np.zeros((n_z, j_hat + 1, n_src), dtype=np.complex128)
    for p in range(_PHASES):
        lag += gram[p, :, p : p + j_hat + 1][:, ::-1]
    np.conjugate(lag, out=lag)
    lag = lag.reshape(n_z, d)
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
    with np.errstate(all="ignore"):  # mse_decomposition streams a non-finite xi
        s_yy = sum(np.vdot(row, row).real for row in y[:, j_hat:])
        lags = (r.reshape(d, d) / count, r_yx / count, float(s_yy / count))
    frame._lags[j_hat] = lags
    return lags


def wiener_estimate(frame: SignalFrame, j_hat: int, reg: float = None) -> WienerEstimate:
    """Least-squares FIR estimate from the sample normal equations.

    Solves A_hat = R_yx (R_xx + reg I)^{-1} over the stacked regressors,
    with R_xx and R_yx from the lag products and edge recursion of
    _stacked_correlations.  reg = None applies the numerical floor
    1e-10 tr(R_xx)/D (D the stacked dimension); reg = 0 solves
    unregularized and raises numpy.linalg's LinAlgError on rank-deficient
    data.  j_hat must be an integer >= 0, reg finite and >= 0, and the
    record must hold D post-transient samples (N - J_hat >= D).  The
    estimate carries the condition number of R_xx + reg I, from its
    eigenvalues; it forms no xi_MSE (mse_decomposition does).
    """
    j_hat = _integer(j_hat, "j_hat", 0)
    if reg is not None:
        _nonnegative(reg, "reg")
    r_xx, r_yx, _ = _stacked_correlations(frame, j_hat)
    d = r_xx.shape[0]
    if reg is None:
        reg = 1e-10 * float(np.real(np.trace(r_xx))) / d
    r_xx = r_xx.copy()
    r_xx.flat[:: d + 1] += reg  # R_xx + reg I
    lam = np.linalg.eigvalsh(r_xx)
    condition = float(lam[-1] / lam[0]) if lam[0] > 0 else np.inf
    # R_xx + reg I is Hermitian, so solving its transpose for R_yx^T
    # gives A_hat^T
    a_flat = np.linalg.solve(r_xx.T, r_yx.T).T
    taps = a_flat.reshape(r_yx.shape[0], j_hat + 1, frame.x.shape[0])
    return WienerEstimate(
        A_hat=PolyMatrix(np.moveaxis(taps, 1, 2), 0),
        J_hat=j_hat,
        regularization=float(reg),
        condition=condition,
    )


def error_system(est: WienerEstimate, sys: GroundTruthSystem) -> PolyMatrix:
    """E[n] = A_hat[n] - A[n], both aligned to the same causal delay."""
    return est.A_hat - causal_version(sys.A)[0]


def mse_decomposition(
    frame: SignalFrame, est: WienerEstimate, sys: GroundTruthSystem
) -> MseReport:
    """Check xi_MSE = sum_n ||E[n]||_F^2 + M sigma_v^2 on the sample record.

    xi_mse averages ||(A_hat * x)[n] - y[n]||^2 over the post-transient
    samples n = J_hat..N-1, with zero initial state; the gap term reports
    the absolute mismatch of the decomposition.  If the frame keeps lag
    products at J_hat (it was fit there by wiener_estimate) and A_hat has
    taps 0..J_hat, xi is S_yy/C - 2 Re<A_hat, R_yx> +
    Re<A_hat R_xx, A_hat> where that is finite and >= _XI_FLOOR S_yy/C
    (within ~5e-12 of the residual).  Otherwise the residual is summed one
    convolution block at a time: each block of A_hat * x has the matching
    time-major slice of y subtracted in place and adds its squared norm, so
    no N-length array is made.  The report depends on the frame, whether
    it was fit at J_hat, and the estimate's fields, so equal estimates,
    copies included, give equal reports.  J_hat must be an integer in
    0..N-1, and A_hat must map the frame's sources to its outputs.
    """
    x, y, n, a = frame.x, frame.y, frame.n_samples, est.A_hat
    j_hat = _integer(est.J_hat, "J_hat")
    if not 0 <= j_hat < n:
        raise ValueError(f"J_hat = {j_hat} must lie in 0..{n - 1} for "
                         f"n_samples = {n}")
    if (a.rows, a.cols) != (y.shape[0], x.shape[0]):
        raise ValueError(f"A_hat is {a.rows}x{a.cols} but the "
                         f"frame has {y.shape[0]} outputs and {x.shape[0]} sources")
    xi = s_yy = np.nan
    if j_hat in frame._lags and (a.n_min, a.n_taps) == (0, j_hat + 1):
        r_xx, r_yx, s_yy = frame._lags[j_hat]  # S_yy/C
        a_flat = np.moveaxis(a.coeffs, 2, 1).reshape(a.rows, -1)
        with np.errstate(all="ignore"):  # a non-finite xi streams
            xi = float(s_yy - 2.0 * np.vdot(a_flat, r_yx).real
                       + np.vdot(a_flat, a_flat @ r_xx).real)
    if not (np.isfinite(xi) and xi >= _XI_FLOOR * s_yy):
        # before n_min the estimate outputs zero, so the residual is -y there
        head = y[:, j_hat : max(j_hat, a.n_min)]
        sq_sum = np.vdot(head, head).real
        for n0, n1, out in _convolved_blocks(a, x):
            lo = max(n0, j_hat)
            if lo < n1:
                resid = out[lo - n0 :]
                resid -= y[:, lo:n1].T
                sq_sum += np.vdot(resid, resid).real
        xi = float(sq_sum) / (n - j_hat)
    err_energy = error_system(est, sys).frob_energy()
    noise_floor = y.shape[0] * frame.sigma2_v
    return MseReport(
        xi_mse=xi,
        error_energy=err_energy,
        noise_floor=noise_floor,
        decomposition_gap=abs(xi - err_energy - noise_floor),
    )
