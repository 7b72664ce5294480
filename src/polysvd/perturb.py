"""Random perturbation experiments: probability-one diagnostics, per-bin
histograms with Rician fits, and Stewart-style bounds on perturbed
singular values."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from . import anasvd, densela
from .polymat import PolyMatrix
from .sysgen import GroundTruthSystem, SeededRng, complex_normal

_SQRT_HALF_PI = np.sqrt(np.pi / 2.0)
_EPS = 2.0**-53
# above this argument the Hankel expansion's smallest term (~e^{-2x}) lies
# below rounding, so it replaces the power series
_BESSEL_SERIES_MAX = 25.0

# Relative threshold separating genuine rank deficiency from
# double-precision noise in order-30 convolutions.
RANK_TOL = 1e-10
# Slack on both sides of the Stewart bounds.
STEWART_TOL = 1e-9


@dataclass(frozen=True)
class PerturbConfig:
    """Settings for a perturbation run.

    Exactly one of sigma2_e (per-coefficient complex variance) and
    sigma2_norm (target coefficient-energy ratio against the system) must
    be set.  error_order = None uses the order of the system matrix.
    """

    trials: int = 1
    n_bins: int = 4096
    seed: int = 0
    sigma2_e: Optional[float] = None
    sigma2_norm: Optional[float] = None
    error_order: Optional[int] = None

    def __post_init__(self):
        if (self.sigma2_e is None) == (self.sigma2_norm is None):
            raise ValueError("set exactly one of sigma2_e and sigma2_norm")
        level = self.sigma2_e if self.sigma2_e is not None else self.sigma2_norm
        if not np.isfinite(level):
            raise ValueError("perturbation variance must be finite")
        if level < 0:
            raise ValueError("perturbation variance must be >= 0")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.n_bins < 1:
            raise ValueError("n_bins must be >= 1")


@dataclass(frozen=True)
class RicianFit:
    """Method-of-moments Rician parameters for a nonnegative sample set.

    nu is the noncentrality, s the per-component scale; residual is the
    absolute discrepancy of the matched sample moments (mean and variance)
    under the fitted parameters; n is the number of samples.
    """

    nu: float
    s: float
    residual: float
    n: int


@dataclass(frozen=True)
class StewartCheck:
    """One projection-bound check of a perturbed singular value."""

    sigma_true: float
    varsigma: float
    upper: float
    lower: float
    holds: bool


@dataclass(frozen=True)
class TrialResult:
    trial: int
    report: anasvd.DiagnosticsReport
    sigma2_norm_actual: float


def random_error(rows: int, cols: int, order: int, sigma2_e: float, rng) -> PolyMatrix:
    """Causal (order+1)-tap matrix of i.i.d. CN(0, sigma2_e) coefficients."""
    if sigma2_e < 0:
        raise ValueError("sigma2_e must be >= 0")
    if order < 0:
        raise ValueError("order must be >= 0")
    taps = complex_normal(rng, (rows, cols, order + 1), sigma2_e)
    return PolyMatrix(taps, 0)


def normalized_variance(err: PolyMatrix, sys_mat: PolyMatrix) -> float:
    """Coefficient-energy ratio sum||E[n]||_F^2 / sum||A[n]||_F^2."""
    denom = sys_mat.frob_energy()
    if denom <= 0:
        raise ValueError("system matrix has zero energy")
    return err.frob_energy() / denom


def scale_to_normalized(err: PolyMatrix, sys_mat: PolyMatrix, target: float) -> PolyMatrix:
    """Rescale ``err`` so that its normalized variance against ``sys_mat``
    equals ``target`` exactly."""
    if target < 0:
        raise ValueError("target must be >= 0")
    e_energy = err.frob_energy()
    if e_energy <= 0:
        raise ValueError("error matrix has zero energy")
    if target == 0.0:
        return PolyMatrix.zeros(err.rows, err.cols)
    c = np.sqrt(target * sys_mat.frob_energy() / e_energy)
    return c * err


def _draw_error(sys: GroundTruthSystem, cfg: PerturbConfig, rng) -> PolyMatrix:
    order = cfg.error_order if cfg.error_order is not None else sys.A.order
    if cfg.sigma2_e is not None:
        return random_error(sys.rows, sys.cols, order, cfg.sigma2_e, rng)
    err = random_error(sys.rows, sys.cols, order, 1.0, rng)
    return scale_to_normalized(err, sys.A, cfg.sigma2_norm)


def perturb_and_analyze(
    sys: GroundTruthSystem, cfg: PerturbConfig
) -> Tuple[List[TrialResult], anasvd.SvTrajectories]:
    """Draw A + E per trial and run majorized bin-wise diagnostics.

    Returns all trial results plus the majorized trajectories of the last
    trial.  Trial t draws from stream t of the configured seed, so results
    do not depend on execution order.
    """
    results = []
    traj = None
    for t in range(cfg.trials):
        rng = SeededRng(cfg.seed, stream=t).generator()
        err = _draw_error(sys, cfg, rng)
        a_hat = sys.A + err
        bins = anasvd.binwise_svd(a_hat, cfg.n_bins, vectors=False)
        traj = anasvd.majorized_trajectories(bins)
        report = anasvd.diagnostics(traj)
        actual = 0.0 if sys.A.frob_energy() == 0 else normalized_variance(err, sys.A)
        results.append(TrialResult(trial=t, report=report, sigma2_norm_actual=actual))
    return results, traj


def bin_histogram_trials(
    sys: GroundTruthSystem, omega0: float, trials: int, sigma2_e: float, rng
) -> np.ndarray:
    """Majorized singular values of A(e^{j omega0}) + E(e^{j omega0}) per trial.

    E is freshly drawn each trial with the order of the system matrix.
    Returns an (R, trials) array: row m holds the samples of the m-th
    singular value.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    a0 = sys.A.eval(omega0)
    # rows t*M .. t*M + M - 1 are trial t, drawn as per-trial draws would be
    err = random_error(trials * sys.rows, sys.cols, sys.A.order, sigma2_e, rng)
    e0 = err.eval_at([omega0])[0].reshape(trials, sys.rows, sys.cols)
    _, svals, _ = densela.svd_stack(a0[None, :, :] + e0, vectors=False)
    return svals.T.copy()


def _ive(nu: int, x: float) -> float:
    # exp(-x) I_nu(x) for nu in {0, 1} and x >= 0
    if x <= _BESSEL_SERIES_MAX:
        # power series sum_k (x^2/4)^k (x/2)^nu / (k! (k+nu)!): every term
        # is positive, so nothing cancels
        q = 0.25 * x * x
        term = total = 1.0 if nu == 0 else 0.5 * x
        k = 0
        while term > _EPS * total:
            k += 1
            term *= q / (k * (k + nu))
            total += term
        return total * math.exp(-x)
    # Hankel expansion e^x / sqrt(2 pi x) sum_k t_k, cut at its smallest term
    mu = 4.0 * nu * nu
    term = total = 1.0
    k = 0
    while abs(term) > _EPS * abs(total):
        k += 1
        nxt = term * ((2 * k - 1) ** 2 - mu) / (8.0 * k * x)
        if abs(nxt) >= abs(term):
            break
        term = nxt
        total += term
    return total / math.sqrt(2.0 * math.pi * x)


def _rician_mean_factor(theta: float) -> float:
    # E[X]/s for theta = nu/s, via exponentially scaled Bessel functions
    a = 0.25 * theta * theta
    return _SQRT_HALF_PI * ((1.0 + 2.0 * a) * _ive(0, a) + 2.0 * a * _ive(1, a))


def _rician_var_factor(theta: float) -> float:
    h = _rician_mean_factor(theta)
    return 2.0 + theta * theta - h * h


def rician_fit(samples) -> RicianFit:
    """Fit a Rician distribution by matching sample mean and variance.

    The variance-to-squared-mean ratio pins theta = nu/s as the root of a
    decreasing gap function: hi doubles from 1 until the gap turns
    nonpositive, then bisection halves [0, hi] until its width is at most
    1e-13 + 8.9e-16 hi, and theta is the bracket's midpoint.  The scale
    follows from the mean.  Sample ratios at or above the Rayleigh limit
    (4 - pi)/pi yield the degenerate nu = 0 fit with the mean matched and
    the variance mismatch reported in the residual.
    """
    x = np.asarray(samples, dtype=float).reshape(-1)
    if x.size < 100:
        raise ValueError("need at least 100 samples")
    if not np.all(np.isfinite(x)):
        raise ValueError("samples must be finite")
    if np.any(x < 0):
        raise ValueError("samples must be nonnegative")
    with np.errstate(over="ignore"):
        m1 = float(x.mean())
        var = float(x.var())
    if not (np.isfinite(m1) and np.isfinite(var)):
        raise ValueError("sample mean and variance must be finite")
    if var <= 0.0 or m1 <= 0.0:
        raise ValueError("degenerate samples: no spread to fit")
    rho = var / (m1 * m1)
    rho0 = _rician_var_factor(0.0) / _rician_mean_factor(0.0) ** 2
    if rho >= rho0:
        theta = 0.0
        s = m1 / _SQRT_HALF_PI
    else:
        def gap(t):
            h = _rician_mean_factor(t)
            return _rician_var_factor(t) / (h * h) - rho

        hi = 1.0
        while gap(hi) > 0.0:
            hi *= 2.0
            if hi > 1e12:
                raise ValueError("sample ratio out of the Rician range")
        lo = 0.0
        while hi - lo > 1e-13 + 8.9e-16 * hi:
            mid = 0.5 * (lo + hi)
            if gap(mid) > 0.0:
                lo = mid
            else:
                hi = mid
        theta = 0.5 * (lo + hi)
        s = m1 / _rician_mean_factor(theta)
    nu = theta * s
    residual = abs(s * _rician_mean_factor(theta) - m1) + abs(
        s * s * _rician_var_factor(theta) - var
    )
    return RicianFit(nu=float(nu), s=float(s), residual=float(residual),
                     n=int(x.size))


def stewart_bounds(a_bin, e_bin, m: int) -> StewartCheck:
    """Projection bounds for the m-th (0-based) perturbed singular value.

    upper = sqrt((sigma_m + ||P E||_2)^2 + ||P_perp E||_2^2) with P the
    column-space projector of the unperturbed bin; the lower bound
    sigma_min(P_perp E) applies only when sigma_m vanishes within RANK_TOL
    (the regime the expansion targets), else 0.  The bounds hold when
    varsigma lies within them up to STEWART_TOL.

    Two stacked SVDs: a full one of A gives the rank and P from the first
    rank left vectors, and a values-only one of [A, A + E, P E, P_perp E]
    gives every singular value and norm reported.  LAPACK's values with
    and without vectors may differ in the last bit, so sigma_m and
    sigma_max come from the values-only call, like varsigma.
    """
    a_bin = np.asarray(a_bin, dtype=np.complex128)
    e_bin = np.asarray(e_bin, dtype=np.complex128)
    u, s, _ = densela.svd_stack(a_bin[None])
    u, s = u[0], s[0]
    if s.size == 0 or s[0] == 0.0:
        rank = 0
    else:
        rank = int(np.sum(s > RANK_TOL * s[0]))
    ur = u[:, :rank]
    p = ur @ ur.conj().T
    p_perp = np.eye(a_bin.shape[0], dtype=np.complex128) - p
    _, svals, _ = densela.svd_stack(
        np.stack([a_bin, a_bin + e_bin, p @ e_bin, p_perp @ e_bin]),
        vectors=False)
    if not 0 <= m < svals.shape[1]:
        raise IndexError(f"singular value index {m} out of range")
    sigma, varsigma = (float(v) for v in svals[:2, m])
    smax, n_pe, n_ppe = (float(v) for v in svals[[0, 2, 3], 0])
    upper = float(np.sqrt((sigma + n_pe) ** 2 + n_ppe**2))
    if smax == 0.0 or sigma <= RANK_TOL * smax:
        lower = float(svals[3, -1])
    else:
        lower = 0.0
    holds = (lower - STEWART_TOL) <= varsigma <= (upper + STEWART_TOL)
    return StewartCheck(
        sigma_true=sigma, varsigma=varsigma, upper=upper, lower=lower,
        holds=bool(holds),
    )
