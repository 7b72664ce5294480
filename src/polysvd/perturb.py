"""Random perturbation experiments: probability-one diagnostics, per-bin
histograms with Rician fits, and Stewart-style bounds on perturbed
singular values."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from . import anasvd, densela
from .polymat import PolyMatrix
from .sysgen import GroundTruthSystem, SeededRng, as_generator, complex_normal

_SQRT_HALF_PI = np.sqrt(np.pi / 2.0)


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
    under the fitted parameters.
    """

    nu: float
    s: float
    residual: float
    n_samples: int


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
    g = as_generator(rng)
    a0 = sys.A.eval(omega0)
    order = sys.A.order
    # one batched draw consumes the stream exactly like per-trial draws
    taps = complex_normal(g, (trials, sys.rows, sys.cols, order + 1), sigma2_e)
    phases = np.exp(-1j * omega0 * np.arange(order + 1))
    e0 = np.tensordot(taps, phases, axes=(3, 0))
    svals = np.linalg.svd(a0[None, :, :] + e0, compute_uv=False)
    return svals.T.copy()


def _rician_mean_factor(theta: float) -> float:
    # E[X]/s for theta = nu/s, via exponentially scaled Bessel functions;
    # scipy is imported here, not at module level, so that only the Rician
    # fit pays its import time
    from scipy.special import i0e, i1e

    a = 0.25 * theta * theta
    return _SQRT_HALF_PI * ((1.0 + 2.0 * a) * i0e(a) + 2.0 * a * i1e(a))


def _rician_var_factor(theta: float) -> float:
    h = _rician_mean_factor(theta)
    return 2.0 + theta * theta - h * h


def rician_fit(samples) -> RicianFit:
    """Fit a Rician distribution by matching sample mean and variance.

    The variance-to-squared-mean ratio pins theta = nu/s through a scalar
    root find; the scale follows from the mean.  Sample ratios at or above
    the Rayleigh limit (4 - pi)/pi yield the degenerate nu = 0 fit with the
    mean matched and the variance mismatch reported in the residual.
    """
    from scipy.optimize import brentq

    x = np.asarray(samples, dtype=float).reshape(-1)
    if x.size < 100:
        raise ValueError("need at least 100 samples")
    if np.any(x < 0):
        raise ValueError("samples must be nonnegative")
    m1 = float(x.mean())
    var = float(x.var())
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
        theta = brentq(gap, 0.0, hi, xtol=1e-13, rtol=8.9e-16)
        s = m1 / _rician_mean_factor(theta)
    nu = theta * s
    residual = abs(s * _rician_mean_factor(theta) - m1) + abs(
        s * s * _rician_var_factor(theta) - var
    )
    return RicianFit(nu=float(nu), s=float(s), residual=float(residual),
                     n_samples=int(x.size))


def stewart_bounds(
    a_bin, e_bin, m: int, rank_tol: float = densela.RANK_TOL, tol: float = 1e-9
) -> StewartCheck:
    """Projection bounds for the m-th (0-based) perturbed singular value.

    upper = sqrt((sigma_m + ||P E||_2)^2 + ||P_perp E||_2^2) with P the
    column-space projector of the unperturbed bin; the lower bound
    smallest_sv(P_perp E) applies only when sigma_m vanishes within
    rank_tol (the regime the expansion targets), else 0.
    """
    a_bin = np.asarray(a_bin, dtype=np.complex128)
    e_bin = np.asarray(e_bin, dtype=np.complex128)
    svals = np.linalg.svd(a_bin, compute_uv=False)
    if not 0 <= m < svals.size:
        raise IndexError(f"singular value index {m} out of range")
    sigma = float(svals[m])
    varsigma = float(np.linalg.svd(a_bin + e_bin, compute_uv=False)[m])
    p, p_perp = densela.colspace_projector(a_bin, rank_tol)
    n_pe = densela.spectral_norm(p @ e_bin)
    n_ppe = densela.spectral_norm(p_perp @ e_bin)
    upper = float(np.sqrt((sigma + n_pe) ** 2 + n_ppe**2))
    smax = float(svals[0])
    if smax == 0.0 or sigma <= rank_tol * smax:
        lower = densela.smallest_sv(p_perp @ e_bin)
    else:
        lower = 0.0
    holds = (lower - tol) <= varsigma <= (upper + tol)
    return StewartCheck(
        sigma_true=sigma, varsigma=varsigma, upper=upper, lower=float(lower),
        holds=bool(holds),
    )
