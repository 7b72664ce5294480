"""Random perturbation experiments: probability-one diagnostics, per-bin
histograms with Rician fits, and Stewart-style bounds on perturbed
singular values."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from . import anasvd, densela
from .polymat import PolyMatrix
from .sysgen import GroundTruthSystem, SeededRng, complex_normal

_SQRT_HALF_PI = np.sqrt(np.pi / 2.0)
_EPS = 2.0**-53
# above this x the asymptotic series' smallest term (~e^{-x}) lies below
# rounding, so it replaces the Kummer series
_KUMMER_MAX = 50.0

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
    relative discrepancy of the matched sample moments under the fitted
    parameters, |E[X] - m1|/m1 + |Var[X] - var|/var for the sample mean
    m1 and variance var, so it does not change when the samples are
    scaled; n is the number of samples.
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
    equals ``target`` exactly.  Target 0 gives the zero error, still with
    ``err``'s taps.  Raises FloatingPointError when the scale is not finite:
    it overflows, or the energy of ``sys_mat`` does."""
    if target < 0:
        raise ValueError("target must be >= 0")
    e_energy = err.frob_energy()
    if e_energy <= 0:
        raise ValueError("error matrix has zero energy")
    c = np.sqrt(target * sys_mat.frob_energy() / e_energy)
    if not np.isfinite(c):
        raise FloatingPointError(f"the error scale for sigma2_norm = {target:g} "
                                 "overflows")
    return c * err


def _draw_error(sys: GroundTruthSystem, cfg: PerturbConfig, rng) -> PolyMatrix:
    order = cfg.error_order if cfg.error_order is not None else sys.A.order
    if cfg.sigma2_e is not None:
        return random_error(sys.rows, sys.cols, order, cfg.sigma2_e, rng)
    err = random_error(sys.rows, sys.cols, order, 1.0, rng)
    return scale_to_normalized(err, sys.A, cfg.sigma2_norm)


def _trial(sys: GroundTruthSystem, cfg: PerturbConfig, t: int):
    """Trial t's result, and its majorized trajectories if it is the last."""
    rng = SeededRng(cfg.seed, stream=t).generator()
    err = _draw_error(sys, cfg, rng)
    bins = anasvd.binwise_svd(sys.A + err, cfg.n_bins, vectors=False)
    traj = anasvd.majorized_trajectories(bins)
    report = anasvd.diagnostics(traj)
    actual = 0.0 if sys.A.frob_energy() == 0 else normalized_variance(err, sys.A)
    result = TrialResult(trial=t, report=report, sigma2_norm_actual=actual)
    return result, (traj if t == cfg.trials - 1 else None)


def perturb_and_analyze(
    sys: GroundTruthSystem, cfg: PerturbConfig
) -> Tuple[List[TrialResult], anasvd.SvTrajectories]:
    """Draw A + E per trial and run majorized bin-wise diagnostics.

    Returns all trial results plus the majorized trajectories of the last
    trial.  Trial t draws from stream t of the configured seed, so results
    do not depend on execution order: the trials run concurrently as tasks
    of ``densela.run_tasks``, and the results are bitwise those of running
    them one after another.
    """
    outcomes = densela.run_tasks(functools.partial(_trial, sys, cfg),
                                 range(cfg.trials))
    return [result for result, _ in outcomes], outcomes[-1][1]


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
    a0 = sys.A.eval_at([omega0])[0]
    # rows t*M .. t*M + M - 1 are trial t, drawn as per-trial draws would be
    err = random_error(trials * sys.rows, sys.cols, sys.A.order, sigma2_e, rng)
    e0 = err.eval_at([omega0])[0].reshape(trials, sys.rows, sys.cols)
    _, svals, _ = densela.svd_stack(a0[None, :, :] + e0, vectors=False)
    return svals.T.copy()


def _rician_moments(theta: float) -> Tuple[float, float]:
    # (E[X]/s, Var[X]/s^2) for theta = nu/s from E[X]/s = sqrt(pi/2)
    # 1F1(-1/2; 1; -x), x = theta^2/2 (scipy.special.hyp1f1 in the tests),
    # one series of positive terms per regime.  E[X]/s holds to 3e-15
    # relative, Var/s^2 to 1e-15 above _KUMMER_MAX and to 5e-13 below it,
    # where 2 + theta^2 - h^2 cancels up to a factor of 100
    x = 0.5 * theta * theta
    if x <= _KUMMER_MAX:  # Kummer's transform e^{-x} 1F1(3/2; 1; x)
        term = total = 1.0
        k = 0
        while term > _EPS * total:
            k += 1
            term *= (k + 0.5) * x / (k * k)
            total += term
        h = _SQRT_HALF_PI * math.exp(-x) * total
        return h, 2.0 + theta * theta - h * h
    # asymptotically h = theta (1 + S), S = sum_{k>=1} t_k, t_0 = 1 and
    # t_k = t_{k-1} (k - 3/2)^2 / (k x), so Var/s^2 = 2 - theta^2 S (2 + S)
    term = total = 0.25 / x
    k = 1
    while term > _EPS * total:
        k += 1
        term *= (k - 1.5) ** 2 / (k * x)
        total += term
    return theta * (1.0 + total), 2.0 - theta * theta * total * (2.0 + total)


def rician_fit(samples) -> RicianFit:
    """Fit a Rician distribution by matching sample mean and variance.

    The variance-to-squared-mean ratio pins theta = nu/s as the root of a
    decreasing gap function: hi doubles from 1 until the gap turns
    nonpositive, then bisection halves [0, hi] until its width is at most
    1e-13 + 8.9e-16 hi, and theta is the bracket's midpoint.  Sample ratios
    at or above the Rayleigh limit (4 - pi)/pi give theta = 0, the
    degenerate nu = 0 fit, with the variance mismatch reported in the
    residual.  The scale follows from the mean at theta.  The sample mean
    m1 is an exactly rounded sum over n, and the variance mean(d^2) -
    mean(d)^2 with d = x - m1, so m1's rounding error does not inflate it,
    and a spread below one ulp of the mean is kept.

    The fit runs on the samples scaled by 2^-e, e the binary exponent of
    the largest, and scales nu and s back: a power of two is exact, so the
    moments of any finite sample set stay finite and normal, and scaling
    the samples by 2^k scales nu and s exactly and keeps the residual.  hi
    stops at 1e30, past the theta of any n < 2^60 float samples that are
    not all equal (theta < 2^53 sqrt(n) < 1e25), so its ValueError is not
    reached.

    NaN, infinite or negative samples raise ValueError.
    """
    x = np.asarray(samples, dtype=float).reshape(-1)
    if x.size < 100:
        raise ValueError("need at least 100 samples")
    if not np.all(np.isfinite(x)):
        raise ValueError("samples must be finite")
    if np.any(x < 0):
        raise ValueError("samples must be nonnegative")
    e = int(np.frexp(x.max())[1])
    x = np.ldexp(x, -e)
    m1 = math.fsum(x) / x.size
    d = x - m1
    var = float((d * d).mean() - d.mean() ** 2)
    if var <= 0.0 or m1 <= 0.0:
        raise ValueError("degenerate samples: no spread to fit")
    rho = var / (m1 * m1)

    def gap(t):
        h, v = _rician_moments(t)
        return v / (h * h) - rho

    theta = 0.0
    if gap(0.0) > 0.0:  # below the Rayleigh limit
        hi = 1.0
        while gap(hi) > 0.0:
            hi *= 2.0
            if hi > 1e30:
                raise ValueError("sample ratio out of the Rician range")
        lo = 0.0
        while hi - lo > 1e-13 + 8.9e-16 * hi:
            mid = 0.5 * (lo + hi)
            if gap(mid) > 0.0:
                lo = mid
            else:
                hi = mid
        theta = 0.5 * (lo + hi)
    h, v = _rician_moments(theta)
    s = m1 / h
    residual = abs(s * h - m1) / m1 + abs(s * s * v - var) / var
    return RicianFit(nu=math.ldexp(theta * s, e), s=math.ldexp(s, e),
                     residual=float(residual), n=int(x.size))


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
    rank = int(np.sum(s > RANK_TOL * s[0])) if s.size else 0
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
    if sigma <= RANK_TOL * smax:
        lower = float(svals[3, -1])
    else:
        lower = 0.0
    holds = (lower - STEWART_TOL) <= varsigma <= (upper + STEWART_TOL)
    return StewartCheck(
        sigma_true=sigma, varsigma=varsigma, upper=upper, lower=lower,
        holds=bool(holds),
    )
