"""Perturbation draws, normalized variance, Rician fits, Stewart bounds."""

import math
import os
import re
import subprocess
import sys
import textwrap
import threading
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polysvd import (
    PerturbConfig,
    PolyMatrix,
    SeededRng,
    StewartCheck,
    bin_histogram_trials,
    bigsys,
    binwise_svd,
    diagnostics,
    example1,
    majorized_trajectories,
    normalized_variance,
    perturb_and_analyze,
    random_error,
    rician_fit,
    scale_to_normalized,
    stewart_bounds,
)
from polysvd import densela, perturb
from polysvd.cli import main
from polysvd.sysgen import GroundTruthSystem, complex_normal


class TestRandomError:
    def test_zero_variance(self):
        e = random_error(2, 3, 4, 0.0, SeededRng(0))
        assert e.max_abs() == 0.0

    def test_mean_energy(self):
        # 2*2*3 = 12 coefficients at variance 1e-4 -> expected energy 1.2e-3
        rng = SeededRng(21).generator()
        energies = [random_error(2, 2, 2, 1e-4, rng).frob_energy() for _ in range(10000)]
        assert np.mean(energies) == pytest.approx(1.2e-3, rel=0.05)

    def test_reproducible(self):
        a = random_error(3, 3, 5, 0.01, SeededRng(4))
        b = random_error(3, 3, 5, 0.01, SeededRng(4))
        assert np.array_equal(a.coeffs, b.coeffs)

    def test_tap_count_and_causality(self):
        e = random_error(2, 2, 6, 1.0, SeededRng(5))
        assert e.n_taps == 7 and e.n_min == 0


class TestNormalizedVariance:
    def test_self_ratio(self):
        a = example1().A
        assert normalized_variance(a, a) == pytest.approx(1.0)

    def test_zero_error(self):
        a = example1().A
        assert normalized_variance(PolyMatrix.zeros(2, 2), a) == 0.0

    def test_homogeneity(self):
        a = example1().A
        e = random_error(2, 2, 2, 1e-2, SeededRng(6))
        base = normalized_variance(e, a)
        assert normalized_variance(3.0 * e, a) == pytest.approx(9 * base, rel=1e-12)

    def test_zero_energy_system(self):
        with pytest.raises(ValueError):
            normalized_variance(example1().A, PolyMatrix.zeros(2, 2))


class TestScaleToNormalized:
    def test_fixed_point(self):
        a = example1().A
        e = random_error(2, 2, 2, 1e-3, SeededRng(7))
        cur = normalized_variance(e, a)
        scaled = scale_to_normalized(e, a, cur)
        assert np.abs(scaled.coeffs - e.coeffs).max() < 1e-12

    def test_zero_target(self):
        a = example1().A
        e = random_error(2, 2, 2, 1e-3, SeededRng(8))
        assert not np.any(scale_to_normalized(e, a, 0.0).coeffs)

    def test_zero_target_keeps_taps(self):
        e = random_error(2, 2, 3, 1e-3, SeededRng(8))
        zero = scale_to_normalized(e, example1().A, 0.0)
        assert (zero.n_min, zero.n_taps) == (e.n_min, e.n_taps)

    def test_hits_target(self):
        a = example1().A
        e = random_error(2, 2, 2, 1.0, SeededRng(9))
        scaled = scale_to_normalized(e, a, 0.3)
        assert normalized_variance(scaled, a) == pytest.approx(0.3, rel=1e-12)

    def test_zero_error_rejected(self):
        with pytest.raises(ValueError):
            scale_to_normalized(PolyMatrix.zeros(2, 2), example1().A, 0.1)

    @pytest.mark.parametrize("target", [3e306, 1e308, 1.7e308])
    def test_overflowing_scale_rejected(self, target):
        # target * ||A||^2 overflows although target is finite
        e = random_error(2, 2, 2, 1.0, SeededRng(9))
        message = f"the error scale for sigma2_norm = {target:g} overflows"
        with pytest.raises(FloatingPointError, match=f"^{re.escape(message)}$"):
            scale_to_normalized(e, bigsys(SeededRng(0)).A, target)

    @pytest.mark.parametrize("target", [0.0, 0.3])
    def test_overflowing_system_energy_rejected(self, target):
        # ||A||^2 overflows, so the scale is nan at target 0 and inf above it
        a = PolyMatrix(np.full((2, 2, 2), 1e200 + 0j), 0)
        e = random_error(2, 2, 2, 1.0, SeededRng(9))
        with np.errstate(over="ignore"), pytest.raises(FloatingPointError):
            scale_to_normalized(e, a, target)


class TestPerturbConfig:
    def test_requires_exactly_one_level(self):
        with pytest.raises(ValueError):
            PerturbConfig(trials=1, sigma2_e=1e-4, sigma2_norm=0.1)
        with pytest.raises(ValueError):
            PerturbConfig(trials=1)

    def test_trials_positive(self):
        with pytest.raises(ValueError):
            PerturbConfig(trials=0, sigma2_e=1e-4)

    def test_bins_positive(self):
        with pytest.raises(ValueError, match="n_bins"):
            PerturbConfig(n_bins=0, sigma2_e=1e-4)

    @pytest.mark.parametrize("name, value", [
        ("trials", 2.5), ("trials", 2.0), ("n_bins", "256"), ("seed", 0.5),
        ("seed", None), ("error_order", 1.0),
    ])
    def test_counts_are_integers(self, name, value):
        with pytest.raises(TypeError, match=f"^{name} must be an integer, got "):
            PerturbConfig(sigma2_e=1e-3, **{name: value})

    def test_numpy_integer_counts(self):
        cfg = PerturbConfig(trials=np.int64(2), n_bins=np.int32(8), seed=np.uint8(3),
                            error_order=np.int64(1), sigma2_e=1e-3)
        assert cfg.trials == 2 and cfg.error_order == 1

    @pytest.mark.parametrize("level", [float("nan"), float("inf")])
    @pytest.mark.parametrize("kind", ["sigma2_e", "sigma2_norm"])
    def test_level_finite(self, kind, level):
        with pytest.raises(ValueError, match="finite"):
            PerturbConfig(**{kind: level})


class TestPerturbAndAnalyze:
    def test_zero_perturbation_equals_truth(self):
        sys = example1()
        cfg = PerturbConfig(trials=2, n_bins=256, seed=0, sigma2_e=0.0)
        results, traj = perturb_and_analyze(sys, cfg)
        from polysvd import binwise_svd, diagnostics, majorized_trajectories

        truth = diagnostics(majorized_trajectories(binwise_svd(sys.A, 256)))
        for r in results:
            assert r.report.min_gap == pytest.approx(truth.min_gap, abs=1e-14)
            assert r.report.min_smallest == pytest.approx(truth.min_smallest, abs=1e-14)
            assert r.sigma2_norm_actual == 0.0

    def test_zero_level_is_truth_bitwise(self):
        sys = bigsys(SeededRng(0))
        cfg = PerturbConfig(trials=2, n_bins=256, seed=3, sigma2_norm=0.0)
        results, traj = perturb_and_analyze(sys, cfg)
        truth = majorized_trajectories(binwise_svd(sys.A, 256, vectors=False))
        assert np.array_equal(traj.omegas, truth.omegas)
        assert np.array_equal(traj.values, truth.values)
        report = diagnostics(truth)
        for r in results:
            assert r.report == report
            assert r.sigma2_norm_actual == 0.0

    def test_example1_small_noise_positive_minima(self):
        sys = example1()
        cfg = PerturbConfig(trials=5, n_bins=1024, seed=1, sigma2_e=1e-4)
        results, traj = perturb_and_analyze(sys, cfg)
        for r in results:
            assert r.report.min_gap > 0.0
            assert r.report.min_smallest > 0.0
        assert traj.mode == "majorized"
        assert traj.values.shape == (2, 1024)

    def test_normalized_mode_reports_exact_ratio(self):
        sys = example1()
        cfg = PerturbConfig(trials=3, n_bins=128, seed=2, sigma2_norm=1e-2)
        results, _ = perturb_and_analyze(sys, cfg)
        for r in results:
            assert r.sigma2_norm_actual == pytest.approx(1e-2, rel=1e-12)

    def test_trials_use_independent_streams(self):
        sys = example1()
        cfg = PerturbConfig(trials=2, n_bins=64, seed=3, sigma2_e=1e-3)
        results, _ = perturb_and_analyze(sys, cfg)
        assert results[0].report.min_smallest != results[1].report.min_smallest


def _serial_trials(sys, cfg):
    """The trials of ``perturb_and_analyze`` one after another: results and
    the last trial's trajectories."""
    results = []
    for t in range(cfg.trials):
        rng = SeededRng(cfg.seed, stream=t).generator()
        err = scale_to_normalized(random_error(sys.rows, sys.cols, sys.A.order, 1.0, rng),
                                  sys.A, cfg.sigma2_norm)
        traj = majorized_trajectories(binwise_svd(sys.A + err, cfg.n_bins, vectors=False))
        results.append(perturb.TrialResult(
            trial=t, report=diagnostics(traj),
            sigma2_norm_actual=normalized_variance(err, sys.A)))
    return results, traj


class TestTrialParallelism:
    # 1024 bins: an svd_stack that finds free slots cuts up to 4 blocks
    SYS = bigsys(SeededRng(5))

    def config(self, trials):
        return PerturbConfig(trials=trials, n_bins=1024, seed=7, sigma2_norm=1e-2)

    @pytest.mark.parametrize("cpus", [1, 3], indirect=True)
    @pytest.mark.parametrize("trials", [1, 2, 3, 5])
    def test_equal_to_serial_trials(self, cpus, trials):
        cfg = self.config(trials)
        results, traj = perturb_and_analyze(self.SYS, cfg)
        want_results, want_traj = _serial_trials(self.SYS, cfg)
        assert results == want_results
        assert np.array_equal(traj.values, want_traj.values)
        assert np.array_equal(traj.omegas, want_traj.omegas)

    @pytest.mark.parametrize("cpus", [1, 3], indirect=True)
    @pytest.mark.parametrize("failing, first", [
        ({4}, 4), ({1, 3}, 1), ({2, 3}, 2), ({0, 1, 2, 3, 4}, 0)])
    def test_lowest_failed_trial_reraised_after_join(self, cpus, monkeypatch,
                                                     failing, first):
        baseline = threading.active_count()
        original = perturb._trial

        def trial(sys, cfg, t):
            if t in failing:
                raise RuntimeError(f"trial {t} failed")
            return original(sys, cfg, t)

        monkeypatch.setattr(perturb, "_trial", trial)
        with pytest.raises(RuntimeError, match=f"^trial {first} failed$"):
            perturb_and_analyze(self.SYS, self.config(5))
        assert threading.active_count() == baseline
        assert densela._pool_busy == 0

    @pytest.mark.parametrize("cpus", [1, 3], indirect=True)
    @pytest.mark.parametrize("trials", [1, 2, 3, 5])
    def test_threads_never_exceed_cpus(self, cpus, monkeypatch, trials):
        # recorded by every LAPACK call of the trials' svd_stack calls
        baseline = threading.active_count()
        live, threads = [], set()
        original = np.linalg.svd

        def recording(a, *args, **kwargs):
            live.append(threading.active_count())
            threads.add(threading.current_thread())
            return original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recording)
        perturb_and_analyze(self.SYS, self.config(trials))
        assert max(live) - baseline + 1 <= cpus
        assert (len(threads) > 1) == (cpus > 1)
        assert densela._pool_busy == 0


class TestBinHistogramTrials:
    def test_zero_noise_exact(self):
        sys = example1()
        samples = bin_histogram_trials(sys, np.pi, 150, 0.0, SeededRng(0))
        truth = np.linalg.svd(sys.A.eval_at([np.pi])[0], compute_uv=False)
        assert np.abs(samples - truth[:, None]).max() < 1e-14

    def test_smallest_bounded_away_from_zero(self):
        sys = example1()
        samples = bin_histogram_trials(sys, np.pi, 2000, 1e-4, SeededRng(0))
        assert samples.shape == (2, 2000)
        assert samples[1].min() > 0.0

    def test_scalar_zero_system_rayleigh(self):
        # A = 0 (1x1): samples are |e| draws; mean matches Rayleigh mean
        zero = PolyMatrix.zeros(1, 1)
        sys = GroundTruthSystem(U=PolyMatrix.identity(1), sigmas=(zero,),
                                V=PolyMatrix.identity(1), A=zero)
        sigma2 = 1e-2
        samples = bin_histogram_trials(sys, 0.3, 20000, sigma2, SeededRng(1))
        assert samples.min() > 0.0
        # |CN(0, s2)| has mean sqrt(pi s2 / 4)
        assert samples.mean() == pytest.approx(np.sqrt(np.pi * sigma2 / 4), rel=0.02)
        fit = rician_fit(samples[0])
        assert fit.nu <= 3 * np.sqrt(sigma2)
        assert fit.s == pytest.approx(np.sqrt(sigma2 / 2), rel=0.05)

    def test_deterministic(self):
        sys = example1()
        a = bin_histogram_trials(sys, np.pi, 200, 1e-4, SeededRng(2))
        b = bin_histogram_trials(sys, np.pi, 200, 1e-4, SeededRng(2))
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("omega0", [np.pi, 0.7])
    @pytest.mark.parametrize("seed", [0, 5])
    def test_matches_per_trial_tap_contraction(self, omega0, seed):
        # the (trials, M, L, T) draw weighted by e^{-j omega0 t} and summed
        # tap by tap in order, each product from real and imaginary parts:
        # the formula the stacked random_error + eval_at replaces
        sys = example1()
        g = SeededRng(seed).generator()
        order = sys.A.order
        taps = complex_normal(g, (300, sys.rows, sys.cols, order + 1), 1e-4)
        phases = np.exp(-1j * omega0 * np.arange(order + 1))
        e0 = np.zeros(taps.shape[:3], dtype=complex)
        for t in range(order + 1):
            p, q = phases[t].real, phases[t].imag
            c, d = taps[..., t].real, taps[..., t].imag
            e0.real += p * c - q * d
            e0.imag += p * d + q * c
        want = np.linalg.svd(sys.A.eval_at([omega0])[0] + e0, compute_uv=False).T
        got = bin_histogram_trials(sys, omega0, 300, 1e-4, SeededRng(seed))
        assert np.array_equal(got, want)


class TestRicianFit:
    def test_synthetic_rayleigh(self):
        # frozen seed: the sample moment ratio lands at/above the Rayleigh
        # limit, so the fit degenerates to nu = 0 as it should
        rng = np.random.default_rng(1)
        samples = np.abs(rng.standard_normal(100000) + 1j * rng.standard_normal(100000))
        fit = rician_fit(samples)
        assert fit.nu <= 0.05
        assert fit.s == pytest.approx(1.0, abs=0.02)

    def test_synthetic_rician(self):
        rng = np.random.default_rng(0)
        z = 3.0 + 0.5 * (rng.standard_normal(100000) + 1j * rng.standard_normal(100000))
        fit = rician_fit(np.abs(z))
        assert fit.nu == pytest.approx(3.0, rel=0.02)
        assert fit.s == pytest.approx(0.5, rel=0.02)
        assert fit.residual < 1e-6

    @pytest.mark.parametrize("s", [1e-2, 1e-6, 1e-8, 1e-10])
    def test_small_scale_recovered(self, s):
        # theta = 50 .. 5e9: a variance formed as 2 + theta^2 - h^2 gives
        # 0.71 s at 1e-8 and 37 s at 1e-10
        rng = np.random.default_rng(8)
        z = rng.standard_normal(20000) + 1j * rng.standard_normal(20000)
        fit = rician_fit(np.abs(0.5 + s * z))
        assert fit.s == pytest.approx(s, rel=0.03)
        assert fit.nu == pytest.approx(0.5, abs=0.1 * s)

    def test_squared_mean_overflow_fits(self):
        # relative spread 2^-50: theta ~ 1e15 fits at any scale, also where
        # the squared mean of the unscaled samples overflows
        x = 1 + 2.0**-50 * np.random.default_rng(9).standard_normal(200)
        for c in (1.1e154, 1.4e154):
            fit = rician_fit(c * x)
            assert fit.nu / fit.s > 1e14

    def test_sub_ulp_spread_recovered(self):
        # one sample of 10^6 an ulp above the rest: the spread is 2.22e-19,
        # which a mean rounded off by an ulp would inflate to 2.22e-16
        x = np.full(10**6, 2.0 - 2.0**-52)
        x[0] = 2.0
        fit = rician_fit(x)
        assert 0.5 * 2.22e-19 <= fit.s <= 2.0 * 2.22e-19

    def test_few_ulp_spread_not_inflated(self):
        # 0.7 plus 0, 1, 2 and 3 ulps, 100 samples each: the exact mean lies
        # half an ulp off the float grid, so a mean squared deviation from
        # the rounded mean reads the variance 20 % high
        x = 0.7 + np.spacing(0.7) * np.repeat(np.arange(4.0), 100)
        exact = [Fraction(v) for v in x]
        mean = sum(exact) / x.size
        var = float(sum((v - mean) ** 2 for v in exact) / x.size)
        fit = rician_fit(x)
        h, v = perturb._rician_moments(fit.nu / fit.s)
        assert fit.s * h / float(mean) == pytest.approx(1.0, abs=1e-15)
        assert fit.s**2 * v / var == pytest.approx(1.0, abs=1e-12)

    def test_constant_samples_rejected(self):
        with pytest.raises(ValueError):
            rician_fit(np.full(500, 2.0))

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            rician_fit(np.ones(50))

    def test_negative_samples_rejected(self):
        x = np.linspace(-1, 1, 500)
        with pytest.raises(ValueError):
            rician_fit(x)

    def test_moment_match_is_exact_interior(self):
        rng = np.random.default_rng(3)
        z = 1.0 + 0.7 * (rng.standard_normal(5000) + 1j * rng.standard_normal(5000))
        fit = rician_fit(np.abs(z))
        assert fit.residual < 1e-12
        assert fit.n == 5000

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_samples_rejected(self, bad):
        x = np.abs(np.random.default_rng(4).standard_normal(500))
        x[123] = bad
        with pytest.raises(ValueError, match="finite"):
            rician_fit(x)

    @pytest.mark.parametrize("scale", [1.0, 2.0**-60], ids=["mean", "variance"])
    def test_overflowing_moments_fit(self, scale):
        # finite samples whose sum (scale 1) or squared spread (scale 2^-60)
        # overflows unscaled
        x = scale * np.repeat([1e308, 1.7e308], 100)
        fit = rician_fit(x)
        assert 1e308 * scale < fit.nu < 1.7e308 * scale
        assert 0.0 < fit.s < fit.nu
        assert fit.residual < 1e-13

    def test_largest_floats_fit(self):
        # theta s rounds above the mean of two adjacent floats at the float
        # maximum, which the scaling back by 2^1024 would overflow
        top = np.finfo(float).max
        for lo in (np.nextafter(top, 0), top * (1 - 2.0**-50)):
            fit = rician_fit(np.repeat([lo, top], 100))
            assert lo <= fit.nu <= top
            assert 0.0 < fit.s < fit.nu

    @pytest.mark.parametrize("k", [-1000, -600, -520, 510, 1000])
    def test_power_of_two_scaling_over_the_exponent_range(self, k):
        # unscaled, d^2 = (x - m1)^2 goes subnormal at 2^-520, underflows to
        # 0 at 2^-600 and overflows at 2^510
        x = np.abs(np.random.default_rng(0).standard_normal(1000)) + 0.3
        fit = rician_fit(x)
        scaled = rician_fit(np.ldexp(x, k))
        assert scaled.nu == math.ldexp(fit.nu, k)
        assert scaled.s == math.ldexp(fit.s, k)
        assert scaled.residual == fit.residual

    @settings(max_examples=60, deadline=None)
    @given(log_theta=st.floats(-1.0, 3.0), log_s=st.floats(-3.0, 3.0),
           n=st.integers(100, 20000), seed=st.integers(0, 2**32 - 1),
           k=st.integers(-900, 900))
    def test_moment_match_and_power_of_two_scaling_property(
            self, log_theta, log_s, n, seed, k):
        # theta = nu/s log-uniform in [0.1, 1e3], s in [1e-3, 1e3]: wherever
        # the fit is interior the bisection matches both moments to rounding,
        # and scaling the samples by 2^k scales nu and s exactly and leaves
        # the relative residual unchanged
        s = 10.0**log_s
        nu = 10.0**log_theta * s
        rng = np.random.default_rng(seed)
        x = np.abs(nu + s * (rng.standard_normal(n) + 1j * rng.standard_normal(n)))
        fit = rician_fit(x)
        if fit.nu > 0.0:
            assert fit.residual <= 1e-12
        c = 2.0**k
        scaled = rician_fit(c * x)
        assert scaled.nu == c * fit.nu
        assert scaled.s == c * fit.s
        assert scaled.residual == fit.residual


class TestStewartBounds:
    def test_zero_perturbation(self):
        a = example1().A.eval_at([0.7])[0]
        chk = stewart_bounds(a, np.zeros((2, 2)), 1)
        assert chk.varsigma == pytest.approx(chk.sigma_true, abs=1e-12)
        assert chk.holds

    def test_scalar_zero_equality(self):
        # 1x1 A = 0: P = 0, P_perp = 1, so upper = lower = |E| = varsigma
        c = 0.3 - 0.4j
        chk = stewart_bounds(np.zeros((1, 1)), np.array([[c]]), 0)
        assert chk.sigma_true == 0.0
        assert chk.varsigma == pytest.approx(abs(c))
        assert chk.upper == pytest.approx(abs(c))
        assert chk.lower == pytest.approx(abs(c))
        assert chk.holds

    def test_example1_rank_deficient_bin(self):
        sys = example1()
        a0 = sys.A.eval_at([np.pi])[0]
        rng = SeededRng(17).generator()
        powers = sys.A.n_min + np.arange(sys.A.n_taps)
        phases = np.exp(-1j * np.pi * powers)
        for _ in range(100):
            e = random_error(2, 2, sys.A.order, 1e-4, rng)
            e0 = np.tensordot(e.coeffs, phases, axes=(2, 0))
            chk = stewart_bounds(a0, e0, 1)
            assert chk.holds
            assert chk.upper >= chk.lower >= 0.0

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            stewart_bounds(np.eye(2), np.zeros((2, 2)), 2)


def _complex_normal(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestStewartProjection:
    """The column-space projector P of A, seen through the bounds."""

    def test_full_rank(self):
        # P = I up to rounding, so P_perp E vanishes: upper = sigma_m + ||E||_2
        rng = np.random.default_rng(5)
        a = _complex_normal(rng, 4, 4)
        e = 1e-2 * _complex_normal(rng, 4, 4)
        chk = stewart_bounds(a, e, 3)
        want = np.linalg.svd(a, compute_uv=False)[3] + np.linalg.norm(e, 2)
        assert chk.lower == 0.0
        assert chk.upper == pytest.approx(want, rel=1e-12)
        assert chk.holds

    def test_tall_single_column(self):
        # P = diag(1, 0): ||P E|| = |e_0| and ||P_perp E|| = |e_1|
        e0, e1 = 0.3 + 0.1j, -0.2j
        chk = stewart_bounds(np.array([[1.0], [0.0]]), np.array([[e0], [e1]]), 0)
        assert chk.sigma_true == 1.0
        assert chk.varsigma == pytest.approx(np.hypot(abs(1 + e0), abs(e1)))
        assert chk.upper == pytest.approx(np.hypot(1 + abs(e0), abs(e1)))
        assert chk.lower == 0.0
        assert chk.holds

    def test_example1_rank_one_bin(self):
        # sigma_2 = 0 at omega = pi: P is rank one, spanned by u_1
        a = example1().A.eval_at([np.pi])[0]
        e = 1e-2 * _complex_normal(np.random.default_rng(6), 2, 2)
        u1 = np.linalg.svd(a)[0][:, :1]
        p = u1 @ u1.conj().T
        chk = stewart_bounds(a, e, 1)
        n_pe = np.linalg.norm(p @ e, 2)
        n_ppe = np.linalg.norm(e - p @ e, 2)
        assert chk.upper == pytest.approx(np.hypot(n_pe, n_ppe), rel=1e-12)
        # a rank-two P (P = I) would give upper = sigma_2 + ||E||_2 instead
        assert chk.upper != pytest.approx(np.linalg.norm(e, 2), rel=1e-3)
        assert chk.holds

    def test_zero_matrix(self):
        # rank 0: P = 0 and P_perp = I, so upper = ||E||_2, lower = sigma_min(E)
        e = _complex_normal(np.random.default_rng(7), 3, 3)
        svals = np.linalg.svd(e, compute_uv=False)
        for m in range(3):
            chk = stewart_bounds(np.zeros((3, 3)), e, m)
            assert chk.sigma_true == 0.0
            assert chk.upper == pytest.approx(svals[0], rel=1e-14)
            assert chk.lower == pytest.approx(svals[-1], rel=1e-14)
            assert chk.holds


def _five_svd_stewart(a_bin, e_bin, m):
    """stewart_bounds as five separate SVDs: one values-only SVD of
    [A, A + E], a full SVD of A for its own projector, and one values-only
    SVD per norm of P E and P_perp E."""
    a_bin = np.asarray(a_bin, dtype=np.complex128)
    e_bin = np.asarray(e_bin, dtype=np.complex128)
    svals = np.linalg.svd(np.stack([a_bin, a_bin + e_bin]), compute_uv=False)
    sigma, varsigma = (float(v) for v in svals[:, m])
    u, s, _ = np.linalg.svd(a_bin, full_matrices=True)
    rank = 0 if s.size == 0 or s[0] == 0.0 else int(np.sum(s > 1e-10 * s[0]))
    ur = u[:, :rank]
    p = ur @ ur.conj().T
    p_perp = np.eye(a_bin.shape[0], dtype=np.complex128) - p
    n_pe = float(np.linalg.svd(p @ e_bin, compute_uv=False)[0])
    n_ppe = float(np.linalg.svd(p_perp @ e_bin, compute_uv=False)[0])
    upper = float(np.sqrt((sigma + n_pe) ** 2 + n_ppe**2))
    smax = float(svals[0, 0])
    if smax == 0.0 or sigma <= 1e-10 * smax:
        lower = float(np.linalg.svd(p_perp @ e_bin, compute_uv=False)[-1])
    else:
        lower = 0.0
    holds = (lower - 1e-9) <= varsigma <= (upper + 1e-9)
    return StewartCheck(sigma_true=sigma, varsigma=varsigma, upper=upper,
                        lower=lower, holds=bool(holds))


def _bits(chk):
    return (chk.sigma_true.hex(), chk.varsigma.hex(), chk.upper.hex(),
            chk.lower.hex(), chk.holds)


def _low_rank_pair(data):
    rows, cols = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5))
    rank = data.draw(st.integers(0, min(rows, cols)), label="rank")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    scale = data.draw(st.sampled_from([1e-3, 1.0, 1e3]), label="scale")
    a_bin = scale * (_complex_normal(rng, rows, rank) @ _complex_normal(rng, rank, cols))
    level = data.draw(st.sampled_from([1e-6, 1e-2, 1.0]), label="level")
    e_bin = level * scale * _complex_normal(rng, rows, cols)
    m = data.draw(st.integers(0, min(rows, cols) - 1), label="m")
    return a_bin, e_bin, m


class TestBoundProperties:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_weyl_bound_every_bin(self, data):
        # |sigma_i(A + E) - sigma_i(A)| <= ||E||_2 <= ||E||_F bin by bin
        rows, cols = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        n_taps = data.draw(st.integers(0, 6), label="order") + 1
        n_min = data.draw(st.integers(-4, 4), label="n_min")
        a = PolyMatrix(_complex_normal(rng, rows, cols, n_taps), n_min)
        sigma2_e = data.draw(st.sampled_from([1e-8, 1e-4, 0.1, 10.0]), label="sigma2_e")
        e = random_error(rows, cols, data.draw(st.integers(0, 6)), sigma2_e, rng)
        n_bins = data.draw(st.integers(1, 64), label="n_bins")
        sigma = binwise_svd(a, n_bins, vectors=False).sigma
        sigma_hat = binwise_svd(a + e, n_bins, vectors=False).sigma
        e_frob = np.linalg.norm(e.eval_grid(n_bins), axis=(1, 2))
        slack = 1e-12 * (1.0 + np.abs(a.coeffs).sum() + np.abs(e.coeffs).sum())
        assert np.all(np.abs(sigma_hat - sigma) <= e_frob[:, None] + slack)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_stewart_bounds_hold(self, data):
        # exactly low-rank bins reach the lower-bound branch as well
        assert stewart_bounds(*_low_rank_pair(data)).holds

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_stewart_bounds_match_five_svds(self, data):
        # the two stacked SVDs reproduce every field of the five-SVD form
        # bit for bit, tall, wide and rank-deficient bins alike
        a_bin, e_bin, m = _low_rank_pair(data)
        got = stewart_bounds(a_bin, e_bin, m)
        assert _bits(got) == _bits(_five_svd_stewart(a_bin, e_bin, m))


@pytest.mark.parametrize("argv", [
    ["ex1", "--bins", "64"],
    ["hist", "--trials", "100"],
    ["perturb", "--bins", "64"],
    ["sysid", "--N", "5000"],
], ids=["ex1", "hist", "perturb", "sysid"])
def test_import_leaves_scipy_unloaded(tmp_path, monkeypatch, argv):
    # the runtime needs numpy only: with every scipy import failing, each
    # subcommand still runs and writes the same files as a normal run
    import polysvd

    src = str(Path(polysvd.__file__).resolve().parents[1])
    code = textwrap.dedent("""
        import sys

        class NoScipy:
            def find_spec(self, name, path=None, target=None):
                if name.startswith("scipy"):
                    raise ImportError(f"{name} is blocked")
                return None

        sys.meta_path.insert(0, NoScipy())
        from polysvd.cli import main
        code = main([*sys.argv[1:], "--out", "out"])
        assert not [m for m in sys.modules if m.startswith("scipy")]
        sys.exit(code)
    """)
    blocked, normal = tmp_path / "blocked", tmp_path / "normal"
    blocked.mkdir()
    normal.mkdir()
    env = {**os.environ, "PYTHONPATH": src}
    subprocess.run([sys.executable, "-c", code, *argv], env=env, cwd=blocked,
                   check=True, capture_output=True, text=True, timeout=120)
    monkeypatch.chdir(normal)
    assert main([*argv, "--out", "out"]) == 0
    trees = [{p.name: p.read_bytes() for p in (d / "out").iterdir()}
             for d in (blocked, normal)]
    assert trees[0] == trees[1]


def _old_rician_fit(x):
    # the fit as it stood on scipy's brentq, i0e and i1e: (nu, s)
    from scipy.optimize import brentq
    from scipy.special import i0e, i1e

    def mean_factor(theta):
        a = 0.25 * theta * theta
        return np.sqrt(np.pi / 2.0) * ((1.0 + 2.0 * a) * i0e(a) + 2.0 * a * i1e(a))

    def var_factor(theta):
        return 2.0 + theta * theta - mean_factor(theta) ** 2

    m1, var = float(x.mean()), float(x.var())
    rho = var / (m1 * m1)
    rho0 = var_factor(0.0) / mean_factor(0.0) ** 2
    if rho >= rho0:
        return 0.0, m1 / np.sqrt(np.pi / 2.0)

    def gap(t):
        return var_factor(t) / mean_factor(t) ** 2 - rho

    hi = 1.0
    while gap(hi) > 0.0:
        hi *= 2.0
    theta = brentq(gap, 0.0, hi, xtol=1e-13, rtol=8.9e-16)
    s = m1 / mean_factor(theta)
    return theta * s, s


class TestScipyOracle:
    """The numpy-only Rician moments and fit against scipy."""

    # both regimes of the kernel, densely around their switch at theta = 10
    THETA = np.concatenate([np.arange(2001) * 0.01, np.linspace(9.9, 10.1, 401),
                            np.geomspace(1e-300, 1e12, 2000)])

    def test_mean_matches_hyp1f1(self):
        # E[X]/s = sqrt(pi/2) 1F1(-1/2; 1; -theta^2/2)
        special = pytest.importorskip("scipy.special")
        got = np.array([perturb._rician_moments(t)[0] for t in self.THETA])
        want = np.sqrt(np.pi / 2.0) * special.hyp1f1(-0.5, 1.0, -0.5 * self.THETA**2)
        assert np.all(np.abs(got - want) <= 5e-15 * want)

    def test_variance_does_not_cancel(self):
        # Var/s^2 = 1 - 1/(2 theta^2) + O(theta^-4), where forming
        # 2 + theta^2 - h^2 from a rounded h is off by up to 511x
        theta = np.geomspace(1e4, 1e150, 3001)
        got = np.array([perturb._rician_moments(t)[1] for t in theta])
        assert np.all(np.abs(got - (1.0 - 0.5 / theta**2)) <= 4e-16)

    @pytest.mark.parametrize("nu, s, n, seed", [
        (0.6, 1.0, 20000, 21),   # near the Rayleigh limit
        (3.0, 0.5, 5000, 22),    # interior, theta = 6
        (1.0, 0.02, 5000, 23),   # large theta = 50
    ])
    def test_rician_fit_matches_scipy_fit(self, nu, s, n, seed):
        pytest.importorskip("scipy")
        rng = np.random.default_rng(seed)
        x = np.abs(nu + s * (rng.standard_normal(n) + 1j * rng.standard_normal(n)))
        want_nu, want_s = _old_rician_fit(x)
        assert want_nu > 0.0
        fit = rician_fit(x)
        assert fit.nu == pytest.approx(want_nu, rel=1e-12, abs=0)
        assert fit.s == pytest.approx(want_s, rel=1e-12, abs=0)
