"""Perturbation draws, normalized variance, Rician fits, Stewart bounds."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from polysvd import (
    PerturbConfig,
    PolyMatrix,
    SeededRng,
    bin_histogram_trials,
    example1,
    normalized_variance,
    perturb_and_analyze,
    random_error,
    rician_fit,
    scale_to_normalized,
    stewart_bounds,
)
from polysvd.sysgen import GroundTruthSystem


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
        assert scale_to_normalized(e, a, 0.0).is_zero

    def test_hits_target(self):
        a = example1().A
        e = random_error(2, 2, 2, 1.0, SeededRng(9))
        scaled = scale_to_normalized(e, a, 0.3)
        assert normalized_variance(scaled, a) == pytest.approx(0.3, rel=1e-12)

    def test_zero_error_rejected(self):
        with pytest.raises(ValueError):
            scale_to_normalized(PolyMatrix.zeros(2, 2), example1().A, 0.1)


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


class TestBinHistogramTrials:
    def test_zero_noise_exact(self):
        sys = example1()
        samples = bin_histogram_trials(sys, np.pi, 150, 0.0, SeededRng(0))
        truth = np.linalg.svd(sys.A.eval(np.pi), compute_uv=False)
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
        assert fit.n_samples == 5000


class TestStewartBounds:
    def test_zero_perturbation(self):
        a = example1().A.eval(0.7)
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
        a0 = sys.A.eval(np.pi)
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


def test_import_leaves_scipy_unloaded():
    # scipy.optimize/scipy.special cost most of the package import time and
    # only the Rician fit needs them
    import polysvd

    src = str(Path(polysvd.__file__).resolve().parents[1])
    code = ("import sys, polysvd; "
            "print(sorted(m for m in ('scipy.optimize', 'scipy.special') "
            "if m in sys.modules))")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "[]"
