"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with pytest -s); a failed
assertion marks the criterion red.  Statistical criteria run at frozen
seeds so the suite is deterministic.
"""

import time

import numpy as np
import pytest

from polysvd import (
    PerturbConfig,
    SeededRng,
    assemble,
    bigsys,
    bin_histogram_trials,
    binwise_svd,
    causal_version,
    error_system,
    example1,
    majorized_trajectories,
    mse_decomposition,
    perturb_and_analyze,
    random_error,
    random_paraunitary,
    reference_tracks,
    rician_fit,
    scale_to_normalized,
    simulate,
    smooth_trajectories,
    stewart_bounds,
    track_deviation,
    wiener_estimate,
)
from polysvd.densela import svd_stack
from polysvd.polymat import PolyMatrix

from test_polymat import EX1_TAP_0, EX1_TAP_M1, EX1_TAP_P1


def report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num}: {status} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_example1_reconstruction():
    t0 = time.perf_counter()
    sys = example1()
    expect = np.stack([EX1_TAP_P1, EX1_TAP_0, EX1_TAP_M1], axis=-1)
    ok_support = sys.A.n_min == -1 and sys.A.n_taps == 3
    err = np.abs(sys.A.coeffs - expect).max() if ok_support else np.inf
    elapsed = time.perf_counter() - t0
    report(
        1,
        ok_support and err <= 1e-12 and elapsed < 1.0,
        f"coefficient error {err:.2e} (tol 1e-12), {elapsed:.3f}s (< 1 s)",
    )


def test_criterion_2_closed_form_trajectories():
    t0 = time.perf_counter()
    sys = example1()
    sm = smooth_trajectories(binwise_svd(sys.A, 1024))
    forms = np.stack([f(sm.omegas) for f in sys.closed_forms])
    best = track_deviation(sm.values, forms)
    elapsed = time.perf_counter() - t0
    report(
        2,
        best <= 1e-8 and elapsed < 10.0,
        f"max trajectory error {best:.2e} (tol 1e-8), {elapsed:.2f}s (< 10 s)",
    )


def test_criterion_3_probability_one_suite():
    t0 = time.perf_counter()
    sys = bigsys(SeededRng(0))
    worst_gap, worst_small = np.inf, np.inf
    for i, s2n in enumerate((0.3, 1e-2, 1e-4)):
        cfg = PerturbConfig(trials=100, n_bins=4096, seed=1000 + i,
                            sigma2_norm=s2n)
        results, _ = perturb_and_analyze(sys, cfg)
        worst_gap = min(worst_gap, min(r.report.min_gap for r in results))
        worst_small = min(worst_small, min(r.report.min_smallest for r in results))
    elapsed = time.perf_counter() - t0
    report(
        3,
        worst_gap > 0.0 and worst_small > 0.0 and elapsed < 600.0,
        f"300 trials: min gap {worst_gap:.3e} > 0, min smallest "
        f"{worst_small:.3e} > 0, {elapsed:.1f}s",
    )


def test_criterion_4_convergence_sweep():
    sys = bigsys(SeededRng(0))
    n_bins = 4096
    refs = reference_tracks(sys, n_bins)
    medians = []
    for i, s2n in enumerate((0.3, 1e-2, 1e-4)):
        sups = []
        for trial in range(20):
            rng = SeededRng(5000 + i, stream=trial).generator()
            err = scale_to_normalized(
                random_error(6, 6, sys.A.order, 1.0, rng), sys.A, s2n
            )
            traj = majorized_trajectories(
                binwise_svd(sys.A + err, n_bins, vectors=False)
            )
            sups.append(np.abs(traj.values - refs).max(axis=1))
        medians.append(np.median(np.array(sups), axis=0))
    m03, m102, m104 = medians
    ok = bool(np.all(m03 > m102) and np.all(m102 > m104))
    report(
        4,
        ok,
        "per-track median sup deviation strictly decreases: "
        + " > ".join(f"{m.max():.3e}" for m in medians),
    )


def test_criterion_5_histogram_property():
    sys = example1()
    samples = bin_histogram_trials(sys, np.pi, 10000, 1e-4, SeededRng(0))
    sample_min = samples[-1].min()
    fits = [rician_fit(samples[m]) for m in range(2)]
    worst_resid = max(f.residual for f in fits)
    rng = np.random.default_rng(0)
    z = 3.0 + 0.5 * (rng.standard_normal(100000) + 1j * rng.standard_normal(100000))
    synth = rician_fit(np.abs(z))
    nu_err = abs(synth.nu - 3.0) / 3.0
    s_err = abs(synth.s - 0.5) / 0.5
    report(
        5,
        sample_min > 0.0 and worst_resid < 1e-6 and nu_err < 0.02 and s_err < 0.02,
        f"min smallest sample {sample_min:.3e} > 0, fit residual "
        f"{worst_resid:.2e} < 1e-6, synthetic recovery nu {nu_err:.3%} / "
        f"s {s_err:.3%} within 2%",
    )


def test_criterion_6_stewart_bounds():
    holds = 0
    total = 0
    sys1 = example1()
    a0 = sys1.A.eval_at([np.pi])[0]
    powers1 = sys1.A.n_min + np.arange(sys1.A.n_taps)
    rng = SeededRng(42).generator()
    for _ in range(100):
        e = random_error(2, 2, sys1.A.order, 1e-4, rng)
        e0 = np.tensordot(e.coeffs, np.exp(-1j * np.pi * powers1), axes=(2, 0))
        total += 1
        holds += stewart_bounds(a0, e0, 1).holds
    sys6 = bigsys(SeededRng(0))
    powers6 = sys6.A.n_min + np.arange(sys6.A.n_taps)
    bin_rng = SeededRng(43).generator()
    omegas = bin_rng.uniform(0.0, 2 * np.pi, 10)
    for om in omegas:
        a_bin = sys6.A.eval_at([om])[0]
        for _ in range(100):
            e = random_error(6, 6, sys6.A.order, 1e-4, bin_rng)
            e_bin = np.tensordot(e.coeffs, np.exp(-1j * om * powers6), axes=(2, 0))
            total += 1
            holds += stewart_bounds(a_bin, e_bin, 5).holds
    report(6, holds == total, f"bounds hold {holds}/{total} (tolerance 1e-9)")


def test_criterion_7_mse_decomposition():
    sys = example1()
    frame = simulate(sys, 100000, 0.01, SeededRng(12))
    est = wiener_estimate(frame, 2)
    rep = mse_decomposition(frame, est, sys)
    ratio = rep.decomposition_gap / rep.xi_mse
    frame0 = simulate(sys, 100000, 0.0, SeededRng(13))
    est0 = wiener_estimate(frame0, 2, reg=0.0)
    clean_energy = error_system(est0, sys).frob_energy()
    limit = 1e-6 * sys.A.frob_energy()
    report(
        7,
        ratio <= 0.1 and clean_energy <= limit,
        f"gap/xi {ratio:.4f} <= 0.1, noiseless error energy "
        f"{clean_energy:.2e} <= {limit:.2e}",
    )


def test_criterion_8_kernel_invariants():
    rng = np.random.default_rng(99)
    worst_recon = worst_unitary = 0.0
    order_ok = True
    for _ in range(100):
        m = int(rng.integers(1, 9))
        l = int(rng.integers(1, 9))
        a = rng.standard_normal((m, l)) + 1j * rng.standard_normal((m, l))
        u, sigma, v = (f[0] for f in svd_stack(a[None]))
        r = sigma.size
        recon = (u[:, :r] * sigma) @ v[:, :r].conj().T
        scale = max(1.0, np.linalg.norm(a))
        worst_recon = max(worst_recon, np.linalg.norm(recon - a) / scale)
        worst_unitary = max(
            worst_unitary,
            np.linalg.norm(u.conj().T @ u - np.eye(m)),
            np.linalg.norm(v.conj().T @ v - np.eye(l)),
        )
        order_ok = order_ok and bool(
            np.all(np.diff(sigma) <= 1e-15) and np.all(sigma >= 0)
        )
    pu_ok = True
    seeds = np.random.default_rng(100)
    for _ in range(100):
        dim = int(seeds.integers(2, 7))
        order = int(seeds.integers(0, 11))
        q = random_paraunitary(dim, order, SeededRng(int(seeds.integers(2**31))))
        pu_ok = pu_ok and q.is_paraunitary(1e-10)
    parseval_ok = True
    for _ in range(20):
        a = PolyMatrix(
            seeds.standard_normal((3, 2, 6)) + 1j * seeds.standard_normal((3, 2, 6)),
            -2,
        )
        k = 16
        grid_energy = np.sum(np.abs(a.eval_grid(k)) ** 2) / k
        parseval_ok = parseval_ok and abs(
            grid_energy - a.frob_energy()
        ) <= 1e-9 * a.frob_energy()
    report(
        8,
        worst_recon <= 1e-12 and worst_unitary <= 1e-12 and order_ok
        and pu_ok and parseval_ok,
        f"svd recon {worst_recon:.2e} / unitarity {worst_unitary:.2e} "
        f"(tol 1e-12), 100 paraunitary products <= 1e-10: {pu_ok}, "
        f"Parseval <= 1e-9 rel: {parseval_ok}",
    )
