"""Simulation, Wiener least-squares identification, MSE decomposition."""

import ast
import dataclasses
import gc
import pickle
import threading
import tracemalloc
import weakref
from contextlib import contextmanager
from copy import deepcopy
from pathlib import Path
from sys import getswitchinterval, setswitchinterval

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polysvd
from polysvd import (
    PolyMatrix,
    SeededRng,
    bigsys,
    causal_version,
    error_system,
    example1,
    mse_decomposition,
    simulate,
    wiener_estimate,
)
from polysvd import sysid
from polysvd.densela import run_tasks
from polysvd.sysgen import GroundTruthSystem, complex_normal
from polysvd.sysid import SignalFrame, _convolve, _stacked_correlations, _windows


def system_from(a: PolyMatrix) -> GroundTruthSystem:
    zero = PolyMatrix.zeros(1, 1)
    return GroundTruthSystem(U=PolyMatrix.identity(a.rows),
                             sigmas=(zero,) * min(a.rows, a.cols),
                             V=PolyMatrix.identity(a.cols), A=a)


class TestCausalVersion:
    def test_example1_delay(self):
        causal, delay = causal_version(example1().A)
        assert delay == 1
        assert causal.n_min == 0 and causal.n_taps == 3

    def test_already_causal(self):
        a = PolyMatrix(np.ones((1, 1, 2)), 0)
        causal, delay = causal_version(a)
        assert delay == 0
        assert np.array_equal(causal.coeffs, a.coeffs)


@contextmanager
def small_budget(data):
    """Shrink the window block budget to a drawn size, so short records span
    several blocks with a ragged last one."""
    budget = data.draw(st.one_of(st.integers(1, 64), st.just(sysid._BLOCK_ENTRIES)),
                       label="block entries")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sysid, "_BLOCK_ENTRIES", budget)
        yield


@contextmanager
def counted_convolutions():
    """Record each estimate that sysid convolves with a record, so a test
    sees whether mse_decomposition streamed its residual."""
    calls = []
    real = sysid._convolved_blocks

    def spy(a, x):
        calls.append(a)
        return real(a, x)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sysid, "_convolved_blocks", spy)
        yield calls


def writable_copy(frame):
    """A new frame over writable copies of a frame's data, so
    mse_decomposition streams on it, fit or not."""
    return SignalFrame(x=frame.x.copy(), y=frame.y.copy(), sigma2_v=frame.sigma2_v)


def sealed_copy(frame):
    """A new frame over read-only copies of a frame's data: sealed as
    simulate's records are, so once it is fit mse_decomposition may take xi
    from its lag products."""
    x, y = frame.x.copy(), frame.y.copy()
    x.flags.writeable = y.flags.writeable = False
    return SignalFrame(x=x, y=y, sigma2_v=frame.sigma2_v)


@contextmanager
def drawn_phases(data):
    """Set the samples per polyphase group to a drawn count, so groups
    straddle the block and record edges in every alignment."""
    phases = data.draw(st.one_of(st.integers(1, 9), st.just(sysid._PHASES)),
                       label="phases")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sysid, "_PHASES", phases)
        yield


def random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestWindows:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_windows_are_zero_padded_time_major_slices(self, data):
        n_src = data.draw(st.integers(1, 4), label="L")
        back = data.draw(st.integers(0, 8), label="back")
        n = data.draw(st.integers(1, 60), label="N")
        start = data.draw(st.integers(0, n), label="start")
        stop = data.draw(st.integers(start, n), label="stop")
        x = random_complex(np.random.default_rng(n), n_src, n)
        with small_budget(data), drawn_phases(data):
            phases, budget = sysid._PHASES, sysid._BLOCK_ENTRIES
            row = (phases + back) * n_src
            groups = max(1, budget // row)
            # x[:, n] sits at column n + back, with zeros past both ends
            padded = np.concatenate(
                [np.zeros((n_src, back)), x, np.zeros((n_src, phases))], axis=1)
            n_prev = start
            for n0, n1, win in _windows(x, back, start, stop):
                assert n0 == n_prev and 0 < n1 - n0 <= groups * phases
                assert n1 == stop or n1 - n0 == groups * phases
                assert win.shape == (-(-(n1 - n0) // phases), row)
                assert win.size <= max(budget, row)
                assert not win.flags.writeable
                for g in range(win.shape[0]):
                    c = n0 + g * phases
                    want = padded[:, c : c + phases + back].T.ravel()
                    assert np.array_equal(win[g], want)
                n_prev = n1
        assert n_prev == stop


def convolve(a, x):
    """simulate's convolution task run alone, into a zero record."""
    y = np.zeros((a.rows, x.shape[1]), dtype=np.complex128)
    _convolve(a, x, y)
    return y


def two_draw_record(a, n, sigma2_v, ref):
    """simulate's rule written out serially: x is one (L, N) draw from
    ``ref``, and y the convolution of x plus one (M, N) draw from the child
    ``ref.spawn(1)[0]``, which is spawned whether or not it is drawn from."""
    x = complex_normal(ref, (a.cols, n), 1.0)
    y = convolve(a, x)
    (child,) = ref.spawn(1)
    if sigma2_v:
        y += complex_normal(child, (a.rows, n), sigma2_v)
    return x, y


def convolve_reference(a, x):
    """The former per-tap convolution loop."""
    n = x.shape[1]
    y = np.zeros((a.rows, n), dtype=np.complex128)
    for t in range(a.n_taps):
        p = a.n_min + t
        if p < n:
            y[:, p:] += a.coeffs[:, :, t] @ x[:, : n - p]
    return y


class TestConvolve:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_matches_per_tap_sum_property(self, data):
        # N from below n_min and below the tap count up to several blocks
        n_src = data.draw(st.integers(1, 4), label="L")
        n_out = data.draw(st.integers(1, 4), label="M")
        n_taps = data.draw(st.integers(1, 8), label="T")
        n_min = data.draw(st.integers(0, 3), label="n_min")
        n = data.draw(st.integers(1, 80), label="N")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        a = PolyMatrix(random_complex(rng, n_out, n_src, n_taps), n_min)
        x = random_complex(rng, n_src, n)
        with small_budget(data), drawn_phases(data):
            y = convolve(a, x)
        ref = convolve_reference(a, x)
        assert y.shape == (n_out, n)
        assert not np.any(y[:, :n_min])
        bound = 1e-13 * (1.0 + np.abs(a.coeffs).max() * np.abs(x).max())
        assert np.abs(y - ref).max() <= bound

    def test_rejects_noncausal(self):
        with pytest.raises(ValueError, match="causal"):
            convolve(PolyMatrix(np.ones((1, 1, 2)), -1), np.ones((1, 5)))

    def test_memory_is_output_plus_blocks(self):
        # beyond its output (the frame, for simulate; nothing, for
        # mse_decomposition), each call may hold window blocks but no
        # N-length copy of x, (M, N) noise draw or residual (4.8 MB each
        # here, against a slack of 2.1 MB); the split of a fitted estimate
        # takes xi from the frame's lag products (sigma2_v = 0.01) or streams
        # (sigma2_v = 0, below the guard) within the same bound
        from polysvd.sysid import WienerEstimate

        sys = bigsys(SeededRng(3))
        n = 50000
        truth, _ = causal_version(sys.A)
        est = WienerEstimate(A_hat=truth, J_hat=truth.order, regularization=0.0)
        slack = 16 * 2 * sysid._BLOCK_ENTRIES
        for sigma2_v in (0.0, 0.01):
            tracemalloc.start()
            try:
                frame = simulate(sys, n, sigma2_v, SeededRng(3, stream=1))
                simulate_peak = tracemalloc.get_traced_memory()[1]
                fitted = wiener_estimate(frame, truth.order)
                mse_peaks = []
                for e in (est, fitted):
                    held = tracemalloc.get_traced_memory()[0]
                    tracemalloc.reset_peak()
                    with counted_convolutions() as calls:
                        mse_decomposition(frame, e, sys)
                    mse_peaks.append(tracemalloc.get_traced_memory()[1] - held)
            finally:
                tracemalloc.stop()
            assert (calls == []) == (sigma2_v > 0), sigma2_v
            assert simulate_peak <= frame.x.nbytes + frame.y.nbytes + slack, sigma2_v
            assert max(mse_peaks) <= slack, sigma2_v


class TestSignalFrame:
    def test_arrays_are_held_as_passed(self):
        # owned or a view, refused or accepted: the frame copies nothing and
        # leaves the caller's arrays writable
        rng = np.random.default_rng(21)
        x, y = random_complex(rng, 2, 50), random_complex(rng, 3, 51)[:, 1:]
        for args in ((x, y, np.nan), (x, y, -1.0), (x, y[:, 1:], 0.0)):
            with pytest.raises(ValueError):
                SignalFrame(*args)
        frame = SignalFrame(x, y, 0.0)
        assert frame.x is x and frame.y is y
        assert x.flags.writeable and x.flags.owndata
        assert y.flags.writeable and not y.flags.owndata

    def test_frames_compare_by_identity(self):
        a = SignalFrame(np.zeros((2, 5)), np.zeros((1, 5)), 0.0)
        b = SignalFrame(np.zeros((2, 5)), np.zeros((1, 5)), 0.0)
        assert a == a and a != b
        assert len({a, b, a}) == 2


class TestSimulate:
    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_identity_and_pure_delay_are_exact_property(self, data):
        # a unit tap copies x bitwise, whatever the block layout
        dim = data.draw(st.integers(1, 4), label="dim")
        delay = data.draw(st.integers(0, 3), label="delay")
        n = data.draw(st.integers(delay + 1, 200), label="N")
        sys = system_from(PolyMatrix(np.eye(dim)[:, :, None], delay))
        with small_budget(data):
            f = simulate(sys, n, 0.0, SeededRng(data.draw(st.integers(0, 99))))
        assert not np.any(f.y[:, :delay])
        assert np.array_equal(f.y[:, delay:], f.x[:, : n - delay])

    def test_frame_is_read_only(self):
        # down to the array that owns the memory, so nothing can write it
        f = simulate(example1(), 300, 0.01, SeededRng(3))
        for a in (f.x, f.y):
            while a is not None:
                assert not a.flags.writeable
                a = a.base
        with pytest.raises(ValueError, match="read-only"):
            f.y[0, 0] = 0.0

    def test_identity_noiseless(self):
        sys = system_from(PolyMatrix.identity(2))
        f = simulate(sys, 500, 0.0, SeededRng(0))
        assert np.array_equal(f.y, f.x)

    def test_unit_delay(self):
        sys = system_from(PolyMatrix(np.eye(2)[:, :, None], 1))
        f = simulate(sys, 500, 0.0, SeededRng(1))
        assert np.abs(f.y[:, 0]).max() == 0.0
        assert np.array_equal(f.y[:, 1:], f.x[:, :-1])

    def test_source_variance(self):
        sys = system_from(PolyMatrix.identity(3))
        f = simulate(sys, 100000, 0.0, SeededRng(2))
        var = np.mean(np.abs(f.x) ** 2, axis=1)
        assert np.abs(var - 1.0).max() < 0.02

    def test_frame_length_is_that_of_x(self):
        f = simulate(example1(), 300, 0.01, SeededRng(3))
        assert f.n_samples == f.x.shape[1] == f.y.shape[1] == 300
        with pytest.raises(ValueError, match="^x holds 300 samples but y holds 299$"):
            SignalFrame(x=f.x, y=f.y[:, :-1], sigma2_v=0.01)

    def test_requires_enough_samples(self):
        with pytest.raises(ValueError, match="n_samples = 2 .* order 2"):
            simulate(example1(), 2, 0.0, SeededRng(3))

    @pytest.mark.parametrize("sigma2_v", [-0.5, np.nan, np.inf, -np.inf])
    def test_rejects_bad_noise_variance(self, sigma2_v):
        # before anything is drawn: the generator is left where it was
        g = np.random.default_rng(3)
        with pytest.raises(ValueError, match="sigma2_v .* finite and >= 0"):
            simulate(example1(), 100, sigma2_v, g)
        assert np.array_equal(g.standard_normal(4),
                              np.random.default_rng(3).standard_normal(4))

    @pytest.mark.parametrize("n_samples", [300.0, "300"])
    def test_rejects_non_integer_length(self, n_samples):
        # before anything is drawn or spawned
        g = np.random.default_rng(3)
        with pytest.raises(TypeError, match="^n_samples must be an integer"):
            simulate(example1(), n_samples, 0.01, g)
        ref = np.random.default_rng(3)
        assert np.array_equal(g.standard_normal(4), ref.standard_normal(4))
        assert np.array_equal(g.spawn(1)[0].standard_normal(4),
                              ref.spawn(1)[0].standard_normal(4))

    def test_numpy_integer_length(self):
        f = simulate(example1(), np.int64(300), 0.01, SeededRng(3))
        g = simulate(example1(), 300, 0.01, SeededRng(3))
        assert f.n_samples == 300 and type(f.n_samples) is int
        assert np.array_equal(f.x, g.x) and np.array_equal(f.y, g.y)

    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_record_is_two_draws_and_convolution_property(self, data):
        # x from the generator, the noise from its first child and the
        # blocked convolution added in give y bitwise, and the generator is
        # left where the x draw leaves it
        dims = data.draw(st.tuples(st.integers(1, 4), st.integers(1, 4)), label="M, L")
        taps = data.draw(st.integers(1, 4), label="taps")
        n = data.draw(st.integers(taps, 300), label="N")
        sigma2_v = data.draw(st.sampled_from([1e-6, 0.01, 1.0, 3.0]), label="sigma2_v")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        coeffs = random_complex(np.random.default_rng(seed), *dims, taps)
        sys = system_from(PolyMatrix(coeffs, 0))
        with small_budget(data):
            g = np.random.default_rng(seed)
            frame = simulate(sys, n, sigma2_v, g)
            ref = np.random.default_rng(seed)
            x, y = two_draw_record(sys.A, n, sigma2_v, ref)
        assert np.array_equal(frame.x, x)
        assert np.array_equal(frame.y, y)
        assert np.array_equal(g.standard_normal(4), ref.standard_normal(4))

    def test_record_is_two_draws_and_convolution_at_full_budget(self):
        # example1 at N = 10^5: several full convolution blocks and a ragged
        # last one
        sys = example1()
        a = causal_version(sys.A)[0]
        g, ref = np.random.default_rng(8), np.random.default_rng(8)
        frame = simulate(sys, 100003, 0.01, g)
        x, y = two_draw_record(a, 100003, 0.01, ref)
        blocks = [n1 - n0 for n0, n1, _ in sysid._convolved_blocks(a, x)]
        assert len(blocks) > 3 and blocks[-1] < blocks[0]
        assert np.array_equal(frame.x, x) and np.array_equal(frame.y, y)
        assert np.array_equal(g.standard_normal(4), ref.standard_normal(4))

    def test_consecutive_records_take_consecutive_draws_and_children(self):
        # two calls on one generator: x from consecutive draws of its stream,
        # the noise from its children 0 and 1, so the records differ and a
        # fresh generator of the same seed reproduces both
        sys, n = example1(), 500
        a = causal_version(sys.A)[0]
        g = np.random.default_rng(17)
        first, second = simulate(sys, n, 0.01, g), simulate(sys, n, 0.01, g)
        ref = np.random.default_rng(17)
        x0 = complex_normal(ref, (2, n), 1.0)
        x1 = complex_normal(ref, (2, n), 1.0)
        child0, child1 = ref.spawn(2)
        assert np.array_equal(first.x, x0) and np.array_equal(second.x, x1)
        assert np.array_equal(first.y, convolve(a, x0) + complex_normal(child0, (2, n), 0.01))
        assert np.array_equal(second.y, convolve(a, x1) + complex_normal(child1, (2, n), 0.01))
        assert not np.array_equal(first.y, second.y)
        assert np.array_equal(g.standard_normal(4), ref.standard_normal(4))
        assert np.array_equal(g.spawn(1)[0].standard_normal(4), ref.spawn(1)[0].standard_normal(4))
        again = np.random.default_rng(17)
        for frame in (first, second):
            rerun = simulate(sys, n, 0.01, again)
            assert np.array_equal(rerun.x, frame.x) and np.array_equal(rerun.y, frame.y)

    @pytest.mark.parametrize("cpus", [1, 3], indirect=True)
    @pytest.mark.parametrize("nested", [False, True], ids=["alone", "nested"])
    @pytest.mark.parametrize("sigma2_v", [0.0, 0.01])
    def test_bitwise_on_any_pool(self, cpus, nested, sigma2_v, monkeypatch):
        # one free CPU, or every slot held by an enclosing run_tasks, runs
        # both draws on the calling thread; a free slot draws the noise on a
        # worker; each gives the two-draw x and y and leaves the stream alike.
        # Both draws pass out=, so the spy tells them apart by generator
        x_threads, noise_threads = [], []
        real = sysid.complex_normal
        g = np.random.default_rng(9)

        def spy(rng, *args, **kwargs):
            (x_threads if rng is g else noise_threads).append(threading.get_ident())
            return real(rng, *args, **kwargs)

        monkeypatch.setattr(sysid, "complex_normal", spy)
        sys = example1()
        # three convolution blocks of 26208 samples, the last one ragged
        n = 60005
        if nested:
            done = threading.Event()

            def task(i):
                if i:
                    assert done.wait(timeout=60)
                    return None
                try:
                    return simulate(sys, n, sigma2_v, g), threading.get_ident()
                finally:
                    done.set()

            frame, caller = run_tasks(task, range(cpus))[0]
        else:
            frame, caller = simulate(sys, n, sigma2_v, g), threading.get_ident()
        ref = np.random.default_rng(9)
        x, y = two_draw_record(causal_version(sys.A)[0], n, sigma2_v, ref)
        assert np.array_equal(frame.x, x) and np.array_equal(frame.y, y)
        assert np.array_equal(g.standard_normal(4), ref.standard_normal(4))
        assert x_threads == [caller]
        assert len(noise_threads) == (1 if sigma2_v else 0)
        inline = cpus == 1 or nested
        assert all((t == caller) == inline for t in noise_threads)

    @pytest.mark.parametrize("cpus", [16], indirect=True)
    def test_concurrent_records_stress(self, cpus, monkeypatch):
        # six records at once, each with its noise on a worker of its own:
        # twelve threads on the machine's cores, a short switch interval and
        # small convolution blocks interleave them finely; each record must
        # still be bitwise its serial two-draw reference
        monkeypatch.setattr(sysid, "_BLOCK_ENTRIES", 4096)
        sys, n = example1(), 50000
        a = causal_version(sys.A)[0]
        want = [two_draw_record(a, n, 0.01, np.random.default_rng(s)) for s in range(6)]
        interval = getswitchinterval()
        setswitchinterval(1e-6)
        try:
            for _ in range(10):
                frames = run_tasks(
                    lambda s: simulate(sys, n, 0.01, np.random.default_rng(s)), range(6))
                for frame, (x, y) in zip(frames, want):
                    assert np.array_equal(frame.x, x) and np.array_equal(frame.y, y)
        finally:
            setswitchinterval(interval)


def stacked_gram(frame, j_hat):
    """The former stacked-Gram construction: R_xx as the Gram matrix of the
    stack of shifted regressors [x[n]; ...; x[n - J]], n >= J."""
    x, y, n = frame.x, frame.y, frame.n_samples
    blk = np.concatenate([x[:, j_hat - j : n - j] for j in range(j_hat + 1)])
    count = n - j_hat
    return blk @ blk.conj().T / count, y[:, j_hat:] @ blk.conj().T / count


class TestStackedCorrelations:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_matches_stacked_gram_property(self, data):
        # the lag products and the edge recursion against the Gram matrix of
        # the explicit stack, from the shortest record (count = d) upwards
        n_src = data.draw(st.integers(1, 4), label="L")
        n_out = data.draw(st.integers(1, 4), label="M")
        j_hat = data.draw(st.integers(0, 6), label="J")
        d = (j_hat + 1) * n_src
        count = data.draw(st.one_of(st.integers(d, d + 40), st.just(2000)),
                          label="count")
        n = count + j_hat
        sx = data.draw(st.sampled_from([1e-3, 1.0, 1e3]), label="x scale")
        sy = data.draw(st.sampled_from([1e-3, 1.0, 1e3]), label="y scale")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        x = sx * (rng.standard_normal((n_src, n)) + 1j * rng.standard_normal((n_src, n)))
        y = sy * (rng.standard_normal((n_out, n)) + 1j * rng.standard_normal((n_out, n)))
        frame = SignalFrame(x=x, y=y, sigma2_v=0.0)
        with small_budget(data), drawn_phases(data):
            r_xx, r_yx, _ = _stacked_correlations(frame, j_hat)
        ref_xx, ref_yx = stacked_gram(frame, j_hat)
        ax, ay = np.abs(x).max(), np.abs(y).max()
        bound = 1e-13 * (1.0 + ax * max(ax, ay))
        assert r_xx.shape == (d, d) and r_yx.shape == (n_out, d)
        assert np.abs(r_xx - ref_xx).max() <= bound
        assert np.abs(r_yx - ref_yx).max() <= bound

    def test_bigsys_frame_matches_stacked_gram(self):
        sys = bigsys(SeededRng(1))
        frame = simulate(sys, 5000, 0.01, SeededRng(1, stream=1))
        j_hat = causal_version(sys.A)[0].order
        r_xx, r_yx, _ = _stacked_correlations(frame, j_hat)
        ref_xx, ref_yx = stacked_gram(frame, j_hat)
        assert np.abs(r_xx - ref_xx).max() <= 1e-14
        assert np.abs(r_yx - ref_yx).max() <= 1e-14

    def test_memory_is_one_block_plus_normal_equations(self):
        # the frame is 3.8 MB; the solve may hold one regressor block and a
        # few d x d matrices, but no N-length copy of x or y
        sys = bigsys(SeededRng(2))
        frame = simulate(sys, 20000, 0.01, SeededRng(2, stream=1))
        j_hat = causal_version(sys.A)[0].order
        d = (j_hat + 1) * frame.x.shape[0]
        tracemalloc.start()
        try:
            wiener_estimate(frame, j_hat)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * (sysid._BLOCK_ENTRIES + 4 * d * d)


class TestWienerEstimate:
    def test_noiseless_exact_order(self):
        sys = example1()
        frame = simulate(sys, 100000, 0.0, SeededRng(4))
        est = wiener_estimate(frame, 2, reg=0.0)
        err = error_system(est, sys)
        assert err.frob_energy() <= 1e-6 * sys.A.frob_energy()

    def test_constant_system_order_zero(self):
        c = np.array([[1.0, 2.0], [0.5j, -1.0]])
        sys = system_from(PolyMatrix.constant(c))
        frame = simulate(sys, 20000, 0.0, SeededRng(5))
        est = wiener_estimate(frame, 0, reg=0.0)
        assert np.abs(est.A_hat.coeffs[:, :, 0] - c).max() < 1e-3

    def test_estimate_is_causal_with_jhat_taps(self):
        frame = simulate(example1(), 5000, 0.01, SeededRng(6))
        est = wiener_estimate(frame, 4)
        assert est.A_hat.n_min == 0
        assert est.A_hat.n_taps == 5

    def test_residual_orthogonal_to_regressors(self):
        # normal-equation optimality: residual uncorrelated with the data
        sys = example1()
        frame = simulate(sys, 20000, 0.05, SeededRng(7))
        est = wiener_estimate(frame, 2, reg=0.0)
        j = est.J_hat
        n = frame.n_samples
        y_hat = np.zeros_like(frame.y)
        for t in range(est.A_hat.n_taps):
            y_hat[:, t:] += est.A_hat.coeffs[:, :, t] @ frame.x[:, : n - t]
        resid = y_hat[:, j:] - frame.y[:, j:]
        worst = 0.0
        for lag in range(j + 1):
            xc = frame.x[:, j - lag : n - lag]
            cross = resid @ xc.conj().T / (n - j)
            worst = max(worst, np.abs(cross).max())
        assert worst <= 1e-8

    def test_beats_ground_truth_on_sample_mse(self):
        sys = example1()
        frame = simulate(sys, 30000, 0.02, SeededRng(8))
        est = wiener_estimate(frame, 2, reg=0.0)
        truth = causal_version(sys.A)[0]
        xi_est = mse_decomposition(frame, est, sys).xi_mse
        from polysvd.sysid import WienerEstimate

        xi_truth = mse_decomposition(
            frame, WienerEstimate(A_hat=truth, J_hat=2, regularization=0.0), sys
        ).xi_mse
        assert xi_est <= xi_truth + 1e-12

    @pytest.mark.parametrize("j_hat", [np.int32(1), np.int64(1), np.uint8(1)])
    def test_integer_like_order_gives_int_order(self, j_hat):
        # J_hat is the int 1, and the estimate that of j_hat = 1
        frame = simulate(example1(), 2000, 0.01, SeededRng(6))
        est, want = wiener_estimate(frame, j_hat), wiener_estimate(frame, 1)
        assert type(est.J_hat) is int and est.J_hat == 1
        assert np.array_equal(est.A_hat.coeffs, want.A_hat.coeffs)

    @pytest.mark.parametrize("j_hat", [1, 2, 10])
    def test_rejects_record_shorter_than_dimension(self, j_hat):
        d = (j_hat + 1) * 2
        frame = simulate(example1(), j_hat + d - 1, 0.01, SeededRng(13))
        with pytest.raises(ValueError, match=f"= {d - 1} .* d = {d}$"):
            wiener_estimate(frame, j_hat)
        frame = simulate(example1(), j_hat + d, 0.01, SeededRng(13))
        assert wiener_estimate(frame, j_hat).A_hat.n_taps == j_hat + 1

    def test_condition_white_sources(self):
        frame = simulate(example1(), 100000, 0.01, SeededRng(14))
        est = wiener_estimate(frame, 2)
        assert 1.0 <= est.condition < 1.5
        assert est.regularization > 0.0

    def test_noise_level_moves_only_y(self):
        # the noise has its own generator, so x, R_xx and the fit's
        # regularization and condition are bitwise those of any other level
        sys = example1()
        fits = []
        for sigma2_v in (0.0, 0.01, 1.5):
            frame = simulate(sys, 5000, sigma2_v, SeededRng(14))
            r_xx = _stacked_correlations(frame, 2)[0]
            fits.append((frame, r_xx, wiener_estimate(frame, 2)))
        (f0, r0, e0), *rest = fits
        for frame, r_xx, est in rest:
            assert np.array_equal(frame.x, f0.x) and not np.array_equal(frame.y, f0.y)
            assert np.array_equal(r_xx, r0)
            assert (est.regularization, est.condition) == (e0.regularization, e0.condition)

    def test_condition_shortest_record(self):
        # count = d: the sample R_xx is the Gram matrix of a square random
        # matrix, whose smallest eigenvalue is O(1/d^2)
        j_hat = 10
        frame = simulate(example1(), j_hat + 2 * (j_hat + 1), 0.01, SeededRng(14))
        assert wiener_estimate(frame, j_hat).condition > 100.0

    def test_error_energy_shrinks_with_n(self):
        sys = example1()
        medians = []
        for n in (1000, 10000, 100000):
            energies = []
            for rep in range(5):
                frame = simulate(sys, n, 0.01, SeededRng(100 + rep))
                est = wiener_estimate(frame, 2, reg=0.0)
                energies.append(error_system(est, sys).frob_energy())
            medians.append(np.median(energies))
        assert medians[0] > medians[1] > medians[2]


class TestErrorSystem:
    def test_perfect_estimate(self):
        sys = example1()
        truth = causal_version(sys.A)[0]
        from polysvd.sysid import WienerEstimate

        est = WienerEstimate(A_hat=truth, J_hat=2, regularization=0.0)
        assert error_system(est, sys).frob_energy() == 0.0

    def test_energy_is_frob_of_difference(self):
        sys = example1()
        truth = causal_version(sys.A)[0]
        bump = PolyMatrix(np.full((2, 2, 1), 0.1 + 0j), 0)
        from polysvd.sysid import WienerEstimate

        est = WienerEstimate(A_hat=truth + bump, J_hat=2, regularization=0.0)
        assert error_system(est, sys).frob_energy() == pytest.approx(
            bump.frob_energy(), rel=1e-12
        )

    def test_feeds_normalized_variance(self):
        from polysvd import normalized_variance

        sys = example1()
        frame = simulate(sys, 20000, 0.01, SeededRng(9))
        est = wiener_estimate(frame, 2)
        ratio = normalized_variance(error_system(est, sys), sys.A)
        assert 0.0 < ratio < 1e-2

    def test_dimension_mismatch(self):
        from polysvd.sysid import WienerEstimate

        est = WienerEstimate(A_hat=PolyMatrix.zeros(3, 3), J_hat=0,
                             regularization=0.0)
        with pytest.raises(ValueError):
            error_system(est, example1())


class TestMseDecomposition:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_streamed_xi_equals_explicit_residual_property(self, data):
        # any causal A_hat, delayed (n_min > 0, also past N) or rectangular,
        # against the explicit (M, N) residual summed over n >= J_hat
        n_src = data.draw(st.integers(1, 4), label="L")
        n_out = data.draw(st.integers(1, 4), label="M")
        n_taps = data.draw(st.integers(1, 6), label="taps")
        n_min = data.draw(st.integers(0, 3), label="n_min")
        n = data.draw(st.integers(1, 80), label="N")
        order = n_min + n_taps - 1  # T - 1
        j_hat = data.draw(st.one_of(st.just(0), st.just(min(order, n - 1)),
                                    st.integers(min(order + 1, n - 1), n - 1)),
                          label="J_hat")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        a = PolyMatrix(random_complex(rng, n_out, n_src, n_taps), n_min)
        frame = SignalFrame(x=random_complex(rng, n_src, n),
                            y=random_complex(rng, n_out, n), sigma2_v=0.0)
        est = sysid.WienerEstimate(A_hat=a, J_hat=j_hat, regularization=0.0)
        with small_budget(data), drawn_phases(data):
            rep = mse_decomposition(frame, est, system_from(a))
            resid = (convolve(a, frame.x) - frame.y)[:, j_hat:]
        want = np.vdot(resid, resid).real / (n - j_hat)
        assert abs(rep.xi_mse - want) <= 1e-12 * want
        assert rep.error_energy == 0.0

    @pytest.mark.parametrize("j_hat", [-1, 20, 25])
    def test_rejects_transient_outside_record(self, j_hat):
        frame = simulate(example1(), 20, 0.01, SeededRng(15))
        truth = causal_version(example1().A)[0]
        est = sysid.WienerEstimate(A_hat=truth, J_hat=j_hat, regularization=0.0)
        with pytest.raises(ValueError, match=f"^J_hat = {j_hat} must lie in "
                                             r"0\.\.19 for n_samples = 20$"):
            mse_decomposition(frame, est, example1())

    @pytest.mark.parametrize("rows, cols", [(3, 2), (2, 3), (1, 1)])
    def test_rejects_estimate_of_other_dimensions(self, rows, cols):
        frame = simulate(example1(), 20, 0.01, SeededRng(15))
        est = sysid.WienerEstimate(A_hat=PolyMatrix(np.ones((rows, cols, 3)), 0),
                                   J_hat=2, regularization=0.0)
        with pytest.raises(ValueError, match=f"^A_hat is {rows}x{cols} but the frame "
                                             "has 2 outputs and 2 sources$"):
            mse_decomposition(frame, est, example1())

    def test_perfect_noiseless_all_zero(self):
        sys = example1()
        frame = simulate(sys, 5000, 0.0, SeededRng(10))
        truth = causal_version(sys.A)[0]
        from polysvd.sysid import WienerEstimate

        rep = mse_decomposition(
            frame, WienerEstimate(A_hat=truth, J_hat=2, regularization=0.0), sys
        )
        assert rep.xi_mse == pytest.approx(0.0, abs=1e-25)
        assert rep.error_energy == 0.0
        assert rep.noise_floor == 0.0
        assert rep.decomposition_gap == pytest.approx(0.0, abs=1e-25)

    def test_perfect_estimate_noise_floor(self):
        sys = example1()
        frame = simulate(sys, 100000, 0.02, SeededRng(11))
        truth = causal_version(sys.A)[0]
        from polysvd.sysid import WienerEstimate

        rep = mse_decomposition(
            frame, WienerEstimate(A_hat=truth, J_hat=2, regularization=0.0), sys
        )
        assert rep.noise_floor == pytest.approx(0.04)
        assert rep.xi_mse == pytest.approx(0.04, rel=0.05)

    def test_decomposition_gap_small(self):
        sys = example1()
        frame = simulate(sys, 100000, 0.01, SeededRng(12))
        est = wiener_estimate(frame, 2)
        rep = mse_decomposition(frame, est, sys)
        assert rep.decomposition_gap / rep.xi_mse <= 0.1

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_normal_equation_xi_equals_streamed_property(self, data):
        # on the frame it was fit on, an estimate's xi from the frame's lag
        # products agrees with the streamed residual of the same estimate on
        # an unfit copy of the frame; where the guard rejects the form the
        # two reports are bitwise equal
        n_src = data.draw(st.integers(1, 3), label="L")
        n_out = data.draw(st.integers(1, 3), label="M")
        n_taps = data.draw(st.integers(1, 4), label="taps")
        order = n_taps - 1
        j_hat = data.draw(st.one_of(st.integers(max(order - 2, 0), order),
                                    st.integers(order, order + 3)), label="J_hat")
        d = (j_hat + 1) * n_src
        n = data.draw(st.integers(max(j_hat + d, n_taps), 3000), label="N")
        sigma2_v = data.draw(st.sampled_from([0.0, 1e-10, 1e-4, 1e-2]), label="sigma2_v")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        a = PolyMatrix(random_complex(np.random.default_rng(seed), n_out, n_src, n_taps), 0)
        sys = system_from(a)
        frame = simulate(sys, n, sigma2_v, SeededRng(seed % 1000, stream=1))
        est = wiener_estimate(frame, j_hat)
        with counted_convolutions() as calls:
            rep = mse_decomposition(frame, est, sys)
        ref = mse_decomposition(writable_copy(frame), est, sys)
        if calls:
            assert rep == ref
        else:
            assert abs(rep.xi_mse - ref.xi_mse) <= 1e-11 * ref.xi_mse
            assert rep.error_energy == ref.error_energy
            assert rep.noise_floor == ref.noise_floor
        # an exact noiseless fit cancels to rounding, below the guard
        assert calls or sigma2_v > 0.0 or j_hat < order

    def test_copies_of_an_estimate_report_as_it_does(self):
        # the report depends on the frame and the estimate's fields alone: a
        # hand-built, replaced or pickled copy takes the same xi from the
        # frame's lag products, bitwise
        sys = example1()
        frame = simulate(sys, 5000, 0.01, SeededRng(16))
        est = wiener_estimate(frame, 2)
        hand = sysid.WienerEstimate(A_hat=PolyMatrix(est.A_hat.coeffs), J_hat=2,
                                    regularization=est.regularization,
                                    condition=est.condition)
        with counted_convolutions() as calls:
            rep = mse_decomposition(frame, est, sys)
            for copy in (hand, dataclasses.replace(est), pickle.loads(pickle.dumps(est))):
                assert copy == est and hash(copy) == hash(est)
                assert mse_decomposition(frame, copy, sys) == rep
        assert calls == []

    def test_other_frame_streams_and_copies_agree(self):
        # the lag products belong to the frame and serve only a sealed
        # record: another frame of the same shape streams, and so do a
        # fitted frame over writable copies and an unpickled or deep-copied
        # frame, whose arrays come back writable, each bitwise as a fresh
        # frame over copies does; a fitted frame over sealed copies reports
        # as the fitted frame does
        sys = example1()
        frame = simulate(sys, 5000, 0.01, SeededRng(16))
        other = simulate(sys, 5000, 0.01, SeededRng(17))
        est = wiener_estimate(frame, 2)
        fresh = writable_copy(frame)
        assert wiener_estimate(fresh, 2) == est and 2 in fresh._lags
        with counted_convolutions() as calls:
            mse_decomposition(other, est, sys)
            streamed = mse_decomposition(writable_copy(frame), est, sys)
            for copy in (fresh, pickle.loads(pickle.dumps(frame)), deepcopy(frame)):
                assert copy.x.flags.writeable and copy.y.flags.writeable
                assert mse_decomposition(copy, est, sys) == streamed
        assert len(calls) == 5
        kept = sealed_copy(frame)
        assert wiener_estimate(kept, 2) == est
        with counted_convolutions() as calls:
            assert mse_decomposition(kept, est, sys) == mse_decomposition(frame, est, sys)
        assert calls == []

    def test_writes_through_an_earlier_view_reach_the_split(self):
        # a writable view taken before the frame, the fit, then a write
        # through the view: the split streams the changed data, bitwise as a
        # fresh frame over it does, where lag products kept from the fit
        # would report xi = 0.0200 against 3.245
        sys = example1()
        src = simulate(sys, 5000, 0.01, SeededRng(20))
        x, y = src.x.copy(), src.y.copy()
        vy = y[:]
        frame = SignalFrame(x, y, 0.01)
        est = wiener_estimate(frame, 2)
        vy *= 2.0
        with counted_convolutions() as calls:
            rep = mse_decomposition(frame, est, sys)
        assert len(calls) == 1
        assert rep == mse_decomposition(writable_copy(frame), est, sys)
        assert rep.xi_mse > 3.0

    def test_simulate_frame_made_writable_streams(self):
        # simulate seals its record; an owner that makes y writable again
        # may write it, so the split streams over the data as it stands
        sys = example1()
        frame = simulate(sys, 5000, 0.01, SeededRng(22))
        est = wiener_estimate(frame, 2)
        frame.y.flags.writeable = True
        frame.y[:, ::2] *= 2.0
        with counted_convolutions() as calls:
            rep = mse_decomposition(frame, est, sys)
        assert len(calls) == 1
        assert rep == mse_decomposition(writable_copy(frame), est, sys)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_writes_after_the_fit_reach_the_split_property(self, data):
        # hand-built frames over owned arrays, views or read-only views of
        # writable bases; after the fit the caller writes through a handle
        # it kept.  The frame holds the arrays as passed, and the split
        # equals the streamed report over the data as it stands
        n_src = data.draw(st.integers(1, 3), label="L")
        n_out = data.draw(st.integers(1, 3), label="M")
        j_hat = data.draw(st.integers(0, 4), label="J_hat")
        n = data.draw(st.integers(j_hat + (j_hat + 1) * n_src, 60), label="N")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))

        def record(rows, label):
            """(array, writable handle taken before the frame)."""
            kind = data.draw(st.sampled_from(["owned", "view", "read-only view"]),
                             label=label)
            base = random_complex(rng, rows, n + 1)
            if kind == "owned":
                a = base[:, 1:].copy()
                return a, a[:]
            a = base[:, 1:]
            a.flags.writeable = kind == "view"
            return a, base[:, 1:]

        (x, wx), (y, wy) = record(n_src, "x"), record(n_out, "y")
        flags = [(a.flags.writeable, a.flags.owndata) for a in (x, y)]
        frame = SignalFrame(x, y, 0.01)
        sys = system_from(PolyMatrix(random_complex(rng, n_out, n_src, 2)))
        est = wiener_estimate(frame, j_hat)
        for _ in range(data.draw(st.integers(1, 3), label="writes")):
            w = data.draw(st.sampled_from([wx, wy]), label="target")
            r = data.draw(st.integers(0, w.shape[0] - 1), label="row")
            c = data.draw(st.integers(0, n - 1), label="sample")
            w[r, c] = data.draw(st.complex_numbers(max_magnitude=1e3, allow_nan=False,
                                                   allow_infinity=False), label="value")
        assert frame.x is x and frame.y is y
        assert [(a.flags.writeable, a.flags.owndata) for a in (x, y)] == flags
        want = mse_decomposition(SignalFrame(x.copy(), y.copy(), 0.01), est, sys)
        assert mse_decomposition(frame, est, sys) == want

    def test_only_a_fit_shaped_estimate_takes_the_form(self):
        # taps other than 0..J_hat stream even where the frame keeps lags at
        # J_hat; they are not the regressors the lag products were taken over
        sys = example1()
        frame = simulate(sys, 5000, 0.01, SeededRng(19))
        coeffs = wiener_estimate(frame, 2).A_hat.coeffs
        for a_hat in (PolyMatrix(coeffs, 1), PolyMatrix(coeffs[:, :, :2])):
            est = sysid.WienerEstimate(A_hat=a_hat, J_hat=2, regularization=0.0)
            with counted_convolutions() as calls:
                rep = mse_decomposition(frame, est, sys)
            assert len(calls) == 1
            assert rep == mse_decomposition(writable_copy(frame), est, sys)

    def test_estimate_does_not_keep_its_frame(self):
        frame = simulate(example1(), 5000, 0.01, SeededRng(18))
        est = wiener_estimate(frame, 2)
        ref = weakref.ref(frame)
        del frame
        gc.collect()
        assert ref() is None and est.J_hat == 2


def _window_call_sites():
    """('module.function', writeable=False given) for every as_strided and
    sliding_window_view call in the package."""
    sites = []
    for path in sorted(Path(polysvd.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and "stride" in (node.module or ""):
                assert all(a.asname is None for a in node.names), path.name

        def visit(node, scope):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                    visit(child, scope + [child.name])
                    continue
                if isinstance(child, ast.Call):
                    name = ast.unparse(child.func).rsplit(".", 1)[-1]
                    if name in ("as_strided", "sliding_window_view"):
                        read_only = any(
                            kw.arg == "writeable" and isinstance(kw.value, ast.Constant)
                            and kw.value.value is False for kw in child.keywords)
                        sites.append((".".join([path.stem] + scope), read_only))
                visit(child, scope)

        visit(tree, [])
    return sites


def test_windows_is_the_only_strided_view():
    assert _window_call_sites() == [("sysid._windows", True)]
