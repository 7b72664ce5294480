"""Bin-wise SVD grids, trajectory association, diagnostics, track deviation."""

import io
import itertools
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polysvd import (
    AssociationAmbiguous,
    PolyMatrix,
    aligned_vectors,
    binwise_svd,
    diagnostics,
    majorized_trajectories,
    smooth_trajectories,
    track_deviation,
)
from polysvd.anasvd import (
    AMBIGUITY_MARGIN,
    _BLOCK,
    _adjacent_matches,
    _greedy_match,
    _write_rows,
    write_trajectory_csv,
)
from polysvd.perturb import random_error, scale_to_normalized
from polysvd.sysgen import (
    SeededRng,
    assemble,
    bigsys,
    example1,
    random_paraunitary,
    random_parahermitian_scalar,
)

RNG = np.random.default_rng(31415)


def sigma_scalars():
    s1 = PolyMatrix(np.array([0.25, 1, 0.25], dtype=complex).reshape(1, 1, 3), -1)
    s2 = PolyMatrix(np.array([-1j, 0, 1j]).reshape(1, 1, 3), -1)
    return s1, s2


class TestBinwiseSvd:
    def test_example1_k4_multisets(self):
        b = binwise_svd(example1().A, 4)
        expected = [{1.5, 0.0}, {1.0, 2.0}, {0.5, 0.0}, {1.0, 2.0}]
        for k, want in enumerate(expected):
            got = sorted(b.sigma[k])
            assert np.abs(np.array(got) - np.array(sorted(want))).max() < 1e-12

    def test_constant_unitary(self):
        q = np.linalg.qr(RNG.standard_normal((3, 3)) + 1j * RNG.standard_normal((3, 3)))[0]
        b = binwise_svd(PolyMatrix.constant(q), 16)
        assert np.abs(b.sigma - 1.0).max() < 1e-12

    def test_zero_matrix(self):
        b = binwise_svd(PolyMatrix.zeros(2, 3), 8)
        assert np.abs(b.sigma).max() == 0.0

    @pytest.mark.parametrize("make", [lambda: example1().A,
                                      lambda: bigsys(SeededRng(1)).A])
    def test_values_only(self, make):
        a = make()
        full = binwise_svd(a, 256)
        bare = binwise_svd(a, 256, vectors=False)
        assert bare.U is None and bare.V is None
        assert np.array_equal(bare.omegas, full.omegas)
        assert np.abs(bare.sigma - full.sigma).max() <= 1e-13 * full.sigma.max()

    def test_smooth_needs_vectors(self):
        with pytest.raises(ValueError, match="singular vectors"):
            smooth_trajectories(binwise_svd(example1().A, 16, vectors=False))

    def test_results_match_eval(self):
        a = example1().A
        b = binwise_svd(a, 8)
        for k in (0, 3, 7):
            r = b.sigma.shape[1]
            recon = (b.U[k][:, :r] * b.sigma[k]) @ b.V[k][:, :r].conj().T
            assert np.abs(recon - a.eval_at([b.omegas[k]])[0]).max() < 1e-12


class TestMajorized:
    def test_example1_k4_tracks(self):
        t = majorized_trajectories(binwise_svd(example1().A, 4))
        assert np.abs(t.values[0] - np.array([1.5, 2.0, 0.5, 2.0])).max() < 1e-12
        assert np.abs(t.values[1] - np.array([0.0, 1.0, 0.0, 1.0])).max() < 1e-12

    def test_sorted_per_bin(self):
        a = PolyMatrix(
            RNG.standard_normal((3, 3, 5)) + 1j * RNG.standard_normal((3, 3, 5)), -2
        )
        t = majorized_trajectories(binwise_svd(a, 64))
        assert np.all(t.values[:-1] >= t.values[1:] - 1e-15)
        assert np.all(t.values >= 0)

    def test_parahermitian_transpose_same_tracks(self):
        a = PolyMatrix(
            RNG.standard_normal((3, 4, 4)) + 1j * RNG.standard_normal((3, 4, 4)), -1
        )
        t1 = majorized_trajectories(binwise_svd(a, 32))
        t2 = majorized_trajectories(binwise_svd(a.parahermitian(), 32))
        assert np.abs(t1.values - t2.values).max() < 1e-10

    def test_doubling_k_consistent(self):
        a = example1().A
        t1 = majorized_trajectories(binwise_svd(a, 64))
        t2 = majorized_trajectories(binwise_svd(a, 128))
        assert np.abs(t1.values - t2.values[:, ::2]).max() < 1e-12


class TestSmooth:
    def test_example1_closed_forms_k256(self):
        sm = smooth_trajectories(binwise_svd(example1().A, 256))
        forms = np.stack([1 + 0.5 * np.cos(sm.omegas), 2 * np.sin(sm.omegas)])
        assert track_deviation(sm.values, forms) <= 1e-8

    def test_constant_system_equals_majorized(self):
        c = RNG.standard_normal((3, 3)) + 1j * RNG.standard_normal((3, 3))
        b = binwise_svd(PolyMatrix.constant(c), 32)
        sm = smooth_trajectories(b)
        mj = majorized_trajectories(b)
        assert np.abs(sm.values - mj.values).max() < 1e-12

    def test_diagonal_construction_oracle(self):
        # diag(sigma_1, sigma_2) must give back each scalar's real values
        s1, s2 = sigma_scalars()
        c = np.zeros((2, 2, 3), dtype=complex)
        c[0, 0] = s1.coeffs[0, 0]
        c[1, 1] = s2.coeffs[0, 0]
        a = PolyMatrix(c, -1)
        sm = smooth_trajectories(binwise_svd(a, 512))
        forms = np.stack(
            [
                np.real(s1.eval_grid(512)[:, 0, 0]),
                np.real(s2.eval_grid(512)[:, 0, 0]),
            ]
        )
        assert track_deviation(sm.values, forms) <= 1e-8

    @pytest.mark.parametrize("n_bins", [8, 16, 64, 1024, 4096])
    def test_exact_crossing_on_a_grid_bin(self, n_bins):
        # example1's U and V with sigma_1 = 1 and sigma_2 = 1 + cos(omega):
        # the tracks cross at omega = pi/2 and 3 pi/2, bins K/4 and 3K/4,
        # where LAPACK's basis is arbitrary.  Matching each bin against
        # its neighbour alone swaps the tracks there.
        ex = example1()
        s2 = PolyMatrix(np.array([0.5, 1, 0.5], dtype=complex).reshape(1, 1, 3), -1)
        a = assemble(ex.U, (PolyMatrix.constant(np.ones((1, 1))), s2), ex.V).A
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", AssociationAmbiguous)
            sm = smooth_trajectories(binwise_svd(a, n_bins))
        forms = np.stack([np.ones(n_bins), 1 + np.cos(sm.omegas)])
        assert track_deviation(sm.values, forms) <= 1e-12
        assert set(sm.ambiguous_bins) <= {n_bins // 4, 3 * n_bins // 4}

    def test_multiset_matches_majorized(self):
        b = binwise_svd(example1().A, 128)
        sm = smooth_trajectories(b)
        mj = majorized_trajectories(b)
        assert (
            np.abs(np.sort(np.abs(sm.values), axis=0)[::-1] - mj.values).max() < 1e-10
        )

    def test_rank_one_reconstruction_both_modes(self):
        a = example1().A
        b = binwise_svd(a, 64)
        mj = majorized_trajectories(b)
        sm = smooth_trajectories(b)
        u, v = aligned_vectors(b, sm)
        for k in range(b.n_bins):
            target = a.eval_at([b.omegas[k]])[0]
            recon_mj = sum(
                np.outer(b.U[k][:, m], b.V[k][:, m].conj()) * mj.values[m, k]
                for m in range(2)
            )
            recon_sm = sum(
                np.outer(u[k][:, m], v[k][:, m].conj()) * sm.values[m, k]
                for m in range(2)
            )
            assert np.abs(recon_mj - target).max() < 1e-10
            assert np.abs(recon_sm - target).max() < 1e-10

    def test_signs_and_permutations_recorded(self):
        sm = smooth_trajectories(binwise_svd(example1().A, 256))
        assert sm.permutations.shape == (256, 2)
        # the sine track changes sign across omega = pi
        assert (np.copysign(1.0, sm.values) == -1).any()

    def test_paraunitary_all_ones(self):
        q = random_paraunitary(3, 4, SeededRng(5))
        b = binwise_svd(q, 128)
        mj = majorized_trajectories(b)
        assert np.abs(mj.values - 1.0).max() < 1e-10
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", AssociationAmbiguous)
            sm = smooth_trajectories(b)
        assert np.abs(np.abs(sm.values) - 1.0).max() < 1e-10

    def test_ambiguity_warning_on_coarse_grid(self):
        # order-12 factors on an 8-bin grid rotate too fast between bins
        q = random_paraunitary(2, 12, SeededRng(0))
        with pytest.warns(AssociationAmbiguous) as caught:
            sm = smooth_trajectories(binwise_svd(q, 8))
        n = sm.ambiguous_bins.size
        assert n > 0
        assert f"at {n} of 8 bins (first at bin {sm.ambiguous_bins[0]}," in str(
            caught[0].message)

    def test_no_ambiguous_bins_is_empty(self):
        sm = smooth_trajectories(binwise_svd(example1().A, 256))
        assert sm.ambiguous_bins.shape == (0,)
        assert sm.ambiguous_bins.dtype.kind == "i"


def eliminate(score):
    """Reference greedy match: repeatedly take the global maximum."""
    r = score.shape[0]
    sc = score.copy()
    perm = np.full(r, -1, dtype=int)
    ambiguous = False
    for _ in range(r):
        m, i = np.unravel_index(np.argmax(sc), sc.shape)
        best = sc[m, i]
        sc[m, i] = -np.inf
        alt = max(sc[m, :].max(), sc[:, i].max())
        if np.isfinite(alt) and best - alt < AMBIGUITY_MARGIN:
            ambiguous = True
        perm[m] = i
        sc[m, :] = -np.inf
        sc[:, i] = -np.inf
    return perm, ambiguous


def near_identity(rng, r):
    p = rng.permutation(r)
    score = 0.5 * rng.random((r, r))
    score[np.arange(r), p] = 0.8 + 0.2 * rng.random(r)
    return score, p


class TestGreedyMatch:
    @staticmethod
    def scores(r):
        rng = np.random.default_rng(100 + r)
        for _ in range(200):
            yield rng.random((r, r))
            yield near_identity(rng, r)[0]
            for delta in (-1e-12, 0.0, 1e-12):
                score, p = near_identity(rng, r)
                m = rng.integers(r)
                rival = score[m, p[m]] - (AMBIGUITY_MARGIN + delta)
                if rng.random() < 0.5:
                    score[m, p[(m + 1) % r]] = rival
                else:
                    score[(m + 1) % r, p[m]] = rival
                yield score

    @pytest.mark.parametrize("r", range(1, 7))
    def test_matches_elimination(self, r):
        for score in self.scores(r):
            perm, ambiguous = _greedy_match(score)
            want_perm, want_ambiguous = eliminate(score)
            assert np.array_equal(perm, want_perm)
            assert ambiguous == want_ambiguous

    def test_clear_permutation_not_ambiguous(self):
        score, p = near_identity(np.random.default_rng(7), 5)
        perm, ambiguous = _greedy_match(score)
        assert np.array_equal(perm, p) and not ambiguous


class TestSmoothBigsys:
    K = 4096

    @pytest.fixture(scope="class", params=[0, 1])
    def tracked(self, request):
        sys = bigsys(SeededRng(request.param))
        b = binwise_svd(sys.A, self.K)
        return sys, b, smooth_trajectories(b)

    def test_multiset_matches_majorized(self, tracked):
        _, b, sm = tracked
        mags = np.sort(np.abs(sm.values), axis=0)[::-1]
        assert np.abs(mags - majorized_trajectories(b).values).max() <= 1e-12

    def test_reconstruction_at_sampled_bins(self, tracked):
        sys, b, sm = tracked
        u, v = aligned_vectors(b, sm)
        for k in range(0, self.K, 241):
            recon = (u[k] * sm.values[:, k]) @ v[k].conj().T
            assert np.abs(recon - sys.A.eval_at([b.omegas[k]])[0]).max() <= 1e-10

    @pytest.mark.parametrize("seed", [0, 1])
    def test_coarse_grid_ambiguous(self, seed):
        with pytest.warns(AssociationAmbiguous):
            smooth_trajectories(binwise_svd(bigsys(SeededRng(seed)).A, 4))

    def test_memory_is_output_plus_blocks(self):
        # beyond the ~1 MB it returns, the association may hold its (K, R)
        # maps and phases and one block of overlaps or gathered vectors, but
        # no (K, M, R) copy of U or V (2.4 MB each here)
        b = binwise_svd(bigsys(SeededRng(1, stream=1)).A, self.K)
        tracemalloc.start()
        try:
            sm = smooth_trajectories(b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        returned = sum(np.asarray(x).nbytes for x in vars(sm).values()
                       if not isinstance(x, str))
        assert peak <= returned + 2_000_000

    def test_fields_hold_no_vectors(self, tracked):
        # the aligned vectors are rebuilt on demand, never kept: no field
        # holds more than one entry per track and bin
        _, b, sm = tracked
        sizes = [x.size for x in vars(sm).values() if isinstance(x, np.ndarray)]
        assert max(sizes) <= self.K * b.n_tracks


class TestAlignedVectors:
    @settings(max_examples=60, deadline=None)
    @given(rows=st.integers(1, 4), cols=st.integers(1, 4), taps=st.integers(1, 4),
           n_bins=st.sampled_from([1, 3, 16, 64]), seed=st.integers(0, 2**32 - 1))
    @pytest.mark.filterwarnings("ignore::polysvd.anasvd.AssociationAmbiguous")
    def test_factor_the_grid_with_orthonormal_columns(self, rows, cols, taps,
                                                      n_bins, seed):
        rng = np.random.default_rng(seed)
        c = (rng.standard_normal((rows, cols, taps))
             + 1j * rng.standard_normal((rows, cols, taps)))
        a = PolyMatrix(c, -(taps // 2))
        b = binwise_svd(a, n_bins)
        sm = smooth_trajectories(b)
        u, v = aligned_vectors(b, sm)
        r = min(rows, cols)
        assert u.shape == (n_bins, rows, r) and v.shape == (n_bins, cols, r)
        recon = (u * sm.values.T[:, None, :]) @ v.conj().transpose(0, 2, 1)
        scale = 1.0 + np.abs(c).sum()
        assert np.abs(recon - a.eval_grid(n_bins)).max() <= 1e-10 * scale
        eye = np.eye(r)
        assert np.abs(u.conj().transpose(0, 2, 1) @ u - eye).max() <= 1e-10
        assert np.abs(v.conj().transpose(0, 2, 1) @ v - eye).max() <= 1e-10

    def test_need_smooth_tracks_and_vectors(self):
        b = binwise_svd(example1().A, 16)
        with pytest.raises(ValueError, match="smooth-mode"):
            aligned_vectors(b, majorized_trajectories(b))
        with pytest.raises(ValueError, match="same grid"):
            aligned_vectors(binwise_svd(example1().A, 8), smooth_trajectories(b))
        with pytest.raises(ValueError, match="singular vectors"):
            aligned_vectors(binwise_svd(example1().A, 16, vectors=False),
                            smooth_trajectories(b))


def per_bin_smooth(bins):
    """Reference association: the per-bin loop the batched stages replace.

    Returns (perms, signs, values, U, V, ambiguous bins, warning messages),
    with the greedy match done by `eliminate`.
    """
    k_bins = bins.n_bins
    r = bins.n_tracks

    def aligned(g, perm, u, v):
        c = g[np.arange(r), perm]
        mag = np.abs(c)
        phase = np.divide(c.conj(), mag, out=np.ones_like(c), where=mag > 0.0)
        return u.take(perm, axis=1) * phase, v.take(perm, axis=1) * phase

    signs = np.ones((r, k_bins))
    perms = np.empty((k_bins, r), dtype=int)
    u_al = np.empty((k_bins, bins.U.shape[1], r), dtype=np.complex128)
    v_al = np.empty((k_bins, bins.V.shape[1], r), dtype=np.complex128)
    perms[0] = np.arange(r)
    u_al[0] = bins.U[0][:, :r]
    v_al[0] = bins.V[0][:, :r]
    smax = bins.sigma.max(axis=1)
    floors = 1e-7 * np.where(smax > 0, smax, 1.0)
    u_prev = u_al[0]
    v_ref = v_al[0].copy()
    ref_sign = np.ones(r)
    has_ref = bins.sigma[0] > floors[0]
    ambiguous_bins = []
    for k in range(1, k_bins):
        g = u_prev.conj().T @ bins.U[k][:, :r]
        perm, ambiguous = eliminate(np.abs(g))
        if ambiguous:
            ambiguous_bins.append(k)
            perm = perms[k - 1]
        perms[k] = perm
        u, v = aligned(g, perm, bins.U[k], bins.V[k])
        # v_ref carries its sign, so x has the sign the track takes here;
        # an exact 0 keeps the reference's sign
        x = np.einsum("ij,ij->j", v_ref.conj(), v).real
        sign = np.where(has_ref & (x != 0.0), np.sign(x), ref_sign)
        v *= sign
        signs[:, k] = sign
        u_al[k] = u
        v_al[k] = v
        if not ambiguous:
            u_prev = u
            refresh = bins.sigma[k][perm] > floors[k]
            np.copyto(v_ref, v, where=refresh)
            np.copyto(ref_sign, sign, where=refresh)
            has_ref |= refresh
    values = signs * np.take_along_axis(bins.sigma, perms, axis=1).T
    messages = []
    if ambiguous_bins:
        first = ambiguous_bins[0]
        messages.append(
            f"ambiguous track association at {len(ambiguous_bins)} of "
            f"{k_bins} bins (first at bin {first}, omega="
            f"{bins.omegas[first]:.6f}); kept previous track order there")
    return perms, signs, values, u_al, v_al, ambiguous_bins, messages


def equivalence_systems():
    rng = np.random.default_rng(2718)
    for m, l in [(1, 1), (1, 3), (2, 2), (3, 2), (2, 4), (4, 4), (5, 3), (6, 6)]:
        taps = int(rng.integers(2, 5))
        c = rng.standard_normal((m, l, taps)) + 1j * rng.standard_normal((m, l, taps))
        yield f"random{m}x{l}", PolyMatrix(c, -1)
    yield "example1", example1().A
    c = rng.standard_normal((3, 3, 3)) + 1j * rng.standard_normal((3, 3, 3))
    c[:, 2] = 0.0  # sigma_3 is identically zero
    yield "zero_sigma", PolyMatrix(c, -1)
    yield "paraunitary", random_paraunitary(3, 4, SeededRng(5))
    # at K = 4 its phase turns by pi, then by pi/2: overlaps exactly < 0, then 0
    yield "quarter_turns", PolyMatrix(np.fft.ifft([1, -1, -1j, 1j]).reshape(1, 1, 4), 0)
    yield "bigsys", bigsys(SeededRng(1)).A
    # at K = 1024: 36 ambiguous bins, 35 of them in one run
    a = bigsys(SeededRng(0)).A
    err = random_error(a.rows, a.cols, a.order, 1.0, SeededRng(7))
    yield "perturbed_bigsys", a + scale_to_normalized(err, a, 1e-6)


EQUIVALENCE_SYSTEMS = dict(equivalence_systems())


def assert_matches_per_bin_loop(b):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        sm = smooth_trajectories(b)
    perms, signs, values, u_al, v_al, ambiguous_bins, messages = per_bin_smooth(b)
    assert np.array_equal(sm.permutations, perms)
    # np.array_equal reads -0.0 as 0.0: compare the sign bits explicitly
    assert np.array_equal(np.copysign(1.0, sm.values), signs)
    assert np.array_equal(sm.values, values)
    assert sm.ambiguous_bins.dtype.kind == "i"
    assert sm.ambiguous_bins.tolist() == ambiguous_bins
    assert [str(w.message) for w in caught
            if issubclass(w.category, AssociationAmbiguous)] == messages
    u, v = aligned_vectors(b, sm)
    assert np.abs(u - u_al).max() <= 1e-12
    assert np.abs(v - v_al).max() <= 1e-12


class TestSmoothEquivalence:
    """The batched association gives the per-bin loop's tracks exactly."""

    @pytest.mark.parametrize("name", list(EQUIVALENCE_SYSTEMS))
    @pytest.mark.parametrize("n_bins", [1, 2, 4, 8, 16, 1024])
    def test_matches_per_bin_loop(self, name, n_bins):
        assert_matches_per_bin_loop(binwise_svd(EQUIVALENCE_SYSTEMS[name], n_bins))

    @pytest.mark.parametrize("name", ["example1", "bigsys"])
    def test_matches_per_bin_loop_at_4096_bins(self, name):
        # the grid of the benchmark's track workload
        assert_matches_per_bin_loop(binwise_svd(EQUIVALENCE_SYSTEMS[name], 4096))

    def test_more_tracks_than_a_64_bit_mask_holds(self):
        g = SeededRng(64).generator()
        u = random_paraunitary(64, 1, g)
        sigmas = [random_parahermitian_scalar(3, g) for _ in range(64)]
        b = binwise_svd(assemble(u, sigmas, random_paraunitary(64, 1, g)).A, 32)
        assert _adjacent_matches(b.U)[2][1:].all()  # every pair is a clear match
        assert_matches_per_bin_loop(b)

    def test_clear_picks_of_one_column_are_no_permutation(self):
        # 64 tracks; rows 0 and 1 both pick column 0, each by a margin of 1
        u = np.stack([np.eye(64, dtype=complex)] * 2)
        u[1, 1, :2] = [1.0, 0.0]
        picks, _, fast = _adjacent_matches(u)
        assert picks[1, :3].tolist() == [0, 0, 2] and not fast[1]
        u[1] = u[0][:, ::-1]
        picks, _, fast = _adjacent_matches(u)
        assert picks[1].tolist() == list(range(63, -1, -1)) and fast[1]

    def test_exercises_ambiguous_and_zero_paths(self):
        # the inputs above reach the exceptional-bin loop and the refresh floor
        perms, signs, values, u_al, v_al, amb, messages = per_bin_smooth(
            binwise_svd(random_paraunitary(3, 4, SeededRng(5)), 1024))
        assert 0 < len(amb) < 1023
        assert any(b - a > 1 for a, b in zip(amb, amb[1:]))
        ex1 = binwise_svd(example1().A, 1024)
        assert ex1.sigma[[0, 512], 1].max() < 1e-7 * ex1.sigma.max()


class TestDiagnostics:
    def test_example1_ground_truth_minima(self):
        t = majorized_trajectories(binwise_svd(example1().A, 1024))
        d = diagnostics(t)
        # tracks intersect and the smallest crosses zero; grid-limited
        assert 0.0 <= d.min_gap <= 1e-2
        assert 0.0 <= d.min_smallest <= 1e-2
        assert min(abs(d.omega_smallest - 0.0), abs(d.omega_smallest - np.pi),
                   abs(d.omega_smallest - 2 * np.pi)) < 0.05

    def test_perturbed_strictly_positive(self):
        rng = np.random.default_rng(3)
        a = example1().A
        e = PolyMatrix(
            np.sqrt(5e-5) * (rng.standard_normal((2, 2, 3))
                             + 1j * rng.standard_normal((2, 2, 3))), -1
        )
        d = diagnostics(majorized_trajectories(binwise_svd(a + e, 1024)))
        assert d.min_gap > 0.0
        assert d.min_smallest > 0.0

    def test_single_track_system(self):
        a = PolyMatrix(np.array([0.25, 1, 0.25], dtype=complex).reshape(1, 1, 3), -1)
        d = diagnostics(majorized_trajectories(binwise_svd(a, 64)))
        assert d.min_gap is None and d.omega_gap is None
        assert d.min_smallest == pytest.approx(0.5, abs=1e-3)

    def test_requires_majorized_mode(self):
        sm = smooth_trajectories(binwise_svd(example1().A, 16))
        with pytest.raises(ValueError):
            diagnostics(sm)

    def test_minima_are_exact_grid_minima(self):
        t = majorized_trajectories(binwise_svd(example1().A, 64))
        d = diagnostics(t)
        gaps = t.values[0] - t.values[1]
        assert d.min_gap == pytest.approx(gaps.min(), abs=0)
        assert d.min_smallest == pytest.approx(t.values[1].min(), abs=0)


def permutation_loop_deviation(values, forms):
    """Reference deviation: a Python loop over permutations and tracks."""
    best = np.inf
    for perm in itertools.permutations(range(values.shape[0])):
        dev = 0.0
        for m, p in enumerate(perm):
            dev = max(
                dev,
                min(
                    np.abs(values[p] - forms[m]).max(),
                    np.abs(-values[p] - forms[m]).max(),
                ),
            )
        best = min(best, dev)
    return best


def draw_tracks(data):
    r = data.draw(st.integers(1, 5), label="R")
    k = data.draw(st.integers(1, 64), label="K")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    scale = data.draw(st.sampled_from([1e-3, 1.0, 1e3]), label="scale")
    reference = scale * rng.standard_normal((r, k))
    perm = rng.permutation(r)
    signs = rng.choice([-1.0, 1.0], size=(r, 1))
    return rng, reference, signs * reference[perm]


class TestTrackDeviation:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_permuted_sign_flipped_copy_is_exact(self, data):
        _, reference, copy = draw_tracks(data)
        assert track_deviation(copy, reference) == 0.0

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_matches_permutation_loop(self, data):
        # near copies (the best permutation matters) and unrelated tracks
        rng, reference, copy = draw_tracks(data)
        noise = data.draw(st.sampled_from([1e-9, 1e-3, 1.0, 1e3]), label="noise")
        values = copy + noise * rng.standard_normal(copy.shape)
        got = track_deviation(values, reference)
        assert type(got) is float
        assert got == permutation_loop_deviation(values, reference)

    def test_eleven_tracks_rejected_before_enumerating(self, monkeypatch):
        def enumerate_all(*args):
            raise AssertionError("the 11! track orders were enumerated")

        monkeypatch.setattr(itertools, "permutations", enumerate_all)
        tracks = np.zeros((11, 4))
        with pytest.raises(ValueError, match="^11 tracks "):
            track_deviation(tracks, tracks)

    @pytest.mark.parametrize("values_shape, reference_shape", [
        ((2, 8), (3, 8)),   # a reference track left unmatched
        ((3, 8), (2, 8)),   # a track with no reference
        ((3, 8), (3, 1)),   # a reference that would broadcast over K
    ])
    def test_shape_mismatch_rejected(self, values_shape, reference_shape):
        rng = np.random.default_rng(9)
        with pytest.raises(ValueError, match="do not match"):
            track_deviation(rng.standard_normal(values_shape),
                            rng.standard_normal(reference_shape))


class TestCsv:
    def test_header_and_rows(self):
        t = majorized_trajectories(binwise_svd(example1().A, 8))
        buf = io.StringIO()
        write_trajectory_csv(t, buf, meta_line="# {}")
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == "# {}"
        assert lines[1] == "omega,track_1,track_2,mode"
        assert len(lines) == 2 + 8
        assert lines[2].endswith(",majorized")

    def test_full_precision(self):
        t = majorized_trajectories(binwise_svd(example1().A, 4))
        buf = io.StringIO()
        write_trajectory_csv(t, buf)
        row = buf.getvalue().strip().split("\n")[2]
        omega = float(row.split(",")[0])
        assert omega == t.omegas[1]

    def test_values_read_back_exactly(self):
        t = majorized_trajectories(binwise_svd(example1().A, 16))
        t.values[0, :4] = [-0.0, 5e-324, 1e22, 1 / 3]
        ref = -t.values[::-1].copy()
        buf = io.StringIO()
        write_trajectory_csv(t, buf, extra={"ref": ref})
        lines = buf.getvalue().splitlines()
        assert lines[0] == "omega,track_1,track_2,ref_1,ref_2,mode"
        cells = [line.split(",") for line in lines[1:]]
        assert {c[-1] for c in cells} == {"majorized"}
        got = np.array([[float(v) for v in c[:-1]] for c in cells]).T
        assert np.array_equal(got, np.vstack([t.omegas, t.values, ref]))
        assert np.array_equal(np.signbit(got[1]), np.signbit(t.values[0]))

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), n_rows=st.integers(0, 5), n_cols=st.integers(1, 5),
           repeat=st.sampled_from([1, _BLOCK]),
           meta_line=st.none() | st.text(st.characters(blacklist_characters="\r\n")),
           tail=st.sampled_from(["", ",smooth", ",majorized"]))
    def test_rows_read_back_bitwise(self, data, n_rows, n_cols, repeat, meta_line,
                                    tail):
        # repeated rows run past one formatting block
        cell = st.one_of(
            st.floats(allow_nan=False, allow_infinity=False),
            st.sampled_from([-0.0, 5e-324, -2.5e-308, 1e300, -1e300, 1e17]),
            st.integers(-2**53, 2**53).map(float))
        rows = data.draw(st.lists(st.lists(cell, min_size=n_cols, max_size=n_cols),
                                  min_size=n_rows, max_size=n_rows))
        table = np.tile(np.array(rows, dtype=float).reshape(n_rows, n_cols),
                        (repeat, 1))
        names = [f"c{j}" for j in range(n_cols)]
        buf = io.StringIO()
        _write_rows(buf, names, table, meta_line, tail)
        lines = buf.getvalue().split("\n")
        assert lines.pop() == ""
        if meta_line is not None:
            assert lines.pop(0) == meta_line
        assert lines.pop(0) == ",".join(names)
        assert len(lines) == len(table)
        assert all(line.endswith(tail) for line in lines)
        cells = [line[:len(line) - len(tail)].split(",") for line in lines]
        got = np.array([[float(v) for v in c] for c in cells]).reshape(table.shape)
        assert np.array_equal(got.view(np.uint64), table.view(np.uint64))
        for text, x in zip(itertools.chain(*cells), table.ravel()):
            if x == int(x) and abs(x) < 1e17:
                assert re.fullmatch(r"-?[0-9]+", text)
