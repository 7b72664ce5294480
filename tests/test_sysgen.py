"""Ground-truth system construction and its built-in oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polysvd import (
    PolyMatrix,
    SeededRng,
    assemble,
    bigsys,
    binwise_svd,
    elementary_pu,
    example1,
    majorized_trajectories,
    random_parahermitian_scalar,
    random_paraunitary,
    reference_tracks,
)

from polysvd.sysgen import complex_normal
from test_polymat import ex1_matrix


class TestComplexNormal:
    # the shapes the package draws: random_paraunitary's (d, d) and (d,),
    # random_parahermitian_scalar's (1, 1, n), random_error's (M, L, T),
    # perturb_and_analyze's (trials, M, L, T) and simulate's (L, N)
    @pytest.mark.parametrize("shape", [(6, 6), (6,), (1, 1, 9), (2, 3, 4),
                                       (10, 6, 6, 31), (6, 5000)])
    @pytest.mark.parametrize("sigma2", [1.0, 0.3, 1e-4])
    def test_bitwise_equal_to_pair_sum(self, shape, sigma2):
        got = complex_normal(SeededRng(3, stream=7), shape, sigma2)
        parts = SeededRng(3, stream=7).generator().standard_normal(shape + (2,))
        want = np.sqrt(sigma2 / 2.0) * (parts[..., 0] + 1j * parts[..., 1])
        assert got.shape == shape and got.dtype == np.complex128
        assert got.tobytes() == want.tobytes()


class TestElementaryPu:
    def test_basis_vector(self):
        q = elementary_pu(np.array([1.0, 0.0]))
        # (I - e1 e1^H) + e1 e1^H z^{-1} = diag(z^{-1}, 1)
        assert q.n_min == 0 and q.n_taps == 2
        assert np.allclose(q.coeffs[:, :, 0], np.diag([0.0, 1.0]))
        assert np.allclose(q.coeffs[:, :, 1], np.diag([1.0, 0.0]))

    def test_paraunitary_random_w(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            w = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            q = elementary_pu(w / np.linalg.norm(w))
            assert q.is_paraunitary(1e-12)

    def test_tap_structure(self):
        w = np.array([1.0, 1.0]) / np.sqrt(2)
        q = elementary_pu(w)
        p = np.outer(w, w.conj())
        assert q.n_min == 0 and q.n_taps == 2
        assert np.allclose(q.coeffs[:, :, 0], np.eye(2) - p)
        assert np.allclose(q.coeffs[:, :, 1], p)
        assert np.linalg.matrix_rank(q.coeffs[:, :, 1]) == 1

    def test_rejects_non_unit(self):
        with pytest.raises(ValueError):
            elementary_pu(np.array([1.0, 1.0]))


class TestRandomParaunitary:
    def test_order_zero_constant_unitary(self):
        q = random_paraunitary(3, 0, SeededRng(1))
        assert q.n_taps == 1
        assert q.is_paraunitary(1e-12)

    def test_order_ten(self):
        q = random_paraunitary(6, 10, SeededRng(2))
        assert q.order <= 10
        assert q.is_paraunitary(1e-10)

    def test_deterministic(self):
        a = random_paraunitary(4, 5, SeededRng(3))
        b = random_paraunitary(4, 5, SeededRng(3))
        assert a.n_min == b.n_min
        assert np.array_equal(a.coeffs, b.coeffs)

    def test_products_stay_paraunitary(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            p = random_paraunitary(3, int(rng.integers(0, 8)), SeededRng(int(rng.integers(1e6))))
            q = random_paraunitary(3, int(rng.integers(0, 8)), SeededRng(int(rng.integers(1e6))))
            assert (p @ q).is_paraunitary(1e-10)

    @settings(max_examples=100, deadline=None)
    @given(dim=st.integers(1, 5), order=st.integers(0, 10),
           seed=st.integers(0, 2**32 - 1), n_bins=st.integers(1, 64))
    def test_paraunitary_property(self, dim, order, seed, n_bins):
        q = random_paraunitary(dim, order, SeededRng(seed))
        assert q.is_paraunitary(1e-10)
        g = q.eval_grid(n_bins)
        gram = g @ np.conj(np.swapaxes(g, 1, 2))
        assert np.abs(gram - np.eye(dim)).max() <= 1e-12


class TestRandomParahermitianScalar:
    def test_length_one(self):
        s = random_parahermitian_scalar(1, SeededRng(5))
        # c + conj(c) is a real constant
        assert s.n_taps == 1 and s.n_min == 0
        assert abs(s.coeffs[0, 0, 0].imag) < 1e-15

    def test_parahermitian_and_real_on_circle(self):
        s = random_parahermitian_scalar(4, SeededRng(6))
        assert s.is_parahermitian(1e-12)
        vals = s.eval_grid(32)[:, 0, 0]
        assert np.abs(vals.imag).max() < 1e-12

    def test_length_six_order_ten(self):
        s = random_parahermitian_scalar(6, SeededRng(7))
        assert s.order == 10
        assert s.n_min == -5


class TestAssemble:
    def test_identity_factors(self):
        s1 = PolyMatrix(np.array([0.25, 1, 0.25], dtype=complex).reshape(1, 1, 3), -1)
        s2 = PolyMatrix(np.array([-1j, 0, 1j]).reshape(1, 1, 3), -1)
        sys = assemble(PolyMatrix.identity(2), (s1, s2), PolyMatrix.identity(2))
        a = sys.A.coeffs
        assert np.allclose(a[:, :, 0 - sys.A.n_min], np.diag([1.0, 0.0]))
        assert np.allclose(a[:, :, 1 - sys.A.n_min], np.diag([0.25, 1j]))

    def test_invariant_violation(self):
        s1 = PolyMatrix(np.array([0.25, 1, 0.25], dtype=complex).reshape(1, 1, 3), -1)
        not_pu = PolyMatrix.constant(np.array([[2.0]]))
        with pytest.raises(ValueError):
            assemble(not_pu, (s1,), PolyMatrix.identity(1))

    def test_non_parahermitian_sigma_rejected(self):
        s_bad = PolyMatrix(np.array([1.0, 1.0]).reshape(1, 1, 2), 0)
        with pytest.raises(ValueError):
            assemble(PolyMatrix.identity(1), (s_bad,), PolyMatrix.identity(1))

    def test_construction_is_its_own_oracle(self):
        # binwise singular values of A = per-bin descending |sigma_m|
        sys = bigsys(SeededRng(9))
        k = 256
        t = majorized_trajectories(binwise_svd(sys.A, k))
        ref = reference_tracks(sys, k)
        assert np.abs(t.values - ref).max() < 1e-9

    def test_reference_tracks_match_majorized_k4096(self):
        sys = bigsys(SeededRng(0))
        t = majorized_trajectories(binwise_svd(sys.A, 4096))
        assert np.abs(t.values - reference_tracks(sys, 4096)).max() < 1e-9

    def test_energy_identity(self):
        # paraunitary factors preserve total coefficient energy
        sys = bigsys(SeededRng(10))
        total = sum(s.frob_energy() for s in sys.sigmas)
        assert sys.A.frob_energy() == pytest.approx(total, rel=1e-9)


class TestExample1:
    def test_matches_transcription(self):
        sys = example1()
        want = ex1_matrix()
        assert sys.A.n_min == want.n_min
        assert np.abs(sys.A.coeffs - want.coeffs).max() < 1e-15

    def test_entry_11_constant_tap(self):
        a = example1().A
        assert a.coeffs[0, 0, 0 - a.n_min] == pytest.approx(0.5)

    def test_closed_forms_at_pi(self):
        f1, f2 = example1().closed_forms
        assert f1(np.pi) == pytest.approx(0.5)
        assert f2(np.pi) == pytest.approx(0.0, abs=1e-15)

    def test_reference_tracks_match_closed_forms(self):
        k = 1024
        om = 2 * np.pi * np.arange(k) / k
        mags = np.abs(np.stack([1 + np.cos(om) / 2, 2 * np.sin(om)]))
        want = -np.sort(-mags, axis=0)
        assert np.abs(reference_tracks(example1(), k) - want).max() <= 1e-14

    def test_factor_invariants(self):
        sys = example1()
        assert sys.U.is_paraunitary(1e-12)
        assert sys.V.is_paraunitary(1e-12)
        for s in sys.sigmas:
            assert s.is_parahermitian(1e-12)


class TestBigsys:
    def test_dimensions_and_orders(self):
        sys = bigsys(SeededRng(11))
        assert (sys.rows, sys.cols) == (6, 6)
        assert len(sys.sigmas) == 6
        for s in sys.sigmas:
            assert s.order == 10
        assert sys.U.order <= 10 and sys.V.order <= 10
        assert sys.meta["order_A"] == sys.A.order

    def test_invariants(self):
        sys = bigsys(SeededRng(12))
        assert sys.U.is_paraunitary(1e-10)
        assert sys.V.is_paraunitary(1e-10)
        for s in sys.sigmas:
            assert s.is_parahermitian(1e-10)

    def test_seeds_differ(self):
        a = bigsys(SeededRng(13)).A
        b = bigsys(SeededRng(14)).A
        assert (a - b).frob_energy() > 0

    def test_no_closed_forms(self):
        assert bigsys(SeededRng(11)).closed_forms is None

    def test_meta_records_seed(self):
        sys = bigsys(SeededRng(15, stream=3))
        assert sys.meta["seed"] == 15 and sys.meta["stream"] == 3

    def test_json_round_trip_of_a(self):
        sys = bigsys(SeededRng(16))
        d = sys.to_json_dict()
        back = PolyMatrix.from_json_dict(d["A"])
        assert np.array_equal(back.coeffs, sys.A.coeffs)
