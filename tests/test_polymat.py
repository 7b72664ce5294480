"""Laurent polynomial matrix core: arithmetic, evaluation, predicates."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polysvd import PolyMatrix
from polysvd.sysgen import SeededRng, bigsys, example1

RNG = np.random.default_rng(20260808)


# Example-1 fixture written out coefficient by coefficient, frozen as the
# independent expectation for the assembled product:
# A(z) = 1/2 [ (1/4-j)z + 1 + (1/4+j)z^-1    -(1/4+j)z - 1 - (1/4-j)z^-1 ]
#            [ (1/4+j)z + 1 + (1/4-j)z^-1    -(1/4-j)z - 1 - (1/4+j)z^-1 ]
EX1_TAP_P1 = 0.5 * np.array([[0.25 - 1j, -(0.25 + 1j)], [0.25 + 1j, -(0.25 - 1j)]])
EX1_TAP_0 = 0.5 * np.array([[1.0, -1.0], [1.0, -1.0]])
EX1_TAP_M1 = 0.5 * np.array([[0.25 + 1j, -(0.25 - 1j)], [0.25 - 1j, -(0.25 + 1j)]])


def ex1_matrix() -> PolyMatrix:
    return PolyMatrix(np.stack([EX1_TAP_P1, EX1_TAP_0, EX1_TAP_M1], axis=-1), -1)


def random_polymat(rows, cols, n_taps, n_min):
    c = RNG.standard_normal((rows, cols, n_taps)) + 1j * RNG.standard_normal(
        (rows, cols, n_taps)
    )
    return PolyMatrix(c, n_min)


def conv_oracle(a: PolyMatrix, b: PolyMatrix) -> dict:
    """Brute-force product support: power -> coefficient matrix."""
    out = {}
    for i in range(a.n_taps):
        for k in range(b.n_taps):
            n = (a.n_min + i) + (b.n_min + k)
            term = a.coeffs[:, :, i] @ b.coeffs[:, :, k]
            out[n] = out.get(n, 0) + term
    return out


class TestConstruction:
    def test_validates_shape(self):
        with pytest.raises(ValueError):
            PolyMatrix(np.zeros((2, 2)))

    def test_rejects_nonfinite(self):
        c = np.zeros((1, 1, 1), dtype=complex)
        c[0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            PolyMatrix(c)

    def test_immutable(self):
        a = ex1_matrix()
        with pytest.raises(ValueError):
            a.coeffs[0, 0, 0] = 1.0

    def test_zero_representation(self):
        z = PolyMatrix.zeros(2, 3)
        assert z.n_taps == 1 and z.n_min == 0 and z.is_zero

    def test_tap_lookup(self):
        a = ex1_matrix()
        assert np.allclose(a.tap(1), EX1_TAP_M1)
        assert np.allclose(a.tap(-1), EX1_TAP_P1)
        assert np.allclose(a.tap(5), 0.0)


class TestAdd:
    def test_identity_case(self):
        a = ex1_matrix()
        s = a + PolyMatrix.zeros(2, 2)
        assert s.n_min == a.n_min
        assert np.allclose(s.coeffs, a.coeffs)

    def test_additive_inverse(self):
        a = ex1_matrix()
        assert (a + (-1.0) * a).is_zero

    def test_ex1_plus_single_tap(self):
        # constant-tap error at entry (1,1): the z^0 coefficient 1/2 becomes 3/2
        a = ex1_matrix()
        e = np.zeros((2, 2, 1), dtype=complex)
        e[0, 0, 0] = 1.0
        s = a + PolyMatrix(e, 0)
        assert s.tap(0)[0, 0] == pytest.approx(1.5)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            ex1_matrix() + PolyMatrix.zeros(3, 2)

    def test_disjoint_supports(self):
        a = PolyMatrix(np.ones((1, 1, 1)), -3)
        b = PolyMatrix(np.ones((1, 1, 1)), 4)
        s = a + b
        assert s.n_min == -3 and s.n_taps == 8
        assert s.tap(-3)[0, 0] == 1.0 and s.tap(4)[0, 0] == 1.0


class TestMul:
    def test_identity(self):
        b = random_polymat(3, 2, 5, -2)
        p = PolyMatrix.identity(3) @ b
        assert p.n_min == b.n_min
        assert np.allclose(p.coeffs, b.coeffs)

    def test_monomial_shift(self):
        d = PolyMatrix.delay(2, 1)
        p = d @ d
        assert p.n_min == 2 and p.n_taps == 1
        assert np.allclose(p.tap(2), np.eye(2))

    def test_example1_reconstruction(self):
        # U Sigma V^P with the fixture factors must reproduce the frozen
        # coefficients exactly
        sys = example1()
        prod = (sys.U @ _diag(sys.sigmas)) @ sys.V.parahermitian()
        expect = ex1_matrix()
        assert prod.n_min == expect.n_min
        assert np.abs(prod.coeffs - expect.coeffs).max() < 1e-15

    def test_against_conv_oracle(self):
        for _ in range(10):
            a = random_polymat(2, 3, 4, -1)
            b = random_polymat(3, 2, 3, -2)
            p = a @ b
            oracle = conv_oracle(a, b)
            for n, mat in oracle.items():
                assert np.abs(p.tap(n) - mat).max() < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            random_polymat(2, 3, 2, 0) @ random_polymat(2, 2, 2, 0)


def _diag(sigmas):
    lo = min(s.n_min for s in sigmas)
    hi = max(s.n_max for s in sigmas)
    m = len(sigmas)
    out = np.zeros((m, m, hi - lo + 1), dtype=complex)
    for i, s in enumerate(sigmas):
        out[i, i, s.n_min - lo : s.n_min - lo + s.n_taps] = s.coeffs[0, 0]
    return PolyMatrix(out, lo)


class TestParahermitian:
    def test_sigma2_self_parahermitian(self):
        s2 = PolyMatrix(np.array([-1j, 0, 1j]).reshape(1, 1, 3), -1)
        ph = s2.parahermitian()
        assert ph.n_min == s2.n_min
        assert np.allclose(ph.coeffs, s2.coeffs)

    def test_constant_hermitian(self):
        h = np.array([[2.0, 1 - 1j], [1 + 1j, 3.0]])
        assert np.allclose(PolyMatrix.constant(h).parahermitian().tap(0), h)

    def test_involution_exact(self):
        for _ in range(5):
            a = random_polymat(3, 2, 6, -2)
            back = a.parahermitian().parahermitian()
            assert back.n_min == a.n_min
            assert np.array_equal(back.coeffs, a.coeffs)

    def test_eval_is_hermitian_transpose(self):
        a = random_polymat(3, 4, 5, -1)
        ap = a.parahermitian()
        for om in RNG.uniform(0, 2 * np.pi, 32):
            assert np.abs(ap.eval(om) - a.eval(om).conj().T).max() < 1e-12


class TestEval:
    def test_sigma1_at_zero(self):
        s1 = PolyMatrix(np.array([0.25, 1, 0.25], dtype=complex).reshape(1, 1, 3), -1)
        assert s1.eval(0.0)[0, 0] == pytest.approx(1.5)

    def test_sigma2_at_half_pi(self):
        s2 = PolyMatrix(np.array([-1j, 0, 1j]).reshape(1, 1, 3), -1)
        assert s2.eval(np.pi / 2)[0, 0] == pytest.approx(2.0)

    def test_zero_matrix(self):
        z = PolyMatrix.zeros(2, 2)
        assert np.all(z.eval(1.234) == 0)

    def test_mul_matches_pointwise_product(self):
        a = random_polymat(2, 3, 4, -2)
        b = random_polymat(3, 3, 5, 1)
        p = a @ b
        for om in RNG.uniform(0, 2 * np.pi, 16):
            lhs = p.eval(om)
            rhs = a.eval(om) @ b.eval(om)
            assert np.abs(lhs - rhs).max() <= 1e-10 * max(1.0, np.abs(rhs).max())


class TestEvalGrid:
    def test_single_bin(self):
        a = random_polymat(2, 2, 3, -1)
        assert np.array_equal(a.eval_grid(1)[0], a.eval(0.0))

    def test_example1_sigma1_k4(self):
        s1 = PolyMatrix(np.array([0.25, 1, 0.25], dtype=complex).reshape(1, 1, 3), -1)
        got = s1.eval_grid(4)[:, 0, 0]
        assert np.abs(got - np.array([1.5, 1.0, 0.5, 1.0])).max() < 1e-14

    def test_constant_matrix(self):
        c = PolyMatrix.constant(np.array([[1.0, 2j], [0, 1]]))
        g = c.eval_grid(6)
        assert np.abs(g - g[0]).max() == 0.0

    def test_matches_pointwise(self):
        a = random_polymat(3, 3, 7, -3)
        g = a.eval_grid(17)
        for k in range(17):
            assert np.abs(g[k] - a.eval(2 * np.pi * k / 17)).max() < 1e-12

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_matches_direct_property(self, data):
        # K on both sides of n_taps: below it the grid is the direct
        # contraction itself, at or above it the FFT path
        n_taps = data.draw(st.integers(1, 12), label="n_taps")
        n_min = data.draw(st.integers(-8, 8), label="n_min")
        n_bins = data.draw(
            st.one_of(st.sampled_from([n_taps - 1, n_taps, n_taps + 1]),
                      st.integers(1, 64)).filter(lambda k: k >= 1),
            label="n_bins",
        )
        shape = (data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3)), n_taps)
        scale = data.draw(st.sampled_from([1e-6, 1.0, 1e3]), label="scale")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        c = scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        a = PolyMatrix(c, n_min)
        g = a.eval_grid(n_bins)
        direct = a._eval_many(2.0 * np.pi * np.arange(n_bins) / n_bins)
        assert g.shape == (n_bins,) + shape[:2]
        assert np.abs(g - direct).max() <= 1e-12 * (1.0 + np.abs(c).sum())
        if n_bins >= n_taps:
            # Parseval: no tap aliases, so the grid energy is the coefficient energy
            grid_energy = np.sum(np.abs(g) ** 2) / n_bins
            assert grid_energy == pytest.approx(a.frob_energy(), rel=1e-12)

    def test_bigsys_k4096_matches_direct(self):
        a = bigsys(SeededRng(1)).A
        g = a.eval_grid(4096)
        direct = a._eval_many(2.0 * np.pi * np.arange(4096) / 4096)
        assert np.abs(g - direct).max() <= 1e-12 * (1.0 + np.abs(a.coeffs).sum())
        for k in (0, 1, 1000, 2048, 4095):
            assert np.abs(g[k] - a.eval(2 * np.pi * k / 4096)).max() < 1e-12

    def test_offset_reduced_modulo_grid(self):
        # z^{-n_min} on the grid depends on n_min mod K only; the phase is
        # formed from that residue, so a huge offset gives the same bits
        a = random_polymat(2, 2, 5, 3)
        far = PolyMatrix(a.coeffs, 3 + 4096 * 2**40)
        assert np.array_equal(far.eval_grid(4096), a.eval_grid(4096))
        assert np.array_equal(a.shifted(-4096).eval_grid(4096), a.eval_grid(4096))


class TestEnergy:
    def test_zero(self):
        assert PolyMatrix.zeros(3, 3).frob_energy() == 0.0

    def test_example1_energy(self):
        # hand sum of squared magnitudes: each entry contributes
        # 2*(17/64) + 1/4 = 25/32; four entries give 25/8
        assert ex1_matrix().frob_energy() == pytest.approx(25 / 8, abs=1e-12)

    def test_shifted_identity(self):
        assert PolyMatrix.delay(2, 3).frob_energy() == pytest.approx(2.0)

    def test_parseval(self):
        a = random_polymat(2, 3, 9, -4)
        k = 16  # > degree span
        g = a.eval_grid(k)
        grid_energy = np.sum(np.abs(g) ** 2) / k
        assert grid_energy == pytest.approx(a.frob_energy(), rel=1e-9)


class TestTrim:
    def test_idempotent(self):
        a = ex1_matrix().trim(1e-12)
        b = a.trim(1e-12)
        assert b.n_min == a.n_min and np.array_equal(b.coeffs, a.coeffs)

    def test_tiny_tap_to_zero(self):
        c = np.full((2, 2, 1), 1e-18, dtype=complex)
        t = PolyMatrix(c, 5).trim(1e-15)
        assert t.is_zero and t.n_min == 0 and t.n_taps == 1

    def test_trim_zero_tol_preserves_energy(self):
        c = np.zeros((1, 2, 5), dtype=complex)
        c[0, 0, 1] = 1e-30
        c[0, 1, 3] = 2.0
        a = PolyMatrix(c, -2)
        assert a.trim(0.0).frob_energy() == a.frob_energy()

    def test_adjusts_n_min(self):
        c = np.zeros((1, 1, 5), dtype=complex)
        c[0, 0, 2] = 1.0
        t = PolyMatrix(c, -2).trim(1e-12)
        assert t.n_min == 0 and t.n_taps == 1


class TestPredicates:
    def test_identity(self):
        eye = PolyMatrix.identity(3)
        assert eye.is_paraunitary(1e-12)
        assert eye.is_parahermitian(1e-12)

    def test_elementary_factor_paraunitary(self):
        w = np.array([0.6, 0.8j])
        p = np.outer(w, w.conj())
        q = PolyMatrix(np.stack([np.eye(2) - p, p], axis=-1), 0)
        assert q.is_paraunitary(1e-12)

    def test_sigma1_parahermitian(self):
        s1 = PolyMatrix(np.array([0.25, 1, 0.25], dtype=complex).reshape(1, 1, 3), -1)
        assert s1.is_parahermitian(1e-12)

    def test_non_square_raises(self):
        with pytest.raises(ValueError):
            PolyMatrix.zeros(2, 3).is_paraunitary(1e-10)

    def test_not_paraunitary(self):
        assert not ex1_matrix().is_paraunitary(1e-10)


class TestJson:
    def test_round_trip(self):
        a = random_polymat(2, 3, 4, -2)
        b = PolyMatrix.from_json_dict(a.to_json_dict())
        assert b.n_min == a.n_min
        assert np.array_equal(b.coeffs, a.coeffs)

    def test_schema_fields(self):
        d = ex1_matrix().to_json_dict()
        assert d["M"] == 2 and d["L"] == 2 and d["n_min"] == -1
        assert len(d["coeffs"]) == 3
        assert d["coeffs"][0][0][0] == [0.125, -0.5]  # (1/4 - j)/2

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError):
            PolyMatrix.from_json_dict({"M": 2, "L": 2, "n_min": 0, "coeffs": [[[1.0]]]})
