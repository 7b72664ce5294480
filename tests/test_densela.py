"""Dense SVD kernel invariants and projector behavior."""

import numpy as np
import pytest

from polysvd import colspace_projector, smallest_sv, spectral_norm, svd
from polysvd.densela import svd_stack
from polysvd.sysgen import example1

RNG = np.random.default_rng(77)


def random_complex(m, l):
    return RNG.standard_normal((m, l)) + 1j * RNG.standard_normal((m, l))


class TestSvd:
    def test_sign_absorption(self):
        r = svd(np.diag([2.0, -3.0]))
        assert np.allclose(r.sigma, [3.0, 2.0])

    def test_example1_at_zero(self):
        a = example1().A.eval(0.0)
        r = svd(a)
        assert np.abs(r.sigma - np.array([1.5, 0.0])).max() < 1e-12

    def test_example1_at_half_pi(self):
        # closed forms: 1 + cos(om)/2 = 1 and 2 sin(om) = 2; majorized order swaps
        a = example1().A.eval(np.pi / 2)
        r = svd(a)
        assert np.abs(r.sigma - np.array([2.0, 1.0])).max() < 1e-12

    def test_rejects_nonfinite(self):
        a = np.zeros((2, 2), dtype=complex)
        a[0, 0] = np.inf
        with pytest.raises(ValueError):
            svd(a)

    @pytest.mark.parametrize("vectors", [True, False])
    def test_stack_rejects_nonfinite(self, vectors):
        mats = np.zeros((3, 2, 2), dtype=complex)
        mats[1, 0, 1] = np.nan
        with pytest.raises(ValueError):
            svd_stack(mats, vectors=vectors)

    def test_invariants_random(self):
        # reconstruction, unitarity, descending order at 1e-12 for 100 draws
        for _ in range(100):
            m = int(RNG.integers(1, 9))
            l = int(RNG.integers(1, 9))
            a = random_complex(m, l)
            r = svd(a)
            recon = r.reconstruct()
            scale = max(1.0, np.linalg.norm(a))
            assert np.linalg.norm(recon - a) <= 1e-12 * scale
            assert np.linalg.norm(r.U.conj().T @ r.U - np.eye(m)) <= 1e-12
            assert np.linalg.norm(r.V.conj().T @ r.V - np.eye(l)) <= 1e-12
            assert np.all(r.sigma[:-1] >= r.sigma[1:] - 1e-15)
            assert np.all(r.sigma >= 0)

    def test_hermitian_transpose_same_sigma(self):
        a = random_complex(4, 6)
        assert np.abs(svd(a).sigma - svd(a.conj().T).sigma).max() < 1e-12

    def test_unit_modulus_scaling(self):
        a = random_complex(5, 5)
        phase = np.exp(1j * 0.7312)
        assert np.abs(svd(a).sigma - svd(phase * a).sigma).max() < 1e-12


class TestNorms:
    def test_identity(self):
        eye = np.eye(3, dtype=complex)
        assert spectral_norm(eye) == pytest.approx(1.0)
        assert smallest_sv(eye) == pytest.approx(1.0)

    def test_rank_deficient(self):
        a = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
        assert spectral_norm(a) == pytest.approx(1.0)
        assert smallest_sv(a) == pytest.approx(0.0)

    def test_consistent_with_svd(self):
        a = random_complex(4, 4)
        r = svd(a)
        assert spectral_norm(a) == pytest.approx(r.sigma[0], abs=1e-13)
        assert smallest_sv(a) == pytest.approx(r.sigma[-1], abs=1e-13)


class TestColspaceProjector:
    def test_full_rank(self):
        a = random_complex(4, 4)
        p, pp = colspace_projector(a, 1e-10)
        assert np.abs(p - np.eye(4)).max() < 1e-12
        assert np.abs(pp).max() < 1e-12

    def test_tall_single_column(self):
        p, pp = colspace_projector(np.array([[1.0], [0.0]], dtype=complex), 1e-10)
        assert np.allclose(p, np.diag([1.0, 0.0]))
        assert np.allclose(pp, np.diag([0.0, 1.0]))

    def test_example1_rank_one_bin(self):
        a = example1().A.eval(np.pi)  # sigma_2 there is 0
        p, _ = colspace_projector(a, 1e-10)
        assert np.trace(p).real == pytest.approx(1.0, abs=1e-12)

    def test_idempotent_hermitian(self):
        a = random_complex(5, 3)
        p, pp = colspace_projector(a, 1e-10)
        for q in (p, pp):
            assert np.abs(q @ q - q).max() < 1e-12
            assert np.abs(q - q.conj().T).max() < 1e-12

    def test_zero_matrix(self):
        p, pp = colspace_projector(np.zeros((3, 3), dtype=complex), 1e-10)
        assert np.abs(p).max() == 0.0
        assert np.allclose(pp, np.eye(3))

    def test_rank_tol_validated(self):
        with pytest.raises(ValueError):
            colspace_projector(np.eye(2), 0.0)
