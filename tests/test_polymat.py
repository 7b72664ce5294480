"""Laurent polynomial matrix core: arithmetic, evaluation, predicates."""

import ast
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polysvd
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

    @pytest.mark.parametrize("offset", [-0.5, 1.7, 2.0, "3", None])
    def test_rejects_non_integer_offset(self, offset):
        # no truncation: the offset is an integer or an error naming it
        with pytest.raises(TypeError, match=re.escape(repr(offset))):
            PolyMatrix(np.ones((1, 1, 2)), offset)
        with pytest.raises(TypeError, match=re.escape(repr(offset))):
            ex1_matrix().shifted(offset)

    def test_numpy_integer_offset(self):
        a = PolyMatrix(np.ones((1, 1, 2)), np.int64(-3)).shifted(np.int32(5))
        assert a.n_min == 2 and type(a.n_min) is int

    def test_zero_representation(self):
        z = PolyMatrix.zeros(2, 3)
        assert z.n_taps == 1 and z.n_min == 0 and not np.any(z.coeffs)

    def test_tap_lookup(self):
        a = ex1_matrix()
        # tap t of coeffs holds z^{-(n_min + t)}
        assert (a.n_min, a.n_max) == (-1, 1)
        assert np.allclose(a.coeffs[:, :, 1 - a.n_min], EX1_TAP_M1)
        assert np.allclose(a.coeffs[:, :, -1 - a.n_min], EX1_TAP_P1)


class TestAdd:
    def test_identity_case(self):
        a = ex1_matrix()
        s = a + PolyMatrix.zeros(2, 2)
        assert s.n_min == a.n_min
        assert np.allclose(s.coeffs, a.coeffs)

    def test_additive_inverse(self):
        a = ex1_matrix()
        assert not np.any((a + (-1.0) * a).coeffs)

    def test_ex1_plus_single_tap(self):
        # constant-tap error at entry (1,1): the z^0 coefficient 1/2 becomes 3/2
        a = ex1_matrix()
        e = np.zeros((2, 2, 1), dtype=complex)
        e[0, 0, 0] = 1.0
        s = a + PolyMatrix(e, 0)
        assert s.coeffs[0, 0, 0 - s.n_min] == pytest.approx(1.5)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            ex1_matrix() + PolyMatrix.zeros(3, 2)

    def test_disjoint_supports(self):
        a = PolyMatrix(np.ones((1, 1, 1)), -3)
        b = PolyMatrix(np.ones((1, 1, 1)), 4)
        s = a + b
        assert s.n_min == -3 and s.n_taps == 8
        assert s.coeffs[0, 0, 0] == 1.0 and s.coeffs[0, 0, -1] == 1.0


class TestMul:
    def test_identity(self):
        b = random_polymat(3, 2, 5, -2)
        p = PolyMatrix.identity(3) @ b
        assert p.n_min == b.n_min
        assert np.allclose(p.coeffs, b.coeffs)

    def test_monomial_shift(self):
        d = PolyMatrix(np.eye(2)[:, :, None], 1)
        p = d @ d
        assert p.n_min == 2 and p.n_taps == 1
        assert np.allclose(p.coeffs[:, :, 0], np.eye(2))

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
            assert (p.n_min, p.n_taps) == (min(oracle), len(oracle))
            for n, mat in oracle.items():
                assert np.abs(p.coeffs[:, :, n - p.n_min] - mat).max() < 1e-12

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
        assert np.allclose(PolyMatrix.constant(h).parahermitian().coeffs[:, :, 0], h)

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

    def test_eval_at_shape_and_eval(self):
        a = random_polymat(2, 3, 4, -2)
        omegas = [0.0, 0.3, np.pi]
        vals = a.eval_at(omegas)
        assert vals.shape == (3, 2, 3)
        for om, v in zip(omegas, vals):
            assert np.abs(a.eval(om) - v).max() <= 1e-12 * np.abs(a.coeffs).sum()

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_eval_at_matches_per_tap_sum(self, data):
        # off-grid frequencies against sum_t A[t] e^{-j omega (n_min + t)}
        n_taps = data.draw(st.integers(1, 12), label="n_taps")
        n_min = data.draw(st.integers(-8, 8), label="n_min")
        omegas = data.draw(st.lists(st.floats(-2 * np.pi, 4 * np.pi), min_size=1,
                                    max_size=5), label="omegas")
        shape = (data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3)), n_taps)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        got = PolyMatrix(c, n_min).eval_at(omegas)
        for om, g in zip(omegas, got):
            want = sum(c[:, :, t] * np.exp(-1j * om * (n_min + t))
                       for t in range(n_taps))
            assert np.abs(g - want).max() <= 1e-12 * (1.0 + np.abs(c).sum())


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
        # K on both sides of n_taps: below it the taps wrap around the grid
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
        direct = a.eval_at(2.0 * np.pi * np.arange(n_bins) / n_bins)
        assert g.shape == (n_bins,) + shape[:2]
        assert np.abs(g - direct).max() <= 1e-12 * (1.0 + np.abs(c).sum())
        if n_bins >= n_taps:
            # Parseval: no tap aliases, so the grid energy is the coefficient energy
            grid_energy = np.sum(np.abs(g) ** 2) / n_bins
            assert grid_energy == pytest.approx(a.frob_energy(), rel=1e-12)

    def test_bigsys_k4096_matches_direct(self):
        a = bigsys(SeededRng(1)).A
        g = a.eval_grid(4096)
        direct = a.eval_at(2.0 * np.pi * np.arange(4096) / 4096)
        assert np.abs(g - direct).max() <= 1e-12 * (1.0 + np.abs(a.coeffs).sum())
        for k in (0, 1, 1000, 2048, 4095):
            assert np.abs(g[k] - a.eval(2 * np.pi * k / 4096)).max() < 1e-12

    @pytest.mark.parametrize("n_bins", [7, 8, 64])
    def test_causal_grid_is_zero_padded_fft(self, n_bins):
        # n_min = 0 and K >= n_taps: no tap wraps, so the fold is a zero pad
        a = random_polymat(3, 2, 7, 0)
        want = np.fft.fft(np.moveaxis(a.coeffs, 2, 0), n=n_bins, axis=0)
        assert np.array_equal(a.eval_grid(n_bins), want)

    def test_offset_reduced_modulo_grid(self):
        # z^{-n_min} on the grid depends on n_min mod K only; the fold uses
        # that residue, so a huge offset gives the same bits
        a = random_polymat(2, 2, 5, 3)
        far = PolyMatrix(a.coeffs, 3 + 4096 * 2**40)
        assert np.array_equal(far.eval_grid(4096), a.eval_grid(4096))
        assert np.array_equal(a.shifted(-4096).eval_grid(4096), a.eval_grid(4096))


def _transform_call_sites():
    """'module.function' around every np.fft.* and np.tensordot call."""
    sites = []
    for path in sorted(Path(polysvd.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and "numpy" in (node.module or ""):
                names = [a.name for a in node.names]
                assert "fft" not in node.module and "fft" not in names, path.name
                assert "tensordot" not in names, path.name

        def visit(node, scope):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                    visit(child, scope + [child.name])
                    continue
                if isinstance(child, ast.Call):
                    name = ast.unparse(child.func)
                    if name.startswith("np.fft.") or name == "np.tensordot":
                        sites.append(".".join([path.stem] + scope))
                visit(child, scope)

        visit(tree, [])
    return sites


def test_eval_grid_and_eval_at_are_the_only_evaluators():
    assert sorted(_transform_call_sites()) == [
        "polymat.PolyMatrix.eval_at", "polymat.PolyMatrix.eval_grid"]


def _draw_polymat(data, rows, cols, label):
    order = data.draw(st.integers(0, 6), label=f"{label} order")
    n_min = data.draw(st.integers(-8, 8), label=f"{label} n_min")
    scale = data.draw(st.sampled_from([1e-6, 1.0, 1e3]), label=f"{label} scale")
    seed = data.draw(st.integers(0, 2**32 - 1), label=f"{label} seed")
    rng = np.random.default_rng(seed)
    shape = (rows, cols, order + 1)
    c = scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    return PolyMatrix(c, n_min)


class TestAlgebraProperties:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_parahermitian_involution(self, data):
        rows, cols = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
        a = _draw_polymat(data, rows, cols, "A")
        back = a.parahermitian().parahermitian()
        assert back.n_min == a.n_min
        assert np.array_equal(back.coeffs, a.coeffs)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_product_evaluates_to_matrix_product(self, data):
        # (AB)(e^{jw}) = A(e^{jw}) B(e^{jw}) on every grid, aliased ones included
        m, l, n = (data.draw(st.integers(1, 4)) for _ in range(3))
        a = _draw_polymat(data, m, l, "A")
        b = _draw_polymat(data, l, n, "B")
        n_bins = data.draw(st.integers(1, 64), label="n_bins")
        got = (a @ b).eval_grid(n_bins)
        want = a.eval_grid(n_bins) @ b.eval_grid(n_bins)
        bound = 1e-12 * (1.0 + np.abs(a.coeffs).sum()) * (1.0 + np.abs(b.coeffs).sum())
        assert np.abs(got - want).max() <= bound


class TestEnergy:
    def test_zero(self):
        assert PolyMatrix.zeros(3, 3).frob_energy() == 0.0

    def test_example1_energy(self):
        # hand sum of squared magnitudes: each entry contributes
        # 2*(17/64) + 1/4 = 25/32; four entries give 25/8
        assert ex1_matrix().frob_energy() == pytest.approx(25 / 8, abs=1e-12)

    def test_shifted_identity(self):
        assert PolyMatrix(np.eye(2)[:, :, None], 3).frob_energy() == pytest.approx(2.0)

    def test_parseval(self):
        a = random_polymat(2, 3, 9, -4)
        k = 16  # > degree span
        g = a.eval_grid(k)
        grid_energy = np.sum(np.abs(g) ** 2) / k
        assert grid_energy == pytest.approx(a.frob_energy(), rel=1e-9)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_parseval_property(self, data):
        # on K bins tap n lands on bin n mod K, so the grid energy is the
        # energy of the folded taps; with K >= T nothing folds onto anything
        rows, cols = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
        n_taps = data.draw(st.integers(1, 12), label="n_taps")
        n_min = data.draw(st.integers(-8, 8), label="n_min")
        n_bins = data.draw(
            st.one_of(st.sampled_from([n_taps - 1, n_taps, n_taps + 1]),
                      st.integers(1, 64)).filter(lambda k: k >= 1),
            label="n_bins",
        )
        scale = data.draw(st.sampled_from([1e-6, 1.0, 1e3]), label="scale")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        shape = (rows, cols, n_taps)
        a = PolyMatrix(scale * (rng.standard_normal(shape)
                                + 1j * rng.standard_normal(shape)), n_min)
        folded = np.zeros((n_bins, rows, cols), dtype=complex)
        for t in range(n_taps):
            folded[(n_min + t) % n_bins] += a.coeffs[:, :, t]
        grid_energy = np.sum(np.abs(a.eval_grid(n_bins)) ** 2) / n_bins
        tol = 1e-12 * (1.0 + a.frob_energy())
        assert abs(grid_energy - np.sum(np.abs(folded) ** 2)) <= tol
        if n_bins >= n_taps:
            assert abs(grid_energy - a.frob_energy()) <= tol


class TestTrim:
    def test_idempotent(self):
        a = ex1_matrix().trim(1e-12)
        b = a.trim(1e-12)
        assert b.n_min == a.n_min and np.array_equal(b.coeffs, a.coeffs)

    def test_tiny_tap_to_zero(self):
        c = np.full((2, 2, 1), 1e-18, dtype=complex)
        t = PolyMatrix(c, 5).trim(1e-15)
        assert not np.any(t.coeffs) and t.n_min == 0 and t.n_taps == 1

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

    @pytest.mark.parametrize("key, value", [
        ("n_min", -0.5), ("n_min", "-1"), ("n_min", True), ("n_min", None),
        ("M", 2.0), ("L", "2"),
    ])
    def test_non_integer_header_rejected(self, key, value):
        d = ex1_matrix().to_json_dict()
        d[key] = value
        with pytest.raises(ValueError, match=key):
            PolyMatrix.from_json_dict(d)
