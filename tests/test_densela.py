"""Dense SVD kernel invariants; svd_stack as the package's one SVD call."""

import ast
from pathlib import Path

import numpy as np
import pytest

import polysvd
from polysvd import svd
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

    def test_is_slice_of_stack(self):
        a = random_complex(3, 5)
        u, s, v = svd_stack(a[None])
        r = svd(a)
        for got, want in ((r.U, u[0]), (r.sigma, s[0]), (r.V, v[0])):
            assert np.array_equal(got, want)

    def test_rejects_stack(self):
        with pytest.raises(ValueError, match="2-D"):
            svd(np.zeros((2, 2, 2)))


def _svd_call_sites():
    """'module.function' around every *.linalg.svd call in the package."""
    sites = []
    for path in sorted(Path(polysvd.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and "linalg" in (node.module or ""):
                assert "svd" not in [a.name for a in node.names], path.name

        def visit(node, scope):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                    visit(child, scope + [child.name])
                    continue
                if (isinstance(child, ast.Call)
                        and isinstance(child.func, ast.Attribute)
                        and child.func.attr == "svd"
                        and ast.unparse(child.func.value).endswith("linalg")):
                    sites.append(".".join([path.stem] + scope))
                visit(child, scope)

        visit(tree, [])
    return sites


def test_svd_stack_is_the_only_svd_call():
    # the two calls: values only, and full factors
    assert _svd_call_sites() == ["densela.svd_stack"] * 2
