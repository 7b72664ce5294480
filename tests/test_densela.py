"""Dense SVD kernel invariants; svd_stack as the package's one SVD call."""

import ast
import os
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import polysvd
from polysvd import densela
from polysvd.densela import svd_stack
from polysvd.sysgen import example1

RNG = np.random.default_rng(77)


def random_complex(m, l):
    return RNG.standard_normal((m, l)) + 1j * RNG.standard_normal((m, l))


def svd(a):
    """(U, sigma, V) of one matrix: slice 0 of svd_stack."""
    u, s, v = svd_stack(np.asarray(a)[None])
    return u[0], s[0], v[0]


class TestSvd:
    def test_sign_absorption(self):
        _, sigma, _ = svd(np.diag([2.0, -3.0]))
        assert np.allclose(sigma, [3.0, 2.0])

    def test_example1_at_zero(self):
        _, sigma, _ = svd(example1().A.eval_at([0.0])[0])
        assert np.abs(sigma - np.array([1.5, 0.0])).max() < 1e-12

    def test_example1_at_half_pi(self):
        # closed forms: 1 + cos(om)/2 = 1 and 2 sin(om) = 2; majorized order swaps
        _, sigma, _ = svd(example1().A.eval_at([np.pi / 2])[0])
        assert np.abs(sigma - np.array([2.0, 1.0])).max() < 1e-12

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
            u, sigma, v = svd(a)
            r = sigma.size
            recon = (u[:, :r] * sigma) @ v[:, :r].conj().T
            scale = max(1.0, np.linalg.norm(a))
            assert np.linalg.norm(recon - a) <= 1e-12 * scale
            assert np.linalg.norm(u.conj().T @ u - np.eye(m)) <= 1e-12
            assert np.linalg.norm(v.conj().T @ v - np.eye(l)) <= 1e-12
            assert np.all(sigma[:-1] >= sigma[1:] - 1e-15)
            assert np.all(sigma >= 0)

    def test_hermitian_transpose_same_sigma(self):
        a = random_complex(4, 6)
        assert np.abs(svd(a)[1] - svd(a.conj().T)[1]).max() < 1e-12

    def test_unit_modulus_scaling(self):
        a = random_complex(5, 5)
        phase = np.exp(1j * 0.7312)
        assert np.abs(svd(a)[1] - svd(phase * a)[1]).max() < 1e-12

    @pytest.mark.parametrize("shape", [(2, 2), (1, 2, 2, 2)])
    def test_stack_rejects_other_ranks(self, shape):
        with pytest.raises(ValueError, match=r"\(K, M, L\) stack"):
            svd_stack(np.zeros(shape))


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
    # the two calls of svd_stack's per-block worker: values only, and full
    # factors
    assert _svd_call_sites() == ["densela._svd_block"] * 2


def test_densela_is_the_only_threading_import():
    # the pool owns the package's threads and their one lock: every other
    # module's tasks go through run_tasks and write only their own arrays
    importers = []
    for path in sorted(Path(polysvd.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "threading" for name in names):
                importers.append(path.stem)
    assert importers == ["densela"]


@pytest.fixture
def svd_calls(monkeypatch):
    """Record (thread, bins) of every np.linalg.svd call.  The Thread
    object, not its ident: a finished worker's ident can be reused by the
    next worker started."""
    calls = []
    original = np.linalg.svd

    def recording(a, *args, **kwargs):
        calls.append((threading.current_thread(), len(a)))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording)
    return calls


def one_call(mats):
    """(U, sigma, V) from one np.linalg.svd call on the whole stack."""
    u, s, vh = np.linalg.svd(mats, full_matrices=True)
    return u, s, np.conj(np.swapaxes(vh, -1, -2))


class TestSvdStackBlocks:
    @pytest.mark.parametrize("cpus", [1, 3], indirect=True)
    @pytest.mark.parametrize("shape", [(6, 6), (3, 2), (2, 3)])
    @pytest.mark.parametrize("k", [0, 1, 255, 256, 257, 4097])
    def test_bitwise_equal_to_one_call(self, cpus, shape, k):
        mats = RNG.standard_normal((k, *shape)) + 1j * RNG.standard_normal((k, *shape))
        for got, want in zip(svd_stack(mats), one_call(mats)):
            assert np.array_equal(got, want)
        none_u, values, none_v = svd_stack(mats, vectors=False)
        assert none_u is None and none_v is None
        assert np.array_equal(values, np.linalg.svd(mats, compute_uv=False))

    @pytest.mark.parametrize("cpus", [3], indirect=True)
    @pytest.mark.parametrize("vectors", [False, True])
    def test_one_thread_per_block(self, cpus, monkeypatch, svd_calls, vectors):
        # 4097 bins are 17 chunks of _BLOCK bins but the last, one LAPACK
        # call each, run round-robin by the caller and 2 workers: the caller
        # takes chunks 0, 3, 6, ...
        chunks = []
        block = densela._svd_block

        def recording(mats, u, s, v, a):
            chunks.append((threading.current_thread(), a // densela._BLOCK))
            block(mats, u, s, v, a)

        monkeypatch.setattr(densela, "_svd_block", recording)
        svd_stack(np.ones((4097, 2, 2)), vectors=vectors)
        assert sorted(bins for _, bins in svd_calls) == [1] + [densela._BLOCK] * 16
        per_thread = {}
        for thread, chunk in chunks:
            per_thread.setdefault(thread, []).append(chunk)
        assert per_thread[threading.current_thread()] == list(range(0, 17, 3))
        assert sorted(per_thread.values()) == [
            list(range(0, 17, 3)), list(range(1, 17, 3)), list(range(2, 17, 3))]

    @pytest.mark.parametrize("cpus", [16], indirect=True)
    def test_more_workers_than_cores(self, cpus):
        # 16 chunks of 256 bins with a thread switch every microsecond
        mats = RNG.standard_normal((16 * densela._BLOCK, 3, 3)) + 0j
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = svd_stack(mats)
        finally:
            sys.setswitchinterval(interval)
        for g, want in zip(got, one_call(mats)):
            assert np.array_equal(g, want)

    @pytest.mark.parametrize("cpus", [64], indirect=True)
    def test_small_stacks_stay_on_the_caller(self, cpus, svd_calls):
        # one chunk is one task, which the caller runs; a second chunk goes
        # to a worker
        svd_stack(np.ones((densela._BLOCK, 2, 2)), vectors=False)
        svd_stack(np.ones((densela._BLOCK, 2, 2)))
        svd_stack(np.eye(3)[None])
        assert {thread for thread, _ in svd_calls} == {threading.current_thread()}
        svd_stack(np.ones((densela._BLOCK + 1, 2, 2)))
        assert len({thread for thread, _ in svd_calls}) == 2

    @pytest.mark.parametrize("cpus", [2], indirect=True)
    @pytest.mark.parametrize("failing", ["caller", "worker"])
    @pytest.mark.parametrize("vectors", [False, True])
    def test_block_error_reraised_after_join(self, cpus, monkeypatch, failing,
                                             vectors):
        caller = threading.get_ident()
        baseline = threading.active_count()
        original = np.linalg.svd

        def failing_svd(a, *args, **kwargs):
            if (threading.get_ident() == caller) == (failing == "caller"):
                raise np.linalg.LinAlgError(f"{failing} block failed")
            return original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", failing_svd)
        with pytest.raises(np.linalg.LinAlgError, match=f"{failing} block"):
            svd_stack(np.ones((1024, 2, 2)), vectors=vectors)
        assert threading.active_count() == baseline


@pytest.mark.parametrize("count, threads", [(3, 3), (None, 1)])
def test_cpu_count_fallback(monkeypatch, svd_calls, count, threads):
    # without sched_getaffinity (macOS, Windows) the threads follow
    # os.cpu_count(), and one CPU when that is unknown
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: count)
    mats = RNG.standard_normal((4097, 3, 2)) + 1j * RNG.standard_normal((4097, 3, 2))
    got = svd_stack(mats)
    assert len({thread for thread, _ in svd_calls}) == threads
    for g, want in zip(got, one_call(mats)):
        assert np.array_equal(g, want)


class TestRunTasks:
    @pytest.mark.parametrize("cpus", [3], indirect=True)
    def test_round_robin_results_in_item_order(self, cpus):
        # 7 items on the caller and 2 workers: runner r takes r, r + 3, ...
        runners = {}

        def task(x):
            runners.setdefault(threading.current_thread(), []).append(x)
            return x * x

        assert densela.run_tasks(task, range(7)) == [x * x for x in range(7)]
        assert sorted(runners.values()) == [[0, 3, 6], [1, 4], [2, 5]]
        assert runners[threading.current_thread()] == [0, 3, 6]
        assert densela._pool_busy == 0

    @pytest.mark.parametrize("cpus", [16], indirect=True)
    def test_nested_pool_stress(self, cpus):
        # 8 outer tasks of 8 inner ones each, with a thread switch every
        # microsecond: a lost update of the slot count would show as more
        # than 15 workers at once or a count left over
        baseline = threading.active_count()
        peak = []

        def inner(x):
            peak.append(threading.active_count() - baseline)
            return x + 1

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = densela.run_tasks(
                lambda i: densela.run_tasks(inner, range(8 * i, 8 * i + 8)), range(8))
        finally:
            sys.setswitchinterval(interval)
        assert got == [list(range(8 * i + 1, 8 * i + 9)) for i in range(8)]
        assert max(peak) <= cpus - 1
        assert densela._pool_busy == 0
        assert threading.active_count() == baseline
