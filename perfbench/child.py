"""Benchmark child process: the only part of the benchmark that imports polysvd.

Modes (all started by run.py, with the BLAS thread count pinned to 1):

  setup  import polysvd, build one workload's fixtures, print a JSON line
  run    the same, then run the workload's closed loop for --seconds and
         print one JSON result line; with --trace 1, odd passes run with
         the span tracer installed and even ones without
  cli    run one CLI subcommand in this process under the span tracer

A pass runs one operation of each of the workload's KINDS, each timed on
its own.  A timed run of the workload's reference kernel (fixed numpy/Python
code, independent of polysvd and of the seed, that stresses the machine the
way the operation does) comes before every operation and after the last one,
so each operation is bracketed by two reference times.  Workload inputs
derive from --seed only.  Each operation's outputs are checked after its
timed region; a failed check or an exception marks the operation's items as
failed.

numpy and polysvd are imported inside functions, so that ``import polysvd``
in set-up is timed from a cold start.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
import time

K = 4096


def _align_dev(values, forms):
    """Max deviation of tracks from forms, minimized over permutation and sign."""
    import numpy as np

    best = np.inf
    for perm in itertools.permutations(range(values.shape[0])):
        dev = max(min(np.abs(values[p] - forms[m]).max(),
                      np.abs(values[p] + forms[m]).max())
                  for m, p in enumerate(perm))
        best = min(best, dev)
    return float(best)


def _fixed_complex(shape):
    import numpy as np

    rng = np.random.default_rng(12345)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class Sweep:
    """perturb_and_analyze batches on one bigsys, cycling the three levels."""

    BATCH = 4
    LEVELS = (0.3, 1e-2, 1e-4)
    KINDS = ("batch",)
    WORK_PER_OP = BATCH  # trials

    def __init__(self, seed):
        from polysvd import sysgen

        self.seed = seed
        self.sys = sysgen.bigsys(sysgen.SeededRng(seed))
        self.ref = sysgen.reference_tracks(self.sys, K)
        self.yardstick = _fixed_complex((1024, 6, 6))

    def reference(self):
        """LAPACK SVD of a fixed stack of small complex matrices."""
        import numpy as np

        np.linalg.svd(self.yardstick)

    def config(self, i):
        from polysvd import perturb

        return perturb.PerturbConfig(trials=self.BATCH, n_bins=K,
                                     seed=self.seed * 1_000_000 + i,
                                     sigma2_norm=self.LEVELS[i % 3])

    def op(self, i, kind):
        from polysvd import perturb

        return perturb.perturb_and_analyze(self.sys, self.config(i))

    def check(self, i, kind, out):
        import numpy as np
        from polysvd import perturb, sysgen

        cfg = self.config(i)
        target = cfg.sigma2_norm
        results, traj = out
        # Weyl's bound on the returned (last) trial: |sigma_hat - sigma| <= ||E||_F
        # per bin, with E redrawn from the trial's documented stream
        rng = sysgen.SeededRng(cfg.seed, stream=cfg.trials - 1).generator()
        err = perturb.random_error(self.sys.rows, self.sys.cols, self.sys.A.order, 1.0, rng)
        err = perturb.scale_to_normalized(err, self.sys.A, target)
        e_fro = np.linalg.norm(err.eval_grid(K), axis=(1, 2))
        slack = (np.abs(traj.values - self.ref).max(axis=0) - e_fro).max()
        verdicts = []
        for r in results:
            bad = []
            if r.trial == cfg.trials - 1 and not slack <= 1e-10:
                bad.append(f"Weyl bound exceeded by {slack:.3e}")
            if not r.report.min_gap > 0:
                bad.append(f"min_gap {r.report.min_gap!r} <= 0")
            if not r.report.min_smallest > 0:
                bad.append(f"min_smallest {r.report.min_smallest!r} <= 0")
            if not abs(r.sigma2_norm_actual - target) <= 1e-12 * target:
                bad.append(f"sigma2_norm_actual {r.sigma2_norm_actual!r} != {target!r}")
            verdicts.append((not bad, f"sweep op {i} trial {r.trial}: " + "; ".join(bad)))
        if len(results) != cfg.trials:
            verdicts.append((False, f"sweep op {i}: {len(results)} of {cfg.trials} trials"))
        return verdicts


class Track:
    """Smooth tracking plus reference tracks for example1 and two bigsys."""

    KINDS = ("example1", "bigsys1", "bigsys2")
    WORK_PER_OP = K  # bins

    def __init__(self, seed):
        import numpy as np
        from polysvd import sysgen

        self.systems = {"example1": sysgen.example1(),
                        "bigsys1": sysgen.bigsys(sysgen.SeededRng(seed, stream=1)),
                        "bigsys2": sysgen.bigsys(sysgen.SeededRng(seed, stream=2))}
        om = 2.0 * np.pi * np.arange(K) / K
        self.ex1_forms = np.stack([1.0 + 0.5 * np.cos(om), 2.0 * np.sin(om)])
        self.yardstick = _fixed_complex((K, 6, 6))

    def reference(self):
        """Python loop over per-bin 6x6 products, like the association loop."""
        import numpy as np

        u = self.yardstick
        for k in range(1, 2048):
            np.abs(u[k - 1].conj().T @ u[(7 * k) % K])

    def op(self, i, kind):
        from polysvd import anasvd, sysgen

        s = self.systems[kind]
        bins = anasvd.binwise_svd(s.A, K)
        return bins, anasvd.smooth_trajectories(bins), sysgen.reference_tracks(s, K)

    def check(self, i, kind, out):
        import numpy as np

        bins, smooth, ref = out
        bad = []
        if kind == "example1":
            dev = _align_dev(smooth.values, self.ex1_forms)
            if not dev <= 1e-8:
                bad.append(f"tracks deviate {dev:.3e} from the closed forms")
        else:
            mags = -np.sort(-np.abs(smooth.values), axis=0)
            dev = np.abs(mags - bins.sigma.T).max()
            if not dev <= 1e-12 * bins.sigma.max():
                bad.append(f"sorted |smooth| differ from majorized by {dev:.3e}")
        ref_dev = np.abs(ref - bins.sigma.T).max()
        if not ref_dev <= 1e-9:
            bad.append(f"reference tracks differ from majorized by {ref_dev:.3e}")
        return [(not bad, f"track op {i} {kind}: " + "; ".join(bad))]


class Ident:
    """simulate -> wiener_estimate -> mse_decomposition on one bigsys."""

    N = 50_000
    SIGMA2_V = 0.01
    KINDS = ("ident",)
    WORK_PER_OP = 1  # identifications

    def __init__(self, seed):
        from polysvd import sysgen, sysid

        self.seed = seed
        self.sys = sysgen.bigsys(sysgen.SeededRng(seed))
        self.order = sysid.causal_version(self.sys.A)[0].order
        self.yardstick = _fixed_complex((186, 4096))

    def reference(self):
        """Complex GEMM of the size of the stacked correlation products."""
        x = self.yardstick
        x @ x.conj().T

    def op(self, i, kind):
        from polysvd import sysgen, sysid

        frame = sysid.simulate(self.sys, self.N, self.SIGMA2_V,
                               sysgen.SeededRng(self.seed, stream=i + 1))
        est = sysid.wiener_estimate(frame, self.order)
        return sysid.mse_decomposition(frame, est, self.sys)

    def check(self, i, kind, rep):
        ratio = rep.decomposition_gap / rep.xi_mse
        return [(ratio <= 0.1, f"ident op {i}: gap/xi {ratio!r} > 0.1")]


WORKLOADS = {"sweep": Sweep, "track": Track, "ident": Ident}


def _versions() -> dict:
    import platform

    import numpy as np
    import scipy

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"),
            "blas_config": blas.get("openblas configuration")}


def _setup(workload: str, seed: int, tracer_cls=None):
    """Import polysvd and build the fixtures; returns (fixture, info, setup tracer)."""
    t0 = time.perf_counter()
    import polysvd

    t1 = time.perf_counter()
    tracer = None
    if workload == "cli":
        import polysvd.cli  # noqa: F401

        fixture = None
    else:
        if tracer_cls is not None:
            tracer = tracer_cls()
            tracer.install()
        fixture = WORKLOADS[workload](seed)
        if tracer is not None:
            tracer.uninstall()
    t2 = time.perf_counter()
    info = {"import_s": t1 - t0, "fixture_s": t2 - t1, "polysvd_file": polysvd.__file__,
            "versions": _versions()}
    return fixture, info, tracer


def _run(args) -> dict:
    tracer_cls = None
    if args.trace:
        from tracer import Tracer

        tracer_cls = Tracer
    fixture, info, setup_tracer = _setup(args.workload, args.seed, tracer_cls)
    print(json.dumps(info), flush=True)

    loop_tracer = tracer_cls() if tracer_cls else None
    ops = []  # [kind, ms, traced, units of work, reference ms before, after]

    def reference_ms():
        t = time.perf_counter()
        fixture.reference()
        ms = (time.perf_counter() - t) * 1e3
        if ops and ops[-1][5] is None:
            ops[-1][5] = ms
        return ms

    items = failed = 0
    failures = []
    t_loop = time.perf_counter()
    for i in itertools.count():
        # a traced run needs one untraced and one traced pass at least
        if time.perf_counter() - t_loop >= args.seconds and i >= 1 + args.trace:
            break
        traced = loop_tracer is not None and i % 2 == 1
        for kind in fixture.KINDS:
            ref_ms = reference_ms()
            if traced:
                loop_tracer.install()
            t0 = time.perf_counter()
            try:
                out = fixture.op(i, kind)
            except Exception as exc:  # a failed operation is counted, not fatal
                out, error = None, f"op {i} {kind}: {type(exc).__name__}: {exc}"
            finally:
                t1 = time.perf_counter()
                if traced:
                    loop_tracer.uninstall()
            if out is None:
                verdicts = [(False, error)]
            else:
                try:
                    verdicts = fixture.check(i, kind, out)
                except Exception as exc:
                    verdicts = [(False, f"check {i} {kind}: {type(exc).__name__}: {exc}")]
                ops.append([kind, (t1 - t0) * 1e3, traced, fixture.WORK_PER_OP, ref_ms, None])
            items += len(verdicts)
            for ok, msg in verdicts:
                if not ok:
                    failed += 1
                    failures.append(msg)

    reference_ms()
    result = {"ops": ops, "items": items, "failed": failed, "failures": failures[:20]}
    if loop_tracer is not None:
        result.update(stats=loop_tracer.layer_stats(),
                      setup_stats=setup_tracer.layer_stats() if setup_tracer else {},
                      bindings=loop_tracer.bindings)
        with open(args.spans, "w") as fh:
            for phase, tr in (("setup", setup_tracer), ("loop", loop_tracer)):
                if tr is not None:
                    json.dump({"phase": phase, "spans": tr.spans}, fh)
                    fh.write("\n")
    return result


def _traced_cli(args) -> dict:
    import polysvd.cli
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        rc = polysvd.cli.main(args.argv)
    finally:
        tracer.uninstall()
    with open(args.spans, "a") as fh:
        json.dump({"phase": "cli", "argv": args.argv, "spans": tracer.spans}, fh)
        fh.write("\n")
    return {"rc": rc, "stats": tracer.layer_stats(), "bindings": tracer.bindings}


def main() -> int:
    p = argparse.ArgumentParser(prog="child.py")
    sub = p.add_subparsers(dest="mode", required=True)
    for mode in ("setup", "run"):
        sp = sub.add_parser(mode)
        sp.add_argument("--workload", required=True, choices=[*WORKLOADS, "cli"])
        sp.add_argument("--seed", type=int, required=True)
        if mode == "run":
            sp.add_argument("--seconds", type=float, required=True)
            sp.add_argument("--trace", type=int, choices=(0, 1), default=0)
            sp.add_argument("--spans", default=None)
    sp = sub.add_parser("cli")
    sp.add_argument("--spans", required=True)
    sp.add_argument("argv", nargs=argparse.REMAINDER)
    args = p.parse_args()

    if args.mode == "setup":
        print(json.dumps(_setup(args.workload, args.seed)[1]), flush=True)
        return 0
    if args.mode == "run":
        print(json.dumps(_run(args)), flush=True)
        return 0
    out = _traced_cli(args)
    print(json.dumps(out), flush=True)
    return out["rc"]


if __name__ == "__main__":
    sys.exit(main())
