"""Experiment command line: deterministic, seeded runs emitting CSV/JSON.

Subcommands
-----------
ex1      closed-form fixture vs. smooth bin-wise track extraction
hist     per-bin singular-value histograms with Rician fits
perturb  perturbation sweep over normalized error variances
sysid    system identification and MSE decomposition

Every output file embeds the seed, the echoed run configuration and the
package version, and is byte-identical across reruns with the same
arguments.  Exit codes: 0 success, 1 usage error, 2 numerical tolerance
failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys as _sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__, anasvd, perturb, sysgen, sysid
from .polymat import PolyMatrix

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_TOLERANCE = 2

EX1_TOL = 1e-8


@dataclass(frozen=True)
class RunConfig:
    """Parsed arguments of one command, echoed into every output."""

    subcommand: str
    seed: int
    n_bins: int
    trials: int
    sigma2_norm: Optional[tuple]
    sigma2_e: Optional[float]
    n_samples: int
    sigma2_v: float
    order: Optional[int]
    out_dir: str
    fmt: str
    fixture: Optional[str] = None

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["sigma2_norm"] = list(self.sigma2_norm) if self.sigma2_norm else None
        return d


def _meta(cfg: RunConfig) -> dict:
    return {"seed": cfg.seed, "config": cfg.to_dict(), "version": __version__}


def _meta_line(cfg: RunConfig) -> str:
    return "# " + json.dumps(_meta(cfg), sort_keys=True)


def _write_json(path: Path, payload: dict, cfg: RunConfig) -> None:
    payload = {"meta": _meta(cfg), **payload}
    path.write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n")


def _write_table(path: Path, columns: dict, row_fmt: str, cfg: RunConfig) -> None:
    """Tabular output honoring --format; ``columns`` maps names to arrays and
    ``row_fmt`` is the CSV row format."""
    if cfg.fmt == "csv":
        np.savetxt(path, np.column_stack(list(columns.values())), fmt=row_fmt,
                   header=_meta_line(cfg) + "\n" + ",".join(columns),
                   comments="")
    else:
        rows = list(zip(*(col.tolist() for col in columns.values())))
        _write_json(path, {"columns": list(columns), "rows": rows}, cfg)


def _traj_path(out: Path, stem: str, cfg: RunConfig) -> Path:
    return out / f"{stem}.{cfg.fmt}"


def _write_traj(path: Path, traj: anasvd.SvTrajectories, cfg: RunConfig,
                extra: Optional[dict] = None) -> None:
    if cfg.fmt == "csv":
        with path.open("w") as fh:
            anasvd.write_trajectory_csv(traj, fh, extra=extra,
                                        meta_line=_meta_line(cfg))
    else:
        payload = {"mode": traj.mode, "omega": traj.omegas.tolist(),
                   "tracks": traj.values.tolist()}
        for name, arr in (extra or {}).items():
            payload[name] = arr.tolist()
        _write_json(path, payload, cfg)


def _level_tag(kind: str, level: float) -> str:
    """File-name tag of one perturbation level, e.g. s2n_0p01 or s2e_1em05."""
    prefix = {"sigma2_norm": "s2n", "sigma2_e": "s2e"}[kind]
    return prefix + "_" + f"{level:g}".replace(".", "p").replace("-", "m")


# -- subcommands -------------------------------------------------------


def cmd_ex1(cfg: RunConfig) -> int:
    out = Path(cfg.out_dir)
    fixture = sysgen.example1()
    if cfg.fixture is not None:
        try:
            a = PolyMatrix.from_json_dict(json.loads(Path(cfg.fixture).read_text()))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            print(f"usage error: cannot read fixture {cfg.fixture}: {exc}",
                  file=_sys.stderr)
            return EXIT_USAGE
        if (a.rows, a.cols) != (fixture.A.rows, fixture.A.cols):
            print(f"usage error: fixture must be {fixture.A.rows}x"
                  f"{fixture.A.cols}", file=_sys.stderr)
            return EXIT_USAGE
    else:
        a = fixture.A
    out.mkdir(parents=True, exist_ok=True)
    bins = anasvd.binwise_svd(a, cfg.n_bins)
    smooth = anasvd.smooth_trajectories(bins)
    forms = np.stack([f(smooth.omegas) for f in fixture.closed_forms])
    closed = anasvd.SvTrajectories(mode="smooth", omegas=smooth.omegas.copy(),
                                   values=forms)
    _write_traj(_traj_path(out, "ex1_closed_forms", cfg), closed, cfg)
    _write_traj(_traj_path(out, "ex1_smooth", cfg), smooth, cfg)
    deviation = anasvd.track_deviation(smooth.values, forms)
    _write_json(out / "ex1_summary.json",
                {"max_deviation": deviation, "tolerance": EX1_TOL,
                 "n_bins": cfg.n_bins,
                 "n_ambiguous_bins": int(smooth.ambiguous_bins.size)}, cfg)
    if deviation > EX1_TOL:
        print(f"ex1: FAIL max deviation {deviation:.3e} > {EX1_TOL:.1e}",
              file=_sys.stderr)
        return EXIT_TOLERANCE
    print(f"ex1: max deviation {deviation:.3e} (tol {EX1_TOL:.1e})")
    return EXIT_OK


def cmd_hist(cfg: RunConfig) -> int:
    out = Path(cfg.out_dir)
    sys_ = sysgen.example1()
    omega0 = float(np.pi)
    sigma2_e = cfg.sigma2_e if cfg.sigma2_e is not None else 1e-4
    rng = sysgen.SeededRng(cfg.seed, stream=0)
    samples = perturb.bin_histogram_trials(sys_, omega0, cfg.trials, sigma2_e, rng)
    fits = []
    for m in range(samples.shape[0]):
        try:
            fit = perturb.rician_fit(samples[m])
        except ValueError as exc:
            print(f"hist: cannot fit index {m + 1}: {exc}", file=_sys.stderr)
            return EXIT_USAGE
        fits.append({"index": m + 1, "nu": fit.nu, "s": fit.s,
                     "residual": fit.residual, "n": fit.n_samples})
    n_index, n_trials = samples.shape
    columns = {"trial": np.repeat(np.arange(n_trials), n_index),
               "index": np.tile(np.arange(1, n_index + 1), n_trials),
               "value": samples.T.ravel()}
    out.mkdir(parents=True, exist_ok=True)
    _write_table(out / f"hist_samples.{cfg.fmt}", columns, "%d,%d,%.17g", cfg)
    _write_json(out / "hist_fits.json",
                {"omega0": omega0, "sigma2_e": sigma2_e, "fits": fits,
                 "sample_min": samples.min(axis=1).tolist()}, cfg)
    print(f"hist: {cfg.trials} trials at omega0=pi, "
          f"min smallest sample {samples[-1].min():.3e}")
    return EXIT_OK


def cmd_perturb(cfg: RunConfig) -> int:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    sys_ = sysgen.bigsys(sysgen.SeededRng(cfg.seed, stream=1 << 20))
    (out / "system.json").write_text(
        json.dumps({"meta": _meta(cfg), **sys_.to_json_dict()}, sort_keys=True)
        + "\n"
    )
    refs = sysgen.reference_tracks(sys_, cfg.n_bins)
    if cfg.sigma2_norm is not None:
        settings = [("sigma2_norm", v) for v in cfg.sigma2_norm]
    else:
        settings = [("sigma2_e", cfg.sigma2_e)]
    for i, (kind, level) in enumerate(settings):
        pcfg = perturb.PerturbConfig(
            trials=cfg.trials, n_bins=cfg.n_bins, seed=cfg.seed + i,
            error_order=cfg.order, **{kind: level},
        )
        results, traj = perturb.perturb_and_analyze(sys_, pcfg)
        tag = _level_tag(kind, level)
        _write_traj(_traj_path(out, f"perturb_traj_{tag}", cfg), traj, cfg,
                    extra={"ref": refs})
        _write_json(
            out / f"perturb_diag_{tag}.json",
            {
                kind: level,
                "trials": [
                    {
                        "trial": r.trial,
                        "min_gap": r.report.min_gap,
                        "omega_gap": r.report.omega_min_gap,
                        "min_smallest": r.report.min_smallest,
                        "omega_smallest": r.report.omega_min_smallest,
                        "sigma2_norm_actual": r.sigma2_norm_actual,
                    }
                    for r in results
                ],
            },
            cfg,
        )
        worst_gap = min(r.report.min_gap for r in results)
        worst_small = min(r.report.min_smallest for r in results)
        print(f"perturb: {kind}={level:g} trials={cfg.trials} "
              f"min_gap={worst_gap:.3e} min_smallest={worst_small:.3e}")
    return EXIT_OK


def cmd_sysid(cfg: RunConfig) -> int:
    out = Path(cfg.out_dir)
    sys_ = sysgen.example1()
    a_causal, delay = sysid.causal_version(sys_.A)
    j_hat = cfg.order if cfg.order is not None else a_causal.order
    try:
        frame = sysid.simulate(sys_, cfg.n_samples, cfg.sigma2_v,
                               sysgen.SeededRng(cfg.seed, stream=0))
        est = sysid.wiener_estimate(frame, j_hat)
    except ValueError as exc:
        print(f"usage error: sysid --N {cfg.n_samples} --order {j_hat}: {exc}",
              file=_sys.stderr)
        return EXIT_USAGE
    out.mkdir(parents=True, exist_ok=True)
    err = sysid.error_system(est, sys_)
    report = sysid.mse_decomposition(frame, est, sys_)
    sigma2_norm = perturb.normalized_variance(err, sys_.A)
    _write_json(
        out / "sysid_report.json",
        {
            "N": cfg.n_samples,
            "J_hat": j_hat,
            "delay": delay,
            "sigma2_v": cfg.sigma2_v,
            "xi_mse": report.xi_mse,
            "error_energy": report.error_energy,
            "noise_floor": report.noise_floor,
            "decomposition_gap": report.decomposition_gap,
            "sigma2_norm": sigma2_norm,
            "regularization": est.regularization,
            "condition": est.condition,
        },
        cfg,
    )
    (out / "sysid_error_system.json").write_text(
        json.dumps({"meta": _meta(cfg), **err.to_json_dict()}, sort_keys=True)
        + "\n"
    )
    print(f"sysid: N={cfg.n_samples} xi_mse={report.xi_mse:.5g} "
          f"error_energy={report.error_energy:.5g} "
          f"gap={report.decomposition_gap:.3g} cond={est.condition:.3g}")
    return EXIT_OK


# -- argument handling -------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="polysvd", description=__doc__,
                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="subcommand", required=True)

    def common(sp, trials_default):
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--bins", "-K", type=int, default=4096, dest="n_bins")
        sp.add_argument("--trials", type=int, default=trials_default)
        sp.add_argument("--sigma2-norm", type=float, action="append",
                        dest="sigma2_norm", default=None,
                        help="target normalized error variance (repeatable)")
        sp.add_argument("--sigma2-e", type=float, dest="sigma2_e", default=None,
                        help="per-coefficient complex error variance")
        sp.add_argument("--N", type=int, default=100000, dest="n_samples")
        sp.add_argument("--sigma2-v", type=float, default=0.01, dest="sigma2_v")
        sp.add_argument("--order", "-J", type=int, default=None,
                        help="error/estimate order (default: system order)")
        sp.add_argument("--out", default="out", dest="out_dir")
        sp.add_argument("--format", choices=("csv", "json"), default="csv",
                        dest="fmt")

    sp = sub.add_parser("ex1", help="closed-form fixture vs smooth extraction")
    common(sp, trials_default=1)
    sp.add_argument("--fixture", default=None,
                    help="polynomial-matrix JSON replacing the built-in fixture")

    sp = sub.add_parser("hist", help="bin histogram with Rician fits")
    common(sp, trials_default=10000)

    sp = sub.add_parser("perturb", help="normalized-variance perturbation sweep")
    common(sp, trials_default=1)

    sp = sub.add_parser("sysid", help="identification and MSE decomposition")
    common(sp, trials_default=1)
    return p


def _to_config(ns: argparse.Namespace) -> RunConfig:
    sigma2_norm = tuple(ns.sigma2_norm) if ns.sigma2_norm else None
    if ns.subcommand == "perturb" and sigma2_norm is None and ns.sigma2_e is None:
        sigma2_norm = (0.3, 1e-2, 1e-4)
    if sigma2_norm is not None and ns.sigma2_e is not None:
        raise _UsageError("--sigma2-norm and --sigma2-e are mutually exclusive")
    if ns.subcommand == "hist" and ns.trials < 100:
        raise _UsageError("hist requires --trials >= 100")
    for flag, name in (("--bins", "n_bins"), ("--trials", "trials"),
                       ("--N", "n_samples")):
        if getattr(ns, name) < 1:
            raise _UsageError(f"{flag} must be >= 1")
    nonnegative = [("--seed", ns.seed), ("--order", ns.order),
                   ("--sigma2-e", ns.sigma2_e), ("--sigma2-v", ns.sigma2_v)]
    nonnegative += [("--sigma2-norm", v) for v in sigma2_norm or ()]
    for flag, value in nonnegative:
        if value is not None and not np.isfinite(value):
            raise _UsageError(f"{flag} must be finite")
        if value is not None and value < 0:
            raise _UsageError(f"{flag} must be >= 0")
    if ns.subcommand == "perturb" and sigma2_norm is not None:
        seen = {}
        for level in sigma2_norm:
            tag = _level_tag("sigma2_norm", level)
            if tag in seen:
                raise _UsageError(f"--sigma2-norm {seen[tag]!r} and {level!r} "
                                  f"share the output file tag {tag}")
            seen[tag] = level
    return RunConfig(
        subcommand=ns.subcommand,
        seed=ns.seed,
        n_bins=ns.n_bins,
        trials=ns.trials,
        sigma2_norm=sigma2_norm,
        sigma2_e=ns.sigma2_e,
        n_samples=ns.n_samples,
        sigma2_v=ns.sigma2_v,
        order=ns.order,
        out_dir=ns.out_dir,
        fmt=ns.fmt,
        fixture=getattr(ns, "fixture", None),
    )


_COMMANDS = {"ex1": cmd_ex1, "hist": cmd_hist, "perturb": cmd_perturb,
             "sysid": cmd_sysid}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
        cfg = _to_config(ns)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=_sys.stderr)
        return EXIT_USAGE
    return _COMMANDS[cfg.subcommand](cfg)


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
