"""Experiment command line: deterministic, seeded runs emitting CSV/JSON.

Subcommands and their own flags, defaults in brackets
-----------------------------------------------------
ex1      closed-form fixture vs. smooth bin-wise track extraction
           --bins/-K [4096] --fixture FILE [built-in example 1]
hist     per-bin singular-value histograms with Rician fits
           --trials [10000] --sigma2-e [1e-4]
perturb  perturbation sweep over normalized error variances
           --bins/-K [4096] --trials [1] --order/-J [system order]
           --sigma2-norm, repeatable [0.3, 1e-2, 1e-4], or --sigma2-e
sysid    system identification and MSE decomposition
           --N [100000] --sigma2-v [0.01] --order/-J [system order]

Every subcommand also takes --seed [0], --out [out] and --format
{csv,json} [csv], and no other flag; flags are not abbreviated.

Every output file embeds the seed, the parsed arguments and the package
version; a rerun rewrites it byte for byte, noting the overwrite on stderr.
Exit codes: 0 success, 1 usage error, 2 numerical tolerance failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys as _sys
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__, anasvd, perturb, sysgen, sysid
from .polymat import PolyMatrix

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_TOLERANCE = 2

EX1_TOL = 1e-8


def _meta(ns: argparse.Namespace) -> dict:
    return {"seed": ns.seed, "config": vars(ns), "version": __version__}


def _meta_line(ns: argparse.Namespace) -> str:
    return "# " + json.dumps(_meta(ns), sort_keys=True)


def _note_overwrite(path: Path) -> None:
    if path.exists():
        print(f"note: overwriting {path}", file=_sys.stderr)


def _write_json(path: Path, payload: dict, ns: argparse.Namespace,
                indent: Optional[int] = 1) -> None:
    _note_overwrite(path)
    payload = {"meta": _meta(ns), **payload}
    path.write_text(json.dumps(payload, sort_keys=True, indent=indent) + "\n")


def _write_table(path: Path, columns: dict, row_fmt: str,
                 ns: argparse.Namespace) -> None:
    """Tabular output honoring --format; ``columns`` maps names to arrays and
    ``row_fmt`` is the CSV row format."""
    if ns.fmt == "csv":
        _note_overwrite(path)
        np.savetxt(path, np.column_stack(list(columns.values())), fmt=row_fmt,
                   header=_meta_line(ns) + "\n" + ",".join(columns),
                   comments="")
    else:
        rows = list(zip(*(col.tolist() for col in columns.values())))
        _write_json(path, {"columns": list(columns), "rows": rows}, ns)


def _write_traj(path: Path, traj: anasvd.SvTrajectories, ns: argparse.Namespace,
                extra: Optional[dict] = None) -> None:
    if ns.fmt == "csv":
        _note_overwrite(path)
        with path.open("w") as fh:
            anasvd.write_trajectory_csv(traj, fh, extra=extra,
                                        meta_line=_meta_line(ns))
    else:
        payload = {"mode": traj.mode, "omega": traj.omegas.tolist(),
                   "tracks": traj.values.tolist()}
        for name, arr in (extra or {}).items():
            payload[name] = arr.tolist()
        _write_json(path, payload, ns)


def _level_tag(kind: str, level: float) -> str:
    """File-name tag of one perturbation level, e.g. s2n_0p01 or s2e_1em05."""
    prefix = {"sigma2_norm": "s2n", "sigma2_e": "s2e"}[kind]
    return prefix + "_" + f"{level:g}".replace(".", "p").replace("-", "m")


# -- subcommands -------------------------------------------------------


def cmd_ex1(ns: argparse.Namespace) -> int:
    out = Path(ns.out_dir)
    fixture = sysgen.example1()
    if ns.fixture is not None:
        try:
            a = PolyMatrix.from_json_dict(json.loads(Path(ns.fixture).read_text()))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            print(f"usage error: cannot read fixture {ns.fixture}: {exc}",
                  file=_sys.stderr)
            return EXIT_USAGE
        if (a.rows, a.cols) != (fixture.A.rows, fixture.A.cols):
            print(f"usage error: fixture must be {fixture.A.rows}x"
                  f"{fixture.A.cols}", file=_sys.stderr)
            return EXIT_USAGE
    else:
        a = fixture.A
    out.mkdir(parents=True, exist_ok=True)
    bins = anasvd.binwise_svd(a, ns.n_bins)
    smooth = anasvd.smooth_trajectories(bins)
    forms = np.stack([f(smooth.omegas) for f in fixture.closed_forms])
    closed = anasvd.SvTrajectories(mode="smooth", omegas=smooth.omegas.copy(),
                                   values=forms)
    _write_traj(out / f"ex1_closed_forms.{ns.fmt}", closed, ns)
    _write_traj(out / f"ex1_smooth.{ns.fmt}", smooth, ns)
    deviation = anasvd.track_deviation(smooth.values, forms)
    _write_json(out / "ex1_summary.json",
                {"max_deviation": deviation, "tolerance": EX1_TOL,
                 "n_bins": ns.n_bins,
                 "n_ambiguous_bins": int(smooth.ambiguous_bins.size)}, ns)
    if deviation > EX1_TOL:
        print(f"ex1: FAIL max deviation {deviation:.3e} > {EX1_TOL:.1e}",
              file=_sys.stderr)
        return EXIT_TOLERANCE
    print(f"ex1: max deviation {deviation:.3e} (tol {EX1_TOL:.1e})")
    return EXIT_OK


def cmd_hist(ns: argparse.Namespace) -> int:
    out = Path(ns.out_dir)
    sys_ = sysgen.example1()
    omega0 = float(np.pi)
    rng = sysgen.SeededRng(ns.seed, stream=0)
    samples = perturb.bin_histogram_trials(sys_, omega0, ns.trials, ns.sigma2_e, rng)
    fits = []
    for m in range(samples.shape[0]):
        try:
            fit = perturb.rician_fit(samples[m])
        except ValueError as exc:
            print(f"hist: cannot fit index {m + 1}: {exc}", file=_sys.stderr)
            return EXIT_USAGE
        fits.append({"index": m + 1, **dataclasses.asdict(fit)})
    n_index, n_trials = samples.shape
    columns = {"trial": np.repeat(np.arange(n_trials), n_index),
               "index": np.tile(np.arange(1, n_index + 1), n_trials),
               "value": samples.T.ravel()}
    out.mkdir(parents=True, exist_ok=True)
    _write_table(out / f"hist_samples.{ns.fmt}", columns, "%d,%d,%.17g", ns)
    _write_json(out / "hist_fits.json",
                {"omega0": omega0, "sigma2_e": ns.sigma2_e, "fits": fits,
                 "sample_min": samples.min(axis=1).tolist()}, ns)
    print(f"hist: {ns.trials} trials at omega0=pi, "
          f"min smallest sample {samples[-1].min():.3e}")
    return EXIT_OK


def cmd_perturb(ns: argparse.Namespace) -> int:
    out = Path(ns.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    sys_ = sysgen.bigsys(sysgen.SeededRng(ns.seed, stream=1 << 20))
    system = sys_.to_json_dict()
    system["generator"] = system.pop("meta")
    _write_json(out / "system.json", system, ns, indent=None)
    refs = sysgen.reference_tracks(sys_, ns.n_bins)
    if ns.sigma2_norm is not None:
        settings = [("sigma2_norm", v) for v in ns.sigma2_norm]
    else:
        settings = [("sigma2_e", ns.sigma2_e)]
    for i, (kind, level) in enumerate(settings):
        pcfg = perturb.PerturbConfig(
            trials=ns.trials, n_bins=ns.n_bins, seed=ns.seed + i,
            error_order=ns.order, **{kind: level},
        )
        results, traj = perturb.perturb_and_analyze(sys_, pcfg)
        tag = _level_tag(kind, level)
        _write_traj(out / f"perturb_traj_{tag}.{ns.fmt}", traj, ns,
                    extra={"ref": refs})
        _write_json(
            out / f"perturb_diag_{tag}.json",
            {
                kind: level,
                "trials": [
                    {"trial": r.trial, "sigma2_norm_actual": r.sigma2_norm_actual,
                     **dataclasses.asdict(r.report)}
                    for r in results
                ],
            },
            ns,
        )
        worst_gap = min(r.report.min_gap for r in results)
        worst_small = min(r.report.min_smallest for r in results)
        print(f"perturb: {kind}={level:g} trials={ns.trials} "
              f"min_gap={worst_gap:.3e} min_smallest={worst_small:.3e}")
    return EXIT_OK


def cmd_sysid(ns: argparse.Namespace) -> int:
    out = Path(ns.out_dir)
    sys_ = sysgen.example1()
    a_causal, delay = sysid.causal_version(sys_.A)
    j_hat = ns.order if ns.order is not None else a_causal.order
    try:
        frame = sysid.simulate(sys_, ns.n_samples, ns.sigma2_v,
                               sysgen.SeededRng(ns.seed, stream=0))
        est = sysid.wiener_estimate(frame, j_hat)
    except ValueError as exc:
        print(f"usage error: sysid --N {ns.n_samples} --order {j_hat}: {exc}",
              file=_sys.stderr)
        return EXIT_USAGE
    out.mkdir(parents=True, exist_ok=True)
    err = sysid.error_system(est, sys_)
    report = sysid.mse_decomposition(frame, est, sys_)
    sigma2_norm = perturb.normalized_variance(err, sys_.A)
    _write_json(
        out / "sysid_report.json",
        {
            "N": ns.n_samples,
            "J_hat": j_hat,
            "delay": delay,
            "sigma2_v": ns.sigma2_v,
            **dataclasses.asdict(report),
            "sigma2_norm": sigma2_norm,
            "regularization": est.regularization,
            "condition": est.condition,
        },
        ns,
    )
    _write_json(out / "sysid_error_system.json", err.to_json_dict(), ns,
                indent=None)
    print(f"sysid: N={ns.n_samples} xi_mse={report.xi_mse:.5g} "
          f"error_energy={report.error_energy:.5g} "
          f"gap={report.decomposition_gap:.3g} cond={est.condition:.3g}")
    return EXIT_OK


# -- argument handling -------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


class _UsageError(Exception):
    pass


# dest -> (option strings, least value or None, add_argument keywords) of
# every flag, in the order _validate checks the least values
_FLAGS = {
    "n_bins": (("--bins", "-K"), 1, {"type": int, "default": 4096}),
    "trials": (("--trials",), 1, {"type": int, "default": 1}),
    "n_samples": (("--N",), 1, {"type": int, "default": 100000}),
    "seed": (("--seed",), 0, {"type": int, "default": 0}),
    "order": (("--order", "-J"), 0, {
        "type": int, "help": "error/estimate order (default: system order)"}),
    "sigma2_e": (("--sigma2-e",), 0, {
        "type": float, "help": "per-coefficient complex error variance"}),
    "sigma2_v": (("--sigma2-v",), 0, {"type": float, "default": 0.01}),
    "sigma2_norm": (("--sigma2-norm",), 0, {
        "type": float, "action": "append",
        "help": "target normalized error variance (repeatable)"}),
    "out_dir": (("--out",), None, {"default": "out"}),
    "fmt": (("--format",), None, {"choices": ("csv", "json"), "default": "csv"}),
    "fixture": (("--fixture",), None, {
        "help": "polynomial-matrix JSON replacing the built-in fixture"}),
}

# subcommand -> (help, the dests its cmd_* reads, defaults overriding _FLAGS)
_SUBCOMMANDS = {
    "ex1": ("closed-form fixture vs smooth extraction",
            ("seed", "n_bins", "out_dir", "fmt", "fixture"), {}),
    "hist": ("bin histogram with Rician fits",
             ("seed", "trials", "sigma2_e", "out_dir", "fmt"),
             {"trials": 10000, "sigma2_e": 1e-4}),
    "perturb": ("normalized-variance perturbation sweep",
                ("seed", "n_bins", "trials", "sigma2_norm", "sigma2_e", "order",
                 "out_dir", "fmt"), {}),
    "sysid": ("identification and MSE decomposition",
              ("seed", "n_samples", "sigma2_v", "order", "out_dir", "fmt"), {}),
}


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="polysvd", description=__doc__, allow_abbrev=False,
                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="subcommand", required=True)
    for name, (help_, dests, defaults) in _SUBCOMMANDS.items():
        sp = sub.add_parser(name, help=help_, allow_abbrev=False)
        for dest in dests:
            options, _, kwargs = _FLAGS[dest]
            sp.add_argument(*options, dest=dest, **kwargs)
        sp.set_defaults(**defaults)
    return p


def _validate(ns: argparse.Namespace) -> None:
    """Reject out-of-range values of the flags ``ns`` holds: the rules that
    span flags, then each value below its least in ``_FLAGS``, then file-tag
    collisions; fill in the default ``perturb`` levels."""
    args = vars(ns)
    if ns.subcommand == "perturb":
        if ns.sigma2_norm is None and ns.sigma2_e is None:
            ns.sigma2_norm = [0.3, 1e-2, 1e-4]
        if ns.sigma2_norm is not None and ns.sigma2_e is not None:
            raise _UsageError("--sigma2-norm and --sigma2-e are mutually exclusive")
    if ns.subcommand == "hist" and ns.trials < 100:
        raise _UsageError("hist requires --trials >= 100")
    for dest, (options, least, _) in _FLAGS.items():
        value = args.get(dest)
        if least is None or value is None:
            continue
        for v in value if isinstance(value, list) else (value,):
            if isinstance(v, float) and not np.isfinite(v):
                raise _UsageError(f"{options[0]} must be finite")
            if v < least:
                raise _UsageError(f"{options[0]} must be >= {least}")
    seen = {}
    for level in args.get("sigma2_norm") or ():
        tag = _level_tag("sigma2_norm", level)
        if tag in seen:
            raise _UsageError(f"--sigma2-norm {seen[tag]!r} and {level!r} "
                              f"share the output file tag {tag}")
        seen[tag] = level


_COMMANDS = {"ex1": cmd_ex1, "hist": cmd_hist, "perturb": cmd_perturb,
             "sysid": cmd_sysid}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
        _validate(ns)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=_sys.stderr)
        return EXIT_USAGE
    return _COMMANDS[ns.subcommand](ns)


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
