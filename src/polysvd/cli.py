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
--format picks the format of the tables only: ex1's two track files,
hist_samples and perturb_traj_*.  Every other file is JSON whatever the
flag says: ex1_summary, hist_fits, system, perturb_diag_* and both sysid
files, so sysid shows the flag only in its echoed config.

Every output file embeds the seed, the parsed arguments and the package
version; a rerun rewrites it byte for byte, noting the overwrite on stderr.
A library warning, such as an ambiguous association, is one "note:" line.
Each subcommand returns its stdout summary or raises; main alone prints
it or the one failure line on stderr and picks the exit code: 0 success;
1 "usage error: ..." or 2 "numerical failure: ...; not written", before
anything is written; 2 a failed check ("ex1: FAIL ...") after writing.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys as _sys
import warnings
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__, anasvd, perturb, sysgen, sysid
from .polymat import PolyMatrix

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_TOLERANCE = 2

EX1_TOL = 1e-8


class _UsageError(Exception):
    """Bad input: exit 1 before anything is written."""


class _CheckFailed(Exception):
    """A numerical check failed after the outputs were written: exit 2."""


def _meta(ns: argparse.Namespace) -> dict:
    return {"seed": ns.seed, "config": vars(ns), "version": __version__}


def _meta_line(ns: argparse.Namespace) -> str:
    return "# " + json.dumps(_meta(ns), sort_keys=True)


def _json_text(path: Path, payload: dict, ns: argparse.Namespace,
               indent: Optional[int] = 1) -> str:
    payload = {"meta": _meta(ns), **payload}
    try:  # JSON has no NaN or infinity
        text = json.dumps(payload, sort_keys=True, indent=indent, allow_nan=False)
    except ValueError:
        raise FloatingPointError(f"{path} would hold a non-finite number") from None
    return text + "\n"


def _check_finite(path: Path, *arrays: np.ndarray) -> None:
    if not all(np.isfinite(a).all() for a in arrays):
        raise FloatingPointError(f"{path} would hold a non-finite number")


def _json_output(path: Path, payload: dict, ns: argparse.Namespace,
                 indent: Optional[int] = 1):
    text = _json_text(path, payload, ns, indent)
    return path, lambda fh: fh.write(text)


def _table_output(path: Path, columns: dict, ns: argparse.Namespace):
    """Tabular output honoring --format; ``columns`` maps names to arrays."""
    _check_finite(path, *columns.values())

    def write(fh):
        if ns.fmt == "csv":
            table = np.column_stack(list(columns.values()))
            anasvd._write_rows(fh, list(columns), table, _meta_line(ns))
        else:
            rows = list(zip(*(col.tolist() for col in columns.values())))
            fh.write(_json_text(path, {"columns": list(columns), "rows": rows}, ns))
    return path, write


def _traj_output(path: Path, traj: anasvd.SvTrajectories, ns: argparse.Namespace,
                 extra: Optional[dict] = None):
    extra = extra or {}
    _check_finite(path, traj.omegas, traj.values, *extra.values())

    def write(fh):
        if ns.fmt == "csv":
            anasvd.write_trajectory_csv(traj, fh, extra=extra,
                                        meta_line=_meta_line(ns))
        else:
            payload = {"mode": traj.mode, "omega": traj.omegas.tolist(),
                       "tracks": traj.values.tolist()}
            for name, arr in extra.items():
                payload[name] = arr.tolist()
            fh.write(_json_text(path, payload, ns))
    return path, write


def _write_outputs(out: Path, outputs: list) -> None:
    """Create ``out`` and write each (path, writer) of the *_output helpers
    in order, noting each overwrite on stderr.  The helpers refuse a
    non-finite number when called, so a command that builds all its outputs
    first writes nothing when one is refused.  So is an ``out`` that is not
    a directory or an output path that is one; that, and an OSError from
    creating or opening a path, raise _UsageError."""
    if out.exists() and not out.is_dir():
        raise _UsageError(f"cannot write {out}: not a directory")
    for path, _ in outputs:
        if path.is_dir():
            raise _UsageError(f"cannot write {path}: is a directory")
    try:
        out.mkdir(parents=True, exist_ok=True)
        for path, write in outputs:
            if path.exists():
                print(f"note: overwriting {path}", file=_sys.stderr)
            with path.open("w") as fh:
                write(fh)
    except OSError as exc:
        raise _UsageError(
            f"cannot write {exc.filename or out}: {exc.strerror or exc}") from None


def _level_tag(kind: str, level: float) -> str:
    """File-name tag of one perturbation level, e.g. s2n_0p01 or s2e_1em05."""
    prefix = {"sigma2_norm": "s2n", "sigma2_e": "s2e"}[kind]
    return prefix + "_" + f"{level:g}".replace(".", "p").replace("-", "m")


# -- subcommands -------------------------------------------------------


def cmd_ex1(ns: argparse.Namespace) -> str:
    out = Path(ns.out_dir)
    fixture = sysgen.example1()
    if ns.fixture is not None:
        try:
            a = PolyMatrix.from_json_dict(json.loads(Path(ns.fixture).read_text()))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise _UsageError(f"cannot read fixture {ns.fixture}: {exc}") from None
        if (a.rows, a.cols) != (fixture.A.rows, fixture.A.cols):
            raise _UsageError(f"fixture must be {fixture.A.rows}x{fixture.A.cols}")
    else:
        a = fixture.A
    try:
        bins = anasvd.binwise_svd(a, ns.n_bins)
    except ValueError as exc:  # finite taps whose bin sums overflow
        raise _UsageError(f"fixture {ns.fixture}: {exc}") from None
    smooth = anasvd.smooth_trajectories(bins)
    forms = np.stack([f(smooth.omegas) for f in fixture.closed_forms])
    closed = anasvd.SvTrajectories(mode="smooth", omegas=smooth.omegas.copy(),
                                   values=forms)
    deviation = anasvd.track_deviation(smooth.values, forms)
    _write_outputs(out, [
        _traj_output(out / f"ex1_closed_forms.{ns.fmt}", closed, ns),
        _traj_output(out / f"ex1_smooth.{ns.fmt}", smooth, ns),
        _json_output(out / "ex1_summary.json",
                     {"max_deviation": deviation, "tolerance": EX1_TOL,
                      "n_bins": ns.n_bins,
                      "n_ambiguous_bins": int(smooth.ambiguous_bins.size)}, ns),
    ])
    if deviation > EX1_TOL:
        raise _CheckFailed(f"ex1: FAIL max deviation {deviation:.3e} > {EX1_TOL:.1e}")
    return f"ex1: max deviation {deviation:.3e} (tol {EX1_TOL:.1e})"


def cmd_hist(ns: argparse.Namespace) -> str:
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
            raise _UsageError(f"hist: cannot fit index {m + 1}: {exc}") from None
        fits.append({"index": m + 1, **dataclasses.asdict(fit)})
    n_index, n_trials = samples.shape
    columns = {"trial": np.repeat(np.arange(n_trials), n_index),
               "index": np.tile(np.arange(1, n_index + 1), n_trials),
               "value": samples.T.ravel()}
    _write_outputs(out, [
        _table_output(out / f"hist_samples.{ns.fmt}", columns, ns),
        _json_output(out / "hist_fits.json",
                     {"omega0": omega0, "sigma2_e": ns.sigma2_e, "fits": fits,
                      "sample_min": samples.min(axis=1).tolist()}, ns),
    ])
    return (f"hist: {ns.trials} trials at omega0=pi, "
            f"min smallest sample {samples[-1].min():.3e}")


def cmd_perturb(ns: argparse.Namespace) -> str:
    out = Path(ns.out_dir)
    sys_ = sysgen.bigsys(sysgen.SeededRng(ns.seed, stream=1 << 20))
    system = sys_.to_json_dict()
    system["generator"] = system.pop("meta")
    outputs = [_json_output(out / "system.json", system, ns, indent=None)]
    lines = []
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
        outputs.append(_traj_output(out / f"perturb_traj_{tag}.{ns.fmt}", traj,
                                    ns, extra={"ref": refs}))
        trials = [{"trial": r.trial, "sigma2_norm_actual": r.sigma2_norm_actual,
                   **dataclasses.asdict(r.report)} for r in results]
        outputs.append(_json_output(out / f"perturb_diag_{tag}.json",
                                    {kind: level, "trials": trials}, ns))
        worst_gap = min(r.report.min_gap for r in results)
        worst_small = min(r.report.min_smallest for r in results)
        lines.append(f"perturb: {kind}={level:g} trials={ns.trials} "
                     f"min_gap={worst_gap:.3e} min_smallest={worst_small:.3e}")
    _write_outputs(out, outputs)
    return "\n".join(lines)


def cmd_sysid(ns: argparse.Namespace) -> str:
    out = Path(ns.out_dir)
    sys_ = sysgen.example1()
    a_causal, delay = sysid.causal_version(sys_.A)
    j_hat = ns.order if ns.order is not None else a_causal.order
    try:
        frame = sysid.simulate(sys_, ns.n_samples, ns.sigma2_v,
                               sysgen.SeededRng(ns.seed, stream=0))
        est = sysid.wiener_estimate(frame, j_hat)
    except ValueError as exc:
        raise _UsageError(f"sysid --N {ns.n_samples} --order {j_hat}: {exc}") from None
    err = sysid.error_system(est, sys_)
    report = sysid.mse_decomposition(frame, est, sys_)
    _write_outputs(out, [
        _json_output(out / "sysid_report.json",
                     {"N": ns.n_samples, "J_hat": j_hat, "delay": delay,
                      "sigma2_v": ns.sigma2_v, **dataclasses.asdict(report),
                      "sigma2_norm": perturb.normalized_variance(err, sys_.A),
                      "regularization": est.regularization,
                      "condition": est.condition}, ns),
        _json_output(out / "sysid_error_system.json", err.to_json_dict(), ns,
                     indent=None),
    ])
    return (f"sysid: N={ns.n_samples} xi_mse={report.xi_mse:.5g} "
            f"error_energy={report.error_energy:.5g} "
            f"gap={report.decomposition_gap:.3g} cond={est.condition:.3g}")


# -- argument handling -------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


# dest -> (option strings, least value or None, greatest value or None,
# add_argument keywords) of every flag, in the order _validate checks the
# bounds; a greatest value stops an oversized run before anything is written
_FLAGS = {
    "n_bins": (("--bins", "-K"), 1, 2**20, {"type": int, "default": 4096}),
    "trials": (("--trials",), 1, 10**6, {"type": int, "default": 1}),
    "n_samples": (("--N",), 1, 10**7, {"type": int, "default": 100000}),
    "seed": (("--seed",), 0, None, {"type": int, "default": 0}),
    "order": (("--order", "-J"), 0, 1000, {
        "type": int, "help": "error/estimate order (default: system order)"}),
    "sigma2_e": (("--sigma2-e",), 0, None, {
        "type": float, "help": "per-coefficient complex error variance"}),
    "sigma2_v": (("--sigma2-v",), 0, None, {"type": float, "default": 0.01}),
    "sigma2_norm": (("--sigma2-norm",), 0, None, {
        "type": float, "action": "append",
        "help": "target normalized error variance (repeatable)"}),
    "out_dir": (("--out",), None, None, {"default": "out"}),
    "fmt": (("--format",), None, None, {"choices": ("csv", "json"),
                                        "default": "csv"}),
    "fixture": (("--fixture",), None, None, {
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
            options, _, _, kwargs = _FLAGS[dest]
            sp.add_argument(*options, dest=dest, **kwargs)
        sp.set_defaults(**defaults)
    return p


def _validate(ns: argparse.Namespace) -> None:
    """Reject out-of-range values of the flags ``ns`` holds: the rules that
    span flags, then each value outside its bounds in ``_FLAGS``, then
    file-tag collisions; fill in the default ``perturb`` levels."""
    args = vars(ns)
    if ns.subcommand == "perturb":
        if ns.sigma2_norm is None and ns.sigma2_e is None:
            ns.sigma2_norm = [0.3, 1e-2, 1e-4]
        if ns.sigma2_norm is not None and ns.sigma2_e is not None:
            raise _UsageError("--sigma2-norm and --sigma2-e are mutually exclusive")
    if ns.subcommand == "hist" and ns.trials < 100:
        raise _UsageError("hist requires --trials >= 100")
    for dest, (options, least, greatest, _) in _FLAGS.items():
        value = args.get(dest)
        if least is None or value is None:
            continue
        for v in value if isinstance(value, list) else (value,):
            if isinstance(v, float) and not np.isfinite(v):
                raise _UsageError(f"{options[0]} must be finite")
            if v < least:
                raise _UsageError(f"{options[0]} must be >= {least}")
            if greatest is not None and v > greatest:
                raise _UsageError(f"{options[0]} must be <= {greatest}")
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
        with np.errstate(all="ignore"), warnings.catch_warnings():
            # a library warning, such as AssociationAmbiguous, is one line
            warnings.showwarning = lambda message, *_: print(
                f"note: {message}", file=_sys.stderr)
            summary = _COMMANDS[ns.subcommand](ns)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=_sys.stderr)
        return EXIT_USAGE
    except FloatingPointError as exc:
        # a non-finite result is reported once, before anything is written
        print(f"numerical failure: {exc}; not written", file=_sys.stderr)
        return EXIT_TOLERANCE
    except _CheckFailed as exc:
        print(exc, file=_sys.stderr)
        return EXIT_TOLERANCE
    print(summary)
    return EXIT_OK


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
