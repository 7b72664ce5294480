"""polysvd benchmark: one workload per invocation, one JSON result line.

    python3 perfbench/run.py --workload {sweep,track,ident,cli} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/`` (nothing is installed).  This parent process uses only the standard
library.  It starts at most one child process at a time, each with the BLAS
thread count pinned to 1:

* set-up samples: fresh ``child.py setup`` processes, timed from spawn to
  "fixtures ready", after one untimed warm-up spawn (it also writes the
  package's bytecode cache);
* sweep / track / ident: one ``child.py run`` process runs the closed loop
  and checks every operation's outputs;
* cli: the four subcommands at their default arguments, each in a fresh
  ``python3 -m polysvd.cli`` process, one at a time; every pass must exit 0,
  write the expected files, and reproduce the first pass byte for byte.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json; ``--trace 1``
alternates untraced and traced passes and prints the per-layer metrics (per
traced pass) plus the tracing overhead.  Per-run details, the
machine record and the raw spans go to ``.perfbench_out/``.  The exit code is
0 only when every check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
OUT = ROOT / ".perfbench_out"

WORKLOADS = ("sweep", "track", "ident", "cli")
# unit of work counted by work_per_s, per workload
WORK_UNIT = {"sweep": "trial", "track": "bin", "ident": "identification",
             "cli": "subcommand"}
# workload-specific names shown in the report for the generic loop figures
ALIASES = {"sweep": ("trials_per_s", "batch_ms_p50"),
           "track": ("bins_per_s", "pass_ms_p50"),
           "ident": ("idents_per_s", "ident_ms_p50"),
           "cli": ("cmds_per_s", "suite_ms_p50")}
SETUP_SAMPLES = 3  # set-up spawns per run (the main child adds one more)
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
CHILD_TIMEOUT_S = 150

# reference kernel timed around each CLI subcommand: a cold interpreter start
# plus a numpy import, the same kind of work as the subcommand's start-up.
# Timed subprocesses always get pipes: without them, waiting with a timeout
# polls in steps of up to 50 ms, which quantizes the measured time.
CLI_REFERENCE = (sys.executable, "-c", "import numpy")

# CLI subcommands at their default arguments and the files each must write
CLI_FILES = {
    "ex1": {"ex1_closed_forms.csv", "ex1_smooth.csv", "ex1_summary.json"},
    "hist": {"hist_samples.csv", "hist_fits.json"},
    "perturb": {"system.json"} | {f"perturb_{kind}_s2n_{tag}.{ext}"
                                  for tag in ("0p3", "0p01", "0p0001")
                                  for kind, ext in (("traj", "csv"), ("diag", "json"))},
    "sysid": {"sysid_report.json", "sysid_error_system.json"},
}


class BenchError(Exception):
    """The benchmark itself could not run (not a failed output check)."""


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def spawn_ready(argv, env):
    """Start a child, wait for its first stdout line; returns (proc, seconds, line)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=env, text=True)
    try:
        line = proc.stdout.readline()
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    return proc, time.perf_counter() - t0, line


def finish(proc, what: str) -> str:
    """Read the rest of a child's stdout and reap it; raise on failure."""
    try:
        rest, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except BaseException:
        proc.kill()
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise BenchError(f"{what} exited with code {proc.returncode}")
    return rest


def setup_sample(args, env) -> dict:
    proc, secs, line = spawn_ready([sys.executable, str(CHILD), "setup", "--workload",
                                    args.workload, "--seed", str(args.seed)], env)
    finish(proc, "set-up child")
    info = json.loads(line)
    info["setup_s"] = secs
    return info


def run_in_process(args, env, spans_path: Path):
    """Closed loop in one child; returns (set-up sample, result dict)."""
    argv = [sys.executable, str(CHILD), "run", "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--spans", str(spans_path)]
    proc, secs, line = spawn_ready(argv, env)
    if not line:
        finish(proc, "workload child")
        raise BenchError("workload child printed nothing")
    info = json.loads(line)
    info["setup_s"] = secs
    rest = finish(proc, "workload child")
    return info, json.loads(rest.strip().splitlines()[-1])


def _digest(directory: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(directory.iterdir()):
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def run_cli(args, env, spans_path: Path) -> dict:
    """Closed loop of CLI passes; returns a dict shaped like the child's result."""
    ops, failures = [], []

    def reference_ms():
        t = time.perf_counter()
        subprocess.run(CLI_REFERENCE, env=env, check=True, timeout=CHILD_TIMEOUT_S,
                       stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        ms = (time.perf_counter() - t) * 1e3
        if ops and ops[-1][5] is None:
            ops[-1][5] = ms
        return ms

    stats, first_digest, bindings = {}, {}, []
    items = failed = bytes_per_pass = 0
    t_loop = time.perf_counter()
    n = 0
    # a traced run needs one untraced and one traced pass at least
    while time.perf_counter() - t_loop < args.seconds or n < 1 + args.trace:
        traced = bool(args.trace) and n % 2 == 1
        bytes_per_pass = 0
        for sub, expected in CLI_FILES.items():
            out_dir = OUT / "cli" / sub
            shutil.rmtree(out_dir, ignore_errors=True)
            cli_argv = [sub, "--seed", str(args.seed), "--out", str(out_dir)]
            if traced:
                argv = [sys.executable, str(CHILD), "cli", "--spans", str(spans_path), *cli_argv]
            else:
                argv = [sys.executable, "-m", "polysvd.cli", *cli_argv]
            ref_ms = reference_ms()
            t0 = time.perf_counter()
            proc = subprocess.run(argv, env=env, stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
            ms = (time.perf_counter() - t0) * 1e3
            items += 1
            bad = []
            if proc.returncode != 0:
                bad.append(f"exit code {proc.returncode}: {proc.stderr.strip()[-200:]}")
            files = {p.name for p in out_dir.iterdir()} if out_dir.is_dir() else set()
            if files != expected:
                bad.append(f"files {sorted(files ^ expected)} missing or unexpected")
            elif first_digest.setdefault(sub, _digest(out_dir)) != _digest(out_dir):
                bad.append("output bytes differ from the first pass")
            if bad:
                failed += 1
                failures.append(f"cli pass {n} {sub}: " + "; ".join(bad))
                continue
            ops.append([sub, ms, traced, 1, ref_ms, None])
            bytes_per_pass += sum((out_dir / f).stat().st_size for f in files)
            if traced:
                traced_out = json.loads(proc.stdout.strip().splitlines()[-1])
                bindings = traced_out["bindings"]
                for layer, st in traced_out["stats"].items():
                    acc = stats.setdefault(layer, {})
                    for key, value in st.items():
                        acc[key] = acc.get(key, 0) + value
        n += 1
    reference_ms()
    return {"ops": ops, "items": items, "failed": failed, "failures": failures[:20],
            "bytes_per_pass": bytes_per_pass,
            "files_per_pass": sum(len(f) for f in CLI_FILES.values()),
            "stats": stats, "setup_stats": {}, "bindings": bindings}


def percentile_hi(values):
    """(p, value) for the highest standard percentile with >= 10 samples beyond it."""
    xs = sorted(values)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0):
        if len(xs) * (1.0 - p / 100.0) >= 10:
            return p, xs[max(0, math.ceil(p / 100.0 * len(xs)) - 1)]
    return None, None


def loop_summary(ops, traced: bool):
    """Per-kind latencies and pass-level figures of the traced or untraced ops.

    A pass is one operation of each kind.  pass_rel sums, over the kinds, the
    median of each operation's time divided by the mean of the reference
    kernel times measured just before and just after it; pass_ms_p50 sums
    each kind's median time and pass_ms_best each kind's fastest.
    """
    by_kind = {}
    for kind, ms, was_traced, _, ref_before, ref_after in ops:
        if was_traced == traced:
            by_kind.setdefault(kind, []).append((ms, 0.5 * (ref_before + ref_after)))
    if not by_kind:
        return None
    sel = [o for o in ops if o[2] == traced]
    kinds = {}
    for k, v in by_kind.items():
        ms = [m for m, _ in v]
        kinds[k] = {"n": len(v), "min": min(ms), "p50": statistics.median(ms),
                    "hi": percentile_hi(ms), "ref_ms_p50": statistics.median(r for _, r in v),
                    "rel_p50": statistics.median(m / r for m, r in v)}
    return {"kinds": kinds, "passes": min(k["n"] for k in kinds.values()),
            "pass_rel": sum(k["rel_p50"] for k in kinds.values()),
            "pass_ms_p50": sum(k["p50"] for k in kinds.values()),
            "pass_ms_best": sum(k["min"] for k in kinds.values()),
            "work_per_s": sum(o[3] for o in sel) / (sum(o[1] for o in sel) * 1e-3)}


def per_layer(name: str, res: dict, setups: list, untraced: dict, traced: dict) -> float:
    """Value of one per-layer metric; loop layers are per traced pass."""
    if name == "cli.import_s":
        return statistics.median(s["import_s"] for s in setups)
    if name == "setup.fixture_s":
        return statistics.median(s["fixture_s"] for s in setups)
    if name == "cli.bytes_written":
        return res.get("bytes_per_pass", 0)
    if name == "cli.files_written":
        return res.get("files_per_pass", 0)
    if name.startswith("cli.") and name.endswith("_ms_p50"):
        kind = untraced["kinds"].get(name[4:-7])
        return kind["p50"] if kind else 0.0
    if name.startswith("trace."):
        return {"trace.passes": traced["passes"],
                "trace.not_intercepted": len(res["not_intercepted"]),
                "trace.pass_ms_p50": traced["pass_ms_p50"],
                "trace.overhead_frac": traced["pass_rel"] / untraced["pass_rel"] - 1.0}[name]
    layer, stat = name.rsplit(".", 1)
    if layer.startswith("setup."):
        return res["setup_stats"].get(layer[6:], {}).get(stat, 0)
    return res["stats"].get(layer, {}).get(stat, 0) / traced["passes"]


def machine_record(setups, load_start, env) -> dict:
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": usable,
        "cpu_count": os.cpu_count(),
        "packages": setups[0]["versions"],
        "polysvd_file": setups[0]["polysvd_file"],
        "num_threads_env_inherited": {k: v for k, v in os.environ.items()
                                      if k.endswith("_NUM_THREADS")},
        "num_threads_env_children": {k: env[k] for k in sorted(env)
                                     if k.endswith("_NUM_THREADS") or k in THREAD_VARS},
        "blas_threads": 1,
        "max_processes": 2,  # this parent (waiting) plus one child at a time
        "loadavg_start": load_start,
        "loadavg_end": list(os.getloadavg()),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "polysvd" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} is not a polysvd checkout (src/polysvd or BENCHMARK.json "
              "missing)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans_path = OUT / f"spans-{stem}.jsonl"
    spans_path.unlink(missing_ok=True)
    load_start = list(os.getloadavg())
    env = child_env()
    setup_sample(args, env)  # warm-up: bytecode cache and file cache
    setups = [setup_sample(args, env) for _ in range(SETUP_SAMPLES)]
    if args.workload == "cli":
        res = run_cli(args, env, spans_path)
    else:
        info, res = run_in_process(args, env, spans_path)
        setups.append(info)
    untraced = loop_summary(res["ops"], False)
    traced = loop_summary(res["ops"], True)
    if untraced is None or (args.trace and traced is None):
        raise BenchError("no operation completed; raise --seconds")
    for s in setups:
        if not Path(s["polysvd_file"]).resolve().is_relative_to(ROOT / "src"):
            raise BenchError(f"imported polysvd from {s['polysvd_file']}, not from this checkout")
    if args.trace:
        from tracer import not_intercepted

        res["not_intercepted"] = not_intercepted(ROOT / "src")

    rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    report = {"setup_s": statistics.median(s["setup_s"] for s in setups),
              "peak_rss_mb": rss_mb, "pass_rel": untraced["pass_rel"],
              "pass_ms_p50": untraced["pass_ms_p50"], "pass_ms_best": untraced["pass_ms_best"],
              "work_per_s": untraced["work_per_s"]}
    if args.trace:
        metrics = {m["name"]: per_layer(m["name"], res, setups, untraced, traced)
                   for m in declared}
    else:
        metrics = {m["name"]: report[m["name"]] for m in declared}
    attempted, failed = res["items"], res["failed"]
    correct = failed == 0

    rate_alias, pass_alias = ALIASES[args.workload]
    lines = [f"workload {args.workload} seed {args.seed} trace {args.trace}: "
             f"{untraced['passes']} untraced passes"
             + (f", {traced['passes']} traced passes" if traced else ""),
             f"  setup_s        {report['setup_s']:.4f} s   (median of {len(setups)} spawns)",
             f"  peak_rss_mb    {rss_mb:.1f} MB",
             f"  fail_frac      {failed / attempted:.4g}   ({failed} of {attempted} checked items)",
             f"  pass_rel       {report['pass_rel']:.5f}     (pass time / reference kernel time)",
             f"  {pass_alias:<14} {report['pass_ms_p50']:.4f} ms  (pass_ms_p50)",
             f"  pass_ms_best   {report['pass_ms_best']:.4f} ms  (sum of per-kind minima)",
             f"  {rate_alias:<14} {report['work_per_s']:.6g} 1/s  "
             f"(work_per_s, {WORK_UNIT[args.workload]}s)"]
    for kind, k in untraced["kinds"].items():
        hi = f"  p{k['hi'][0]:g} {k['hi'][1]:.4f}" if k["hi"][0] else ""
        lines.append(f"    {kind + '_ms':<12} p50 {k['p50']:.4f}  min {k['min']:.4f}"
                     f"  n={k['n']}{hi}  reference p50 {k['ref_ms_p50']:.4f}")
    if args.trace:
        lines.append(f"  tracing overhead {100 * metrics['trace.overhead_frac']:+.2f} % of "
                     f"pass_rel (traced pass p50 {metrics['trace.pass_ms_p50']:.3f} ms)")
        lines += [f"  not intercepted: {x}" for x in res["not_intercepted"]]
    lines += [f"  FAILED: {msg}" for msg in res["failures"]]

    record = machine_record(setups, load_start, env)
    (OUT / f"machine-{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    (OUT / f"results-{stem}.json").write_text(json.dumps(
        {"args": vars(args), "report": report, "metrics": metrics, "setups": setups,
         "fail_frac": failed / attempted, "attempted": attempted, "failed": failed,
         "untraced": untraced, "traced": traced,
         "result": {k: v for k, v in res.items() if k != "ops"}, "ops": res["ops"]},
        indent=1) + "\n")
    print("\n".join(lines))
    print(f"  machine: nproc={record['nproc']} blas={record['packages']['blas_version']} "
          f"threads=1 load {load_start[0]:.2f}->{record['loadavg_end'][0]:.2f}; "
          f"details in {OUT.name}/")
    units = {m["name"]: m["unit"] for m in declared}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
