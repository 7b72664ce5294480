"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/steadiness.py --workloads sweep cli --seeds 1 2 3 4 5

Runs ``run.py --trace 0`` once per (workload, seed), one run at a time, and
reports for every end-to-end metric the median of the runs and the distance
between their first and third quartiles (``statistics.quantiles(n=4)``) as a
share of that median, next to the metric's bound from BENCHMARK.json.  The
runs' JSON lines are kept in ``.perfbench_out/steadiness.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = p.parse_args()

    log = ROOT / ".perfbench_out" / "steadiness.jsonl"
    log.parent.mkdir(exist_ok=True)
    worst = 0.0
    for workload in args.workloads:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in args.seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            line = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "{}"
            with log.open("a") as fh:
                fh.write(json.dumps({"workload": workload, "seed": seed,
                                     "rc": proc.returncode, "result": line}) + "\n")
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit code {proc.returncode}")
                return 1
            for name, m in json.loads(line)["metrics"].items():
                values[name].append(m["value"])
        print(f"{workload} ({len(args.seeds)} seeds, {args.seconds} s runs)")
        for m in spec["end_to_end"]:
            xs = values[m["name"]]
            med = statistics.median(xs)
            q1, _, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med
            if m["name"] != "setup_s":
                worst = max(worst, spread / m["bound"])
            print(f"  {m['name']:<12} median {med:12.5g} {m['unit']:<4} "
                  f"IQR/median {spread:7.4f}  bound {m['bound']:.2f}  "
                  f"min {min(xs):.5g} max {max(xs):.5g}")
    print(f"largest spread as a share of its bound (setup_s excluded): {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
