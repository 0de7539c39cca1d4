#!/usr/bin/env python3
"""Run one workload on several seeds and report each end-to-end metric's
median and spread: the distance between the first and third quartile
(`statistics.quantiles(values, n=4)`) as a share of the median, next to
the metric's bound in BENCHMARK.json.

Run from the repository root:

    python3 perfbench/steady.py serve_hot 1 2 3 4 5
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path


def main():
    if len(sys.argv) < 4:
        sys.exit("usage: steady.py WORKLOAD SEED SEED [SEED ...]")
    workload, seeds = sys.argv[1], sys.argv[2:]
    spec = json.loads(Path("BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values = {}
    for seed in seeds:
        cmd = ["python3", "perfbench/run.py", "--workload", workload, "--seed", seed,
               "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        out = subprocess.run(cmd, capture_output=True, text=True)
        last = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else ""
        if out.returncode != 0 or not last.startswith("{"):
            sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stdout[-2000:]}\n{out.stderr[-2000:]}")
        result = json.loads(last)
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    print(f"{'metric':<18} {'median':>14} {'spread':>8} {'bound':>6}  values")
    for name, vs in values.items():
        med = statistics.median(vs)
        q = statistics.quantiles(vs, n=4)
        spread = (q[2] - q[0]) / med if med else float("inf")
        bound = bounds.get(name, float("nan"))
        flag = "" if spread < bound / 3 else "  <-- above a third of its bound"
        shown = " ".join(f"{v:.4g}" for v in vs)
        print(f"{name:<18} {med:>14.6g} {spread:>8.3f} {bound:>6}  {shown}{flag}")


if __name__ == "__main__":
    main()
