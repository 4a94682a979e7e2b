#!/usr/bin/env python3
"""Run the benchmark once per seed and summarise each end-to-end metric.

Seeds are the outer loop: each seed runs every workload before the next
seed starts, so a slow spell of the host falls on all workloads alike
instead of on several seeds of one. For every workload and metric the
summary gives the median and quartiles of the runs
(statistics.quantiles(values, n=4)), and the quartile spread as a share of
the median next to the metric's bound in BENCHMARK.json. This is the
evidence the bounds rest on (see README.md); rerun it after changing the
benchmark.

Usage (from the repository root):
    python3 perfbench/steadiness.py --seeds 1-10 [--workloads a,b]
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", help="comma-separated subset")
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workloads.split(",") if args.workloads else \
        [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]
    values = {w: {m["name"]: [] for m in metrics} for w in workloads}
    for seed in parse_seeds(args.seeds):
        for w in workloads:
            cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", w,
                   "--seed", str(seed), "--trace", "0"]
            out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                 stderr=subprocess.DEVNULL, text=True)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if out.returncode != 0 or not result["correct"]:
                sys.exit(f"{w} seed {seed}: run failed: {result}")
            for name, m in result["metrics"].items():
                values[w][name].append(m["value"])
            print(f"{w} seed {seed}: " + ", ".join(
                f"{k}={v[-1]:.6g}" for k, v in values[w].items()), flush=True)
    rows = []
    for w in workloads:
        for m in metrics:
            v = values[w][m["name"]]
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else 0.0
            rows.append((w, m["name"], m["unit"], med, q1, q3, spread, m["bound"]))
    lines = ["| workload | metric | unit | median | Q1 | Q3 | (Q3-Q1)/median | bound |",
             "|---|---|---|---|---|---|---|---|"]
    for w, name, unit, med, q1, q3, spread, bound in rows:
        lines.append(f"| {w} | {name} | {unit} | {med:.6g} | {q1:.6g} | {q3:.6g} | "
                     f"{spread:.4f} | {bound} |")
    print("\n".join(lines))


if __name__ == "__main__":
    main()
