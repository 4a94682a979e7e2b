#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the HMC memory-coalescer simulator.

Builds perfbench/ (the simulator sources plus the hmcc_perfbench binary) into
.bench_build/ at the repository root, runs one named workload through the
full system::System and prints, as the last line of stdout, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json (untraced runs;
peak RSS from a separate process that runs the workload once). --trace 1
reports the per-layer metrics from a traced run, writes its spans as
chrome-trace JSON under .bench_build/spans/ and prints each layer's self
time. --smoke runs every workload at a tiny size and checks that every
metric prints with its unit and that the span files parse.

Usage (from the repository root):
    python3 perfbench/run.py --workload hpcg_coalescer --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "hmcc_perfbench"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    """A build or run failure: no result line is printed."""


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not (BUILD / "CMakeCache.txt").exists():
        configure += ["-G", "Ninja"]
    for cmd in (configure, ["cmake", "--build", str(BUILD), "-j", jobs]):
        try:
            subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, check=True,
                           timeout=BUILD_TIMEOUT_S)
        except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
                FileNotFoundError) as e:
            raise BenchError(f"build failed: {e}") from e


def run_binary(mode, workload, seed, seconds=None, accesses=None, spans=None):
    """Run the hmcc_perfbench binary once; return its JSON line (checks may fail)."""
    cmd = [str(BINARY), mode, f"workload={workload}", f"seed={seed}"]
    if seconds is not None:
        cmd.append(f"seconds={seconds}")
    if accesses is not None:
        cmd.append(f"accesses={accesses}")
    if spans is not None:
        cmd.append(f"spans={spans}")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"{mode} run of {workload} timed out") from e
    lines = proc.stdout.strip().splitlines()
    try:
        out = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError) as e:
        raise BenchError(f"{mode} run of {workload} exited {proc.returncode} "
                         "without a result") from e
    if proc.returncode not in (0, 1) or out.get("mode") != mode:
        raise BenchError(f"{mode} run of {workload} exited {proc.returncode}")
    return out


def self_times(spans_path):
    """Per span name: (count, total seconds, self seconds). Self time is a
    span's duration minus the part its child spans cover (children nest
    strictly and run one at a time)."""
    with open(spans_path) as f:
        events = json.load(f)["traceEvents"]
    covered = defaultdict(float)
    for e in events:
        if e["args"]["parent"]:
            covered[e["args"]["parent"]] += e["dur"]
    table = defaultdict(lambda: [0, 0.0, 0.0])
    for e in events:
        row = table[e["name"]]
        row[0] += 1
        row[1] += e["dur"] * 1e-6
        row[2] += (e["dur"] - covered[e["args"]["id"]]) * 1e-6
    return dict(table)


def print_self_times(table):
    total = sum(row[2] for row in table.values()) or 1.0
    print(f"{'span':<22} {'count':>6} {'total s':>10} {'self s':>10} {'self %':>7}")
    for name, (count, tot, self_s) in sorted(table.items(),
                                             key=lambda kv: -kv[1][2]):
        share = 100 * self_s / total
        print(f"{name:<22} {count:>6} {tot:>10.4f} {self_s:>10.4f} {share:>6.1f}%")


def measure(spec, workload, seed, seconds, trace, accesses=None):
    """Run one workload; return (result dict, spans path or None). Only the
    smoke test passes accesses, which replaces the workload's committed size."""
    failures = []
    if trace:
        spans = BUILD / "spans" / f"{workload}-seed{seed}.json"
        spans.parent.mkdir(parents=True, exist_ok=True)
        runs = [run_binary("traced", workload, seed, seconds, accesses, spans)]
        wanted = spec["per_layer"]
    else:
        spans = None
        runs = [run_binary("rss", workload, seed, accesses=accesses),
                run_binary("e2e", workload, seed, seconds, accesses)]
        if runs[0]["digest"] != runs[1]["digest"]:
            failures.append("simulated counters differ between processes")
        wanted = spec["end_to_end"]
    values = {}
    for r in runs:
        values.update(r["metrics"])
        failures += r["failures"]
    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            failures.append(f"metric {m['name']} was not measured")
            continue
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    if failures and failed == 0:
        failed = 1
    result = {"correct": not failures, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    for f in failures:
        print(f"FAILED CHECK: {f}")
    return result, spans


def print_metrics(result):
    for name, m in result["metrics"].items():
        print(f"{name:<34} {m['value']:>18.6g} {m['unit']}")


def smoke(spec):
    """Every workload at a tiny size: each metric prints with its unit and
    the span file parses."""
    problems = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            result, spans = measure(spec, w["name"], 1, 0.2, trace, accesses=300)
            wanted = spec["per_layer" if trace else "end_to_end"]
            for m in wanted:
                got = result["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"] or \
                        not isinstance(got["value"], (int, float)):
                    problems.append(f"{w['name']}: {m['name']} missing or unitless")
            if not result["correct"]:
                problems.append(f"{w['name']} trace={trace}: a check failed")
            if spans is not None:
                try:
                    table = self_times(spans)
                except (OSError, ValueError, KeyError) as e:
                    problems.append(f"{w['name']}: span file does not parse: {e}")
                else:
                    if "system.run" not in table:
                        problems.append(f"{w['name']}: no system.run span")
        print(f"smoke {w['name']}: done")
    for p in problems:
        print(f"SMOKE FAILURE: {p}")
    print("smoke: ok" if not problems else "smoke: FAILED")
    return 0 if not problems else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    help="measuring time (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    try:
        spec = load_spec()
        names = [w["name"] for w in spec["workloads"]]
        build()
        if args.smoke:
            return smoke(spec)
        if args.workload not in names:
            raise BenchError(f"--workload must be one of {names}")
        print(f"workload {args.workload}, seed {args.seed}: closed batch, each core "
              "replays its trace under the 16-miss MLP bound; caches start cold. "
              "The model is not validated against hardware: no error figure.")
        seconds = spec["run_seconds"] if args.seconds is None else args.seconds
        result, spans = measure(spec, args.workload, args.seed, seconds, args.trace)
        if spans is not None:
            print(f"spans: {spans.relative_to(ROOT)}")
            print_self_times(self_times(spans))
    except (BenchError, OSError, ValueError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    print_metrics(result)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
