#!/usr/bin/env bash
# Allocation-ceiling gate for the four BENCHMARK.json workloads.
#
# `hmcc_perfbench traced workload=<w> seed=1 seconds=0` runs a workload at
# its committed size and reports system.allocs_per_access: heap allocations
# made during System::run, per simulated access. The gate fails when a
# workload allocates more than 1.25x what the latest BENCH_e2e.json record
# says. It is a ceiling, not an equality, because the count depends on the
# C++ standard library build (container growth policy, node sizes); a change
# that puts allocations back on the simulated path trips it.
#
# Usage: perfbench_alloc_check.sh [path-to-hmcc_perfbench] [BENCH_e2e.json]
# Defaults: .bench_build/hmcc_perfbench (perfbench/run.py builds it) and the
# BENCH_e2e.json at the repository root. Takes about 30 s.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
bin=${1:-$root/.bench_build/hmcc_perfbench}
record=${2:-$root/BENCH_e2e.json}
slack=1.25

if [[ ! -x "$bin" ]]; then
  echo "allocs: $bin not found (run python3 perfbench/run.py --smoke first)" >&2
  exit 2
fi

# "<workload> <allocs_per_access>" per line, from the latest record.
expected=$(python3 -c '
import json, sys
latest = json.load(open(sys.argv[1]))["records"][-1]
for name, w in latest["workloads"].items():
    print(name, w["system.allocs_per_access"])
' "$record")

spans=$(mktemp)
trap 'rm -f "$spans"' EXIT

status=0
while read -r wl recorded; do
  line=$("$bin" traced workload="$wl" seed=1 seconds=0 spans="$spans" \
    < /dev/null 2> /dev/null | tail -n 1) || {
    echo "allocs: $wl FAILED (hmcc_perfbench traced exited non-zero)"
    status=1
    continue
  }
  verdict=$(python3 -c '
import json, sys
got = json.loads(sys.argv[1])["metrics"]["system.allocs_per_access"]
ceiling = float(sys.argv[2]) * float(sys.argv[3])
print(("OK" if got <= ceiling else "OVER"),
      f"{got:.4f} allocs/access (record {float(sys.argv[2]):.4f}, ceiling {ceiling:.4f})")
' "$line" "$recorded" "$slack")
  echo "allocs: $wl $verdict"
  [[ $verdict == OK* ]] || status=1
done <<< "$expected"

if [[ $status -eq 0 ]]; then
  echo "allocs: OK (every workload within ${slack}x the latest BENCH_e2e.json record)"
fi
exit $status
