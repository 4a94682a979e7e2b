#!/usr/bin/env bash
# Digest gate for the four BENCHMARK.json workloads: the deterministic half
# of the committed performance trajectory (BENCH_e2e.json).
#
# `hmcc_perfbench rss workload=<w> seed=1` runs a workload once through the
# full System at its committed size, checks the run, and prints a digest of
# the Prometheus text of every simulated counter. Any change in what the
# simulated machine does (packets, cycles, merges, migrations) moves the
# digest; host speed does not. This pins each workload's whole modeled path,
# including sg_hybrid_migrate's scheme=migrate, which no golden covers.
#
# The expected digests are the latest record's in BENCH_e2e.json. A change
# that moves one on purpose commits a new record with the new digests.
#
# Usage: perfbench_digest_check.sh [path-to-hmcc_perfbench] [BENCH_e2e.json]
# Defaults: .bench_build/hmcc_perfbench (perfbench/run.py builds it) and the
# BENCH_e2e.json at the repository root.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
bin=${1:-$root/.bench_build/hmcc_perfbench}
record=${2:-$root/BENCH_e2e.json}

if [[ ! -x "$bin" ]]; then
  echo "digest: $bin not found (run python3 perfbench/run.py --smoke first)" >&2
  exit 2
fi

# "<workload> <digest>" per line, from the latest record.
expected=$(python3 -c '
import json, sys
latest = json.load(open(sys.argv[1]))["records"][-1]
for name, w in latest["workloads"].items():
    print(name, w["digest"])
' "$record")

status=0
while read -r wl want; do
  line=$("$bin" rss workload="$wl" seed=1 < /dev/null | tail -n 1) || {
    echo "digest: $wl FAILED (hmcc_perfbench rss exited non-zero)"
    status=1
    continue
  }
  got=$(python3 -c 'import json, sys; print(json.loads(sys.argv[1])["digest"])' \
    "$line")
  if [[ "$got" == "$want" ]]; then
    echo "digest: $wl OK ($got)"
  else
    echo "digest: $wl MISMATCH (expected $want, got $got)"
    status=1
  fi
done <<< "$expected"

if [[ $status -eq 0 ]]; then
  echo "digest: OK (every workload matches the latest BENCH_e2e.json record)"
fi
exit $status
