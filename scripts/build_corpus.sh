#!/usr/bin/env bash
# Record the built-in workload generators into a replayable .hmct corpus.
#
# Layout (relative paths inside MANIFEST, so the tree can be moved or
# shipped to another host wholesale):
#
#   traces/
#     cpu/<workload>.hmct    the paper's 12 CPU workloads
#     warp/<workload>.hmct   the SIMT warp front-end workloads
#     MANIFEST               one line per file: sha256  path  knobs
#
# Each file replays byte-identically through any entry point that accepts
# the trace_replay= knob: the workbench (`trace_workbench cmd=run
# trace_replay=traces/cpu/stream.hmct`) or a bench (`bench_suite only=fig09
# trace_replay=traces/cpu/stream.hmct`), so one recorded corpus pins the
# memory stream across every backend and scheduler configuration under
# test.
#
# Usage: build_corpus.sh <path-to-trace_workbench> [out-dir] [accesses] [cores]
#   out-dir   defaults to ./traces
#   accesses  per-core access count recorded (default 3000)
#   cores     number of streams per trace (default 4)
#
# With VERIFY=1 every recorded file is immediately replayed and its result
# table diffed against the live run (slower; CI uses record_replay_check.sh
# for the focused version of that gate).
set -euo pipefail

if [[ $# -lt 1 ]]; then
  echo "usage: $0 <path-to-trace_workbench> [out-dir] [accesses] [cores]" >&2
  exit 2
fi

workbench=$(realpath "$1")
out_dir=${2:-traces}
accesses=${3:-3000}
cores=${4:-4}
verify=${VERIFY:-0}

cpu_workloads="sg hpcg ssca2 stream sparselu sort cg ep ft is lu sp"
warp_workloads="warp_gups warp_saxpy warp_chase"

mkdir -p "$out_dir/cpu" "$out_dir/warp"
manifest="$out_dir/MANIFEST"
: > "$manifest"

record_one() {
  local wl=$1 rel=$2
  local path="$out_dir/$rel"
  local knobs="workload=$wl accesses=$accesses cores=$cores"
  "$workbench" cmd=run workload="$wl" accesses="$accesses" cores="$cores" \
    trace_record="$path" > "$path.live.txt" 2>/dev/null
  if [[ "$verify" == "1" ]]; then
    "$workbench" cmd=run trace_replay="$path" > "$path.replay.txt" 2>/dev/null
    if ! diff -u "$path.live.txt" "$path.replay.txt"; then
      echo "build_corpus: $wl replay diverged from live run" >&2
      exit 1
    fi
  fi
  rm -f "$path.live.txt" "$path.replay.txt"
  local sum
  sum=$(sha256sum "$path" | cut -d' ' -f1)
  printf '%s  %s  %s\n' "$sum" "$rel" "$knobs" >> "$manifest"
  echo "build_corpus: $rel ($(stat -c%s "$path") bytes)"
}

for wl in $cpu_workloads; do
  record_one "$wl" "cpu/$wl.hmct"
done
for wl in $warp_workloads; do
  record_one "$wl" "warp/$wl.hmct"
done

echo "build_corpus: $(wc -l < "$manifest") traces in $out_dir (see MANIFEST)"
