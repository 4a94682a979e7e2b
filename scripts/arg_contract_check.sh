#!/usr/bin/env bash
# Argument contract of every binary. Each reads its key=value command line
# once, through desc::Args and the knob tables, so a token with no '=', an
# unknown key, a rejected value or a broken platform constraint prints
# "error: <key>: ..." on stderr, prints nothing on stdout, writes no file
# and exits 2 before it simulates anything. A failed output write prints
# "error: <path>: ..." and exits 1.
#
# Usage: arg_contract_check.sh <dir-of-bench_suite> <dir-of-quickstart>
# (ctest runs it against the build tree; nothing here simulates more than
# 300 accesses per core, so it takes seconds).
set -uo pipefail

if [[ $# -ne 2 ]]; then
  echo "usage: $0 <dir-of-bench_suite> <dir-of-quickstart>" >&2
  exit 2
fi
bench=$(realpath "$1")
examples=$(realpath "$2")

scratch=$(mktemp -d)
trap 'rm -rf "$scratch"' EXIT
mkdir "$scratch/run" && cd "$scratch/run" || exit 1
failures=0

# expect <exit code> <stderr substring> <binary> [key=value ...]
expect() {
  local want=$1 needle=$2
  shift 2
  "$@" > "$scratch/out.txt" 2> "$scratch/err.txt"
  local rc=$?
  local problem=""
  if [[ $rc -ne $want ]]; then
    problem="exit code $rc, expected $want"
  elif ! grep -qF -- "$needle" "$scratch/err.txt"; then
    problem="stderr lacks '$needle'"
  elif [[ $want -eq 2 && -s "$scratch/out.txt" ]]; then
    problem="printed to stdout"
  elif [[ $want -eq 2 && -n "$(ls -A)" ]]; then
    problem="wrote $(ls -A | tr '\n' ' ')"
  fi
  rm -rf ./* ./.[!.]* 2> /dev/null
  if [[ -n "$problem" ]]; then
    echo "FAIL: $(basename "$1") ${*:2}: $problem" >&2
    sed 's/^/  stderr: /' "$scratch/err.txt" >&2
    failures=$((failures + 1))
  else
    echo "ok: $(basename "$1") ${*:2}"
  fi
}

# A rejected value, an unknown key or a broken constraint: exit 2.
expect 2 "error: accesses: " "$bench/bench_suite" only=fig01 accesses=abc
expect 2 "error: warps: " "$bench/bench_suite" only=fig01 warps=zz
expect 2 "error: thread: unknown key" "$bench/bench_suite" only=fig01 thread=8
expect 2 "error: csv: unknown key" "$bench/bench_suite" only=fig01 csv=x.csv
expect 2 "error: only: " "$bench/bench_suite" only=fig99
expect 2 "error: accesses: " "$examples/quickstart" accesses=abc mlp=zz
expect 2 "error: mlp: " "$examples/quickstart" accesses=abc mlp=zz
expect 2 "error: window: " "$examples/quickstart" window=3
expect 2 "error: window: " "$examples/quickstart" window=32
expect 2 "error: mshrs: unknown key" "$examples/quickstart" mshrs=8
expect 2 "error: warps: " "$examples/trace_workbench" cmd=profile \
  workload=warp_gups warps=zz
expect 2 "error: cmd: " "$examples/trace_workbench" cmd=bogus
expect 2 "error: accesses: " "$examples/spmv_hpcg" accesses=-5
expect 2 "error: thread8: expected key=value" "$examples/graph_ssca2" thread8
expect 2 "error: cores: " "$examples/riscv_stream_triad" iters=64 cores=0
expect 2 "error: cores: " "$examples/riscv_scatter_gather" iters=64 cores=abc
expect 2 "error: trace_replay: " "$examples/riscv_stream_triad" \
  trace_replay=x.hmct
expect 2 "error: events: " "$bench/bench_kernel_throughput" events=1x json=

# A failed output write: exit 1, naming the path.
expect 1 "error: /nonexistent/dir/fig01.csv: " "$bench/bench_suite" \
  only=fig01 csvdir=/nonexistent/dir
expect 1 "error: /nonexistent/dir/x.json: " "$examples/quickstart" \
  accesses=300 trace_json=/nonexistent/dir/x.json
expect 1 "error: /nonexistent/dir/m.prom: " "$examples/quickstart" \
  accesses=300 metrics_out=/nonexistent/dir/m.prom
expect 1 "error: /nonexistent/dir/x.csv: " "$examples/trace_workbench" \
  cmd=run workload=sg accesses=300 csv=/nonexistent/dir/x.csv

if [[ $failures -ne 0 ]]; then
  echo "arg contract: $failures command(s) broke it" >&2
  exit 1
fi
echo "arg contract: OK"
