#!/usr/bin/env bash
# Link-time scan for src/ code that only tests reach (DESIGN §14).
#
# Builds every production binary (bench_suite, bench_kernel_throughput and
# the six examples) and hmcc_perfbench at -O0 with -ffunction-sections and
# --gc-sections, so each binary keeps only the functions it can reach. Then
# prints, one demangled signature per line, every hmcc:: function that the
# src/ libraries define out of line (nm type T) and that no binary links.
# Inline functions are not listed: the compiler emits them only where they
# are called. Tests are not built, so a function only tests call is listed.
#
# Usage: unlinked_symbols.sh <out-dir>
# <out-dir>/repo and <out-dir>/perfbench hold the two -O0 build trees; a
# cold build takes a few minutes.
set -euo pipefail

if [[ $# -ne 1 ]]; then
  echo "usage: $0 <out-dir>" >&2
  exit 2
fi
root=$(cd "$(dirname "$0")/.." && pwd)
mkdir -p "$1"
out=$(realpath "$1")
export LC_ALL=C  # one collation for sort and comm
jobs=$(( $(nproc) < 4 ? $(nproc) : 4 ))
flags=(-DCMAKE_BUILD_TYPE=Debug -DCMAKE_CXX_FLAGS_DEBUG=-O0
       -DCMAKE_CXX_FLAGS=-ffunction-sections
       -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections)
bench=(bench_suite bench_kernel_throughput)
examples=(quickstart spmv_hpcg graph_ssca2 riscv_stream_triad trace_workbench
          riscv_scatter_gather)

cmake -S "$root" -B "$out/repo" "${flags[@]}" > /dev/null
cmake --build "$out/repo" -j "$jobs" --target "${bench[@]}" "${examples[@]}" \
  > /dev/null
cmake -S "$root/perfbench" -B "$out/perfbench" "${flags[@]}" > /dev/null
cmake --build "$out/perfbench" -j "$jobs" --target hmcc_perfbench > /dev/null

# The demangled hmcc:: functions of the nm types in $1 that the files define.
functions() {
  local types=$1
  shift
  nm -C --defined-only "$@" |
    sed -n "s/^[0-9a-f]* [$types] \(hmcc::.*\)$/\1/p" | sort -u
}

comm -23 \
  <(functions T "$out"/repo/src/*/libhmcc_*.a) \
  <(functions TtWw "${bench[@]/#/$out/repo/bench/}" \
      "${examples[@]/#/$out/repo/examples/}" "$out/perfbench/hmcc_perfbench")
