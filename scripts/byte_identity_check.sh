#!/usr/bin/env bash
# Byte-identity gate for the declarative descriptor refactor: with
# observability off, the bench suite's stdout and every CSV must hash to
# exactly the pre-refactor baseline in tests/golden/bench_suite_smoke.sha256.
#
# The baseline was produced with:
#   mkdir scratch && cd scratch && mkdir ci_smoke_csv
#   bench_suite --smoke csvdir=ci_smoke_csv threads=2 \
#     > suite_stdout.txt 2>/dev/null
#   sha256sum suite_stdout.txt ci_smoke_csv/*.csv
#
# Extra arguments are passed through to bench_suite as knobs. The gate is
# therefore also the proof that configurations documented as equivalent to
# the default path change nothing observable — the FCFS vault queue and the
# hybrid backend with no fast tier:
#   byte_identity_check.sh bench_suite sched=fcfs vault_queue=8
#   byte_identity_check.sh bench_suite mem=hybrid scheme=cache
# must hash to the same baseline as the plain run.
#
# GOLDEN=<file> checks against another baseline instead. The deferred vault
# scheduler has its own, generated the same way with sched=frfcfs appended:
#   GOLDEN=tests/golden/bench_suite_smoke_frfcfs.sha256 \
#     byte_identity_check.sh bench_suite sched=frfcfs
#
# Usage: [GOLDEN=<file>] byte_identity_check.sh <path-to-bench_suite>
#        [knob=value ...]
set -euo pipefail

if [[ $# -lt 1 ]]; then
  echo "usage: $0 <path-to-bench_suite> [knob=value ...]" >&2
  exit 2
fi

bench_suite=$(realpath "$1")
golden=$(realpath \
  "${GOLDEN:-$(dirname "$0")/../tests/golden/bench_suite_smoke.sha256}")

scratch=$(mktemp -d)
trap 'rm -rf "$scratch"' EXIT
cd "$scratch"
mkdir ci_smoke_csv

# threads=2 exercises the parallel scheduler; output must not depend on it.
"$bench_suite" --smoke csvdir=ci_smoke_csv threads=2 "${@:2}" \
  > suite_stdout.txt 2>/dev/null

sha256sum -c "$golden"
echo "byte-identity: OK ($(wc -l < "$golden") files match the baseline)"
