#!/usr/bin/env bash
# Perf regression gate on the predictor hot paths: runs every
# microbenchmark named in bench/perf_gate_baseline.txt in a Release
# build and fails when one's amortized cost exceeds 2x its checked-in
# baseline. The rows are
#   BM_PredictManyResnet50      512 queries answered by one
#                               compiled-plan PredictMany sweep;
#   BM_KwPredictResnet50Cached  one per-query PredictUs with the sid
#                               memo warm.
#
# The baselines are deliberately loose — a regression tripwire for
# "someone put a hash lookup / allocation back into the per-query loop"
# (a >=10x slip), not a precision benchmark. Machine-to-machine noise of
# tens of percent passes; reverting the plan compilation does not.
#
# Every failure mode is a single actionable line on stderr + exit 1:
# missing bench binary, missing/corrupt baseline file, a benchmark that
# did not run, or a regression.
#
# Usage: scripts/perf_gate.sh [build_dir]
# Override the 2x factor (a positive integer) with
# GPUPERF_PERF_GATE_FACTOR.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD="${1:-build}"
BASELINE_FILE="bench/perf_gate_baseline.txt"
BENCH="./$BUILD/bench/bench_speed_predictor"
FACTOR="${GPUPERF_PERF_GATE_FACTOR:-2}"

case "$FACTOR" in
  ''|0|*[!0-9]*)
    echo "perf_gate: FAIL — GPUPERF_PERF_GATE_FACTOR must be a positive" \
         "integer, got '$FACTOR'" >&2
    exit 1
    ;;
esac
if [ ! -f "$BASELINE_FILE" ]; then
  echo "perf_gate: FAIL — baseline file '$BASELINE_FILE' is missing;" \
       "restore it from git (it pins the ns/query references)" >&2
  exit 1
fi
# One "<benchmark> <ns/query>" row per non-comment line.
NAMES=()
BASELINES=()
while read -r name ns extra; do
  case "$name" in ''|'#'*) continue ;; esac
  if [[ "$name" != BM_* || ! "$ns" =~ ^[1-9][0-9]*$ || -n "$extra" ]]; then
    echo "perf_gate: FAIL — baseline file '$BASELINE_FILE' rows must be" \
         "'<BM_name> <positive integer ns/query>', got '$name $ns $extra'" >&2
    exit 1
  fi
  NAMES+=("$name")
  BASELINES+=("$ns")
done < "$BASELINE_FILE"
if [ "${#NAMES[@]}" -eq 0 ]; then
  echo "perf_gate: FAIL — baseline file '$BASELINE_FILE' has no rows" >&2
  exit 1
fi

cmake -B "$BUILD" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "$BUILD" -j --target bench_speed_predictor >/dev/null || true
if [ ! -x "$BENCH" ]; then
  echo "perf_gate: FAIL — Release bench binary '$BENCH' is missing;" \
       "build it with: cmake --build $BUILD --target bench_speed_predictor" >&2
  exit 1
fi

FILTER="^($(IFS='|'; echo "${NAMES[*]}"))\$"
CSV="$("$BENCH" --benchmark_filter="$FILTER" --benchmark_min_time=0.5 \
  --benchmark_format=csv 2>/dev/null || true)"

FAILED=0
for i in "${!NAMES[@]}"; do
  name="${NAMES[$i]}"
  baseline="${BASELINES[$i]}"
  max=$((baseline * FACTOR))
  # CSV columns: name,iterations,real_time,cpu_time,time_unit,
  # bytes_per_second,items_per_second,... items_per_second is queries/s.
  row="$(echo "$CSV" | grep "^\"$name\"," || true)"
  ns="$(echo "$row" | awk -F, '$7 > 0 {printf "%.0f", 1e9 / $7}')"
  if [ -z "$ns" ]; then
    echo "perf_gate: FAIL — $name did not run or reported no" \
         "items_per_second; check it still exists in $BENCH" >&2
    FAILED=1
    continue
  fi
  ratio="$(awk -v m="$ns" -v b="$baseline" 'BEGIN {printf "%.2f", m / b}')"
  echo "perf_gate: $name ${ns} ns/query — ${ratio}x the checked-in" \
       "baseline (${baseline} ns, max ${max} ns)"
  if [ "$ns" -gt "$max" ]; then
    echo "perf_gate: FAIL — $name at ${ns} ns/query is ${ratio}x" \
         "baseline (limit ${max} ns)" >&2
    FAILED=1
  fi
done
if [ "$FAILED" -ne 0 ]; then
  exit 1
fi
echo "perf_gate: OK"
