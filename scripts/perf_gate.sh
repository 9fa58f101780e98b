#!/usr/bin/env bash
# Perf regression gate on the predictor and profiling hot paths: runs
# every microbenchmark named in bench/perf_gate_baseline.txt in a Release
# build and fails when one's amortized cost per item (a query, or a
# kernel row; printed as ns/query) exceeds 2x its checked-in baseline.
# The rows are
#   BM_PredictManyResnet50      512 queries answered by one
#                               compiled-plan PredictMany sweep, one
#                               run folded 8 batches per plan replay;
#   BM_PredictManyResnet50Interleaved
#                               the same sweep with the network
#                               alternating every query: one one-lane
#                               replay per query, as serving and the
#                               campaign ask;
#   BM_KwPlanForColdResnet50    one first-sight plan compile (sid
#                               resolution plus the KW emitter) on a
#                               never-queried model copy;
#   BM_IgkwPlanForColdResnet50  the same for IGKW (fit on A100 and
#                               V100) and A40, a GPU outside its
#                               training set;
#   BM_KwPredictResnet50Cached  one per-query PredictUs with the sid
#                               memo warm;
#   BM_BuildDatasetSerial       one kernel row of a serial BuildDataset
#                               (41 networks on A100): cold lowering
#                               into the profiler's table, the oracle's
#                               expected-time memo, the noisy replay
#                               and the merge;
#   BM_BuildDatasetAllGpus      one kernel row of the same serial build
#                               on all 7 GPUs: each network is lowered
#                               once and replayed per GPU, which the
#                               A100-only row cannot see;
#   BM_ProfilerLowerSmallZoo16  one layer of the same 41 networks
#                               lowered at batch 256 by a fresh
#                               Profiler: signatures, lowering-table
#                               lookups and each distinct
#                               configuration's lowering;
#   BM_KwTrain                  one kernel row of a KwModel fit on the
#                               A100 dataset: mapping table, samples,
#                               driver classification, clustering, LW
#                               fallback, calibration and table
#                               resolution;
#   BM_ServingChaosLongHorizon  one arrival of a 240 s chaos serving run
#                               (bench_speed_simsys): the event loop,
#                               dispatch, fault/chaos cursors and the
#                               latency percentiles;
#   BM_RecorderTimelineCsvServing
#                               one timeline CSV export of a 240 s
#                               serve-sim cell's recorded frames
#                               (bench_speed_obs), ~86k rows;
#   BM_SmallZooStride8          one network of the campaign's
#                               SmallZoo(8): the zoo builds only the
#                               networks it hands out.
#
# A row names the google-benchmark binary under <build_dir>/bench/ that
# runs it in an optional third field; the default is
# bench_speed_predictor.
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
DEFAULT_BENCH="bench_speed_predictor"
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
# One "<benchmark> <ns/query> [bench binary]" row per non-comment line.
NAMES=()
BASELINES=()
BINARIES=()
while read -r name ns binary extra; do
  case "$name" in ''|'#'*) continue ;; esac
  binary="${binary:-$DEFAULT_BENCH}"
  if [[ "$name" != BM_* || ! "$ns" =~ ^[1-9][0-9]*$ ||
        ! "$binary" =~ ^bench_[a-z0-9_]+$ || -n "$extra" ]]; then
    echo "perf_gate: FAIL — baseline file '$BASELINE_FILE' rows must be" \
         "'<BM_name> <positive integer ns/query> [bench_<binary>]', got" \
         "'$name $ns $binary $extra'" >&2
    exit 1
  fi
  NAMES+=("$name")
  BASELINES+=("$ns")
  BINARIES+=("$binary")
done < "$BASELINE_FILE"
if [ "${#NAMES[@]}" -eq 0 ]; then
  echo "perf_gate: FAIL — baseline file '$BASELINE_FILE' has no rows" >&2
  exit 1
fi

# Each binary once, with a filter naming all of its rows.
declare -A CSV
cmake -B "$BUILD" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
for binary in $(printf '%s\n' "${BINARIES[@]}" | sort -u); do
  bench="./$BUILD/bench/$binary"
  cmake --build "$BUILD" -j --target "$binary" >/dev/null || true
  if [ ! -x "$bench" ]; then
    echo "perf_gate: FAIL — Release bench binary '$bench' is missing;" \
         "build it with: cmake --build $BUILD --target $binary" >&2
    exit 1
  fi
  names=()
  for i in "${!NAMES[@]}"; do
    if [ "${BINARIES[$i]}" = "$binary" ]; then names+=("${NAMES[$i]}"); fi
  done
  filter="^($(IFS='|'; echo "${names[*]}"))\$"
  CSV[$binary]="$("$bench" --benchmark_filter="$filter" \
    --benchmark_min_time=0.5 --benchmark_format=csv 2>/dev/null || true)"
done

FAILED=0
for i in "${!NAMES[@]}"; do
  name="${NAMES[$i]}"
  baseline="${BASELINES[$i]}"
  max=$((baseline * FACTOR))
  # CSV columns: name,iterations,real_time,cpu_time,time_unit,
  # bytes_per_second,items_per_second,... items_per_second is queries/s.
  row="$(echo "${CSV[${BINARIES[$i]}]}" | grep "^\"$name\"," || true)"
  ns="$(echo "$row" | awk -F, '$7 > 0 {printf "%.0f", 1e9 / $7}')"
  if [ -z "$ns" ]; then
    echo "perf_gate: FAIL — $name did not run or reported no" \
         "items_per_second; check it still exists in" \
         "$BUILD/bench/${BINARIES[$i]}" >&2
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
