#!/usr/bin/env bash
# Full verification, cheapest gate first:
#
#   tier 0  gpuperf_lint project invariants, then clang-tidy and
#           clang-format when installed (both skip cleanly otherwise)
#   tier 1  build with -Werror (GPUPERF_WERROR=ON) + full test suite
#   tier 2  concurrency tests under ThreadSanitizer
#   tier 3  robustness tests under ASan+UBSan
#
# Usage: scripts/verify.sh [build_dir]
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD="${1:-build}"

echo "== tier 0: lint + static analysis =="
# GPUPERF_WERROR promotes -Wall -Wextra -Wshadow (and, under Clang,
# -Wthread-safety) to errors; compile_commands.json feeds clang-tidy.
cmake -B "$BUILD" -S . -DGPUPERF_WERROR=ON -DCMAKE_EXPORT_COMPILE_COMMANDS=ON
cmake --build "$BUILD" -j --target gpuperf_lint
# Whole tree (tests and bench included), all whole-program passes, the
# checked-in debt baseline (which may only shrink), and per-pass timing
# so the <1s whole-tree budget stays visible. The known-bad fixture
# corpus is excluded — it exists to be lint-dirty.
"./$BUILD/tools/gpuperf_lint" \
  --exclude=lint_fixtures \
  --baseline=src/lint/lint_baseline.txt \
  --timings \
  src tools tests bench

if command -v clang-tidy >/dev/null 2>&1; then
  # Every first-party translation unit in the compilation database;
  # checks and per-check severity live in .clang-tidy.
  mapfile -t TIDY_SOURCES < <(find src tools -name '*.cc' | sort)
  clang-tidy -p "$BUILD" --quiet "${TIDY_SOURCES[@]}"
else
  echo "clang-tidy: skipped (not installed)"
fi

if command -v clang-format >/dev/null 2>&1; then
  find src tools tests bench examples \
      \( -name '*.cc' -o -name '*.h' \) -not -path 'tests/lint_fixtures/*' \
    | sort | xargs clang-format --dry-run -Werror
else
  echo "clang-format: skipped (not installed)"
fi

echo "== tier 1: build + full test suite =="
cmake --build "$BUILD" -j
(cd "$BUILD" && ctest --output-on-failure -j "$(nproc)")
# Observability artifacts end to end: serve-sim writes a metrics
# snapshot + Chrome trace, and the accounting invariant holds.
scripts/obs_smoke.sh "./$BUILD/tools/gpuperf"
# The serving hot path stays fast: PredictMany must hold 2x of the
# checked-in ns/query baseline (catches reintroduced per-query lookups).
scripts/perf_gate.sh "$BUILD"
# The self-healing lifecycle end to end: injected drift must trip the
# monitor, refit, promote through shadow + canary, and heal the residual.
scripts/drift_smoke.sh "./$BUILD/tools/gpuperf"
# Gray-failure resilience end to end: the chaos sweep holds its
# invariants bit-identically across --jobs, and every interrupted
# bundle-swap shape recovers to exactly one generation.
scripts/chaos_smoke.sh "./$BUILD/tools/gpuperf"

echo "== tier 2: concurrency tests under ThreadSanitizer =="
TSAN_BUILD="${BUILD}-tsan"
cmake -B "$TSAN_BUILD" -S . -DGPUPERF_SANITIZE=thread
cmake --build "$TSAN_BUILD" -j --target \
  thread_pool_test parallel_build_test lowering_cache_test \
  bundle_registry_test metrics_registry_test span_tracer_test \
  prediction_plan_test drift_monitor_test refit_test self_healing_test \
  serving_test fault_injection_test
"./$TSAN_BUILD/tests/thread_pool_test"
"./$TSAN_BUILD/tests/parallel_build_test"
"./$TSAN_BUILD/tests/lowering_cache_test"
# Generation hot-swap under concurrent predicting readers.
"./$TSAN_BUILD/tests/bundle_registry_test"
# Registry hot path under concurrent writers + live snapshots.
"./$TSAN_BUILD/tests/metrics_registry_test"
# Parallel grid tracing merged into one deterministic trace.
"./$TSAN_BUILD/tests/span_tracer_test"
# Concurrent PredictMany sweeps racing through plan-cache compiles.
"./$TSAN_BUILD/tests/prediction_plan_test"
# The drift/refit/promotion lifecycle over the hot-swapping registry:
# the e2e heal must be data-race-free alongside concurrent readers.
"./$TSAN_BUILD/tests/drift_monitor_test"
"./$TSAN_BUILD/tests/refit_test"
"./$TSAN_BUILD/tests/self_healing_test"
# Chaos plans + hedged dispatch across the parallel serving grid: the
# hedge/retry/breaker paths must be data-race-free at any --jobs.
"./$TSAN_BUILD/tests/serving_test"
"./$TSAN_BUILD/tests/fault_injection_test"

echo "== tier 3: robustness tests under ASan+UBSan =="
# The error-path tests exercise corrupt bundles, malformed CSVs, and
# fault-injected serving — exactly where a stray read or overflow would
# hide. Death tests fork, which ASan tolerates but LeakSanitizer does
# not always; keep leak detection on for everything else.
ASAN_BUILD="${BUILD}-asan"
cmake -B "$ASAN_BUILD" -S . -DGPUPERF_SANITIZE=address
cmake --build "$ASAN_BUILD" -j --target \
  status_test csv_test model_io_test fault_injection_test \
  predictor_stack_test serving_test circuit_breaker_test \
  bundle_registry_test cli_test string_util_test flight_recorder_test \
  span_tracer_test event_queue_test
"./$ASAN_BUILD/tests/status_test"
"./$ASAN_BUILD/tests/csv_test"
"./$ASAN_BUILD/tests/model_io_test"
"./$ASAN_BUILD/tests/fault_injection_test"
"./$ASAN_BUILD/tests/predictor_stack_test"
"./$ASAN_BUILD/tests/serving_test"
"./$ASAN_BUILD/tests/circuit_breaker_test"
"./$ASAN_BUILD/tests/bundle_registry_test"
"./$ASAN_BUILD/tests/cli_test"
# The text exporters format into fixed stack buffers.
"./$ASAN_BUILD/tests/string_util_test"
"./$ASAN_BUILD/tests/flight_recorder_test"
"./$ASAN_BUILD/tests/span_tracer_test"
# Serving's event callbacks capture the Sim and read the arrival plan by
# index; the queue's reserved-sequence path inserts them lazily.
"./$ASAN_BUILD/tests/event_queue_test"

echo "verify: OK"
