#!/usr/bin/env bash
# Observability smoke check: run a real serve-sim with --metrics-out,
# --trace-out, and --timeline-out, then assert the artifacts are
# well-formed, the accounting invariant holds (every arrival completed,
# dropped, or shed), the flight-recorder timeline is monotone and
# consistent with the final metrics snapshot, and timeline + trace are
# byte-identical across --jobs values. A `gpuperf chaos` run, whose
# scenarios append several grids to one timeline and fire hedges, gets
# the same accounting and timeline checks.
#
# Usage: scripts/obs_smoke.sh <path-to-gpuperf-binary>
# Set OBS_SMOKE_ARTIFACT_DIR to keep the timeline CSV and Chrome trace
# (CI uploads them as workflow artifacts).
set -euo pipefail

GPUPERF="${1:?usage: obs_smoke.sh <path-to-gpuperf-binary>}"
OUT="$(mktemp -d)"
trap 'rm -rf "$OUT"' EXIT

METRICS="$OUT/metrics.csv"
TRACE="$OUT/trace.json"
TIMELINE="$OUT/timeline.csv"

"$GPUPERF" serve-sim --duration 2 --rate 150 --queue-cap 4 --slo-ms 50 \
  --mtbf 3 --breaker-failures 2 --networks resnet18 --jobs 1 \
  --metrics-out "$METRICS" --trace-out "$TRACE" \
  --timeline-out "$TIMELINE" >/dev/null

[ -s "$METRICS" ] || { echo "obs_smoke: empty metrics snapshot"; exit 1; }
[ -s "$TRACE" ] || { echo "obs_smoke: empty trace"; exit 1; }

head -1 "$METRICS" | grep -q '^metric,type,field,value$' \
  || { echo "obs_smoke: bad CSV header"; exit 1; }

for family in gpuperf_serving_simulations gpuperf_serving_jobs_arrived \
              gpuperf_serving_jobs_completed gpuperf_serving_latency_ms \
              gpuperf_threadpool_queue_depth; do
  grep -q "^$family," "$METRICS" \
    || { echo "obs_smoke: metrics snapshot is missing $family"; exit 1; }
done

# Accounting invariant: arrivals = completed + dropped + shed. Arrivals
# are counted from each simulation's arrival plan, the other three at
# their outcome, so the sum is a real check.
check_accounting() {
  awk -F, '
    $1 == "gpuperf_serving_jobs_arrived" { arrived = $4 }
    $1 == "gpuperf_serving_jobs_completed" { completed = $4 }
    $1 == "gpuperf_serving_jobs_dropped" { dropped = $4 }
    $1 == "gpuperf_serving_jobs_shed" { shed = $4 }
    END {
      if (arrived == 0 || arrived != completed + dropped + shed) {
        printf "obs_smoke: accounting broken: %d arrived vs %d+%d+%d\n",
               arrived, completed, dropped, shed
        exit 1
      }
    }' "$1"
}
check_accounting "$METRICS"

if command -v python3 >/dev/null 2>&1; then
  python3 -c "
import json, sys
with open('$TRACE') as f:
    doc = json.load(f)
events = doc['traceEvents']
assert events, 'trace has no events'
assert doc['displayTimeUnit'] == 'ms'
assert any(e['ph'] == 'X' for e in events), 'no complete spans'
"
else
  grep -q '"traceEvents":\[' "$TRACE" \
    || { echo "obs_smoke: trace is not a trace document"; exit 1; }
fi

# --- Flight-recorder timeline ----------------------------------------------

[ -s "$TIMELINE" ] || { echo "obs_smoke: empty timeline"; exit 1; }
head -1 "$TIMELINE" | grep -q '^t_us,source,metric,kind,field,value$' \
  || { echo "obs_smoke: bad timeline header"; exit 1; }

# Timeline checks against the metrics snapshot of the same run.
check_timeline() {
  # Sim time must be monotone within every source (cells append serially,
  # each cell's windows close in ascending order).
  awk -F, 'NR > 1 {
      if ($2 in last && $1 + 0 < last[$2] + 0) {
        printf "obs_smoke: timeline not monotone for %s: %s after %s\n",
               $2, $1, last[$2]
        exit 1
      }
      last[$2] = $1
    }' "$1"

  # Per-window counter deltas must sum to the counter totals — within
  # each (source, metric) against its last total row, and summed across
  # sources against the final registry snapshot of the same run.
  awk -F, '
    FNR == 1 { next }
    NR == FNR {
      if ($4 == "counter" && $5 == "delta") deltas[$2 "," $3] += $6
      if ($4 == "counter" && $5 == "total") totals[$2 "," $3] = $6
      next
    }
    $2 == "counter" && $3 == "value" { registry[$1] = $4 }
    END {
      for (key in totals) {
        if (deltas[key] + 0 != totals[key] + 0) {
          printf "obs_smoke: deltas do not sum to total for %s: %d vs %d\n",
                 key, deltas[key], totals[key]
          exit 1
        }
        split(key, parts, ",")
        grand[parts[2]] += totals[key]
        seen_metric[parts[2]] = 1
      }
      checked = 0
      for (metric in seen_metric) {
        if (metric in registry) {
          ++checked
          if (grand[metric] + 0 != registry[metric] + 0) {
            printf "obs_smoke: timeline total %d != snapshot %d for %s\n",
                   grand[metric], registry[metric], metric
            exit 1
          }
        }
      }
      if (checked == 0) {
        print "obs_smoke: no counter family shared by timeline and snapshot"
        exit 1
      }
    }' "$1" "$2"
}
check_timeline "$TIMELINE" "$METRICS"

# Determinism: the timeline and trace must be byte-identical for any
# --jobs value (per-cell recorders, merged serially in cell order).
"$GPUPERF" serve-sim --duration 2 --rate 150 --queue-cap 4 --slo-ms 50 \
  --mtbf 3 --breaker-failures 2 --networks resnet18 --jobs 7 \
  --trace-out "$OUT/trace_jobs7.json" \
  --timeline-out "$OUT/timeline_jobs7.csv" >/dev/null
cmp -s "$TIMELINE" "$OUT/timeline_jobs7.csv" \
  || { echo "obs_smoke: timeline differs between --jobs 1 and --jobs 7"; \
       exit 1; }
cmp -s "$TRACE" "$OUT/trace_jobs7.json" \
  || { echo "obs_smoke: trace differs between --jobs 1 and --jobs 7"; \
       exit 1; }

# --- Chaos sweep ------------------------------------------------------------

# Four scenarios x three policies x two seeds append 24 grid cells to one
# timeline and trace; each (scenario, cell) must stay its own monotone
# source, and the hedge counters (never fired by the model-less
# serve-sim above) must reconcile with the snapshot like every other
# counter.
CHAOS_METRICS="$OUT/chaos_metrics.csv"
CHAOS_TIMELINE="$OUT/chaos_timeline.csv"
"$GPUPERF" chaos --duration 5 --runs 2 --jobs 1 \
  --metrics-out "$CHAOS_METRICS" --timeline-out "$CHAOS_TIMELINE" \
  --trace-out "$OUT/chaos_trace.json" >/dev/null
check_accounting "$CHAOS_METRICS"
check_timeline "$CHAOS_TIMELINE" "$CHAOS_METRICS"
awk -F, '$1 == "gpuperf_serving_hedges_issued" && $4 > 0 { found = 1 }
  END { if (!found) { print "obs_smoke: chaos issued no hedges"; exit 1 } }' \
  "$CHAOS_METRICS"
sources=$(tail -n +2 "$CHAOS_TIMELINE" | cut -d, -f2 | sort -u | wc -l)
[ "$sources" -eq 24 ] \
  || { echo "obs_smoke: chaos timeline has $sources sources, want 24"; \
       exit 1; }

if [ -n "${OBS_SMOKE_ARTIFACT_DIR:-}" ]; then
  mkdir -p "$OBS_SMOKE_ARTIFACT_DIR"
  cp "$TIMELINE" "$TRACE" "$OBS_SMOKE_ARTIFACT_DIR/"
fi

echo "obs_smoke: OK"
