#!/usr/bin/env bash
# Run every benchmark binary and collect results into BENCH_*.json at the
# repo root, seeding the perf trajectory tracked across PRs.
#
#   - bench_micro_* (Google Benchmark) emit native JSON via
#     --benchmark_format=json, run with MICRO_REPETITIONS repetitions and
#     only the aggregate rows (<name>_mean/_median/_stddev/_cv) kept.
#   - bench_fig* / bench_ablation_* / bench_table1_* (figure and table
#     reproductions) print human-readable text; their stdout is wrapped in a
#     JSON envelope {bench, exit_code, seconds, output}.
#
# The build directory defaults to ./build; the CMake `bench` target invokes
# this script with PAPAYA_BENCH_DIR pointing at the active build tree.
#
# Usage: scripts/bench.sh [--compare] [name-filter]
#   e.g. scripts/bench.sh fig2            # only benches matching "fig2"
#        scripts/bench.sh --compare fig13 # regenerate + delta vs committed
#
# --compare enforces the ROADMAP "perf baseline discipline": after each
# bench regenerates its BENCH_*.json, every time metric is diffed against
# the baseline committed at HEAD (git show), the delta is printed, and the
# script exits nonzero if any metric regressed by more than
# PAPAYA_BENCH_TOLERANCE (default 0.10 = +10%).  Regression means *slower*:
# micro benches compare each benchmark's median real_time (<name>_median)
# against the baseline's <name>_median, or against its plain <name> row
# when the baseline predates repetitions; figure benches compare the
# envelope's wall-clock seconds.  One run of a micro bench moves by more
# than the tolerance from run to run on a shared box; the median of
# several does not.
set -uo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${PAPAYA_BENCH_DIR:-$ROOT/build}"
TOLERANCE="${PAPAYA_BENCH_TOLERANCE:-0.10}"
MICRO_REPETITIONS=5

COMPARE=0
FILTER=""
for arg in "$@"; do
  case "$arg" in
    --compare) COMPARE=1 ;;
    --*)
      echo "error: unknown flag '$arg' (usage: bench.sh [--compare] [filter])" >&2
      exit 2
      ;;
    *) FILTER="$arg" ;;
  esac
done

if ! command -v jq > /dev/null; then
  echo "error: jq is required to collect bench results" >&2
  exit 1
fi

if ! compgen -G "$BUILD/bench_*" > /dev/null; then
  echo "error: no bench_* binaries in $BUILD — build first:" >&2
  echo "  cmake -B build -S . && cmake --build build -j" >&2
  exit 1
fi

failures=0
ran=0
compare_failures=0

# Print the delta of each time metric in $2 (fresh JSON) against the
# baseline committed at HEAD for bench $1; count metrics beyond TOLERANCE.
# A bench whose own source changed since HEAD is reported informationally
# but not gated — a bench that gained a column legitimately runs longer,
# and flagging that as a perf regression would train authors to ignore the
# gate (regenerate + commit the new baseline instead).
compare_with_baseline() {
  local name="$1" new_json="$2"
  local out_name="BENCH_${name#bench_}.json"
  local old_json
  if ! old_json="$(git -C "$ROOT" show "HEAD:$out_name" 2>/dev/null)"; then
    printf '   compare: no committed baseline for %s (new bench)\n' "$out_name"
    return 0
  fi
  local gated=1
  if ! git -C "$ROOT" diff --quiet HEAD -- "bench/$name.cpp" 2>/dev/null; then
    gated=0
    printf '   compare: bench/%s.cpp changed since HEAD — deltas are informational, not gated\n' \
      "$name"
  fi
  local rows
  if [[ "$name" == bench_micro_* ]]; then
    # Metrics present only in the fresh run (a bench that gained a sweep or
    # a new arg) are reported as NEW and never gated: there is no
    # baseline to regress against, and erroring on them would block the very
    # commit that introduces the column.
    rows="$(jq -rn '
      def medians: [.benchmarks[]? | select(.aggregate_name == "median")];
      (input) as $old
      | ($old | medians | map({key: .run_name, value: .real_time})
              | from_entries) as $old_median
      | ($old | [.benchmarks[]?
                 | select((.run_type // "iteration") == "iteration")
                 | {key: .name, value: .real_time}] | from_entries) as $old_plain
      | (input | medians[])
      | ($old_median[.run_name] // $old_plain[.run_name]) as $base
      | if $base != null and ($base > 0) then
          [.name, $base, .real_time, ((.real_time / $base - 1) * 100)]
        else
          [.name, "new", .real_time, "new"]
        end
      | @tsv' <(printf '%s' "$old_json") "$new_json" 2>/dev/null)"
  else
    rows="$(jq -rn '
      (input | .seconds) as $old
      | (input | .seconds) as $new
      | select($old != null and $new != null and ($old > 0))
      | ["seconds", $old, $new, (($new / $old - 1) * 100)]
      | @tsv' <(printf '%s' "$old_json") "$new_json" 2>/dev/null)"
  fi
  if [ -z "$rows" ]; then
    printf '   compare: no comparable metrics for %s\n' "$name"
    return 0
  fi
  local bad
  printf '%s\n' "$rows" | awk -F'\t' -v tol="$TOLERANCE" -v gated="$gated" '
    $2 == "new" {
      printf "     %-44s %14s -> %14.3f  NEW (informational)\n", $1, "-", $3
      next
    }
    {
      flag = (gated && $4 > tol * 100) ? "  REGRESSION" : ""
      printf "     %-44s %14.3f -> %14.3f  %+7.1f%%%s\n", $1, $2, $3, $4, flag
    }'
  bad="$(printf '%s\n' "$rows" | awk -F'\t' -v tol="$TOLERANCE" \
    -v gated="$gated" '$2 != "new" && gated && $4 > tol * 100 { n++ } END { print n+0 }')"
  compare_failures=$((compare_failures + bad))
  return 0
}

for bin in "$BUILD"/bench_*; do
  [ -x "$bin" ] || continue
  name="$(basename "$bin")"
  case "$name" in
    *"$FILTER"*) ;;
    *) continue ;;
  esac
  out_json="$ROOT/BENCH_${name#bench_}.json"
  # Stage into a temp file so a crashing bench or failing jq never clobbers
  # the committed baseline with a truncated/empty JSON.  mktemp creates the
  # file 0600; restore umask-default perms so other uids can read results.
  tmp_json="$(mktemp)"
  chmod 644 "$tmp_json"
  printf '== %s\n' "$name"
  start=$(date +%s.%N)
  if [[ "$name" == bench_micro_* ]]; then
    # Google Benchmark: native JSON straight to the collection file.
    if "$bin" --benchmark_format=json \
        --benchmark_repetitions="$MICRO_REPETITIONS" \
        --benchmark_report_aggregates_only=true > "$tmp_json"; then
      [ "$COMPARE" -eq 1 ] && compare_with_baseline "$name" "$tmp_json"
      mv "$tmp_json" "$out_json"
    else
      echo "   FAILED (exit $?)" >&2
      rm -f "$tmp_json"
      failures=$((failures + 1))
    fi
  else
    output="$("$bin" 2>&1)"
    rc=$?
    end=$(date +%s.%N)
    if jq -n \
      --arg bench "$name" \
      --argjson exit_code "$rc" \
      --argjson seconds "$(echo "$end $start" | awk '{printf "%.3f", $1 - $2}')" \
      --arg output "$output" \
      '{bench: $bench, exit_code: $exit_code, seconds: $seconds, output: $output}' \
      > "$tmp_json" && [ "$rc" -eq 0 ]; then
      [ "$COMPARE" -eq 1 ] && compare_with_baseline "$name" "$tmp_json"
      mv "$tmp_json" "$out_json"
    else
      echo "   FAILED (exit $rc)" >&2
      printf '%s\n' "$output" | tail -20 >&2
      rm -f "$tmp_json"
      failures=$((failures + 1))
    fi
  fi
  ran=$((ran + 1))
done

if [ "$ran" -eq 0 ]; then
  echo "error: filter '$FILTER' matched no bench binaries in $BUILD" >&2
  exit 1
fi

echo
echo "ran $ran benches, $failures failed; results in $ROOT/BENCH_*.json"
if [ "$COMPARE" -eq 1 ]; then
  echo "compare: $compare_failures metric(s) regressed beyond +$(awk \
    -v t="$TOLERANCE" 'BEGIN { printf "%.0f", t * 100 }')% of the HEAD baseline"
fi
[ "$failures" -eq 0 ] && [ "$compare_failures" -eq 0 ]
