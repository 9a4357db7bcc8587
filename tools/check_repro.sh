#!/usr/bin/env bash
# Runs every figure/table/ablation/extension bench and audits the
# "reproduction check" blocks: any measured/paper ratio outside
# [MIN_RATIO, MAX_RATIO] is reported and fails the script.
#
# Also writes a machine-readable summary to $SUMMARY_JSON (default
# repro_summary.json in the current directory): per-bench pass/fail, check
# counts, the audited ratios, host wall-clock seconds, and the simulated
# virtual completion time (total_vt_ps, harvested via --profile-json; null
# for benches without profiler support), so CI and cross-PR tooling can
# diff reproduction health and perf trajectory without re-parsing stdout.
# The summary header carries provenance: the git commit the audit ran at
# (git_sha, plus git_dirty when the tree had local edits) and a SHA-256
# over the device-model sources (device_config_sha256, src/sim/config.*) —
# two summaries are comparable only when both hashes match, since virtual
# time moves whenever the device model does.
#
# Usage: tools/check_repro.sh [build-dir] [min-ratio] [max-ratio]
#        SUMMARY_JSON=path tools/check_repro.sh ...
set -u

BUILD_DIR="${1:-build}"
MIN_RATIO="${2:-0.5}"
MAX_RATIO="${3:-2.0}"
SUMMARY_JSON="${SUMMARY_JSON:-repro_summary.json}"

if [ ! -d "$BUILD_DIR/bench" ]; then
  echo "error: $BUILD_DIR/bench not found (build the project first)" >&2
  exit 2
fi

tmp_out="$(mktemp)"
tmp_prof="$(mktemp)"
trap 'rm -f "$tmp_out" "$tmp_prof"' EXIT

ROOT="$(cd "$(dirname "$0")/.." && pwd)"

# Provenance: the commit this audit ran at, and a hash of the device-model
# sources (the timing truth every virtual-time number derives from).
git_sha="$(git -C "$ROOT" rev-parse HEAD 2>/dev/null || echo unknown)"
git_dirty=false
if [ "$git_sha" != unknown ] &&
   ! git -C "$ROOT" diff --quiet HEAD -- 2>/dev/null; then
  git_dirty=true
fi
device_config_sha256="$(cat "$ROOT"/src/sim/config.hpp \
                            "$ROOT"/src/sim/config.cpp 2>/dev/null \
                        | sha256sum | awk '{print $1}')"

status=0
total_checks=0
bad_checks=0
bench_entries=""

# json_str <text> — minimal JSON string escaping (quotes and backslashes;
# bench names and check labels contain nothing wilder).
json_str() {
  printf '%s' "$1" | sed -e 's/\\/\\\\/g' -e 's/"/\\"/g'
}

for bench in "$BUILD_DIR"/bench/*; do
  [ -f "$bench" ] && [ -x "$bench" ] || continue
  name="$(basename "$bench")"
  case "$name" in
    micro_internals) continue ;;  # host-time microbenchmarks: no checks
  esac
  echo "== $name"
  bench_status="pass"
  bench_checks=0
  bench_bad=0
  check_entries=""
  # Wall-clock around the run; virtual completion time via the bench's
  # --profile-json. Unknown flags are an error, so the benches without
  # profiler support run without it (the file stays empty -> total_vt_ps
  # stays null).
  : > "$tmp_prof"
  prof_args=(--profile-json "$tmp_prof")
  case "$name" in
    abl_*|ext_accelerators|ext_libraries|ext_multidev|ext_races|\
    table2_devices) prof_args=() ;;
  esac
  t0="$(date +%s%N)"
  if ! "$bench" "${prof_args[@]}" > "$tmp_out" 2>&1; then
    t1="$(date +%s%N)"
    wall_s="$(awk -v a="$t0" -v b="$t1" 'BEGIN{printf "%.3f", (b-a)/1e9}')"
    total_vt_ps="null"
    echo "   BENCH FAILED (non-zero exit)"
    bench_status="error"
    status=1
  else
    t1="$(date +%s%N)"
    wall_s="$(awk -v a="$t0" -v b="$t1" 'BEGIN{printf "%.3f", (b-a)/1e9}')"
    total_vt_ps="$(python3 - "$tmp_prof" <<'EOF'
import json, sys
try:
    with open(sys.argv[1]) as f:
        doc = json.load(f)
    if doc.get("schema") != "tshmem.profile.v1":
        raise ValueError
    runs = ([r["profile"] for r in doc["runs"]]
            if "runs" in doc else [doc])
    print(sum(r.get("total_vt_ps", 0) for r in runs))
except Exception:
    print("null")
EOF
)"
    # Parse check rows: inside a "reproduction check" block, the last column
    # is the measured/paper ratio (or "-" when no paper value exists).
    in_block=0
    while IFS= read -r line; do
      case "$line" in
        *"reproduction check"*) in_block=1; continue ;;
        "") in_block=0; continue ;;
      esac
      [ "$in_block" = 1 ] || continue
      case "$line" in
        quantity*|---*) continue ;;
        wrote\ *) continue ;;  # telemetry "wrote ... JSON: path" lines
      esac
      ratio="$(printf '%s\n' "$line" | awk '{print $NF}')"
      case "$ratio" in
        -|"") continue ;;
      esac
      total_checks=$((total_checks + 1))
      bench_checks=$((bench_checks + 1))
      ok="$(awk -v r="$ratio" -v lo="$MIN_RATIO" -v hi="$MAX_RATIO" \
            'BEGIN { print (r >= lo && r <= hi) ? 1 : 0 }')"
      label="$(printf '%s\n' "$line" | awk '{NF -= 4; print}' \
               | sed 's/[[:space:]]*$//')"
      if [ "$ok" != 1 ]; then
        echo "   OUT OF BAND ($ratio): $line"
        bad_checks=$((bad_checks + 1))
        bench_bad=$((bench_bad + 1))
        bench_status="fail"
        status=1
      fi
      entry="{\"quantity\": \"$(json_str "$label")\", \"ratio\": $ratio,"
      entry="$entry \"in_band\": $([ "$ok" = 1 ] && echo true || echo false)}"
      check_entries="$check_entries${check_entries:+, }$entry"
    done < "$tmp_out"
  fi
  bench_entry="{\"bench\": \"$(json_str "$name")\","
  bench_entry="$bench_entry \"status\": \"$bench_status\","
  bench_entry="$bench_entry \"checks\": $bench_checks,"
  bench_entry="$bench_entry \"out_of_band\": $bench_bad,"
  bench_entry="$bench_entry \"wall_s\": $wall_s,"
  bench_entry="$bench_entry \"total_vt_ps\": $total_vt_ps,"
  bench_entry="$bench_entry \"results\": [$check_entries]}"
  bench_entries="$bench_entries${bench_entries:+,
    }$bench_entry"
done

{
  echo "{"
  echo "  \"schema\": \"tshmem.repro_summary.v1\","
  echo "  \"git_sha\": \"$git_sha\","
  echo "  \"git_dirty\": $git_dirty,"
  echo "  \"device_config_sha256\": \"$device_config_sha256\","
  echo "  \"min_ratio\": $MIN_RATIO,"
  echo "  \"max_ratio\": $MAX_RATIO,"
  echo "  \"total_checks\": $total_checks,"
  echo "  \"out_of_band\": $bad_checks,"
  echo "  \"passed\": $([ "$status" = 0 ] && echo true || echo false),"
  echo "  \"benches\": ["
  printf '    %s\n' "$bench_entries"
  echo "  ]"
  echo "}"
} > "$SUMMARY_JSON"

echo
echo "reproduction audit: $total_checks checks, $bad_checks outside" \
     "[$MIN_RATIO, $MAX_RATIO]"
echo "summary written to $SUMMARY_JSON"
exit $status
