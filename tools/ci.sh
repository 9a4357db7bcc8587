#!/usr/bin/env bash
# Tier-1 CI entry point: configure, build, run the unit/integration test
# suite, check that examples/quickstart's stdout is the same on three runs,
# then exercise the telemetry path end to end — one bench run whose
# --metrics-json output is validated for schema shape and whose
# --trace-json timeline must agree with its --profile-json report — then a
# telemetry identity stage (every telemetry file of fig06-fig13,
# ext_overlap and ext_faults must stay byte-identical whichever other
# probe consumers share the run and whichever host path the token barrier
# takes), and finally rebuild the
# concurrency-sensitive suites (NBI/DMA engine, tmc + tshmem barriers,
# collectives, runtime, UDN, device runtime and its crew of host threads,
# the fork-join baseline and the
# cluster, whose waits all meet in the one host rendezvous, and the probe's
# consumers: metrics, profiler, flight recorder and time series, race
# detector, the CBIR app with its process-wide feature cache, and the
# serving layer over its replica clusters) under ThreadSanitizer and run
# them race-clean.
#
# After the sanitizer stages, the fault-injection campaign (bench/ext_faults)
# runs twice per seed over a fixed seed set and the outputs are diffed:
# the deterministic-replay contract (docs/ROBUSTNESS.md) requires the
# injected-event log, recovery counters, and final virtual clocks to be
# bit-identical for the same (seed, plan).
#
# The static-analysis stages (docs/ANALYSIS.md) follow: the tshmem_lint
# rule pack over the whole tree, clang-tidy over compile_commands.json when
# the binary is available, and the tshmem-check racecheck stage — every
# figure bench plus ext_overlap/ext_faults runs under TSHMEM_RACECHECK=fail
# and its stdout is diffed against the detector-off run (the detector must
# find nothing AND move nothing), then the ext_races gallery asserts the
# detector still flags each seeded bug. The same loop re-runs every bench
# under TSHMEM_PROFILE=1 and requires bit-identical stdout: the
# critical-path profiler observes virtual time but never advances it
# (docs/PROFILING.md). The same loop then runs every bench under
# TSHMEM_FLIGHTREC=1 + TSHMEM_TIMESERIES_WINDOW_PS and requires
# bit-identical stdout again: the flight recorder and windowed time series
# share the profiler's zero-virtual-cost contract (docs/OBSERVABILITY.md).
#
# The serving smoke stage (docs/SERVING.md): a shortened ramped ext_serve
# run must sustain non-zero QPS with nothing hung, exit promptly with its
# time series and blackbox written (over a stale file left at the blackbox
# path), and write both files bit-identically twice; a shard-stall fault
# plan must shed load (structured rejects) rather than hang, replaying
# bit-identically.
#
# The triage smoke closes the run (docs/OBSERVABILITY.md): ext_faults
# --hang-demo strands PE 0 in shmem_wait_until under a short watchdog, the
# aborting runtime must leave a parseable tshmem.blackbox.v1 post-mortem,
# and tools/triage.py must render it naming the stuck operation.
#
# Usage: tools/ci.sh [build-dir]
#   TSHMEM_CI_TSAN=0 skips the ThreadSanitizer stage (e.g. toolchains
#   without libtsan).
#   TSHMEM_CI_ASAN=0 skips the Address/UB-Sanitizer stage (e.g. toolchains
#   without libasan/libubsan).
#   TSHMEM_CI_TIDY=0 skips clang-tidy (it is also skipped, loudly, when
#   no clang-tidy binary is on PATH).
#   TSHMEM_CI_RACECHECK=0 skips the tshmem-check racecheck stage and the
#   telemetry identity stage's racecheck run (under the detector, fig11
#   alone passes 8 GB of RSS).
#   TSHMEM_CI_PERF=0 skips the perf-trajectory stage (tools/perf_run.py:
#   wall + virtual-time per bench, schema tshmem.bench.v1, failing on a
#   >25% wall-clock regression against the newest committed BENCH_*.json).
set -eu

BUILD_DIR="${1:-build}"
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$ROOT"

echo "== configure"
# The main build is warning-free and stays so: any new warning fails CI.
cmake -B "$BUILD_DIR" -S . -DTSHMEM_WERROR=ON >/dev/null

echo "== build"
cmake --build "$BUILD_DIR" -j

echo "== ctest"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)"

tmp_dir="$(mktemp -d)"
trap 'rm -rf "$tmp_dir"' EXIT

echo "== quickstart determinism (three runs, byte-identical stdout)"
# ctest runs it for its exit status; its stdout must not depend on the
# host schedule either.
for run in 1 2 3; do
  "$BUILD_DIR"/examples/quickstart > "$tmp_dir/quickstart_$run.txt"
done
cmp "$tmp_dir/quickstart_1.txt" "$tmp_dir/quickstart_2.txt"
cmp "$tmp_dir/quickstart_1.txt" "$tmp_dir/quickstart_3.txt"

echo "== telemetry smoke (fig08_tshmem_barrier --metrics-json/--trace-json" \
     "/--profile-json)"
metrics_json="$tmp_dir/metrics.json"
trace_json="$tmp_dir/trace.json"
profile_json="$tmp_dir/profile.json"
"$BUILD_DIR"/bench/fig08_tshmem_barrier --metrics-json "$metrics_json" \
  --trace-json "$trace_json" --profile-json "$profile_json" >/dev/null

python3 - "$metrics_json" "$trace_json" "$profile_json" <<'EOF'
import collections
import json
import sys

metrics_path, trace_path, profile_path = sys.argv[1:4]

with open(metrics_path) as f:
    m = json.load(f)
assert m["schema"] == "tshmem.metrics.v1", m.get("schema")
assert m["runs"], "metrics JSON has no runs"
for run in m["runs"]:
    assert run["npes"] > 0
    names = {c["name"] for c in run["counters"]}
    assert "shmem.barrier.calls" in names, sorted(names)
    assert any(h["count"] > 0 for h in run["histograms"]
               if h["name"] == "shmem.barrier.wait_ps"), \
        "no barrier wait samples"

with open(trace_path) as f:
    events = json.load(f)["traceEvents"]
with open(profile_path) as f:
    runs = {r["name"]: r["profile"] for r in json.load(f)["runs"]}
assert any(e["ph"] == "X" for e in events), "no complete events in trace"

def ps(us):
    return round(float(us) * 1e6)

# The trace and the profile see one probe stream: per (phase, site), the
# span X events' count and summed duration are the profile's calls and
# total_ps ("compute" is the residual under no span, not a span).
spans = collections.defaultdict(lambda: [0, 0])
wait_ends = set()
for e in events:
    if e["ph"] != "X":
        continue
    if e["cat"] == "wait_edge":
        wait_ends.add((e["pid"], e["tid"], ps(e["ts"]) + ps(e["dur"])))
    elif e["cat"] != "nbi":
        s = spans[(e["pid"], e["cat"], e["name"])]
        s[0] += 1
        s[1] += ps(e["dur"])
procs = {e["pid"]: e["args"]["name"] for e in events
         if e["ph"] == "M" and e["name"] == "process_name"}
for pid, name in procs.items():
    p = runs[name]
    assert p["dropped_events"] == 0, (name, p["dropped_events"])
    want = {(s["phase"], s["site"]): [s["calls"], s["total_ps"]]
            for s in p["sites"] if (s["phase"], s["site"]) != ("compute",
                                                             "compute")}
    got = {k[1:]: v for k, v in spans.items() if k[0] == pid}
    assert got == want, (name, got, want)
# Every flow arrow ends where a wait interval on its track ends.
flows = [e for e in events if e["ph"] == "f"]
assert flows, "no critical-path flow arrows in trace"
for e in flows:
    assert (e["pid"], e["tid"], ps(e["ts"])) in wait_ends, e
# Every track an event uses is named.
named = {(e["pid"], e["tid"]) for e in events
         if e["ph"] == "M" and e["name"] == "thread_name"}
used = {(e["pid"], e["tid"]) for e in events if e["ph"] != "M"}
assert used <= named, sorted(used - named)
print(f"telemetry OK: {len(m['runs'])} run(s), {len(events)} trace events, "
      f"{len(spans)} span sites match the profile, {len(flows)} flows")
EOF

echo "== telemetry identity (metrics alone / + time series + blackbox /" \
     "+ TSHMEM_PROFILE=1 / + TSHMEM_RACECHECK=fail)"
# Each consumer reads the one probe stream on its own, and none of them
# changes how the host runs a job: the token barrier's host rendezvous
# reports each token's records itself. tshmem-check's vector clocks ride on
# each token, so TSHMEM_RACECHECK=fail keeps the token messages; its time
# series and blackbox must equal the rendezvous runs'. It is a racecheck
# run, so TSHMEM_CI_RACECHECK=0 skips it as it skips the racecheck stage.
# None of that may move a byte of any file.
identity_ok=1
for b in fig06_putget_dynamic fig07_putget_static fig08_tshmem_barrier \
         fig09_broadcast_push fig10_broadcast_pull fig11_fcollect \
         fig12_reduction fig13_fft2d ext_overlap ext_faults; do
  d="$tmp_dir/id_$b"
  mkdir -p "$d"
  "$BUILD_DIR"/bench/"$b" --metrics-json "$d/m1.json" >/dev/null
  "$BUILD_DIR"/bench/"$b" --metrics-json "$d/m2.json" \
    --timeseries-json "$d/t2.json" --blackbox-json "$d/b2.json" >/dev/null
  TSHMEM_PROFILE=1 "$BUILD_DIR"/bench/"$b" --metrics-json "$d/m3.json" \
    --timeseries-json "$d/t3.json" --blackbox-json "$d/b3.json" >/dev/null
  same=1
  cmp -s "$d/m1.json" "$d/m2.json" && cmp -s "$d/m1.json" "$d/m3.json" &&
    cmp -s "$d/t2.json" "$d/t3.json" && cmp -s "$d/b2.json" "$d/b3.json" ||
    same=0
  if [ "${TSHMEM_CI_RACECHECK:-1}" != "0" ]; then
    TSHMEM_RACECHECK=fail "$BUILD_DIR"/bench/"$b" \
      --timeseries-json "$d/t4.json" --blackbox-json "$d/b4.json" >/dev/null
    cmp -s "$d/t2.json" "$d/t4.json" && cmp -s "$d/b2.json" "$d/b4.json" ||
      same=0
  fi
  if [ "$same" = 1 ]; then
    echo "   $b: metrics, time series and blackbox byte-identical"
  else
    echo "   $b: TELEMETRY MOVED WITH THE CONSUMER SET"
    identity_ok=0
  fi
done
[ "$identity_ok" = 1 ]

if [ "${TSHMEM_CI_TSAN:-1}" != "0" ]; then
  echo "== tsan (test_nbi, test_tmc_barrier, test_barrier_sync," \
       "test_collectives, test_runtime, test_udn, test_device_runtime," \
       "test_compare, test_cluster, test_metrics, test_profiler," \
       "test_flightrec, test_racecheck, test_apps_cbir, test_svc)"
  TSAN_DIR="${BUILD_DIR}-tsan"
  cmake -B "$TSAN_DIR" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS=-fsanitize=thread \
    -DCMAKE_EXE_LINKER_FLAGS=-fsanitize=thread >/dev/null
  cmake --build "$TSAN_DIR" -j \
    --target test_nbi test_tmc_barrier test_barrier_sync test_collectives \
    test_runtime test_udn test_device_runtime test_compare test_cluster \
    test_metrics test_profiler test_flightrec test_racecheck test_apps_cbir \
    test_svc
  # TSan exits non-zero (66) on any reported race even when gtest passes.
  "$TSAN_DIR"/tests/test_nbi
  "$TSAN_DIR"/tests/test_tmc_barrier
  "$TSAN_DIR"/tests/test_barrier_sync
  # Collectives interleave the token-barrier rendezvous with UDN control
  # traffic on the same PEs.
  "$TSAN_DIR"/tests/test_collectives
  "$TSAN_DIR"/tests/test_runtime
  # A put publishes its delivery time before its data; TSan widens the
  # window a reordering would open, so repeat the wait_until suite.
  "$TSAN_DIR"/tests/test_barrier_sync --gtest_filter='WaitUntil.*' \
    --gtest_repeat=20
  # Waits spin before they park only while the tile threads fit on the
  # host's CPUs, and the spin path's races depend on the schedule: repeat
  # the UDN suite and the 2-64 PE token-rendezvous cases (spin at the low
  # counts, park at the high ones).
  "$TSAN_DIR"/tests/test_device_runtime
  # The rendezvous protocol tests: their 2-4 member runs wait on the spin
  # path, and the run with more members than CPUs parks every waiter, so
  # the repeats cover both paths of the state word and the parking lot.
  "$TSAN_DIR"/tests/test_device_runtime --gtest_filter='Rendezvous.*' \
    --gtest_repeat=20
  # Each Device's crew grows while its older workers spin or park between
  # jobs, so a worker that reached its slot through the crew's vector
  # would race the vector's reallocation; the growth test shows that race
  # as a TSan report. The repeats also cover the hand-off, the last
  # worker's wake of the caller and teardown of a parked crew.
  "$TSAN_DIR"/tests/test_device_runtime --gtest_filter='DeviceCrew.*' \
    --gtest_repeat=20
  "$TSAN_DIR"/tests/test_udn --gtest_repeat=10
  # A tile's clock, its UDN traffic counts and its interrupt count have
  # one writer, the tile's own thread, which adds without a locked
  # read-modify-write; an interrupt service clock has several, one at a
  # time under its target's lock. Repeat the owner-write tests: clocks
  # read while written, the copy-cost memo of a service tile three
  # requesters share, a target's clock beside three requesters, and four
  # concurrent senders' traffic counts.
  "$TSAN_DIR"/tests/test_device_runtime --gtest_filter='SimClock.*:CopyMemo.*' \
    --gtest_repeat=20
  "$TSAN_DIR"/tests/test_tmc_barrier --gtest_filter='Interrupts.*' \
    --gtest_repeat=20
  "$TSAN_DIR"/tests/test_udn --gtest_filter='UdnTraffic.*' --gtest_repeat=20
  "$TSAN_DIR"/tests/test_barrier_sync \
    --gtest_filter='Devices/TokenRendezvousTest.*' --gtest_repeat=10
  # The rendezvous releases every PE at once into live recorder rings,
  # time-series cells, profiler stacks and trace logs.
  "$TSAN_DIR"/tests/test_barrier_sync \
    --gtest_filter='Devices/TokenRecordsTest.*' --gtest_repeat=10
  # ForkJoin's fork and join and Cluster::run's start and finish gates
  # wait in the same host rendezvous as host_sync and the barriers.
  "$TSAN_DIR"/tests/test_compare
  "$TSAN_DIR"/tests/test_cluster
  # Every tile thread reads the device's probe list, and the race detector
  # is attached to it once per job. The metrics consumer and the time
  # series keep per-tile state written by each tile's own thread.
  "$TSAN_DIR"/tests/test_metrics
  "$TSAN_DIR"/tests/test_profiler
  "$TSAN_DIR"/tests/test_flightrec
  "$TSAN_DIR"/tests/test_racecheck
  # PE threads and concurrent lookups share the process-wide FeatureCache.
  # The 5500-image oracle sweep adds nothing under a sanitizer.
  "$TSAN_DIR"/tests/test_apps_cbir \
    --gtest_filter=-CbirOracle.EveryDefaultDatabaseImage
  # The service's replicas run clusters of PE threads behind one router,
  # and calibration shares the process-wide feature cache.
  "$TSAN_DIR"/tests/test_svc
else
  echo "== tsan: skipped (TSHMEM_CI_TSAN=0)"
fi

if [ "${TSHMEM_CI_ASAN:-1}" != "0" ]; then
  echo "== asan+ubsan (test_fault_injection, test_failure_injection," \
       "test_nbi, test_flightrec, test_apps_cbir, test_device_runtime," \
       "test_barrier_sync's active-set table)"
  ASAN_DIR="${BUILD_DIR}-asan"
  cmake -B "$ASAN_DIR" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined" >/dev/null
  cmake --build "$ASAN_DIR" -j \
    --target test_fault_injection test_failure_injection test_nbi \
    test_flightrec test_apps_cbir test_device_runtime test_barrier_sync
  # ASan/UBSan abort on the first finding, so a clean gtest pass means a
  # clean run (including the error/exception paths the fault tests force).
  "$ASAN_DIR"/tests/test_fault_injection
  "$ASAN_DIR"/tests/test_failure_injection
  "$ASAN_DIR"/tests/test_nbi
  # Includes a Service that owns a recorder and a time series: its
  # teardown must touch no freed consumer.
  "$ASAN_DIR"/tests/test_flightrec
  # The extractor's row and column pair loops, on the oracle's edge shapes.
  "$ASAN_DIR"/tests/test_apps_cbir \
    --gtest_filter=-CbirOracle.EveryDefaultDatabaseImage
  # Each Device's crew: its teardown, parked or spinning, and the paths of
  # a tile that throws on the caller's thread or on a crew thread.
  "$ASAN_DIR"/tests/test_device_runtime
  # Each PE's table of active sets keeps pointers to the Runtime's barrier
  # objects, which a job's teardown frees: the next job must not read one.
  "$ASAN_DIR"/tests/test_barrier_sync --gtest_filter='ActiveSetTable.*'
else
  echo "== asan+ubsan: skipped (TSHMEM_CI_ASAN=0)"
fi

echo "== lint (tools/tshmem_lint.py)"
python3 tools/tshmem_lint.py src bench tests

if [ "${TSHMEM_CI_TIDY:-1}" != "0" ]; then
  if command -v clang-tidy >/dev/null 2>&1; then
    echo "== clang-tidy (.clang-tidy over compile_commands.json)"
    if command -v run-clang-tidy >/dev/null 2>&1; then
      run-clang-tidy -quiet -p "$BUILD_DIR" "src/.*\.cpp"
    else
      # Fall back to invoking clang-tidy directly on the main sources.
      find src -name '*.cpp' -print0 |
        xargs -0 clang-tidy -quiet -p "$BUILD_DIR"
    fi
  else
    echo "== clang-tidy: skipped (no clang-tidy on PATH)"
  fi
else
  echo "== clang-tidy: skipped (TSHMEM_CI_TIDY=0)"
fi

if [ "${TSHMEM_CI_RACECHECK:-1}" != "0" ]; then
  echo "== racecheck (tshmem-check over the figure benches)"
  racecheck_ok=1
  for b in fig03_memcpy_bandwidth fig04_udn_latency fig05_tmc_barriers \
           fig06_putget_dynamic fig07_putget_static fig08_tshmem_barrier \
           fig09_broadcast_push fig10_broadcast_pull fig11_fcollect \
           fig12_reduction fig13_fft2d fig14_cbir ext_overlap ext_faults \
           ext_serve; do
    # The serving bench gets a shortened load so the triple run (off /
    # detector-on / profiler-on) stays cheap; stdout must still be
    # bit-identical in all three.
    args=""
    [ "$b" = ext_serve ] && args="--queries 50000 --images 256 --pes 2"
    "$BUILD_DIR"/bench/"$b" $args > "$tmp_dir/rc_off_$b.txt"
    if ! TSHMEM_RACECHECK=fail "$BUILD_DIR"/bench/"$b" $args \
        > "$tmp_dir/rc_on_$b.txt"; then
      echo "   $b: RACE REPORTED"
      racecheck_ok=0
      continue
    fi
    if diff -u "$tmp_dir/rc_off_$b.txt" "$tmp_dir/rc_on_$b.txt" >/dev/null
    then
      echo "   $b: clean, bit-identical"
    else
      echo "   $b: OUTPUT MOVED UNDER DETECTOR"
      racecheck_ok=0
    fi
    # Profiler identity: the critical-path profiler observes virtual time
    # but must never advance it (docs/PROFILING.md), so profiler-on stdout
    # must be bit-identical too.
    if ! TSHMEM_PROFILE=1 "$BUILD_DIR"/bench/"$b" $args \
        > "$tmp_dir/prof_on_$b.txt"; then
      echo "   $b: FAILED UNDER PROFILER"
      racecheck_ok=0
      continue
    fi
    if diff -u "$tmp_dir/rc_off_$b.txt" "$tmp_dir/prof_on_$b.txt" >/dev/null
    then
      echo "   $b: profiler-on bit-identical"
    else
      echo "   $b: OUTPUT MOVED UNDER PROFILER"
      racecheck_ok=0
    fi
    # Flight-recorder identity: the recorder and the windowed time series
    # observe virtual time but must never advance it
    # (docs/OBSERVABILITY.md), so recorder-on stdout must be bit-identical.
    if ! TSHMEM_FLIGHTREC=1 TSHMEM_TIMESERIES_WINDOW_PS=1000000000 \
        "$BUILD_DIR"/bench/"$b" $args > "$tmp_dir/fr_on_$b.txt"; then
      echo "   $b: FAILED UNDER FLIGHT RECORDER"
      racecheck_ok=0
      continue
    fi
    if diff -u "$tmp_dir/rc_off_$b.txt" "$tmp_dir/fr_on_$b.txt" >/dev/null
    then
      echo "   $b: recorder-on bit-identical"
    else
      echo "   $b: OUTPUT MOVED UNDER FLIGHT RECORDER"
      racecheck_ok=0
    fi
  done
  [ "$racecheck_ok" = 1 ]
  echo "== racecheck gallery (ext_races: seeded bugs must be flagged)"
  "$BUILD_DIR"/bench/ext_races > "$tmp_dir/ext_races.txt" ||
    { cat "$tmp_dir/ext_races.txt"; exit 1; }
  tail -1 "$tmp_dir/ext_races.txt"
else
  echo "== racecheck: skipped (TSHMEM_CI_RACECHECK=0)"
fi

if [ "${TSHMEM_CI_PERF:-1}" != "0" ]; then
  echo "== perf trajectory (tools/perf_run.py -> tshmem.bench.v1)"
  python3 tools/perf_run.py --selftest
  perf_json="$tmp_dir/bench_ci.json"
  # The CI run writes to a temp path (committed BENCH_<n>.json files are
  # produced by explicit perf_run.py invocations); the diff against the
  # newest committed BENCH_*.json still runs and fails the stage on a
  # >25% wall-clock regression when a prior file exists.
  python3 tools/perf_run.py --build-dir "$BUILD_DIR" --out "$perf_json" \
    --max-wall-regression 1.25
  python3 - "$perf_json" <<'EOF'
import json, sys
sys.path.insert(0, "tools")
from perf_run import validate
with open(sys.argv[1]) as f:
    doc = json.load(f)
validate(doc)
ok = [b for b in doc["benches"] if b["exit_code"] == 0]
vt = [b for b in ok if b["total_vt_ps"]]
assert len(ok) == len(doc["benches"]), "bench failures"
assert vt, "no bench produced a virtual-time profile"
# Gated benches record their plain runs' [min, max]; older files have none.
spreads = [b["plain_spread_s"] for b in ok if b.get("plain_spread_s")]
widest = max((hi / lo for lo, hi in spreads if lo), default=1.0)
print(f"perf OK: {len(ok)} benches, {len(vt)} with profiles, "
      f"total wall {doc['totals']['wall_s']:.1f}s, {len(spreads)} spreads "
      f"(widest max/min {widest:.2f}x)")
EOF
else
  echo "== perf trajectory: skipped (TSHMEM_CI_PERF=0)"
fi

echo "== fault campaign (deterministic replay across seeds)"
campaign_ok=1
for seed in 1 7 42; do
  "$BUILD_DIR"/bench/ext_faults --seed "$seed" > "$tmp_dir/camp_a_$seed.txt"
  "$BUILD_DIR"/bench/ext_faults --seed "$seed" > "$tmp_dir/camp_b_$seed.txt"
  if diff -u "$tmp_dir/camp_a_$seed.txt" "$tmp_dir/camp_b_$seed.txt"; then
    echo "   seed $seed: bit-identical"
  else
    echo "   seed $seed: REPLAY DIVERGED"
    campaign_ok=0
  fi
done
[ "$campaign_ok" = 1 ]

echo "== serving smoke (ext_serve: ramp, shed-not-hang, replay)"
serve_args="--queries 50000 --images 256 --pes 2"
# Healthy ramped run: the service must sustain a non-zero QPS with every
# offered query answered (ext_serve itself exits 1 on hung queries), exit
# promptly after writing its time series and blackbox, and write both
# files byte-identically on a second run. A stale file at the first run's
# blackbox path must be replaced by this run's own snapshot.
echo '{"schema": "stale"}' > "$tmp_dir/serve_bb_a.json"
for run in a b; do
  timeout 300 "$BUILD_DIR"/bench/ext_serve $serve_args \
    --timeseries-json "$tmp_dir/serve_ts_$run.json" \
    --blackbox-json "$tmp_dir/serve_bb_$run.json" \
    > "$tmp_dir/serve_ok_$run.txt"
done
cmp "$tmp_dir/serve_ts_a.json" "$tmp_dir/serve_ts_b.json"
cmp "$tmp_dir/serve_bb_a.json" "$tmp_dir/serve_bb_b.json"
python3 - "$tmp_dir/serve_bb_a.json" <<'EOF'
import json
import sys

with open(sys.argv[1]) as f:
    doc = json.load(f)
assert doc["schema"] == "tshmem.blackbox.v1", doc.get("schema")
assert doc["source"] == "svc", doc.get("source")
print(f"serve blackbox OK: fresh {doc['schema']} from {doc['source']} "
      f"({doc['reason']})")
EOF
cp "$tmp_dir/serve_ok_a.txt" "$tmp_dir/serve_ok.txt"
# Degraded run: every batch on shard 1 loses 20 ms, far past the backlog
# watchdog. The shed-not-hang verdict (docs/SERVING.md): load is refused
# with a structured error, never stranded. Run twice and diff — one
# (seed, fault plan) pair must replay bit-identically.
serve_plan="seed=7,shard_stall=1.0:20000000000,shard_stall_shard=1"
"$BUILD_DIR"/bench/ext_serve $serve_args --fault-plan "$serve_plan" \
  > "$tmp_dir/serve_fault_a.txt"
"$BUILD_DIR"/bench/ext_serve $serve_args --fault-plan "$serve_plan" \
  > "$tmp_dir/serve_fault_b.txt"
if ! diff -u "$tmp_dir/serve_fault_a.txt" "$tmp_dir/serve_fault_b.txt"; then
  echo "   serving replay DIVERGED"
  exit 1
fi
python3 - "$tmp_dir/serve_ok.txt" "$tmp_dir/serve_fault_a.txt" <<'EOF'
import re
import sys

line = re.compile(r"^serve: qps=(?P<qps>[0-9.]+) p50_ps=\d+ p99_ps=\d+ "
                  r"p999_ps=\d+ completed=(?P<completed>\d+) "
                  r"shed=(?P<shed>\d+) hung=(?P<hung>\d+) "
                  r"fault_events=(?P<faults>\d+)", re.MULTILINE)

def parse(path):
    with open(path) as f:
        m = line.search(f.read())
    assert m, f"{path}: no serve summary line"
    return m

ok = parse(sys.argv[1])
assert float(ok.group("qps")) > 0.0, "healthy run: zero QPS"
assert ok.group("hung") == "0", "healthy run: hung queries"
assert ok.group("shed") == "0", "healthy run: shed without a fault plan"

fault = parse(sys.argv[2])
assert int(fault.group("faults")) > 0, "fault run: no injected stalls"
assert int(fault.group("shed")) > 0, "fault run: degraded shard did not shed"
assert fault.group("hung") == "0", "fault run: hung queries (shed-not-hang)"
print(f"serving OK: healthy qps={ok.group('qps')}, degraded "
      f"shed={fault.group('shed')} hung=0, replay bit-identical")
EOF

echo "== failover smoke (replicas=2: stall absorption, crash replay)"
# Same stall plan as above, but every shard slice now has a backup
# replica: the router fails over instead of shedding, so the shed count
# must drop at least 10x (in practice to zero), still with zero hung.
"$BUILD_DIR"/bench/ext_serve $serve_args --replicas 2 \
  --fault-plan "$serve_plan" > "$tmp_dir/serve_repl.txt"
# Permanent-crash campaign: shard 1's primary dies at a seeded dispatch
# and never returns. The backup absorbs its queue (failover > 0, nothing
# shed or hung) and each (seed, plan) pair must replay bit-identically
# across processes.
crash_ok=1
for seed in 1 7 42; do
  crash_plan="seed=$seed,shard_crash=1.0,shard_crash_shard=1"
  "$BUILD_DIR"/bench/ext_serve $serve_args --replicas 2 \
    --fault-plan "$crash_plan" > "$tmp_dir/crash_a_$seed.txt"
  "$BUILD_DIR"/bench/ext_serve $serve_args --replicas 2 \
    --fault-plan "$crash_plan" > "$tmp_dir/crash_b_$seed.txt"
  if diff -u "$tmp_dir/crash_a_$seed.txt" "$tmp_dir/crash_b_$seed.txt"; then
    echo "   crash seed $seed: bit-identical"
  else
    echo "   crash seed $seed: REPLAY DIVERGED"
    crash_ok=0
  fi
done
[ "$crash_ok" = 1 ]
python3 - "$tmp_dir/serve_fault_a.txt" "$tmp_dir/serve_repl.txt" \
  "$tmp_dir/crash_a_7.txt" <<'EOF'
import re
import sys

line = re.compile(r"^serve: qps=[0-9.]+ p50_ps=\d+ p99_ps=\d+ "
                  r"p999_ps=\d+ completed=\d+ "
                  r"shed=(?P<shed>\d+) hung=(?P<hung>\d+) "
                  r"fault_events=\d+ deadline_drop=\d+ "
                  r"failover=(?P<failover>\d+) requeued=(?P<requeued>\d+)",
                  re.MULTILINE)

def parse(path):
    with open(path) as f:
        m = line.search(f.read())
    assert m, f"{path}: no serve summary line"
    return m

unrepl, repl, crash = (parse(p) for p in sys.argv[1:4])
shed1, shed2 = int(unrepl.group("shed")), int(repl.group("shed"))
assert shed1 > 0, "unreplicated stall run shed nothing to compare against"
assert shed2 * 10 <= shed1, \
    f"replicas=2 shed {shed2}, not >=10x below replicas=1 shed {shed1}"
assert repl.group("hung") == "0", "replicated run: hung queries"
assert int(repl.group("failover")) > 0, "replicated run: no failovers"
assert crash.group("hung") == "0", "crash run: hung queries"
assert int(crash.group("shed")) == 0, "crash run: backup did not absorb"
assert int(crash.group("failover")) > 0, "crash run: no failover routing"
assert int(crash.group("requeued")) > 0, "crash run: no crash requeues"
print(f"failover OK: shed {shed1} -> {shed2} with replicas=2, crash "
      f"failover={crash.group('failover')} "
      f"requeued={crash.group('requeued')} hung=0")
EOF

echo "== triage smoke (hang-demo -> blackbox -> tools/triage.py)"
bb_json="$tmp_dir/blackbox.json"
# A short watchdog keeps the stage fast; the demo exits 0 when (and only
# when) the watchdog tripped and the runtime aborted with kWatchdogTimeout.
"$BUILD_DIR"/bench/ext_faults --hang-demo --watchdog-ms 250 \
  --blackbox-json "$bb_json" > "$tmp_dir/hang_demo.txt"
grep -q "runtime aborted as expected" "$tmp_dir/hang_demo.txt"
python3 - "$bb_json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
assert doc["schema"] == "tshmem.blackbox.v1", doc.get("schema")
assert doc["source"] == "runtime", doc["source"]
assert doc["errc_name"] == "watchdog_timeout", doc["errc_name"]
assert doc["merged"], "blackbox has no merged events"
errs = [e for e in doc["merged"] if e["kind"] == "error"]
assert errs and errs[-1]["site"] == "shmem_wait_until", errs
print(f"blackbox OK: {len(doc['merged'])} merged events, incident on "
      f"PE {errs[-1]['pe']}")
EOF
python3 tools/triage.py "$bb_json" > "$tmp_dir/triage.txt"
grep -q "stuck op:  'shmem_wait_until'" "$tmp_dir/triage.txt"
tail -n +3 "$tmp_dir/triage.txt" | head -12

echo "== ci.sh: all green"
