#!/usr/bin/env python3
"""Perf trajectory harness (docs/PROFILING.md).

Runs the figure benches (fig03..fig14) plus the extension benches
(ext_overlap, ext_faults, ext_serve), recording for each:

  - the plain command line a user runs, with no telemetry flag: its host
    wall-clock seconds (time.monotonic around the process) and the
    child's user and sys CPU seconds, minor page faults and voluntary and
    involuntary context switches (getrusage(RUSAGE_CHILDREN) deltas),
  - simulated virtual time + critical-path summary, harvested from a
    separate run of the same command line with --profile-json (schema
    tshmem.profile.v1), whose own wall clock is `profiled_wall_s`, and
  - flight-recorder overhead: the plain command line is re-run with
    TSHMEM_FLIGHTREC=1 and TSHMEM_TIMESERIES_WINDOW_PS set
    (docs/OBSERVABILITY.md), and the wall-clock ratio against the plain
    run is gated at --max-recorder-overhead (default 1.05).
    Gated benches take the best of BEST_OF (3) runs on *both* sides
    (recorder-on, and the main run plus fresh plain re-runs) — single-shot
    wall clocks on a loaded host swing more than the 5% budget being
    measured — and record each side's [min, max] wall as
    `plain_spread_s` and `recorder_spread_s`. Benches faster than the
    noise floor (0.3 s) are reported but not gated, and carry no spread —
    process startup noise dominates there. Virtual time is bit-identical
    on/off by contract; this measures the *host* cost.

The results land in BENCH_<n>.json at the repo root (schema
tshmem.bench.v1), where <n> is one past the highest existing BENCH index.
When a prior BENCH_*.json exists, the new run is diffed against the newest
one: a bench whose best plain wall clock (the low end of its
`plain_spread_s`, else its one plain run) grew past the prior file's
best by more than --max-wall-regression (default 1.25x) fails the run —
unless both sides
sit under the noise floor, where a few hundredths of a second of
scheduler jitter can exceed any ratio, or unless fresh re-runs of the
same plain command line, up to BEST_OF plain runs in all, come in under
the gate (a co-tenant load spike during the recorded run is not a code
regression) — and virtual-time changes are reported as informational
drift (virtual time moves only when the model changes, so a drift line is
a review prompt, not an error). Files recorded before BENCH_25 timed the
profiled run as wall_s; files before BENCH_26 carry no spreads.

Usage:
  tools/perf_run.py [--build-dir build] [--out PATH]
                    [--max-wall-regression 1.25]
                    [--max-recorder-overhead 1.05] [--selftest]

Exit codes: 0 ok, 1 wall-clock regression or failed bench, 2 bad usage.
"""

import argparse
import json
import os
import re
import resource
import subprocess
import sys
import tempfile
import time

SCHEMA = "tshmem.bench.v1"
PROFILE_SCHEMA = "tshmem.profile.v1"
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Each bench runs on one device where it accepts --device; fig04 measures
# both devices unconditionally (Table III needs the pair), so its profile
# arrives in the multi-run wrapper form.
BENCHES = [
    ("fig03_memcpy_bandwidth", ["--device", "gx36"]),
    ("fig04_udn_latency", []),
    ("fig05_tmc_barriers", ["--device", "gx36"]),
    ("fig06_putget_dynamic", ["--device", "gx36"]),
    ("fig07_putget_static", ["--device", "gx36"]),
    ("fig08_tshmem_barrier", ["--device", "gx36"]),
    ("fig09_broadcast_push", ["--device", "gx36"]),
    ("fig10_broadcast_pull", ["--device", "gx36"]),
    ("fig11_fcollect", ["--device", "gx36"]),
    ("fig12_reduction", ["--device", "gx36"]),
    ("fig13_fft2d", ["--device", "gx36"]),
    ("fig14_cbir", ["--device", "gx36"]),
    ("ext_overlap", ["--device", "gx36"]),
    ("ext_faults", []),
    # Serving subsystem (docs/SERVING.md): a shortened ramp that still
    # exercises cold cache -> warm cache; the full run is the 1M default.
    ("ext_serve", ["--queries", "200000"]),
]

# ext_serve prints one machine-readable summary line; its QPS and tail
# latency land in the bench entry (docs/SERVING.md).
SERVE_LINE = re.compile(
    r"^serve: qps=(?P<qps>[0-9.]+) p50_ps=\d+ p99_ps=(?P<p99>\d+)",
    re.MULTILINE)

# Below this baseline wall time the recorder-overhead ratio is noise
# (process startup and page-cache effects dominate), so it is reported
# but not gated.
OVERHEAD_NOISE_FLOOR_S = 0.3

# Runs per side behind every gated wall clock: the recorder gate's
# recorder-on and plain sides, and a regression's plain side.
BEST_OF = 3


def profile_reports(doc):
    """Yields the tshmem.profile.v1 report objects inside `doc`, which is
    either a bare report or the multi-run {"runs": [...]} wrapper."""
    if not isinstance(doc, dict) or doc.get("schema") != PROFILE_SCHEMA:
        return []
    if "runs" in doc:
        return [r["profile"] for r in doc["runs"]]
    return [doc]


def summarize_profile(doc):
    """Extracts (total_vt_ps, dominant_phase, dominant_share, phase_ps)
    from a profile JSON document; null-tolerant (returns Nones)."""
    reports = profile_reports(doc)
    if not reports:
        return None, None, None, None
    total_vt = sum(r.get("total_vt_ps", 0) for r in reports)
    # Dominant phase: from the run with the most virtual time.
    main = max(reports, key=lambda r: r.get("total_vt_ps", 0))
    crit = main.get("critical_path", {})
    phase_ps = {p["phase"]: p["total_ps"] for p in main.get("phases", [])}
    return (total_vt, crit.get("dominant_phase"),
            crit.get("dominant_share"), phase_ps)


# The child's getrusage fields each timed run records, as entry keys.
USAGE_FIELDS = (("user_s", "ru_utime"), ("sys_s", "ru_stime"),
                ("minflt", "ru_minflt"), ("nvcsw", "ru_nvcsw"),
                ("nivcsw", "ru_nivcsw"))


def plain_command(build_dir, name, args):
    """The command line a user runs: the bench and its args, with no
    telemetry flag. The timed run, the recorder runs and every re-run use
    it; the profiled run appends --profile-json to it."""
    return [os.path.join(build_dir, "bench", name)] + list(args)


def timed_run(cmd, env=None):
    """Runs `cmd` to completion. Returns (exit code, wall seconds, the
    child's getrusage deltas keyed as USAGE_FIELDS, stdout text). Runs are
    sequential, so the RUSAGE_CHILDREN delta is this child's alone."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, check=False, env=env,
                          text=True, errors="replace")
    wall = time.monotonic() - t0
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    usage = {key: round(getattr(after, f) - getattr(before, f), 4)
             for key, f in USAGE_FIELDS}
    return proc.returncode, round(wall, 4), usage, proc.stdout or ""


def run_bench(build_dir, name, args, noise_floor=OVERHEAD_NOISE_FLOOR_S):
    plain = plain_command(build_dir, name, args)
    entry = {
        "name": name,
        "args": args,
        "exit_code": None,
        "wall_s": None,
        **{key: None for key, _ in USAGE_FIELDS},
        "profiled_wall_s": None,
        "total_vt_ps": None,
        "dominant_phase": None,
        "dominant_share": None,
        "phase_ps": None,
        "qps": None,
        "p99_latency_ps": None,
        "recorder_wall_s": None,
        "recorder_overhead": None,
        "plain_spread_s": None,
        "recorder_spread_s": None,
    }
    if not os.path.exists(plain[0]):
        entry["exit_code"] = -1
        print(f"  {name}: MISSING ({plain[0]})", file=sys.stderr)
        return entry
    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as tf:
        profile_path = tf.name
    try:
        code, entry["wall_s"], usage, out = timed_run(plain)
        entry.update(usage)
        m = SERVE_LINE.search(out)
        if m:
            entry["qps"] = float(m.group("qps"))
            entry["p99_latency_ps"] = int(m.group("p99"))
        prof_code, entry["profiled_wall_s"], _, _ = timed_run(
            plain + ["--profile-json", profile_path])
        entry["exit_code"] = code or prof_code
        try:
            with open(profile_path) as f:
                doc = json.load(f)
        except (OSError, json.JSONDecodeError):
            doc = None
        (entry["total_vt_ps"], entry["dominant_phase"],
         entry["dominant_share"], entry["phase_ps"]) = summarize_profile(doc)
        # Recorder-overhead pass: the plain command line, with the flight
        # recorder + windowed time series forced on via the environment.
        # Only the host wall clock may move; virtual time is
        # contract-identical. Gated benches (above the noise floor) take
        # the best of BEST_OF runs on both sides, so host load spikes don't
        # masquerade as recorder cost, and record each side's spread.
        if entry["exit_code"] == 0:
            rec_env = dict(os.environ)
            rec_env["TSHMEM_FLIGHTREC"] = "1"
            rec_env["TSHMEM_TIMESERIES_WINDOW_PS"] = "1000000000"

            def wall_of(run_env):
                rc, wall, _, _ = timed_run(plain, run_env)
                return wall if rc == 0 else None

            gated = entry["wall_s"] >= noise_floor
            runs = BEST_OF if gated else 1
            on_walls = [wall_of(rec_env) for _ in range(runs)]
            on_walls = [w for w in on_walls if w is not None]
            off_walls = [entry["wall_s"]] + [wall_of(None)
                                             for _ in range(runs - 1)]
            off_walls = [w for w in off_walls if w]
            if gated:
                entry["plain_spread_s"] = spread(off_walls)
                entry["recorder_spread_s"] = spread(on_walls)
            if on_walls and off_walls:
                entry["recorder_wall_s"] = round(min(on_walls), 4)
                entry["recorder_overhead"] = round(
                    entry["recorder_wall_s"] / min(off_walls), 4)
    finally:
        os.unlink(profile_path)
    vt = entry["total_vt_ps"]
    serve = (f", qps {entry['qps']:.0f} p99 {entry['p99_latency_ps']} ps"
             if entry["qps"] is not None else "")
    rec = (f", recorder {entry['recorder_overhead']:.2f}x"
           if entry["recorder_overhead"] is not None else "")
    cpu = (f" (user {entry['user_s']:.2f}s sys {entry['sys_s']:.2f}s), "
           f"profiled {entry['profiled_wall_s']:.2f}s"
           if entry["profiled_wall_s"] is not None else "")
    print(f"  {name}: wall {entry['wall_s']:.2f}s{cpu}, vt "
          f"{vt if vt is not None else '?'} ps, dominant "
          f"{entry['dominant_phase']}{serve}{rec}")
    return entry


def spread(walls):
    """[min, max] of a side's wall clocks, or None when none ran."""
    return [min(walls), max(walls)] if walls else None


def best_wall(bench):
    """A bench entry's best plain wall clock: the low end of its spread
    when it has one (gated benches since BENCH_26), else its one run."""
    spread_s = bench.get("plain_spread_s")
    return spread_s[0] if spread_s else bench.get("wall_s")


def rerun_wall(build_dir, name, args):
    """A fresh wall clock of the plain command line run_bench timed, or
    None when the bench is missing or fails."""
    plain = plain_command(build_dir, name, args)
    if not os.path.exists(plain[0]):
        return None
    code, wall, _, _ = timed_run(plain)
    return wall if code == 0 else None


def bench_index(out_path):
    """Next BENCH index: one past the highest existing, floor 7."""
    if out_path:
        m = re.search(r"BENCH_(\d+)\.json$", os.path.basename(out_path))
        if m:
            return int(m.group(1))
    best = 6
    for fn in os.listdir(ROOT):
        m = re.fullmatch(r"BENCH_(\d+)\.json", fn)
        if m:
            best = max(best, int(m.group(1)))
    return best + 1


def prior_bench(this_index):
    """Newest BENCH_*.json with index < this_index, or None."""
    best, path = -1, None
    for fn in os.listdir(ROOT):
        m = re.fullmatch(r"BENCH_(\d+)\.json", fn)
        if m and best < int(m.group(1)) < this_index:
            best, path = int(m.group(1)), os.path.join(ROOT, fn)
    return path


def validate(doc):
    """Schema-shape check for tshmem.bench.v1; raises AssertionError."""
    assert doc["schema"] == SCHEMA, doc.get("schema")
    assert isinstance(doc["bench_index"], int)
    assert isinstance(doc["benches"], list) and doc["benches"]
    for b in doc["benches"]:
        assert isinstance(b["name"], str) and b["name"]
        assert isinstance(b["exit_code"], int)
        assert b["wall_s"] is None or isinstance(b["wall_s"], (int, float))
        assert b["total_vt_ps"] is None or isinstance(b["total_vt_ps"], int)
        if b["dominant_share"] is not None:
            assert 0.0 <= b["dominant_share"] <= 1.0
        if b.get("qps") is not None:
            assert b["qps"] > 0.0
            assert isinstance(b["p99_latency_ps"], int)
        for key in [k for k, _ in USAGE_FIELDS] + ["profiled_wall_s"]:
            v = b.get(key)
            assert v is None or (isinstance(v, (int, float)) and v >= 0), \
                (b["name"], key, v)
        if b.get("recorder_overhead") is not None:
            assert b["recorder_overhead"] > 0.0
            assert isinstance(b["recorder_wall_s"], (int, float))
        # Optional: files before BENCH_26 have no spreads.
        for key in ("plain_spread_s", "recorder_spread_s"):
            v = b.get(key)
            assert v is None or (
                isinstance(v, list) and len(v) == 2 and
                all(isinstance(x, (int, float)) and x >= 0 for x in v) and
                v[0] <= v[1]), (b["name"], key, v)
    t = doc["totals"]
    assert isinstance(t["wall_s"], (int, float))
    assert isinstance(t["total_vt_ps"], int)


def diff_against(prior_path, doc, max_wall_regression, rerun=None):
    """Compares per-bench wall/vt against a prior BENCH file. Returns a
    list of hard failures (wall regressions). Each side is a bench's best
    plain wall (best_wall). `rerun`, when given, is a callable mapping
    a bench name to a fresh wall-clock measurement (or None): a tentative
    regression is confirmed with re-runs, up to BEST_OF plain runs in all,
    before it fails the gate, so a transient host-load spike during the
    recorded run doesn't read as a code regression."""
    try:
        with open(prior_path) as f:
            prior = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"  prior {prior_path} unreadable ({e}); skipping diff")
        return []
    old = {b["name"]: b for b in prior.get("benches", [])}
    failures = []
    for b in doc["benches"]:
        o = old.get(b["name"])
        if o is None:
            print(f"  {b['name']}: new bench (no prior)")
            continue
        if b["wall_s"] and o.get("wall_s"):
            wall = best_wall(b)
            old_wall = best_wall(o)
            ratio = wall / old_wall
            if ratio > max_wall_regression:
                if max(wall, old_wall) < OVERHEAD_NOISE_FLOOR_S:
                    print(f"  {b['name']}: wall {old_wall:.2f}s -> "
                          f"{wall:.2f}s ({ratio:.2f}x) under the "
                          f"noise floor; not gated")
                elif rerun is not None:
                    # A gated bench already ran BEST_OF plain runs.
                    ran = BEST_OF if b.get("plain_spread_s") else 1
                    for _ in range(BEST_OF - ran):
                        again = rerun(b["name"])
                        if again is None:
                            break
                        wall = min(wall, again)
                        ratio = wall / old_wall
                        if ratio <= max_wall_regression:
                            break
                    if ratio > max_wall_regression:
                        failures.append(
                            f"{b['name']}: wall {old_wall:.2f}s -> "
                            f"{wall:.2f}s ({ratio:.2f}x > "
                            f"{max_wall_regression:.2f}x, re-run "
                            f"confirmed)")
                    else:
                        print(f"  {b['name']}: recorded wall "
                              f"{b['wall_s']:.2f}s was transient host "
                              f"load (re-run {wall:.2f}s); not gated")
                else:
                    failures.append(
                        f"{b['name']}: wall {old_wall:.2f}s -> "
                        f"{wall:.2f}s ({ratio:.2f}x > "
                        f"{max_wall_regression:.2f}x)")
        if (b["total_vt_ps"] is not None and
                o.get("total_vt_ps") is not None and
                b["total_vt_ps"] != o["total_vt_ps"]):
            print(f"  {b['name']}: virtual time drift "
                  f"{o['total_vt_ps']} -> {b['total_vt_ps']} ps (model "
                  f"change? informational)")
    return failures


def overhead_failures(benches, max_recorder_overhead):
    """Hard failures from the recorder-on re-runs: a bench above the noise
    floor whose recorder-on wall clock exceeds the allowed ratio."""
    failures = []
    for b in benches:
        ratio = b.get("recorder_overhead")
        if ratio is None:
            continue
        if (b["wall_s"] or 0) < OVERHEAD_NOISE_FLOOR_S:
            continue
        if ratio > max_recorder_overhead:
            failures.append(
                f"{b['name']}: recorder overhead {ratio:.2f}x > "
                f"{max_recorder_overhead:.2f}x (best plain wall "
                f"{b['recorder_wall_s'] / ratio:.2f}s -> "
                f"{b['recorder_wall_s']:.2f}s)")
    return failures


def selftest():
    """Validates the schema checker and regression math on synthetic data
    (no binaries needed; used by tests/test_profiler.cpp)."""
    doc = {
        "schema": SCHEMA,
        "bench_index": 7,
        "build_dir": "build",
        "benches": [{
            "name": "fig08_tshmem_barrier", "args": [], "exit_code": 0,
            "wall_s": 1.0, "total_vt_ps": 1000, "dominant_phase": "barrier",
            "dominant_share": 0.8, "phase_ps": {"barrier": 800},
        }],
        "totals": {"wall_s": 1.0, "total_vt_ps": 1000},
    }
    validate(doc)
    # The wrapper and bare forms of a profile doc both summarize.
    bare = {"schema": PROFILE_SCHEMA, "total_vt_ps": 5,
            "phases": [{"phase": "compute", "total_ps": 5}],
            "critical_path": {"dominant_phase": "compute",
                              "dominant_share": 1.0}}
    assert summarize_profile(bare)[0] == 5
    wrapped = {"schema": PROFILE_SCHEMA,
               "runs": [{"name": "gx36", "profile": bare},
                        {"name": "pro64", "profile": bare}]}
    assert summarize_profile(wrapped)[0] == 10
    assert summarize_profile(None) == (None, None, None, None)
    # The ext_serve summary line parses into (qps, p99).
    m = SERVE_LINE.search("banner\nserve: qps=51627.4 p50_ps=210000 "
                          "p99_ps=266239913 p999_ps=536870911 "
                          "completed=1000000 shed=0 hung=0 fault_events=0\n")
    assert m and float(m.group("qps")) == 51627.4
    assert int(m.group("p99")) == 266239913
    doc["benches"][0]["qps"] = 51627.4
    doc["benches"][0]["p99_latency_ps"] = 266239913
    doc["benches"][0]["recorder_wall_s"] = 1.02
    doc["benches"][0]["recorder_overhead"] = 1.02
    validate(doc)
    # Recorder-overhead gate: 1.08x fails a 1.05x gate above the noise
    # floor; the same ratio on a sub-floor bench is ignored.
    hot = {"name": "x", "wall_s": 1.0, "recorder_wall_s": 1.08,
           "recorder_overhead": 1.08}
    cold = {"name": "y", "wall_s": 0.05, "recorder_wall_s": 0.054,
            "recorder_overhead": 1.08}
    assert overhead_failures([hot], 1.05)
    assert not overhead_failures([hot], 1.10)
    assert not overhead_failures([cold], 1.05)
    assert not overhead_failures([{"name": "z", "wall_s": 1.0,
                                   "recorder_wall_s": None,
                                   "recorder_overhead": None}], 1.05)
    # Regression math: 1.3x wall on a 1.25x threshold must fail.
    with tempfile.NamedTemporaryFile("w", suffix=".json",
                                     delete=False) as tf:
        json.dump(doc, tf)
        prior = tf.name
    try:
        worse = json.loads(json.dumps(doc))
        worse["benches"][0]["wall_s"] = 1.3
        assert diff_against(prior, worse, 1.25)
        assert not diff_against(prior, worse, 1.5)
        # Re-run confirmation: a fresh fast run clears a transient spike; a
        # fresh slow run confirms the regression.
        assert not diff_against(prior, worse, 1.25, rerun=lambda name: 1.0)
        assert diff_against(prior, worse, 1.25, rerun=lambda name: 1.29)
        assert diff_against(prior, worse, 1.25, rerun=lambda name: None)
        # A gated bench's best plain run is its new side, and its BEST_OF
        # runs are all it gets: no re-run is asked for.
        spread = json.loads(json.dumps(worse))
        spread["benches"][0]["plain_spread_s"] = [1.1, 1.3]
        validate(spread)
        assert not diff_against(prior, spread, 1.25,
                                rerun=lambda name: 1 / 0)
        spread["benches"][0]["plain_spread_s"] = [1.28, 1.3]
        assert diff_against(prior, spread, 1.25, rerun=lambda name: 1 / 0)
        # A prior with a spread is read at its best run too: a new best of
        # 1.3 s is 1.3x a prior best of 1.0 s, though under the prior's
        # first run of 2.0 s.
        slow_first = json.loads(json.dumps(spread))
        slow_first["benches"][0]["wall_s"] = 2.0
        slow_first["benches"][0]["plain_spread_s"] = [1.0, 2.0]
        with tempfile.NamedTemporaryFile("w", suffix=".json",
                                         delete=False) as tf:
            json.dump(slow_first, tf)
            prior_spread = tf.name
        try:
            again = json.loads(json.dumps(spread))
            again["benches"][0]["plain_spread_s"] = [1.2, 1.4]
            assert not diff_against(prior_spread, again, 1.25,
                                    rerun=lambda name: 1 / 0)
            again["benches"][0]["plain_spread_s"] = [1.3, 1.4]
            assert diff_against(prior_spread, again, 1.25,
                                rerun=lambda name: 1 / 0)
        finally:
            os.unlink(prior_spread)
        spread["benches"][0]["plain_spread_s"] = [1.3, 1.1]
        try:
            validate(spread)
        except AssertionError:
            pass
        else:
            raise AssertionError("validate accepted min > max")
    finally:
        os.unlink(prior)
    # A big ratio on a sub-noise-floor bench (scheduler jitter on a
    # fraction-of-a-second run) must not gate.
    tiny = json.loads(json.dumps(doc))
    tiny["benches"][0]["wall_s"] = 0.15
    with tempfile.NamedTemporaryFile("w", suffix=".json",
                                     delete=False) as tf:
        json.dump(tiny, tf)
        prior = tf.name
    try:
        jitter = json.loads(json.dumps(tiny))
        jitter["benches"][0]["wall_s"] = 0.25
        assert not diff_against(prior, jitter, 1.25)
        real = json.loads(json.dumps(tiny))
        real["benches"][0]["wall_s"] = 5.0
        assert diff_against(prior, real, 1.25)
    finally:
        os.unlink(prior)
    selftest_runs()
    print("perf_run selftest OK")
    return 0


# A stand-in bench for selftest_runs: it logs each call's flags and
# whether the recorder was on, burns a little CPU, writes a profile when
# asked and prints an ext_serve summary line.
FAKE_BENCH = """#!/usr/bin/env python3
import json, os, sys, time
with open(os.path.join(os.path.dirname(sys.argv[0]), "calls.log"), "a") as f:
    f.write(json.dumps([sys.argv[1:],
                        os.environ.get("TSHMEM_FLIGHTREC") == "1"]) + "\\n")
if "--profile-json" in sys.argv:
    with open(sys.argv[sys.argv.index("--profile-json") + 1], "w") as f:
        json.dump({"schema": "tshmem.profile.v1", "total_vt_ps": 7,
                   "phases": [{"phase": "compute", "total_ps": 7}],
                   "critical_path": {"dominant_phase": "compute",
                                     "dominant_share": 1.0}}, f)
t = time.process_time()
while time.process_time() - t < 0.02:
    pass
print("serve: qps=10.0 p50_ps=1 p99_ps=2 p999_ps=3")
"""


def selftest_runs():
    """Checks which command lines run_bench and rerun_wall time, with a
    stand-in bench, and that timed_run's CPU is its own child's."""
    busy = [sys.executable, "-c",
            "import time\nt = time.process_time()\n"
            "while time.process_time() - t < 0.2: pass"]
    code, wall, usage, _ = timed_run(busy)
    assert code == 0 and wall >= 0.15, (code, wall)
    assert usage["user_s"] + usage["sys_s"] >= 0.15, usage
    _, _, usage, _ = timed_run([sys.executable, "-c", "pass"])
    # The busy child is not counted again.
    assert usage["user_s"] + usage["sys_s"] < 0.15, usage
    args = ["--device", "gx36"]
    with tempfile.TemporaryDirectory() as d:
        os.mkdir(os.path.join(d, "bench"))
        fake = os.path.join(d, "bench", "fake")
        with open(fake, "w") as f:
            f.write(FAKE_BENCH)
        os.chmod(fake, 0o755)
        # A zero noise floor takes the gated path: BEST_OF recorder-on
        # runs and BEST_OF - 1 more plain runs.
        e = run_bench(d, "fake", args, noise_floor=0.0)
        with open(os.path.join(d, "bench", "calls.log")) as f:
            calls = [json.loads(line) for line in f]
        assert calls[0] == [args, False], calls  # the timed run is plain
        assert calls[1][0][:-1] == args + ["--profile-json"], calls
        assert not calls[1][1]
        assert calls[2:] == ([[args, True]] * BEST_OF +
                             [[args, False]] * (BEST_OF - 1)), calls
        assert e["exit_code"] == 0 and e["total_vt_ps"] == 7, e
        assert e["dominant_phase"] == "compute" and e["qps"] == 10.0, e
        assert e["user_s"] + e["sys_s"] >= 0.02, e
        assert e["profiled_wall_s"] > 0, e
        assert e["recorder_overhead"] > 0, e
        for key in ("plain_spread_s", "recorder_spread_s"):
            assert len(e[key]) == 2 and 0 < e[key][0] <= e[key][1], e
        assert e["plain_spread_s"][0] <= e["wall_s"] <= e["plain_spread_s"][1]
        assert e["recorder_wall_s"] == e["recorder_spread_s"][0], e
        # Under the noise floor nothing is re-run, and no spread is kept.
        ungated = run_bench(d, "fake", args, noise_floor=1e9)
        assert ungated["plain_spread_s"] is None, ungated
        assert ungated["recorder_spread_s"] is None, ungated
        assert ungated["recorder_overhead"] > 0, ungated
        assert rerun_wall(d, "fake", args) > 0
        with open(os.path.join(d, "bench", "calls.log")) as f:
            assert json.loads(f.readlines()[-1]) == [args, False]
        assert rerun_wall(d, "missing", args) is None
        validate({"schema": SCHEMA, "bench_index": 25, "benches": [e],
                  "totals": {"wall_s": e["wall_s"], "total_vt_ps": 7}})


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--build-dir", default=os.path.join(ROOT, "build"))
    ap.add_argument("--out", default=None,
                    help="output path (default BENCH_<n>.json at repo root)")
    ap.add_argument("--max-wall-regression", type=float, default=1.25,
                    help="fail when wall_s grows past this ratio vs prior")
    ap.add_argument("--max-recorder-overhead", type=float, default=1.05,
                    help="fail when the flight-recorder re-run exceeds this "
                         "wall-clock ratio vs the recorder-off run")
    ap.add_argument("--selftest", action="store_true",
                    help="validate schema/diff logic on synthetic data")
    opts = ap.parse_args()
    if opts.selftest:
        return selftest()

    index = bench_index(opts.out)
    out_path = opts.out or os.path.join(ROOT, f"BENCH_{index}.json")
    print(f"perf_run: {len(BENCHES)} benches -> {out_path}")

    benches = [run_bench(opts.build_dir, name, args)
               for name, args in BENCHES]
    failed = [b["name"] for b in benches if b["exit_code"] != 0]
    doc = {
        "schema": SCHEMA,
        "bench_index": index,
        "build_dir": os.path.relpath(opts.build_dir, ROOT),
        "benches": benches,
        "totals": {
            key: round(sum(b[key] or 0 for b in benches), 4)
            for key in ("wall_s", "user_s", "sys_s", "profiled_wall_s")
        },
    }
    doc["totals"]["total_vt_ps"] = sum(b["total_vt_ps"] or 0
                                       for b in benches)
    validate(doc)
    with open(out_path, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")
    t = doc["totals"]
    print(f"wrote {out_path} (total wall {t['wall_s']:.1f}s, user "
          f"{t['user_s']:.1f}s, sys {t['sys_s']:.1f}s, profiled wall "
          f"{t['profiled_wall_s']:.1f}s, total vt {t['total_vt_ps']} ps)")

    failures = overhead_failures(benches, opts.max_recorder_overhead)
    for f_ in failures:
        print(f"  RECORDER-OVERHEAD {f_}", file=sys.stderr)

    args_by_name = dict(BENCHES)

    def rerun_bench(name):
        return rerun_wall(opts.build_dir, name, args_by_name.get(name, []))

    prior = prior_bench(index)
    if prior:
        print(f"diff vs {os.path.basename(prior)} "
              f"(max wall regression {opts.max_wall_regression:.2f}x):")
        regressions = diff_against(prior, doc, opts.max_wall_regression,
                                   rerun=rerun_bench)
        for f_ in regressions:
            print(f"  REGRESSION {f_}", file=sys.stderr)
        failures += regressions
    else:
        print("no prior BENCH_*.json; baseline run")

    if failed:
        print(f"failed benches: {', '.join(failed)}", file=sys.stderr)
    return 1 if (failures or failed) else 0


if __name__ == "__main__":
    sys.exit(main())
