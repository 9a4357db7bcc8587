#!/usr/bin/env python3
"""Host-cost benchmark of the TSHMEM reproduction (perfbench/README.md).

Builds perfbench from source (perfbench/CMakeLists.txt links the
library in ../src), runs one workload, checks the virtual-time digests it
reports against perfbench/references.json, and prints the result as the
last line of stdout:

  {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones (BENCHMARK.json lists both). The line before it stamps the
run with host and build facts; the whole record is also written to
<build dir>/results/. job-churn's traced run also runs serve-replay, traced,
for the svc and apps metrics (see COMPANIONS).

Usage:
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --record-references   # rewrite references.json

The build directory is $CARGO_TARGET_DIR when set, else .bench_build at the
repository root.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCES = os.path.join(HERE, "references.json")
# The timed workloads, as BENCHMARK.json lists them.
WORKLOADS = ["job-churn", "rma-steady", "rma-observed"]
# serve-replay is not timed: its compute-bound serve loop follows the shared
# host's speed, which drifted further between runs than any bound allows
# (README.md, "Why serve-replay is not timed"). It still measures the svc
# and apps layers: job-churn's traced run spends half its time in a traced
# serve-replay run, whose svc and apps metrics it reports.
SERVE = "serve-replay"
COMPANIONS = {"job-churn": SERVE}
COMPANION_METRICS = ("svc.", "apps.", "self_s.svc")
# Seeds whose unit streams references.json pins: the default, and one held
# out while the benchmark was written, for rechecking later claims.
REFERENCE_SEEDS = [1, 977]


def binary_timeout_s(seconds):
    """Kill limit for one benchmark process measuring `seconds`: the timed
    phases, plus set-up, the unit in flight at the deadline, and read-out."""
    return 2 * float(seconds) + 120


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                           os.path.join(ROOT, ".bench_build"))


def build():
    """Configures (once) and builds the benchmark binary and self-test;
    returns the build directory. Build output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("library sources not found at %s/src" % ROOT)
    bdir = build_dir()
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    subprocess.run(["cmake", "--build", bdir, "-j", jobs, "--target",
                    "perfbench", "perfbench_selftest"],
                   check=True, stdout=sys.stderr)
    return bdir


def run_binary(bdir, *args):
    """Runs the benchmark binary and returns its last stdout line, parsed."""
    seconds = args[list(args).index("--seconds") + 1]
    proc = subprocess.run([os.path.join(bdir, "perfbench")] +
                          [str(a) for a in args],
                          stdout=subprocess.PIPE, text=True, check=True,
                          timeout=binary_timeout_s(seconds))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_facts():
    def git(*args):
        try:
            return subprocess.run(["git", "-C", ROOT] + list(args),
                                  stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL, text=True,
                                  check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            return None
    sha = git("rev-parse", "HEAD")
    status = git("status", "--porcelain") if sha else None
    return {"git_sha": sha or "unknown",
            "git_dirty": None if status is None else bool(status)}


def load_references():
    with open(REFERENCES) as f:
        return json.load(f)


def check_digests(raw, refs):
    """Failed operations implied by digests that differ from the reference:
    every operation of a unit whose virtual-time digest moved counts."""
    table = refs["catalogues"][raw["catalogue"]]
    failed = 0
    misses = []
    for entry, by_digest in raw["digests"].items():
        for digest, ops in by_digest.items():
            if table.get(entry) != digest:
                failed += ops
                misses.append({"entry": entry, "digest": digest,
                               "reference": table.get(entry)})
    stream = refs["streams"].get(raw["workload"], {}).get(str(raw["seed"]))
    if stream and raw["stream_units"] == stream["units"] and \
            raw["stream_digest"] != stream["digest"]:
        failed += 1
        misses.append({"stream": raw["stream_digest"],
                       "reference": stream["digest"]})
    return failed, misses


def result_of(raw, refs):
    digest_failed, misses = check_digests(raw, refs)
    failed = raw["failed"] + digest_failed
    attempted = max(raw["attempted"], failed)
    result = {"correct": failed == 0 and attempted >= 1,
              "attempted": attempted, "failed": failed,
              "metrics": raw["metrics"]}
    return result, misses


def with_companion(host, companion):
    """`host`'s result with the companion run's svc and apps metrics, and
    both runs' operations counted."""
    metrics = dict(host["metrics"])
    for name, m in companion["metrics"].items():
        if name.startswith(COMPANION_METRICS):
            metrics[name] = m
    return {"correct": host["correct"] and companion["correct"],
            "attempted": host["attempted"] + companion["attempted"],
            "failed": host["failed"] + companion["failed"],
            "metrics": metrics}


def run(args):
    bdir = build()
    refs = load_references()
    workloads = [args.workload]
    if args.trace and args.workload in COMPANIONS:
        workloads.append(COMPANIONS[args.workload])
    seconds = args.seconds / len(workloads)
    raws = [run_binary(bdir, "--workload", w, "--seed", args.seed,
                       "--seconds", seconds, "--trace", args.trace)
            for w in workloads]
    result, misses = result_of(raws[0], refs)
    for raw in raws[1:]:
        extra, extra_misses = result_of(raw, refs)
        result = with_companion(result, extra)
        misses += extra_misses
    raw = raws[0]
    facts = {"nproc": raw["nproc"], "compiler": raw["compiler"],
             "build_type": raw["build_type"],
             "npes": {r["workload"]: r["npes"] for r in raws},
             "workload": args.workload, "seed": args.seed,
             "seconds": args.seconds, "trace": args.trace}
    facts.update(git_facts())
    os.makedirs(os.path.join(bdir, "results"), exist_ok=True)
    path = os.path.join(bdir, "results", "%s-seed%d-trace%d.json" %
                        (args.workload, args.seed, args.trace))
    with open(path, "w") as f:
        json.dump({"facts": facts, "result": result, "digest_misses": misses,
                   "raws": raws}, f, indent=1)
    print(json.dumps({"facts": facts}))
    print(json.dumps(result))
    return 0


def record_references():
    """Runs every catalogue entry once per table, then the reference seeds'
    unit streams, and rewrites references.json."""
    bdir = build()
    catalogues = {}
    for workload, table in [("job-churn", "job-churn"),
                            ("rma-steady", "rma"),
                            ("rma-observed", "rma"),
                            ("serve-replay", "serve-replay")]:
        raw = run_binary(bdir, "--workload", workload, "--seed", 1,
                         "--seconds", 1, "--trace", 0, "--record")
        if raw["failed"]:
            raise RuntimeError("%s: %d failed operations while recording" %
                               (workload, raw["failed"]))
        entries = {}
        for entry, by_digest in raw["digests"].items():
            if len(by_digest) != 1:
                raise RuntimeError("%s entry %s: digests differ within one "
                                   "run: %s" % (workload, entry, by_digest))
            entries[entry] = next(iter(by_digest))
        if table in catalogues and catalogues[table] != entries:
            raise RuntimeError("%s digests differ from the %s table" %
                               (workload, table))
        catalogues[table] = entries
    streams = {}
    for workload in WORKLOADS + [SERVE]:
        streams[workload] = {}
        seconds = 8 if workload == "serve-replay" else 1
        for seed in REFERENCE_SEEDS:
            raw = run_binary(bdir, "--workload", workload, "--seed", seed,
                             "--seconds", seconds, "--trace", 0)
            if not raw["stream_units"]:
                raise RuntimeError("%s seed %d: run too short for its stream "
                                   "digest" % (workload, seed))
            streams[workload][str(seed)] = {"units": raw["stream_units"],
                                            "digest": raw["stream_digest"]}
    refs = {"note": "Virtual-time digests recorded by "
                    "'python3 perfbench/run.py --record-references'. "
                    "catalogues: catalogue entry -> digest; streams: the "
                    "digest of a seed's first units, in run order.",
            "catalogues": catalogues, "streams": streams}
    with open(REFERENCES, "w") as f:
        json.dump(refs, f, indent=1, sort_keys=True)
        f.write("\n")
    print("wrote %s" % REFERENCES)
    return 0


def main(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS + [SERVE])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--record-references", action="store_true")
    args = p.parse_args(argv)
    try:
        if args.record_references:
            return record_references()
        if not args.workload:
            p.error("--workload is required")
        return run(args)
    except (RuntimeError, OSError, subprocess.SubprocessError,
            ValueError, KeyError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
