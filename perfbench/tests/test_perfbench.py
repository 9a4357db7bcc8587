#!/usr/bin/env python3
"""Tests of the benchmark itself: the C++ self-test (span self time, the
tail-percentile rule), metric names against BENCHMARK.json, digest
repeatability against references.json, and the result arithmetic.

  python3 perfbench/tests/test_perfbench.py

Builds the benchmark first (perfbench/run.py's build; about 30 s cold).
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
import run  # noqa: E402  (perfbench/run.py)

BENCHMARK = os.path.join(run.ROOT, "BENCHMARK.json")
BDIR = None


def setUpModule():
    global BDIR
    BDIR = run.build()


def catalogue(trace):
    out = subprocess.run([os.path.join(BDIR, "perfbench"),
                          "--list-metrics", str(trace)],
                         stdout=subprocess.PIPE, text=True, check=True).stdout
    return [tuple(line.split()) for line in out.splitlines()]


class SelfTest(unittest.TestCase):
    def test_cpp_selftest_passes(self):
        subprocess.run([os.path.join(BDIR, "perfbench_selftest")], check=True,
                       stdout=subprocess.DEVNULL)


class MetricNames(unittest.TestCase):
    def setUp(self):
        with open(BENCHMARK) as f:
            self.bench = json.load(f)

    def listed(self, key):
        return [(m["name"], m["unit"]) for m in self.bench[key]]

    def test_catalogue_matches_benchmark_json(self):
        self.assertEqual(catalogue(0), self.listed("end_to_end"))
        self.assertEqual(catalogue(1), self.listed("per_layer"))
        self.assertEqual([w["name"] for w in self.bench["workloads"]],
                         run.WORKLOADS)

    def test_emitted_names_are_listed(self):
        for trace, key in [(0, "end_to_end"), (1, "per_layer")]:
            raw = run.run_binary(BDIR, "--workload", "job-churn", "--seed",
                                 3, "--seconds", 1, "--trace", trace)
            self.assertEqual(sorted(raw["metrics"]),
                             sorted(n for n, _ in self.listed(key)))
            for name, unit in self.listed(key):
                self.assertEqual(raw["metrics"][name]["unit"], unit)


class Digests(unittest.TestCase):
    def test_digest_repeats_across_runs(self):
        refs = run.load_references()
        for workload, table in [("job-churn", "job-churn"),
                                ("rma-steady", "rma"),
                                ("rma-observed", "rma")]:
            runs = [run.run_binary(BDIR, "--workload", workload, "--seed",
                                   seed, "--seconds", 1, "--trace", 0,
                                   "--record")
                    for seed in (5, 6)]
            self.assertEqual(runs[0]["digests"], runs[1]["digests"], workload)
            for entry, by_digest in runs[0]["digests"].items():
                self.assertEqual(list(by_digest),
                                 [refs["catalogues"][table][entry]])

    def test_reference_seed_streams(self):
        refs = run.load_references()
        for seed in run.REFERENCE_SEEDS:
            raw = run.run_binary(BDIR, "--workload", "rma-steady", "--seed",
                                 seed, "--seconds", 1, "--trace", 0)
            result, misses = run.result_of(raw, refs)
            self.assertEqual(misses, [])
            self.assertTrue(result["correct"])


class ResultArithmetic(unittest.TestCase):
    REFS = {"catalogues": {"t": {"0": "aa", "1": "bb"}},
            "streams": {"w": {"1": {"units": 2, "digest": "ff"}}}}

    def raw(self, **kw):
        raw = {"workload": "w", "seed": 1, "catalogue": "t", "attempted": 10,
               "failed": 0, "digests": {"0": {"aa": 4}, "1": {"bb": 6}},
               "stream_units": 2, "stream_digest": "ff", "metrics": {}}
        raw.update(kw)
        return raw

    def test_clean_run_is_correct(self):
        result, _ = run.result_of(self.raw(), self.REFS)
        self.assertEqual((result["correct"], result["failed"]), (True, 0))

    def test_moved_digest_fails_its_operations(self):
        raw = self.raw(digests={"0": {"aa": 4}, "1": {"bb": 2, "cc": 4}})
        result, misses = run.result_of(raw, self.REFS)
        self.assertEqual((result["correct"], result["failed"]), (False, 4))
        self.assertEqual(misses[0]["reference"], "bb")

    def test_unknown_entry_and_payload_failures_add_up(self):
        raw = self.raw(failed=1, digests={"0": {"aa": 4}, "9": {"aa": 6}})
        result, _ = run.result_of(raw, self.REFS)
        self.assertEqual(result["failed"], 7)

    def test_companion_adds_svc_metrics_and_operations(self):
        def m(v):
            return {"value": v, "unit": "count"}
        host = {"correct": True, "attempted": 10, "failed": 0,
                "metrics": {"svc.shed": m(0), "tshmem.run.count": m(5)}}
        serve = {"correct": False, "attempted": 4, "failed": 1,
                 "metrics": {"svc.shed": m(2), "tshmem.run.count": m(9)}}
        result = run.with_companion(host, serve)
        self.assertEqual(result["metrics"],
                         {"svc.shed": m(2), "tshmem.run.count": m(5)})
        self.assertEqual((result["correct"], result["attempted"],
                          result["failed"]), (False, 14, 1))

    def test_stream_digest_mismatch_fails(self):
        result, _ = run.result_of(self.raw(stream_digest="00"), self.REFS)
        self.assertFalse(result["correct"])
        short, _ = run.result_of(self.raw(stream_units=0, stream_digest="00"),
                                 self.REFS)
        self.assertTrue(short["correct"])


class Standalone(unittest.TestCase):
    def test_refuses_without_library_sources(self):
        # A tree holding only BENCHMARK.json and perfbench/ cannot build.
        tmp = os.path.join(BDIR, "standalone-test")
        shutil.rmtree(tmp, ignore_errors=True)
        shutil.copytree(os.path.dirname(HERE), os.path.join(tmp, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(BENCHMARK, tmp)
        env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(tmp, "build"))
        proc = subprocess.run([sys.executable, "perfbench/run.py",
                               "--workload", "job-churn", "--seed", "1",
                               "--seconds", "1", "--trace", "0"],
                              cwd=tmp, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, timeout=120)
        shutil.rmtree(tmp, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
