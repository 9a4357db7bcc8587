// Extension bench — sharded CBIR query serving over the mPIPE cluster
// (docs/SERVING.md; the ROADMAP's production-scale serving scenario).
//
// Not a paper figure: the TSHMEM paper benchmarks one device under a
// single SPMD job. This bench stands up the src/svc/ serving subsystem —
// one shard per cluster device, each holding a block of the image
// database as a precomputed ShardIndex — calibrates the per-shard batch
// cost on the real cluster, then drives a seeded virtual-time query load
// (default one million arrivals) through router -> LRU cache -> batcher
// -> shards and reports sustained QPS plus p50/p99/p999 latency.
//
// Everything printed to stdout is virtual-time-deterministic: one
// (seed, fault plan) pair produces bit-identical output across runs and
// under the race detector / profiler (tools/ci.sh diffs them).
//
// Replication (docs/SERVING.md failover): --replicas R gives every shard
// slice R independently calibrated replicas (cluster devices = shards * R;
// replica r of shard s is device r*shards+s). The router prefers the
// primary, fails over on degradation or crash, and fails back on recovery.
// Deadline / CoDel admission control (--deadline-ps, --codel-target-ps)
// sheds excess queueing at admission instead of letting the tail grow.
//
// Flags: --devices N       shard slices (default 2)
//        --replicas R      replicas per shard slice (default 1; the
//                          cluster holds N*R devices)
//        --pes N           PEs per shard (default 4)
//        --images N        database size (default 5500, as fig14)
//        --queries N       arrivals to generate (default 1000000)
//        --qps R           arrival rate at the first query (default 10000)
//        --end-qps R       ramp target rate (default 150000; 0 = flat).
//                          The default ramp starts below cold-cache
//                          capacity and climbs as the LRU warms.
//        --zipf S          key skew exponent (default 0.9)
//        --batch N         max batch size (default 8)
//        --batch-timeout-ns N   partial-batch close timeout (default 2000)
//        --cache N         LRU result-cache entries (default 4096)
//        --policy P        reject|reroute on a degraded shard
//        --seed N          load-generator seed (default 1)
//        --closed          closed-loop drive (fixed in-flight window)
//        --concurrency N   closed-loop window (default 64)
//        --unhealthy-us N  degrade a shard above this backlog (default 5000)
//        --recover-us N    recover below this backlog (default 1000)
//        --deadline-ps N   per-query completion deadline; queries whose
//                          replica backlog overruns it are refused with
//                          kDeadlineExceeded (default 0 = off)
//        --codel-target-ps N   CoDel sojourn target per batcher queue
//                          (default 0 = off)
//        --codel-interval-ps N CoDel interval (default 1e10 = 10 ms)
//        --fault-plan SPEC FaultPlan spec (else $TSHMEM_FAULT_PLAN, e.g.
//                          "seed=3,shard_stall=0.3:40000000,shard_stall_shard=1"
//                          or "seed=7,shard_crash=1.0,shard_crash_shard=1")
//        --json PATH       write the tshmem.serve.v2 report
//        --metrics-json PATH  write the svc.* metrics snapshot
//        --timeseries-json PATH  write the windowed svc.* timeline
//                          (tshmem.timeseries.v1: per-window QPS, latency
//                          quantiles, shed/degrade/recover rates). The
//                          window sums are reconciled exactly against the
//                          end-of-run svc.* totals; any mismatch fails the
//                          bench.
//        --timeseries-window-ps N  window width (default 1e9 = 1 ms)
//        --blackbox-json PATH  flight-recorder post-mortem
//                          (tshmem.blackbox.v1). Written by the service on
//                          the first shard degradation; if nothing
//                          degraded, an end-of-run snapshot is written
//                          instead.
//        --profile-json PATH  per-shard critical-path profiles of the real
//                          calibration jobs (tshmem.profile.v1 wrapper form,
//                          as tools/perf_run.py harvests)
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include "bench_common.hpp"
#include "obs/exporters.hpp"
#include "obs/profiler.hpp"
#include "svc/report.hpp"
#include "svc/service.hpp"
#include "tshmem/cluster.hpp"

static int run_main(int argc, char** argv) {
  const tshmem_util::Cli cli(argc, argv, {"csv", "closed"});
  tshmem_util::print_banner(
      std::cout, "Extension (serving)",
      "Sharded CBIR query serving over the mPIPE cluster");

  svc::ServiceConfig cfg;
  const int shards = static_cast<int>(cli.get_int("devices", 2));
  cfg.replicas = static_cast<int>(cli.get_int("replicas", 1));
  if (cfg.replicas < 1) {
    std::cerr << "--replicas must be >= 1\n";
    return 2;
  }
  const int devices = shards * cfg.replicas;
  cfg.pes_per_shard = static_cast<int>(cli.get_int("pes", 4));
  cfg.db.images = static_cast<int>(cli.get_int("images", 5500));
  cfg.load.queries =
      static_cast<std::uint64_t>(cli.get_int("queries", 1'000'000));
  cfg.load.start_qps = cli.get_double("qps", 10'000.0);
  cfg.load.end_qps = cli.get_double("end-qps", 150'000.0);
  cfg.load.zipf_s = cli.get_double("zipf", 0.9);
  cfg.load.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  cfg.load.key_space = cfg.db.images;
  cfg.batch.max_batch = static_cast<int>(cli.get_int("batch", 8));
  cfg.batch.timeout_ps =
      static_cast<svc::ps_t>(cli.get_int("batch-timeout-ns", 2000)) * 1000;
  cfg.cache_capacity =
      static_cast<std::size_t>(cli.get_int("cache", 4096));
  cfg.closed_loop = cli.get_flag("closed");
  cfg.concurrency = static_cast<int>(cli.get_int("concurrency", 64));
  cfg.unhealthy_backlog_ps =
      static_cast<svc::ps_t>(cli.get_int("unhealthy-us", 5000)) * 1'000'000;
  cfg.recover_backlog_ps =
      static_cast<svc::ps_t>(cli.get_int("recover-us", 1000)) * 1'000'000;
  // ps_t is unsigned: a negative flag would wrap to a ~2^64 ps threshold.
  const long long deadline_ps = cli.get_int("deadline-ps", 0);
  const long long codel_target_ps = cli.get_int("codel-target-ps", 0);
  const long long codel_interval_ps =
      cli.get_int("codel-interval-ps", 10'000'000'000);
  if (deadline_ps < 0 || codel_target_ps < 0 || codel_interval_ps < 0) {
    std::cerr << "--deadline-ps, --codel-target-ps and --codel-interval-ps "
                 "must be >= 0\n";
    return 2;
  }
  cfg.deadline_ps = static_cast<svc::ps_t>(deadline_ps);
  cfg.codel.target_ps = static_cast<svc::ps_t>(codel_target_ps);
  cfg.codel.interval_ps = static_cast<svc::ps_t>(codel_interval_ps);
  const std::string policy = cli.get_string("policy", "reject");
  if (policy == "reject") {
    cfg.policy = svc::ShedPolicy::kReject;
  } else if (policy == "reroute") {
    cfg.policy = svc::ShedPolicy::kReroute;
  } else {
    std::cerr << "unknown --policy " << policy << " (reject|reroute)\n";
    return 2;
  }
  const std::string ts_path = cli.get_string("timeseries-json", "");
  const std::string bb_path = cli.get_string("blackbox-json", "");
  if (!ts_path.empty()) {
    cfg.timeseries_window_ps = static_cast<svc::ps_t>(
        cli.get_int("timeseries-window-ps", 1'000'000'000));
  }
  cfg.blackbox_path = bb_path;
  if (!cli.get_string("fault-plan", "").empty()) {
    cfg.fault_plan = cli.get_as("fault-plan", "", tilesim::FaultPlan::parse);
  } else if (const char* env = std::getenv("TSHMEM_FAULT_PLAN");
             env != nullptr && *env != '\0') {
    cfg.fault_plan = tilesim::FaultPlan::parse(env);
  }

  // The cluster expansion is TILE-Gx only (mPIPE), as in ext_multidev.
  tshmem::ClusterOptions opts;
  opts.runtime.heap_per_pe = 64 << 20;
  const std::string profile_path = cli.get_string("profile-json", "");
  if (!profile_path.empty()) opts.runtime.profile = true;
  const std::string json_path = cli.get_string("json", "");
  const std::string metrics_path = cli.get_string("metrics-json", "");
  cli.reject_unknown();
  tshmem::Cluster cluster(tilesim::tile_gx36(), opts, devices);

  svc::Service service(cluster, cfg);
  const svc::ServiceReport rep = service.run();
  svc::print_summary(std::cout, rep, cfg);

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    svc::write_report_json(out, rep, cfg);
    std::cout << "wrote " << json_path << "\n";
  }
  if (!metrics_path.empty()) {
    std::ofstream out(metrics_path);
    obs::write_metrics_json(out, service.metrics().snapshot("serve"));
    std::cout << "wrote " << metrics_path << "\n";
  }
  if (!profile_path.empty()) {
    // Wrapper form (several runtimes in one process), as bench_common's
    // Telemetry writes for device sweeps: one report per replica device,
    // covering the real calibration jobs that ran on it.
    std::ofstream out(profile_path);
    out << "{\n  \"schema\": \"" << obs::kProfileSchema
        << "\",\n  \"runs\": [";
    for (int d = 0; d < devices; ++d) {
      out << (d == 0 ? "\n" : ",\n") << "    {\"name\": \"shard"
          << d % shards;
      if (cfg.replicas > 1) out << "r" << d / shards;
      out << "\", \"profile\": ";
      obs::write_profile_json(out, cluster.runtime(d).profiler()->report());
      out << "}";
    }
    out << "\n  ]\n}\n";
    std::cout << "wrote " << profile_path << "\n";
  }

  if (!ts_path.empty() && service.timeseries() != nullptr) {
    const obs::TimeSeriesReport tsrep = service.timeseries()->report();
    {
      std::ofstream out(ts_path);
      obs::write_timeseries_json(out, tsrep);
      std::cout << "wrote " << ts_path << "\n";
    }
    // Exact reconciliation: every per-window count must sum back to the
    // end-of-run svc.* totals — a dropped or double-counted window is a
    // telemetry bug, not noise.
    auto series_total = [&](const std::string& name) -> std::uint64_t {
      for (const auto& s : tsrep.series) {
        if (s.name != name) continue;
        std::uint64_t windows = 0;
        for (const auto& w : s.windows) windows += w.count;
        if (windows != s.total_count) return ~0ull;  // internal mismatch
        return s.total_count;
      }
      return 0;
    };
    bool ok = true;
    auto check = [&](const char* name, std::uint64_t expect) {
      const std::uint64_t got = series_total(name);
      if (got != expect) {
        std::cerr << "FAIL: timeseries " << name << " windows sum to "
                  << got << ", end-of-run total is " << expect << "\n";
        ok = false;
      }
    };
    check("svc.offered", rep.offered);
    check("svc.completed", rep.completed);
    check("svc.shed", rep.shed);
    check("svc.latency.ps", rep.completed);
    if (!ok) return 1;
    std::cout << "timeseries reconciliation: OK (offered " << rep.offered
              << ", completed " << rep.completed << ", shed " << rep.shed
              << " across " << tsrep.series.size() << " series)\n";
  }
  // The service wrote it: at the first degradation, else at the end of
  // the run.
  if (!bb_path.empty()) std::cout << "wrote " << bb_path << "\n";

  // Shed-not-hang invariant: every offered query was answered or refused.
  if (rep.hung != 0) {
    std::cerr << "FAIL: " << rep.hung << " hung queries\n";
    return 1;
  }
  return 0;
}

int main(int argc, char** argv) {
  return tshmem_util::cli_main(argc, argv, run_main);
}
