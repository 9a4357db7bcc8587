// Sharded CBIR query-serving service over the mPIPE cluster (tentpole of
// docs/SERVING.md; the ROADMAP's "production-scale serving scenario").
//
// One cluster device = one shard; each shard holds a block of the image
// database as a precomputed apps::cbir::ShardIndex spread over its PEs.
// Serving proceeds in two phases, both in virtual time:
//
//   1. Calibrate — per shard, a real TSHMEM job (Cluster::run_shard)
//      builds the ShardIndex and times query_batch at batch sizes 1 and
//      max_batch, yielding the linear batch cost model
//      t(b) = setup_ps + b * per_query_ps.
//   2. Serve — a deterministic discrete-event loop drives millions of
//      generated arrivals through router -> LRU cache -> batcher -> the
//      calibrated shard model, recording per-query latency into log2
//      histograms. Events are ordered by (virtual time, sequence), so a
//      (seed, fault plan) pair replays bit-identically.
//
// Replication (docs/SERVING.md failover): each shard slice owns
// `replicas` devices — replica r of shard s is cluster device
// r * shards + s, so replicas = 1 reproduces the PR-6 layout exactly and
// device s is always shard s's primary. Every replica is calibrated
// independently and carries its own batcher, queue, backlog watchdog and
// health state; the Router's per-shard ReplicaSet prefers the primary,
// fails over to a healthy backup when the primary degrades or crashes,
// and fails back once it recovers.
//
// Degradation (PR-3 fault engine, FaultSite::kShardStall): a stalling
// replica's virtual-time backlog crosses unhealthy_backlog_ps and the
// router stops feeding it — with a healthy peer replica the slice keeps
// completing queries; only a slice with no healthy replica sheds, with a
// structured tshmem::Error (kShardDegraded, or kReplicaLost when every
// replica crashed) or a reroute per ShedPolicy — until the backlog drains
// below recover_backlog_ps, which is recorded as a recovery. Crashes
// (FaultSite::kShardCrash / kReplicaFlap) kill a replica at a seeded
// point; its queued queries are re-dispatched to surviving replicas
// (requeues) and flap victims revive after their down time. Accepted
// batches always run to completion, so a degraded shard sheds load rather
// than hanging: zero hung queries, bounded tail latency.
//
// Admission control (CoDel-style, svc::CodelAdmission): with a nonzero
// deadline_ps every query carries a virtual-time completion deadline and
// is dropped at admission (kDeadlineExceeded) when the chosen replica's
// backlog already exceeds it; with a nonzero codel.target_ps the newest
// arrival is dropped once the queue's sojourn estimate has exceeded the
// target for a full interval. Both default off, keeping stock runs
// bit-identical.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "apps/cbir.hpp"
#include "obs/flightrec.hpp"
#include "obs/metrics.hpp"
#include "obs/quantiles.hpp"
#include "obs/timeseries.hpp"
#include "sim/fault.hpp"
#include "svc/batcher.hpp"
#include "svc/loadgen.hpp"
#include "svc/router.hpp"
#include "tshmem/cluster.hpp"

namespace svc {

struct ServiceConfig {
  int pes_per_shard = 4;
  /// Replicas per shard slice: the cluster must hold shards * replicas
  /// devices; replica r of shard s is device r * shards + s. 1 = the
  /// unreplicated PR-6 deployment (bit-identical); 2 is the deployment
  /// the failover CI stage and docs exercise.
  int replicas = 1;
  apps::cbir::Params db;  ///< db.images = total database, blocked by shard
  LoadGenConfig load;
  BatcherConfig batch;
  /// Deadline-aware admission: a query arriving at virtual time t carries
  /// deadline t + deadline_ps and is refused (kDeadlineExceeded) whenever
  /// the serving replica's backlog estimate already overruns it — also
  /// re-checked when a crash requeues the query. 0 = no deadlines.
  ps_t deadline_ps = 0;
  /// CoDel-style sojourn control on each replica's batcher queue
  /// (svc::CodelAdmission). codel.target_ps = 0 disables it.
  CodelConfig codel;
  std::size_t cache_capacity = 4096;
  ShedPolicy policy = ShedPolicy::kReject;
  bool closed_loop = false;
  int concurrency = 64;           ///< in-flight window in closed-loop mode
  ps_t cache_hit_ps = 150'000;    ///< modeled lookup + reply cost (150 ns)
  /// Backlog watchdog: degrade above ~5 default batches of queued service
  /// time, recover once the queue is nearly drained.
  ps_t unhealthy_backlog_ps = 5'000'000'000;  ///< 5 ms
  ps_t recover_backlog_ps = 1'000'000'000;    ///< 1 ms
  tilesim::FaultPlan fault_plan;  ///< kShardStall is the serving site
  /// Flight recorder over the serve loop: one ring per replica slot, fed
  /// by the deterministic event loop (docs/OBSERVABILITY.md). Zero virtual
  /// cost.
  bool flightrec = false;
  std::size_t flightrec_capacity = obs::FlightRecorder::kDefaultCapacity;
  ps_t timeseries_window_ps = 0;  ///< >0 adds windowed svc.* and event.*
                                  ///< telemetry
  std::string blackbox_path;      ///< dump a post-mortem here on the first
                                  ///< shard degradation, else at the end of
                                  ///< run() (implies flightrec)
};

/// Batch cost model measured on the real replica device (virtual time).
/// Indexed by global replica slot (replica * shards + shard).
struct ShardCalibration {
  int shard = 0;          ///< shard slice this replica serves
  int replica = 0;        ///< 0 = primary
  ps_t build_ps = 0;      ///< ShardIndex construction
  ps_t setup_ps = 0;      ///< fixed per-batch cost (collectives, dispatch)
  ps_t per_query_ps = 0;  ///< marginal cost per query in a batch
  int first = 0;          ///< database slice this shard owns
  int count = 0;
};

/// Per-replica serving stats, indexed by global replica slot.
struct ShardStats {
  int shard = 0;
  int replica = 0;
  std::uint64_t batches = 0;
  std::uint64_t queries = 0;
  std::uint64_t stall_events = 0;  ///< injected kShardStall hits
  ps_t stall_ps = 0;               ///< total injected stall
  std::uint64_t degraded_episodes = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t crashes = 0;       ///< kShardCrash + kReplicaFlap deaths
  std::uint64_t flaps = 0;         ///< kReplicaFlap deaths (recoverable)
  std::uint64_t requeued = 0;      ///< queries moved off this replica after
                                   ///< it crashed
  ps_t busy_ps = 0;                ///< total batch service time
  ps_t last_recovery_ps = 0;       ///< virtual time of the last recovery
};

struct ServiceReport {
  int shards = 0;
  int replicas = 1;
  std::vector<ShardCalibration> calibration;  ///< one per replica slot
  std::vector<ShardStats> shard_stats;        ///< one per replica slot
  ps_t duration_ps = 0;       ///< first arrival to last reply
  std::uint64_t offered = 0;
  std::uint64_t completed = 0;  ///< answered (cache hits included)
  std::uint64_t cache_hits = 0;
  std::uint64_t shed = 0;       ///< refused (kShardDegraded / kReplicaLost)
  std::uint64_t rerouted = 0;
  std::uint64_t failover_routed = 0;  ///< queries served by a backup replica
  std::uint64_t requeued = 0;    ///< queries re-dispatched after a crash
  std::uint64_t failbacks = 0;   ///< a primary resumed after backups served
  std::uint64_t replica_crashes = 0;  ///< crash events (incl. flaps)
  std::uint64_t replica_lost = 0;     ///< shed with kReplicaLost
  std::uint64_t deadline_dropped = 0;  ///< admission drops (deadline+CoDel)
  std::uint64_t codel_dropped = 0;     ///< subset dropped by the CoDel law
  std::uint64_t hung = 0;  ///< offered - completed - shed - deadline_dropped
                           ///< (must be 0; run() throws on wrap-around)
  double qps = 0.0;             ///< completed per virtual second
  obs::LatencyQuantiles latency{};  ///< p50/p99/p999 over completed (ps)
  std::uint64_t max_latency_ps = 0;
  std::uint64_t fault_events = 0;   ///< injected-event log size
  std::string fault_plan;           ///< FaultPlan::describe()
  std::string shed_error;           ///< sample structured shed error ("" if
                                    ///< nothing was shed)
};

class Service {
 public:
  Service(tshmem::Cluster& cluster, ServiceConfig cfg);

  /// Shard slices (cluster devices / replicas).
  [[nodiscard]] int num_shards() const noexcept { return shards_; }

  /// Phase 1 for one replica: a real cluster job on its own device,
  /// returning that replica's independent cost model.
  ShardCalibration calibrate_replica(int shard, int replica);

  /// Calibrates every shard, then runs the serve loop to completion.
  ServiceReport run();

  /// svc.* metrics recorded by the last run() (docs/OBSERVABILITY.md).
  [[nodiscard]] obs::MetricsRegistry& metrics() noexcept { return metrics_; }

  /// Last-N serve-loop events per shard (null unless cfg.flightrec).
  [[nodiscard]] obs::FlightRecorder* flightrec() noexcept {
    return flightrec_.get();
  }

  /// Windowed svc.* telemetry (null unless cfg.timeseries_window_ps > 0).
  [[nodiscard]] obs::TimeSeries* timeseries() noexcept {
    return timeseries_.get();
  }

  /// Writes a tshmem.blackbox.v1 post-mortem (source "svc") to `os`.
  /// Returns false when the flight recorder is disabled.
  bool write_blackbox(std::ostream& os, const std::string& reason,
                      int errc = 0);

 private:
  void dump_blackbox(const std::string& reason, int errc);

  tshmem::Cluster& cluster_;
  ServiceConfig cfg_;
  int shards_ = 0;  ///< cluster devices / replicas
  obs::MetricsRegistry metrics_;
  std::unique_ptr<obs::FlightRecorder> flightrec_;
  std::unique_ptr<obs::TimeSeries> timeseries_;
  std::vector<tilesim::Probe*> probes_;  ///< the two above, when enabled
  bool blackbox_written_ = false;
};

}  // namespace svc
