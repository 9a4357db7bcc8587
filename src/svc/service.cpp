#include "svc/service.hpp"

#include <algorithm>
#include <deque>
#include <fstream>
#include <functional>
#include <queue>
#include <span>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "sim/probe.hpp"
#include "svc/cache.hpp"
#include "util/error.hpp"

namespace svc {

using apps::cbir::Feature;
using tilesim::probe_event;
using tilesim::ProbeKind;
using apps::cbir::FeatureCache;
using apps::cbir::Hit;
using apps::cbir::ShardIndex;

Service::Service(tshmem::Cluster& cluster, ServiceConfig cfg)
    : cluster_(cluster), cfg_(cfg) {
  if (cfg_.pes_per_shard < 1) {
    throw std::invalid_argument("service: pes_per_shard must be >= 1");
  }
  if (cfg_.replicas < 1) {
    throw std::invalid_argument("service: replicas must be >= 1");
  }
  if (cluster_.num_devices() < cfg_.replicas ||
      cluster_.num_devices() % cfg_.replicas != 0) {
    throw std::invalid_argument(
        "service: cluster devices must be shards * replicas");
  }
  shards_ = cluster_.num_devices() / cfg_.replicas;
  if (cfg_.db.images < shards_) {
    throw std::invalid_argument("service: fewer images than shards");
  }
  if (cfg_.recover_backlog_ps > cfg_.unhealthy_backlog_ps) {
    throw std::invalid_argument(
        "service: recover threshold above the degrade threshold");
  }
  if (cfg_.load.key_space > cfg_.db.images) {
    throw std::invalid_argument("service: key_space exceeds the database");
  }
  if (cfg_.closed_loop && cfg_.concurrency < 1) {
    throw std::invalid_argument("service: closed loop needs concurrency>=1");
  }
  if (!cfg_.blackbox_path.empty()) cfg_.flightrec = true;
  if (cfg_.flightrec) {
    flightrec_ = std::make_unique<obs::FlightRecorder>(
        cluster_.num_devices(), cfg_.flightrec_capacity);
    probes_.push_back(flightrec_.get());
  }
  if (cfg_.timeseries_window_ps > 0) {
    timeseries_ = std::make_unique<obs::TimeSeries>(cfg_.timeseries_window_ps,
                                                    cluster_.num_devices());
    probes_.push_back(timeseries_.get());
  }
}

bool Service::write_blackbox(std::ostream& os, const std::string& reason,
                             int errc) {
  if (flightrec_ == nullptr) return false;
  obs::BlackboxInfo info;
  info.reason = reason;
  info.errc = errc;
  info.errc_name =
      errc != 0 ? tshmem::errc_name(static_cast<tshmem::Errc>(errc)) : "";
  info.fault_plan = cfg_.fault_plan.describe();
  info.source = "svc";
  obs::write_blackbox_json(os, *flightrec_, info);
  return true;
}

void Service::dump_blackbox(const std::string& reason, int errc) {
  if (flightrec_ == nullptr || cfg_.blackbox_path.empty()) return;
  if (blackbox_written_) return;  // keep the *first* incident's rings
  std::ofstream os(cfg_.blackbox_path);
  if (!os) return;
  blackbox_written_ = write_blackbox(os, reason, errc);
}

ShardCalibration Service::calibrate_replica(int shard, int replica) {
  if (shard < 0 || shard >= shards_) {
    throw std::out_of_range("service: shard index");
  }
  if (replica < 0 || replica >= cfg_.replicas) {
    throw std::out_of_range("service: replica index");
  }
  const int device = replica * shards_ + shard;
  const int per_shard = (cfg_.db.images + shards_ - 1) / shards_;
  ShardCalibration cal;
  cal.shard = shard;
  cal.replica = replica;
  cal.first = std::min(cfg_.db.images, shard * per_shard);
  cal.count = std::min(cfg_.db.images - cal.first, per_shard);
  const int probes = std::max(2, cfg_.batch.max_batch);
  const apps::cbir::Params db = cfg_.db;

  cluster_.run_shard(device, cfg_.pes_per_shard, [&](tshmem::Context& ctx) {
    const auto b0 = ctx.clock().now();
    ShardIndex index(ctx, db, cal.first, cal.count);
    const auto b1 = ctx.clock().now();
    // Probe query features are client-side work: extracted outside the
    // timed region and not charged to the shard.
    const std::size_t px = static_cast<std::size_t>(db.width) *
                           static_cast<std::size_t>(db.height);
    std::vector<std::uint8_t> img(px);
    std::vector<Feature> queries(static_cast<std::size_t>(probes));
    for (int i = 0; i < probes; ++i) {
      const int key = cal.first + (i * 911) % cal.count;
      const std::uint64_t s = db.seed + static_cast<std::uint64_t>(key);
      apps::cbir::generate_image(img, db.width, db.height, s);
      queries[static_cast<std::size_t>(i)] =
          FeatureCache::shared().seeded(img, db.width, db.height, s);
    }
    std::vector<Hit> out(static_cast<std::size_t>(probes));
    ctx.barrier_all();
    const auto t0 = ctx.clock().now();
    index.query_batch(ctx, std::span<const Feature>(queries.data(), 1),
                      std::span<Hit>(out.data(), 1));
    const auto t1 = ctx.clock().now();
    index.query_batch(ctx, queries, out);
    const auto t2 = ctx.clock().now();
    index.destroy(ctx);
    if (ctx.my_pe() == 0) {
      const ps_t one = t1 - t0;
      const ps_t many = t2 - t1;
      cal.build_ps = b1 - b0;
      cal.per_query_ps =
          probes > 1 ? std::max<ps_t>(1, (many - one) / (probes - 1)) : one;
      cal.setup_ps = one > cal.per_query_ps ? one - cal.per_query_ps : 0;
    }
  });
  return cal;
}

namespace {

struct Event {
  enum class Kind { kArrival, kBatchTimeout, kBatchDone, kReplicaRecover };

  ps_t at = 0;
  std::uint64_t seq = 0;  ///< monotone tiebreak: total event order
  Kind kind = Kind::kArrival;
  int rid = -1;  ///< global replica slot (replica * shards + shard)
  std::uint64_t generation = 0;  ///< batch-timeout staleness guard
  Arrival arrival;
};

struct EventAfter {
  bool operator()(const Event& a, const Event& b) const noexcept {
    if (a.at != b.at) return a.at > b.at;
    return a.seq > b.seq;
  }
};

/// Serve-loop state of one replica (one cluster device).
struct ReplicaState {
  ReplicaState(const BatcherConfig& bcfg, const CodelConfig& ccfg)
      : batcher(bcfg), codel(ccfg) {}

  Batcher batcher;
  CodelAdmission codel;  ///< sojourn controller over `queue`
  std::deque<std::vector<PendingQuery>> queue;  ///< closed, waiting batches
  std::vector<PendingQuery> running;            ///< batch being served
  bool busy = false;
  ps_t busy_until = 0;
  ps_t queued_est_ps = 0;  ///< estimated service time of `queue`
  bool degraded = false;
  bool crashed = false;  ///< kShardCrash (forever) or kReplicaFlap (down)
};

}  // namespace

ServiceReport Service::run() {
  const int replicas = cfg_.replicas;
  const int nrep = shards_ * replicas;
  ServiceReport rep;
  rep.shards = shards_;
  rep.replicas = replicas;
  rep.calibration.reserve(static_cast<std::size_t>(nrep));
  for (int rid = 0; rid < nrep; ++rid) {
    rep.calibration.push_back(
        calibrate_replica(rid % shards_, rid / shards_));
  }
  rep.shard_stats.assign(static_cast<std::size_t>(nrep), ShardStats{});
  for (int rid = 0; rid < nrep; ++rid) {
    rep.shard_stats[static_cast<std::size_t>(rid)].shard = rid % shards_;
    rep.shard_stats[static_cast<std::size_t>(rid)].replica = rid / shards_;
  }
  rep.fault_plan = cfg_.fault_plan.describe();

  // --- serve phase: deterministic discrete-event loop ---------------------
  tilesim::FaultEngine faults(cfg_.fault_plan);
  LoadGen gen(cfg_.load);
  LruCache cache(cfg_.cache_capacity);
  Router router(shards_, cfg_.policy, replicas);
  std::vector<ReplicaState> st;
  st.reserve(static_cast<std::size_t>(nrep));
  for (int rid = 0; rid < nrep; ++rid) {
    st.emplace_back(cfg_.batch, cfg_.codel);
  }

  // Sanctioned instrumentation handles (lint rule R005).
  auto* m_offered = obs::counter_handle(metrics_, "svc.offered", 0);
  auto* m_completed = obs::counter_handle(metrics_, "svc.completed", 0);
  auto* m_shed = obs::counter_handle(metrics_, "svc.shed", 0);
  auto* m_rerouted = obs::counter_handle(metrics_, "svc.rerouted", 0);
  auto* m_deadline = obs::counter_handle(metrics_, "svc.deadline_drop", 0);
  auto* m_latency = obs::histogram_handle(metrics_, "svc.latency.ps", 0);
  auto* m_fill = obs::histogram_handle(metrics_, "svc.batch.fill", 0);
  // probe_event reports each event to the recorder and time series (to
  // neither when both are off); the svc.* series helpers are null-safe
  // (rule R005).
  obs::TimeSeries* ts = timeseries_.get();

  std::priority_queue<Event, std::vector<Event>, EventAfter> heap;
  std::uint64_t next_seq = 0;
  auto push = [&](Event e) {
    e.seq = next_seq++;
    heap.push(e);
  };

  ps_t first_arrival_ps = 0;
  bool seen_arrival = false;
  ps_t last_reply_ps = 0;
  std::uint64_t in_flight = 0;  // accepted or shed-pending window (closed)

  auto shard_of = [&](int rid) { return rid % shards_; };
  auto replica_of = [&](int rid) { return rid / shards_; };

  auto est_ps = [&](int rid, std::size_t n) {
    const ShardCalibration& c = rep.calibration[static_cast<std::size_t>(rid)];
    return c.setup_ps + static_cast<ps_t>(n) * c.per_query_ps;
  };

  auto backlog_ps = [&](int rid, ps_t now) {
    const ReplicaState& s = st[static_cast<std::size_t>(rid)];
    const ps_t busy = s.busy ? s.busy_until - now : 0;
    return busy + s.queued_est_ps;
  };

  auto update_health = [&](int rid, ps_t now) {
    ReplicaState& s = st[static_cast<std::size_t>(rid)];
    if (s.crashed) return;  // a dead replica has no backlog to watch
    ShardStats& stats = rep.shard_stats[static_cast<std::size_t>(rid)];
    const ps_t backlog = backlog_ps(rid, now);
    obs::set_level(metrics_, "svc.shard.backlog.ps", rid,
                   static_cast<std::int64_t>(backlog));
    if (!s.degraded && backlog > cfg_.unhealthy_backlog_ps) {
      s.degraded = true;
      router.set_replica_health(shard_of(rid), replica_of(rid),
                                ReplicaHealth::kDegraded);
      ++stats.degraded_episodes;
      obs::add_count(metrics_, "svc.shard.degraded", rid, 1);
      probe_event(probes_, rid,
                  {ProbeKind::kSvcDegraded, "svc_degrade", now, -1, 0,
                   static_cast<int>(tshmem::Errc::kShardDegraded)});
      obs::ts_add(ts, "svc.degraded", now);
      dump_blackbox("shard " + std::to_string(shard_of(rid)) + " replica " +
                        std::to_string(replica_of(rid)) +
                        " degraded: virtual-time backlog crossed "
                        "unhealthy_backlog_ps",
                    static_cast<int>(tshmem::Errc::kShardDegraded));
    } else if (s.degraded && backlog <= cfg_.recover_backlog_ps) {
      s.degraded = false;
      router.set_replica_health(shard_of(rid), replica_of(rid),
                                ReplicaHealth::kHealthy);
      ++stats.recoveries;
      stats.last_recovery_ps = now;
      obs::add_count(metrics_, "svc.shard.recovered", rid, 1);
      probe_event(probes_, rid, {ProbeKind::kSvcRecovered, "svc_recover", now});
      obs::ts_add(ts, "svc.recovered", now);
      if (replica_of(rid) == 0 && replicas > 1) {
        // The primary is back: the ReplicaSet prefers it again.
        ++rep.failbacks;
        obs::add_count(metrics_, "svc.failover.failbacks", rid, 1);
        probe_event(probes_, rid, {ProbeKind::kSvcFailback, "svc_failback",
                                   now});
        obs::ts_add(ts, "svc.failback", now);
      }
    }
  };

  auto inject_closed = [&](ps_t now) {
    while (!gen.exhausted() && in_flight < static_cast<std::uint64_t>(
                                   cfg_.concurrency)) {
      push(Event{now, 0, Event::Kind::kArrival, -1, 0, gen.next_keyed(now)});
      ++in_flight;
    }
  };

  auto reply = [&](ps_t at) {
    last_reply_ps = std::max(last_reply_ps, at);
    if (cfg_.closed_loop) {
      --in_flight;
      inject_closed(at);
    }
  };

  auto complete = [&](const PendingQuery& q, ps_t now, int rid) {
    const auto latency = static_cast<std::uint64_t>(now - q.arrival_ps);
    m_latency->record(latency);
    rep.max_latency_ps = std::max(rep.max_latency_ps, latency);
    ++rep.completed;
    m_completed->add(1);
    probe_event(probes_, rid, {ProbeKind::kSvcComplete, "svc_complete", now, -1,
                               1});
    obs::ts_add(ts, "svc.completed", now);
    obs::ts_sample(ts, "svc.latency.ps", now, latency);
    // A query key is a database image, so the exact answer is
    // self-retrieval at distance 0 (the test_apps_cbir contract).
    cache.put(q.key, Hit{q.key, 0.0f});
    reply(now);
  };

  auto record_shed = [&](std::uint64_t id, int key, ps_t now, int rid,
                         tshmem::Errc errc, const char* why) {
    ++rep.shed;
    m_shed->add(1);
    if (errc == tshmem::Errc::kReplicaLost) {
      ++rep.replica_lost;
      obs::add_count(metrics_, "svc.replica.lost", 0, 1);
    }
    probe_event(probes_, rid, {ProbeKind::kSvcShed, "svc_shed", now, -1, 1,
                               static_cast<int>(errc)});
    obs::ts_add(ts, "svc.shed", now);
    if (rep.shed_error.empty()) {
      std::ostringstream msg;
      msg << "query " << id << " (key " << key << ") shed at " << now
          << " ps: " << why;
      rep.shed_error = tshmem::Error(errc, msg.str()).what();
    }
    reply(now);
  };

  auto shed_arrival = [&](const Arrival& a, ps_t now) {
    const int home = router.home_shard(a.key);
    // Distinguish a slice that is merely backlogged from one whose every
    // replica is gone: clients can retry the former, not the latter.
    bool all_crashed = true;
    for (int r = 0; r < replicas; ++r) {
      if (router.replica_health(home, r) != ReplicaHealth::kCrashed) {
        all_crashed = false;
        break;
      }
    }
    std::ostringstream why;
    why << "home shard " << home
        << (all_crashed ? " lost every replica" : " degraded")
        << " and no healthy shard accepts " << shed_policy_name(cfg_.policy)
        << " traffic";
    record_shed(a.id, a.key, now, home,
                all_crashed ? tshmem::Errc::kReplicaLost
                            : tshmem::Errc::kShardDegraded,
                why.str().c_str());
  };

  auto drop_deadline = [&](ps_t now, int rid, bool codel) {
    ++rep.deadline_dropped;
    if (codel) ++rep.codel_dropped;
    m_deadline->add(1);
    if (codel) obs::add_count(metrics_, "svc.codel.drop", rid, 1);
    probe_event(probes_, rid,
                {ProbeKind::kSvcDeadlineDrop,
                 codel ? "svc_codel_drop" : "svc_deadline_drop", now, -1, 1,
                 static_cast<int>(tshmem::Errc::kDeadlineExceeded)});
    obs::ts_add(ts, "svc.deadline_drop", now);
    reply(now);
  };

  // Forward declarations for the mutually recursive dispatch helpers: a
  // crash inside try_start requeues onto peers, whose own try_start runs.
  std::function<void(int, ps_t)> try_start;
  std::function<void(int, ps_t)> crash_replica;

  auto close_batch = [&](int rid, ps_t now) {
    ReplicaState& s = st[static_cast<std::size_t>(rid)];
    std::vector<PendingQuery> batch = s.batcher.close();
    s.queued_est_ps += est_ps(rid, batch.size());
    s.queue.push_back(std::move(batch));
    update_health(rid, now);
    try_start(rid, now);
  };

  /// Admission + enqueue of one query onto `rid`. Returns false when the
  /// query was dropped by deadline / CoDel admission control.
  auto enqueue = [&](int rid, const PendingQuery& q, ps_t now) {
    const ps_t backlog = backlog_ps(rid, now);
    if (q.deadline_ps > 0 && now + backlog > q.deadline_ps) {
      drop_deadline(now, rid, false);
      return false;
    }
    ReplicaState& s = st[static_cast<std::size_t>(rid)];
    if (!s.codel.admit(backlog, now)) {
      drop_deadline(now, rid, true);
      return false;
    }
    const Batcher::AddResult added = s.batcher.add(q, now);
    if (added.full) {
      close_batch(rid, now);
    } else if (added.arm_timer) {
      push(Event{added.deadline_ps, 0, Event::Kind::kBatchTimeout, rid,
                 added.generation, {}});
    }
    return true;
  };

  /// Failover path: re-dispatch one query stranded on a dead replica.
  auto requeue = [&](const PendingQuery& q, ps_t now, int from_rid) {
    const Router::Route route = router.route(q.key);
    if (route.shard < 0) {
      record_shed(q.id, q.key, now, from_rid, tshmem::Errc::kReplicaLost,
                  "its replica crashed and no surviving replica accepts "
                  "failover traffic");
      return;
    }
    const int to_rid = route.replica * shards_ + route.shard;
    ++rep.requeued;
    ++rep.shard_stats[static_cast<std::size_t>(from_rid)].requeued;
    obs::add_count(metrics_, "svc.failover.requeued", from_rid, 1);
    probe_event(probes_, from_rid, {ProbeKind::kSvcFailover, "svc_requeue", now,
                                    to_rid, 1});
    obs::ts_add(ts, "svc.failover", now);
    enqueue(to_rid, q, now);
  };

  crash_replica = [&](int rid, ps_t now) {
    // Shared by kShardCrash (permanent: no recovery is ever scheduled)
    // and kReplicaFlap (the caller schedules the revival).
    ReplicaState& s = st[static_cast<std::size_t>(rid)];
    ShardStats& stats = rep.shard_stats[static_cast<std::size_t>(rid)];
    s.crashed = true;
    s.degraded = false;
    router.set_replica_health(shard_of(rid), replica_of(rid),
                              ReplicaHealth::kCrashed);
    ++stats.crashes;
    ++rep.replica_crashes;
    obs::add_count(metrics_, "svc.replica.crashed", rid, 1);
    probe_event(probes_, rid, {ProbeKind::kSvcCrash, "svc_crash", now, -1, 0,
                               static_cast<int>(tshmem::Errc::kReplicaLost)});
    obs::ts_add(ts, "svc.crash", now);
    dump_blackbox("shard " + std::to_string(shard_of(rid)) + " replica " +
                      std::to_string(replica_of(rid)) +
                      " crashed (seeded fault site)",
                  static_cast<int>(tshmem::Errc::kReplicaLost));
    // Strand nothing: every query this replica still held fails over,
    // oldest first (queued closed batches, then the open batch).
    std::vector<PendingQuery> strays;
    for (const auto& b : s.queue) {
      strays.insert(strays.end(), b.begin(), b.end());
    }
    s.queue.clear();
    s.queued_est_ps = 0;
    if (s.batcher.open_size() > 0) {
      std::vector<PendingQuery> open = s.batcher.close();
      strays.insert(strays.end(), open.begin(), open.end());
    }
    obs::set_level(metrics_, "svc.shard.backlog.ps", rid, 0);
    for (const PendingQuery& q : strays) requeue(q, now, rid);
  };

  try_start = [&](int rid, ps_t now) {
    ReplicaState& s = st[static_cast<std::size_t>(rid)];
    if (s.busy || s.crashed || s.queue.empty()) return;
    // Each dispatch is one crash/flap opportunity — consumed on every
    // attempt so the ordinal streams stay aligned across plans.
    ShardStats& stats = rep.shard_stats[static_cast<std::size_t>(rid)];
    if (faults.shard_crash(rid, now)) {
      crash_replica(rid, now);
      return;
    }
    if (const ps_t down = faults.replica_flap(rid, now); down > 0) {
      ++stats.flaps;
      obs::add_count(metrics_, "svc.replica.flaps", rid, 1);
      crash_replica(rid, now);
      push(Event{now + down, 0, Event::Kind::kReplicaRecover, rid, 0, {}});
      return;
    }
    s.running = std::move(s.queue.front());
    s.queue.pop_front();
    const ps_t est = est_ps(rid, s.running.size());
    s.queued_est_ps -= est;
    const ps_t stall = faults.shard_stall(rid, now);
    if (stall > 0) {
      ++stats.stall_events;
      stats.stall_ps += stall;
      obs::add_count(metrics_, "svc.shard.stall.events", rid, 1);
      obs::add_count(metrics_, "svc.shard.stall.ps", rid,
                     static_cast<std::uint64_t>(stall));
    }
    const ps_t service = est + stall;
    s.busy = true;
    s.busy_until = now + service;
    stats.busy_ps += service;
    ++stats.batches;
    stats.queries += s.running.size();
    obs::add_count(metrics_, "svc.shard.batches", rid, 1);
    obs::add_count(metrics_, "svc.shard.queries", rid, s.running.size());
    m_fill->record(s.running.size());
    probe_event(probes_, rid, {ProbeKind::kSvcBatch, "svc_batch", now, -1,
                               s.running.size()});
    push(Event{s.busy_until, 0, Event::Kind::kBatchDone, rid, 0, {}});
  };

  // Seed the arrival stream.
  if (cfg_.load.queries == 0) {
    throw std::invalid_argument("service: zero queries");
  }
  if (cfg_.closed_loop) {
    inject_closed(0);
  } else {
    const Arrival a = gen.next();
    push(Event{a.at_ps, 0, Event::Kind::kArrival, -1, 0, a});
  }

  while (!heap.empty()) {
    const Event e = heap.top();
    heap.pop();
    const ps_t now = e.at;
    switch (e.kind) {
      case Event::Kind::kArrival: {
        const Arrival a{now, e.arrival.key, e.arrival.id};
        if (!seen_arrival) {
          seen_arrival = true;
          first_arrival_ps = now;
        }
        ++rep.offered;
        m_offered->add(1);
        const int home = router.home_shard(a.key);
        probe_event(probes_, home, {ProbeKind::kSvcArrival, "svc_arrival", now,
                                    -1, 1});
        obs::ts_add(ts, "svc.offered", now);
        // Open loop: keep the arrival stream going regardless of outcome.
        if (!cfg_.closed_loop && !gen.exhausted()) {
          const Arrival next = gen.next();
          push(Event{next.at_ps, 0, Event::Kind::kArrival, -1, 0, next});
        }
        if (const Hit* hit = cache.get(a.key); hit != nullptr) {
          ++rep.cache_hits;
          const ps_t done = now + cfg_.cache_hit_ps;
          m_latency->record(static_cast<std::uint64_t>(cfg_.cache_hit_ps));
          rep.max_latency_ps = std::max(
              rep.max_latency_ps,
              static_cast<std::uint64_t>(cfg_.cache_hit_ps));
          ++rep.completed;
          m_completed->add(1);
          probe_event(probes_, home, {ProbeKind::kSvcComplete, "svc_cache_hit",
                                      done, -1, 1});
          obs::ts_add(ts, "svc.completed", done);
          obs::ts_sample(ts, "svc.latency.ps", done,
                         static_cast<std::uint64_t>(cfg_.cache_hit_ps));
          reply(done);
          break;
        }
        const Router::Route route = router.route(a.key);
        if (route.shard < 0) {
          shed_arrival(a, now);
          break;
        }
        const int rid = route.replica * shards_ + route.shard;
        if (route.rerouted) {
          ++rep.rerouted;
          m_rerouted->add(1);
        }
        if (route.failover) {
          ++rep.failover_routed;
          obs::add_count(metrics_, "svc.failover.routed", rid, 1);
          probe_event(probes_, rid, {ProbeKind::kSvcFailover,
                                     "svc_failover_route", now, route.shard,
                                     1});
          obs::ts_add(ts, "svc.failover", now);
        }
        const PendingQuery q{
            a.id, a.key, now,
            cfg_.deadline_ps > 0 ? now + cfg_.deadline_ps : 0};
        enqueue(rid, q, now);
        break;
      }
      case Event::Kind::kBatchTimeout: {
        ReplicaState& s = st[static_cast<std::size_t>(e.rid)];
        if (s.crashed || s.batcher.generation() != e.generation ||
            s.batcher.open_size() == 0) {
          break;  // stale: the batch already closed full (or died)
        }
        close_batch(e.rid, now);
        break;
      }
      case Event::Kind::kBatchDone: {
        ReplicaState& s = st[static_cast<std::size_t>(e.rid)];
        std::vector<PendingQuery> batch = std::move(s.running);
        s.running.clear();
        s.busy = false;
        for (const PendingQuery& q : batch) complete(q, now, e.rid);
        update_health(e.rid, now);
        try_start(e.rid, now);
        break;
      }
      case Event::Kind::kReplicaRecover: {
        ReplicaState& s = st[static_cast<std::size_t>(e.rid)];
        if (!s.crashed) break;
        s.crashed = false;
        s.degraded = false;  // its queue failed over at the crash
        router.set_replica_health(shard_of(e.rid), replica_of(e.rid),
                                  ReplicaHealth::kHealthy);
        ShardStats& stats = rep.shard_stats[static_cast<std::size_t>(e.rid)];
        ++stats.recoveries;
        stats.last_recovery_ps = now;
        obs::add_count(metrics_, "svc.replica.recovered", e.rid, 1);
        probe_event(probes_, e.rid, {ProbeKind::kSvcRecovered,
                                     "svc_flap_recover", now});
        obs::ts_add(ts, "svc.recovered", now);
        if (replica_of(e.rid) == 0 && replicas > 1) {
          ++rep.failbacks;
          obs::add_count(metrics_, "svc.failover.failbacks", e.rid, 1);
          probe_event(probes_, e.rid, {ProbeKind::kSvcFailback, "svc_failback",
                                       now});
          obs::ts_add(ts, "svc.failback", now);
        }
        break;
      }
    }
  }

  // Every accepted query must have drained: stranded open batches or
  // queued work would be a shed-not-hang violation.
  std::uint64_t stranded = 0;
  for (const ReplicaState& s : st) {
    stranded += s.batcher.open_size() + s.running.size();
    for (const auto& b : s.queue) stranded += b.size();
  }
  // Guard the unsigned subtraction: a double-counted completion would
  // otherwise wrap into a near-2^64 "hung" figure that reads like noise
  // instead of the accounting bug it is.
  const std::uint64_t answered =
      rep.completed + rep.shed + rep.deadline_dropped;
  if (answered > rep.offered) {
    std::ostringstream msg;
    msg << "service: completion accounting wrapped: offered " << rep.offered
        << " < completed " << rep.completed << " + shed " << rep.shed
        << " + deadline_dropped " << rep.deadline_dropped;
    throw std::logic_error(msg.str());
  }
  rep.hung = rep.offered - answered;
  if (stranded != rep.hung) {
    throw std::logic_error("service: completion accounting diverged");
  }
  obs::add_count(metrics_, "svc.hung", 0, rep.hung);
  obs::add_count(metrics_, "svc.cache.hits", 0, cache.hits());
  obs::add_count(metrics_, "svc.cache.misses", 0, cache.misses());
  obs::add_count(metrics_, "svc.cache.evictions", 0, cache.evictions());
  rep.cache_hits = cache.hits();
  rep.fault_events = faults.event_count();
  rep.duration_ps =
      last_reply_ps > first_arrival_ps ? last_reply_ps - first_arrival_ps : 0;
  if (rep.duration_ps > 0) {
    rep.qps = static_cast<double>(rep.completed) /
              (static_cast<double>(rep.duration_ps) * 1e-12);
  }
  rep.latency = obs::latency_quantiles(*m_latency);
  // A quiet run still leaves a post-mortem, so the triage tooling always
  // has input; a degradation's dump, written first, is kept.
  dump_blackbox("serve snapshot (end of run)", 0);
  return rep;
}

}  // namespace svc
