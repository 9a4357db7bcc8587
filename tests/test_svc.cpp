// Tests for the serving subsystem (src/svc, docs/SERVING.md): load
// generator determinism, batcher coalescing and timeout arming, CoDel
// admission control, LRU hit/eviction behavior, router shed/reroute
// policy and per-shard ReplicaSet failover, ShardIndex correctness on a
// real runtime, and end-to-end serve runs over real 2- and 4-device
// clusters — including bit-identical replay per (seed, fault plan),
// shed-not-hang under an injected shard stall, replica failover under
// primary stalls and crashes, and deadline-aware admission.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "apps/cbir.hpp"
#include "sim/config.hpp"
#include "sim/fault.hpp"
#include "svc/batcher.hpp"
#include "svc/cache.hpp"
#include "svc/loadgen.hpp"
#include "svc/report.hpp"
#include "svc/router.hpp"
#include "svc/service.hpp"
#include "tshmem/cluster.hpp"
#include "tshmem/runtime.hpp"

namespace {

using apps::cbir::Feature;
using apps::cbir::FeatureCache;
using apps::cbir::Hit;
using svc::Arrival;
using svc::Batcher;
using svc::BatcherConfig;
using svc::LoadGen;
using svc::LoadGenConfig;
using svc::LruCache;
using svc::CodelAdmission;
using svc::CodelConfig;
using svc::PendingQuery;
using svc::ReplicaHealth;
using svc::ReplicaSet;
using svc::Router;
using svc::ServiceConfig;
using svc::ServiceReport;
using svc::ShedPolicy;

// ===========================================================================
// Load generator
// ===========================================================================

TEST(LoadGen, DeterministicPerSeed) {
  LoadGenConfig cfg;
  cfg.seed = 42;
  cfg.queries = 5000;
  cfg.start_qps = 50'000.0;
  cfg.end_qps = 200'000.0;
  cfg.key_space = 300;
  LoadGen a(cfg);
  LoadGen b(cfg);
  for (int i = 0; i < 5000; ++i) {
    const Arrival x = a.next();
    const Arrival y = b.next();
    EXPECT_EQ(x.at_ps, y.at_ps);
    EXPECT_EQ(x.key, y.key);
    EXPECT_EQ(x.id, y.id);
  }
  EXPECT_TRUE(a.exhausted());
  EXPECT_THROW(a.next(), std::logic_error);
}

TEST(LoadGen, DifferentSeedsDiverge) {
  LoadGenConfig cfg;
  cfg.queries = 100;
  LoadGen a(cfg);
  cfg.seed = 2;
  LoadGen b(cfg);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next().at_ps == b.next().at_ps) ++same;
  }
  EXPECT_LT(same, 100);
}

TEST(LoadGen, ArrivalsAreMonotoneAndKeysInRange) {
  LoadGenConfig cfg;
  cfg.queries = 2000;
  cfg.key_space = 64;
  LoadGen gen(cfg);
  tilesim::ps_t last = 0;
  while (!gen.exhausted()) {
    const Arrival a = gen.next();
    EXPECT_GT(a.at_ps, last);
    last = a.at_ps;
    EXPECT_GE(a.key, 0);
    EXPECT_LT(a.key, 64);
  }
}

TEST(LoadGen, RampInterpolatesRates) {
  LoadGenConfig cfg;
  cfg.queries = 1001;
  cfg.start_qps = 10'000.0;
  cfg.end_qps = 110'000.0;
  LoadGen gen(cfg);
  EXPECT_DOUBLE_EQ(gen.rate_at(0), 10'000.0);
  EXPECT_DOUBLE_EQ(gen.rate_at(500), 60'000.0);
  EXPECT_DOUBLE_EQ(gen.rate_at(1000), 110'000.0);
}

TEST(LoadGen, ZipfSkewsTowardLowKeys) {
  LoadGenConfig cfg;
  cfg.queries = 20'000;
  cfg.key_space = 1000;
  cfg.zipf_s = 1.0;
  LoadGen gen(cfg);
  std::uint64_t head = 0;
  while (!gen.exhausted()) {
    if (gen.next().key < 100) ++head;
  }
  // Under Zipf(1.0) the top 10% of keys carry well over half the mass.
  EXPECT_GT(head, 10'000u);
}

// ===========================================================================
// Batcher
// ===========================================================================

TEST(Batcher, ClosesWhenFull) {
  Batcher b(BatcherConfig{3, 1'000'000});
  const auto r1 = b.add(PendingQuery{0, 10, 100}, 100);
  EXPECT_TRUE(r1.arm_timer);
  EXPECT_FALSE(r1.full);
  EXPECT_EQ(r1.deadline_ps, 1'000'100u);
  const auto r2 = b.add(PendingQuery{1, 11, 200}, 200);
  EXPECT_FALSE(r2.arm_timer);
  EXPECT_FALSE(r2.full);
  const auto r3 = b.add(PendingQuery{2, 12, 300}, 300);
  EXPECT_TRUE(r3.full);
  const auto batch = b.close();
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch[0].key, 10);
  EXPECT_EQ(batch[2].arrival_ps, 300u);
  EXPECT_EQ(b.open_size(), 0u);
}

TEST(Batcher, GenerationInvalidatesStaleTimers) {
  Batcher b(BatcherConfig{2, 5'000});
  const auto r1 = b.add(PendingQuery{0, 1, 0}, 0);
  const std::uint64_t gen0 = r1.generation;
  b.add(PendingQuery{1, 2, 10}, 10);  // full
  (void)b.close();
  EXPECT_NE(b.generation(), gen0);  // the armed timer for gen0 is stale
  // A fresh batch arms a fresh timer under the new generation.
  const auto r2 = b.add(PendingQuery{2, 3, 20}, 20);
  EXPECT_TRUE(r2.arm_timer);
  EXPECT_EQ(r2.generation, b.generation());
}

TEST(Batcher, CloseOfEmptyThrows) {
  Batcher b(BatcherConfig{4, 1000});
  EXPECT_THROW(b.close(), std::logic_error);
}

// ===========================================================================
// LRU cache
// ===========================================================================

TEST(LruCache, HitPromotesAndEvictsLeastRecent) {
  LruCache c(2);
  c.put(1, Hit{1, 0.0f});
  c.put(2, Hit{2, 0.0f});
  ASSERT_NE(c.get(1), nullptr);  // promotes key 1
  c.put(3, Hit{3, 0.0f});        // evicts key 2 (least recent)
  EXPECT_EQ(c.get(2), nullptr);
  EXPECT_NE(c.get(1), nullptr);
  EXPECT_NE(c.get(3), nullptr);
  EXPECT_EQ(c.evictions(), 1u);
  EXPECT_EQ(c.hits(), 3u);
  EXPECT_EQ(c.misses(), 1u);
}

TEST(LruCache, ZeroCapacityIsDisabled) {
  LruCache c(0);
  c.put(1, Hit{1, 0.0f});
  EXPECT_EQ(c.get(1), nullptr);
  EXPECT_EQ(c.size(), 0u);
}

TEST(LruCache, PutRefreshesExistingKey) {
  LruCache c(2);
  c.put(1, Hit{1, 1.0f});
  c.put(2, Hit{2, 0.0f});
  c.put(1, Hit{1, 0.5f});  // refresh: key 1 becomes most recent
  c.put(3, Hit{3, 0.0f});  // evicts key 2
  const Hit* h = c.get(1);
  ASSERT_NE(h, nullptr);
  EXPECT_FLOAT_EQ(h->distance, 0.5f);
  EXPECT_EQ(c.get(2), nullptr);
}

// ===========================================================================
// Router
// ===========================================================================

TEST(Router, HashSpreadsKeysAcrossShards) {
  Router r(4, ShedPolicy::kReject);
  std::set<int> seen;
  for (int k = 0; k < 256; ++k) {
    const int s = r.home_shard(k);
    EXPECT_GE(s, 0);
    EXPECT_LT(s, 4);
    seen.insert(s);
    EXPECT_EQ(s, r.home_shard(k));  // stable
  }
  EXPECT_EQ(seen.size(), 4u);
}

TEST(Router, RejectShedsDegradedHome) {
  Router r(2, ShedPolicy::kReject);
  int key = 0;
  while (r.home_shard(key) != 1) ++key;
  r.set_health(1, false);
  const auto route = r.route(key);
  EXPECT_EQ(route.shard, -1);
  r.set_health(1, true);
  EXPECT_EQ(r.route(key).shard, 1);
}

TEST(Router, RerouteFindsNextHealthyShardOrSheds) {
  Router r(3, ShedPolicy::kReroute);
  int key = 0;
  while (r.home_shard(key) != 0) ++key;
  r.set_health(0, false);
  const auto route = r.route(key);
  EXPECT_EQ(route.shard, 1);
  EXPECT_TRUE(route.rerouted);
  r.set_health(1, false);
  EXPECT_EQ(r.route(key).shard, 2);
  r.set_health(2, false);
  EXPECT_EQ(r.route(key).shard, -1);  // whole fleet degraded
}

TEST(Router, RerouteWrapsPastShardZero) {
  // A degraded *last* shard must wrap the ring scan through shard 0, not
  // run off the end of the fleet.
  Router r(3, ShedPolicy::kReroute);
  int key = 0;
  while (r.home_shard(key) != 2) ++key;
  r.set_health(2, false);
  const auto route = r.route(key);
  EXPECT_EQ(route.shard, 0);  // (2 + 1) % 3
  EXPECT_TRUE(route.rerouted);
  // Wrap again: shard 0 also degraded, the scan continues to shard 1.
  r.set_health(0, false);
  EXPECT_EQ(r.route(key).shard, 1);
}

TEST(Router, AllShardsDegradedShedsInsteadOfLooping) {
  // The ring scan is bounded at one lap: a fully degraded fleet returns a
  // shed verdict instead of scanning forever.
  Router r(4, ShedPolicy::kReroute);
  for (int s = 0; s < 4; ++s) r.set_health(s, false);
  for (int key = 0; key < 64; ++key) {
    const auto route = r.route(key);
    EXPECT_EQ(route.shard, -1);
    EXPECT_EQ(route.replica, -1);
    EXPECT_FALSE(route.rerouted);
  }
}

TEST(Router, SingleShardFleetRoutesOrSheds) {
  // With one shard there is nowhere to reroute: healthy routes home,
  // degraded sheds immediately under either policy.
  for (const ShedPolicy policy :
       {ShedPolicy::kReject, ShedPolicy::kReroute}) {
    Router r(1, policy);
    EXPECT_EQ(r.route(17).shard, 0);
    r.set_health(0, false);
    EXPECT_EQ(r.route(17).shard, -1);
    r.set_health(0, true);
    EXPECT_EQ(r.route(17).shard, 0);
  }
}

// ===========================================================================
// ReplicaSet failover / failback
// ===========================================================================

TEST(ReplicaSet, PrefersPrimaryAndFailsOverInIndexOrder) {
  ReplicaSet set(3);
  EXPECT_EQ(set.pick(), 0);  // healthy primary wins
  set.set_state(0, ReplicaHealth::kDegraded);
  EXPECT_EQ(set.pick(), 1);  // lowest-index healthy backup
  set.set_state(1, ReplicaHealth::kCrashed);
  EXPECT_EQ(set.pick(), 2);
  set.set_state(0, ReplicaHealth::kHealthy);
  EXPECT_EQ(set.pick(), 0);  // automatic failback
}

TEST(ReplicaSet, CrashedReplicasAreNeverPicked) {
  ReplicaSet set(2);
  set.set_state(0, ReplicaHealth::kCrashed);
  EXPECT_EQ(set.pick(), 1);
  set.set_state(1, ReplicaHealth::kCrashed);
  EXPECT_EQ(set.pick(), -1);
  EXPECT_FALSE(set.available());
  EXPECT_THROW(set.set_state(2, ReplicaHealth::kHealthy),
               std::out_of_range);
}

TEST(Router, ReplicaFailoverStaysOnHomeShard) {
  Router r(2, ShedPolicy::kReject, 2);
  int key = 0;
  while (r.home_shard(key) != 1) ++key;
  // Healthy primary: no failover flag.
  auto route = r.route(key);
  EXPECT_EQ(route.shard, 1);
  EXPECT_EQ(route.replica, 0);
  EXPECT_FALSE(route.failover);
  // Degraded primary: the backup serves the same shard slice.
  r.set_replica_health(1, 0, ReplicaHealth::kDegraded);
  route = r.route(key);
  EXPECT_EQ(route.shard, 1);
  EXPECT_EQ(route.replica, 1);
  EXPECT_TRUE(route.failover);
  EXPECT_FALSE(route.rerouted);
  // Both replicas gone: kReject sheds.
  r.set_replica_health(1, 1, ReplicaHealth::kCrashed);
  EXPECT_EQ(r.route(key).shard, -1);
  // Primary recovers: traffic fails back to it.
  r.set_replica_health(1, 0, ReplicaHealth::kHealthy);
  route = r.route(key);
  EXPECT_EQ(route.replica, 0);
  EXPECT_FALSE(route.failover);
}

TEST(Router, RerouteScansReplicasOfOtherShards) {
  Router r(2, ShedPolicy::kReroute, 2);
  int key = 0;
  while (r.home_shard(key) != 0) ++key;
  r.set_replica_health(0, 0, ReplicaHealth::kCrashed);
  r.set_replica_health(0, 1, ReplicaHealth::kCrashed);
  r.set_replica_health(1, 0, ReplicaHealth::kDegraded);
  // Home slice lost both replicas; the ring scan lands on shard 1's
  // backup — rerouted *and* failover.
  const auto route = r.route(key);
  EXPECT_EQ(route.shard, 1);
  EXPECT_EQ(route.replica, 1);
  EXPECT_TRUE(route.rerouted);
  EXPECT_TRUE(route.failover);
}

// ===========================================================================
// CoDel admission control
// ===========================================================================

TEST(CodelAdmission, DropsOnlyAfterFullIntervalAboveTarget) {
  CodelConfig cfg;
  cfg.target_ps = 100;
  cfg.interval_ps = 1000;
  CodelAdmission codel(cfg);
  EXPECT_TRUE(codel.admit(50, 0));     // below target
  EXPECT_TRUE(codel.admit(200, 0));    // first sighting: interval starts
  EXPECT_TRUE(codel.admit(200, 999));  // still inside the interval
  EXPECT_FALSE(codel.admit(200, 1000));  // full interval above: drop
  EXPECT_EQ(codel.drops(), 1u);
  // The control law shortens the next interval (1000 / sqrt(2) ~ 707).
  EXPECT_TRUE(codel.admit(200, 1100));
  EXPECT_FALSE(codel.admit(200, 1000 + 707));
  EXPECT_EQ(codel.drops(), 2u);
  // Dropping state resets as soon as the sojourn recovers.
  EXPECT_TRUE(codel.admit(50, 2000));
  EXPECT_TRUE(codel.admit(200, 2000));  // fresh interval, no drop
  EXPECT_EQ(codel.drops(), 2u);
}

TEST(CodelAdmission, DisabledTargetAdmitsEverything) {
  CodelAdmission codel(CodelConfig{});
  EXPECT_FALSE(codel.enabled());
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(codel.admit(1'000'000'000, i));
  }
  EXPECT_EQ(codel.drops(), 0u);
}

// ===========================================================================
// ShardIndex on a real runtime
// ===========================================================================

TEST(ShardIndex, SelfRetrievalAtDistanceZero) {
  apps::cbir::Params p;
  p.images = 24;
  p.width = 32;
  p.height = 32;
  tshmem::Runtime rt(tilesim::tile_gx36());
  rt.run(4, [&](tshmem::Context& ctx) {
    apps::cbir::ShardIndex index(ctx, p, 0, p.images);
    std::vector<std::uint8_t> img(static_cast<std::size_t>(p.width) *
                                  p.height);
    // Query with the exact feature of images 5 and 17: the index must
    // return them at distance 0 on every PE.
    std::vector<Feature> queries;
    for (const int k : {5, 17}) {
      apps::cbir::generate_image(img, p.width, p.height,
                                 p.seed + static_cast<std::uint64_t>(k));
      queries.push_back(FeatureCache::shared().seeded(
          img, p.width, p.height, p.seed + static_cast<std::uint64_t>(k)));
    }
    std::vector<Hit> out(2);
    index.query_batch(ctx, queries, out);
    EXPECT_EQ(out[0].image, 5);
    EXPECT_FLOAT_EQ(out[0].distance, 0.0f);
    EXPECT_EQ(out[1].image, 17);
    EXPECT_FLOAT_EQ(out[1].distance, 0.0f);
    const Hit single = index.query(ctx, queries[0]);
    EXPECT_EQ(single.image, 5);
    index.destroy(ctx);
  });
}

// ===========================================================================
// End-to-end service over a real 2-device cluster
// ===========================================================================

ServiceConfig small_service_config() {
  ServiceConfig cfg;
  cfg.pes_per_shard = 2;
  cfg.db.images = 64;
  cfg.db.width = 32;
  cfg.db.height = 32;
  cfg.load.seed = 7;
  cfg.load.queries = 4000;
  cfg.load.start_qps = 20'000.0;
  cfg.load.end_qps = 120'000.0;
  cfg.load.key_space = 64;
  cfg.batch.max_batch = 4;
  cfg.batch.timeout_ps = 2'000'000;
  cfg.cache_capacity = 32;
  return cfg;
}

std::string report_fingerprint(const ServiceReport& rep,
                               const ServiceConfig& cfg) {
  std::ostringstream os;
  svc::write_report_json(os, rep, cfg);
  return os.str();
}

TEST(Service, HealthyRunCompletesEverything) {
  tshmem::ClusterOptions opts;
  opts.runtime.heap_per_pe = 8 << 20;
  tshmem::Cluster cluster(tilesim::tile_gx36(), opts, 2);
  const ServiceConfig cfg = small_service_config();
  svc::Service service(cluster, cfg);
  const ServiceReport rep = service.run();
  EXPECT_EQ(rep.offered, 4000u);
  EXPECT_EQ(rep.completed + rep.shed, rep.offered);
  EXPECT_EQ(rep.hung, 0u);
  EXPECT_GT(rep.qps, 0.0);
  EXPECT_GT(rep.cache_hits, 0u);
  EXPECT_LE(rep.latency.p50, rep.latency.p99);
  EXPECT_LE(rep.latency.p99, rep.latency.p999);
  EXPECT_EQ(rep.fault_events, 0u);
  ASSERT_EQ(rep.calibration.size(), 2u);
  EXPECT_GT(rep.calibration[0].per_query_ps, 0);
  EXPECT_EQ(rep.calibration[0].count, 32);
  EXPECT_EQ(rep.calibration[1].first, 32);
}

TEST(Service, ReplayIsBitIdenticalPerSeedAndPlan) {
  tshmem::ClusterOptions opts;
  opts.runtime.heap_per_pe = 8 << 20;
  tshmem::Cluster cluster(tilesim::tile_gx36(), opts, 2);
  ServiceConfig cfg = small_service_config();
  cfg.fault_plan = tilesim::FaultPlan::parse(
      "seed=3,shard_stall=0.1:30000000000");
  svc::Service s1(cluster, cfg);
  const std::string a = report_fingerprint(s1.run(), cfg);
  svc::Service s2(cluster, cfg);
  const std::string b = report_fingerprint(s2.run(), cfg);
  EXPECT_EQ(a, b);
  // A different load seed must change the outcome.
  cfg.load.seed = 8;
  svc::Service s3(cluster, cfg);
  const std::string c = report_fingerprint(s3.run(), cfg);
  EXPECT_NE(a, c);
}

TEST(Service, StalledShardShedsInsteadOfHanging) {
  tshmem::ClusterOptions opts;
  opts.runtime.heap_per_pe = 8 << 20;
  tshmem::Cluster cluster(tilesim::tile_gx36(), opts, 2);
  ServiceConfig cfg = small_service_config();
  // Every batch on shard 1 loses 30 ms: far past the 5 ms backlog
  // watchdog, so the router must shed its traffic and record recoveries
  // once the backlog drains.
  cfg.fault_plan = tilesim::FaultPlan::parse(
      "seed=3,shard_stall=1.0:30000000000,shard_stall_shard=1");
  svc::Service service(cluster, cfg);
  const ServiceReport rep = service.run();
  EXPECT_EQ(rep.hung, 0u);
  EXPECT_GT(rep.shed, 0u);
  EXPECT_EQ(rep.completed + rep.shed, rep.offered);
  const svc::ShardStats& stalled = rep.shard_stats[1];
  EXPECT_GT(stalled.stall_events, 0u);
  EXPECT_GT(stalled.degraded_episodes, 0u);
  EXPECT_GT(stalled.recoveries, 0u);
  EXPECT_EQ(rep.shard_stats[0].stall_events, 0u);
  EXPECT_FALSE(rep.shed_error.empty());
  EXPECT_NE(rep.shed_error.find("shard_degraded"), std::string::npos);
  // Accepted queries drain with bounded tail latency: a handful of
  // 30 ms stalled batches at most, never an unbounded hang.
  EXPECT_LT(rep.max_latency_ps, 200'000'000'000u);  // 200 ms
}

TEST(Service, RerouteSendsTrafficToHealthyShard) {
  tshmem::ClusterOptions opts;
  opts.runtime.heap_per_pe = 8 << 20;
  tshmem::Cluster cluster(tilesim::tile_gx36(), opts, 2);
  ServiceConfig cfg = small_service_config();
  cfg.policy = ShedPolicy::kReroute;
  cfg.fault_plan = tilesim::FaultPlan::parse(
      "seed=3,shard_stall=1.0:30000000000,shard_stall_shard=1");
  svc::Service service(cluster, cfg);
  const ServiceReport rep = service.run();
  EXPECT_EQ(rep.hung, 0u);
  EXPECT_GT(rep.rerouted, 0u);
  EXPECT_EQ(rep.completed + rep.shed, rep.offered);
  // The healthy shard absorbs the degraded shard's traffic.
  EXPECT_GT(rep.shard_stats[0].queries, rep.shard_stats[1].queries);
}

TEST(Service, ClosedLoopKeepsWindowAndCompletes) {
  tshmem::ClusterOptions opts;
  opts.runtime.heap_per_pe = 8 << 20;
  tshmem::Cluster cluster(tilesim::tile_gx36(), opts, 2);
  ServiceConfig cfg = small_service_config();
  cfg.closed_loop = true;
  cfg.concurrency = 16;
  cfg.load.queries = 2000;
  svc::Service service(cluster, cfg);
  const ServiceReport rep = service.run();
  EXPECT_EQ(rep.offered, 2000u);
  EXPECT_EQ(rep.completed + rep.shed, rep.offered);
  EXPECT_EQ(rep.hung, 0u);
}

// ===========================================================================
// Replicated serving over a real 4-device cluster (2 shards x 2 replicas)
// ===========================================================================

TEST(Service, FailoverAbsorbsPrimaryStallWithoutShedding) {
  tshmem::ClusterOptions opts;
  opts.runtime.heap_per_pe = 8 << 20;
  tshmem::Cluster cluster(tilesim::tile_gx36(), opts, 4);
  ServiceConfig cfg = small_service_config();
  cfg.replicas = 2;
  // Replica slot 1 is shard 1's *primary* (replica-major layout), so the
  // stock stall plan hits exactly the device the unreplicated run loses.
  cfg.fault_plan = tilesim::FaultPlan::parse(
      "seed=3,shard_stall=1.0:30000000000,shard_stall_shard=1");
  svc::Service service(cluster, cfg);
  EXPECT_EQ(service.num_shards(), 2);
  const ServiceReport rep = service.run();
  EXPECT_EQ(rep.hung, 0u);
  EXPECT_EQ(rep.completed + rep.shed, rep.offered);
  // The backup replica serves shard 1 while its primary is degraded:
  // nothing sheds, unlike the unreplicated StalledShard run.
  EXPECT_EQ(rep.shed, 0u);
  EXPECT_GT(rep.failover_routed, 0u);
  EXPECT_GT(rep.failbacks, 0u);
  ASSERT_EQ(rep.shard_stats.size(), 4u);
  // The backup (slot 3 = shard 1, replica 1) did real work.
  EXPECT_GT(rep.shard_stats[3].queries, 0u);
  EXPECT_GT(rep.shard_stats[1].degraded_episodes, 0u);
  ASSERT_EQ(rep.calibration.size(), 4u);
  // Replicas of one shard cover the same database slice.
  EXPECT_EQ(rep.calibration[1].first, rep.calibration[3].first);
  EXPECT_EQ(rep.calibration[1].count, rep.calibration[3].count);
  EXPECT_EQ(rep.calibration[3].replica, 1);
}

TEST(Service, CrashFailsOverAndReplaysBitIdentically) {
  tshmem::ClusterOptions opts;
  opts.runtime.heap_per_pe = 8 << 20;
  tshmem::Cluster cluster(tilesim::tile_gx36(), opts, 4);
  ServiceConfig cfg = small_service_config();
  cfg.replicas = 2;
  // Shard 1's primary dies at its first batch dispatch and never
  // returns; its queued queries requeue onto the surviving backup.
  cfg.fault_plan = tilesim::FaultPlan::parse(
      "seed=3,shard_crash=1.0,shard_crash_shard=1");
  svc::Service s1(cluster, cfg);
  const ServiceReport rep = s1.run();
  EXPECT_EQ(rep.hung, 0u);
  EXPECT_EQ(rep.shed, 0u);
  EXPECT_EQ(rep.replica_crashes, 1u);
  EXPECT_EQ(rep.shard_stats[1].crashes, 1u);
  EXPECT_EQ(rep.shard_stats[1].flaps, 0u);
  EXPECT_GT(rep.failover_routed, 0u);
  EXPECT_EQ(rep.completed, rep.offered);
  // The crash campaign replays bit-identically (same full report JSON).
  svc::Service s2(cluster, cfg);
  EXPECT_EQ(report_fingerprint(rep, cfg),
            report_fingerprint(s2.run(), cfg));
}

TEST(Service, LosingEveryReplicaShedsWithReplicaLost) {
  tshmem::ClusterOptions opts;
  opts.runtime.heap_per_pe = 8 << 20;
  tshmem::Cluster cluster(tilesim::tile_gx36(), opts, 2);
  ServiceConfig cfg = small_service_config();
  // Unreplicated: when shard 1's only replica crashes, its slice is gone
  // for good — every later query for it sheds with kReplicaLost.
  cfg.fault_plan = tilesim::FaultPlan::parse(
      "seed=3,shard_crash=1.0,shard_crash_shard=1");
  svc::Service service(cluster, cfg);
  const ServiceReport rep = service.run();
  EXPECT_EQ(rep.hung, 0u);
  EXPECT_GT(rep.shed, 0u);
  EXPECT_GT(rep.replica_lost, 0u);
  EXPECT_EQ(rep.completed + rep.shed, rep.offered);
  EXPECT_EQ(rep.shard_stats[1].crashes, 1u);
  EXPECT_NE(rep.shed_error.find("replica_lost"), std::string::npos);
  // The crashed shard never recovers: no recoveries after the crash.
  EXPECT_EQ(rep.shard_stats[1].recoveries, 0u);
}

TEST(Service, ReplicaFlapCrashesAndRecovers) {
  tshmem::ClusterOptions opts;
  opts.runtime.heap_per_pe = 8 << 20;
  tshmem::Cluster cluster(tilesim::tile_gx36(), opts, 4);
  ServiceConfig cfg = small_service_config();
  cfg.replicas = 2;
  // Shard 1's primary flaps: dies for 40 ms at seeded dispatches, then
  // revives. Every death requeues onto the backup; every revival is a
  // failback.
  cfg.fault_plan = tilesim::FaultPlan::parse(
      "seed=3,replica_flap=0.2:40000000000,replica_flap_shard=1");
  svc::Service service(cluster, cfg);
  const ServiceReport rep = service.run();
  EXPECT_EQ(rep.hung, 0u);
  EXPECT_EQ(rep.shed, 0u);
  EXPECT_GT(rep.replica_crashes, 0u);
  EXPECT_EQ(rep.shard_stats[1].flaps, rep.shard_stats[1].crashes);
  EXPECT_GT(rep.shard_stats[1].recoveries, 0u);
  EXPECT_GT(rep.failbacks, 0u);
  EXPECT_EQ(rep.completed, rep.offered);
}

TEST(Service, DeadlineAdmissionDropsInsteadOfQueueing) {
  tshmem::ClusterOptions opts;
  opts.runtime.heap_per_pe = 8 << 20;
  tshmem::Cluster cluster(tilesim::tile_gx36(), opts, 2);
  ServiceConfig cfg = small_service_config();
  cfg.deadline_ps = 2'000'000'000;  // 2 ms, well under the 30 ms stall
  cfg.fault_plan = tilesim::FaultPlan::parse(
      "seed=3,shard_stall=1.0:30000000000,shard_stall_shard=1");
  svc::Service service(cluster, cfg);
  const ServiceReport rep = service.run();
  EXPECT_EQ(rep.hung, 0u);
  EXPECT_GT(rep.deadline_dropped, 0u);
  // The full accounting invariant now includes admission drops.
  EXPECT_EQ(rep.completed + rep.shed + rep.deadline_dropped, rep.offered);
}

TEST(Service, CodelAdmissionShedsStandingQueue) {
  tshmem::ClusterOptions opts;
  opts.runtime.heap_per_pe = 8 << 20;
  tshmem::Cluster cluster(tilesim::tile_gx36(), opts, 2);
  ServiceConfig cfg = small_service_config();
  cfg.codel.target_ps = 1'000'000'000;   // 1 ms sojourn target
  cfg.codel.interval_ps = 5'000'000'000;  // 5 ms interval
  cfg.fault_plan = tilesim::FaultPlan::parse(
      "seed=3,shard_stall=1.0:30000000000,shard_stall_shard=1");
  svc::Service service(cluster, cfg);
  const ServiceReport rep = service.run();
  EXPECT_EQ(rep.hung, 0u);
  EXPECT_GT(rep.codel_dropped, 0u);
  EXPECT_EQ(rep.codel_dropped, rep.deadline_dropped);  // only CoDel ran
  EXPECT_EQ(rep.completed + rep.shed + rep.deadline_dropped, rep.offered);
}

TEST(Service, ReplicatedHealthyRunMatchesUnreplicatedTotals) {
  // With no faults, replication must be invisible in the aggregate
  // accounting: the primary serves everything, the backups stay idle.
  tshmem::ClusterOptions opts;
  opts.runtime.heap_per_pe = 8 << 20;
  tshmem::Cluster cluster(tilesim::tile_gx36(), opts, 4);
  ServiceConfig cfg = small_service_config();
  cfg.replicas = 2;
  svc::Service service(cluster, cfg);
  const ServiceReport rep = service.run();
  EXPECT_EQ(rep.offered, 4000u);
  EXPECT_EQ(rep.completed, rep.offered);
  EXPECT_EQ(rep.hung, 0u);
  EXPECT_EQ(rep.failover_routed, 0u);
  EXPECT_EQ(rep.replica_crashes, 0u);
  EXPECT_EQ(rep.shard_stats[2].queries, 0u);  // idle backups
  EXPECT_EQ(rep.shard_stats[3].queries, 0u);
}

TEST(Service, MismatchedReplicaLayoutThrows) {
  tshmem::ClusterOptions opts;
  opts.runtime.heap_per_pe = 8 << 20;
  tshmem::Cluster cluster(tilesim::tile_gx36(), opts, 3);
  ServiceConfig cfg = small_service_config();
  cfg.replicas = 2;  // 3 devices cannot hold shards * 2
  EXPECT_THROW(svc::Service(cluster, cfg), std::invalid_argument);
  cfg.replicas = 0;
  EXPECT_THROW(svc::Service(cluster, cfg), std::invalid_argument);
}

}  // namespace
