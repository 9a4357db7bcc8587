// Deterministic fault-injection tests (robustness tentpole): plan parsing,
// bit-identical replay of a (seed, plan) pair, zero-virtual-cost hardening
// with an empty plan, bounded retry/backoff recovery, graceful degradation
// of NBI under descriptor faults, symmetric heap-pressure denial, and the
// host-time watchdog on stuck collectives. See docs/ROBUSTNESS.md.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <string>
#include <vector>

#include "sim/fault.hpp"
#include "tshmem/context.hpp"
#include "tshmem/runtime.hpp"
#include "util/error.hpp"

namespace {

using tilesim::FaultEvent;
using tilesim::FaultPlan;
using tilesim::ps_t;
using tshmem::Context;
using tshmem::Errc;
using tshmem::Error;
using tshmem::Runtime;
using tshmem::RuntimeOptions;

// ===========================================================================
// Plan parsing
// ===========================================================================

TEST(FaultPlan, ParseRoundTripsEveryKey) {
  const FaultPlan p = FaultPlan::parse(
      "seed=42,udn_drop=0.01,udn_corrupt=0.02,udn_delay=0.03:50000,"
      "udn_retries=5,udn_backoff=3000,dma_stall=0.04:100000,dma_fail=0.05,"
      "tile_stall=0.06:1000000,cmem_fail=0.07,heap_cap=1048576");
  EXPECT_EQ(p.seed, 42u);
  EXPECT_DOUBLE_EQ(p.udn_drop_rate, 0.01);
  EXPECT_DOUBLE_EQ(p.udn_corrupt_rate, 0.02);
  EXPECT_DOUBLE_EQ(p.udn_delay_rate, 0.03);
  EXPECT_EQ(p.udn_delay_ps, 50'000u);
  EXPECT_EQ(p.udn_max_retries, 5);
  EXPECT_EQ(p.udn_backoff_base_ps, 3'000u);
  EXPECT_DOUBLE_EQ(p.dma_stall_rate, 0.04);
  EXPECT_EQ(p.dma_stall_ps, 100'000u);
  EXPECT_DOUBLE_EQ(p.dma_desc_fail_rate, 0.05);
  EXPECT_DOUBLE_EQ(p.tile_stall_rate, 0.06);
  EXPECT_EQ(p.tile_stall_ps, 1'000'000u);
  EXPECT_DOUBLE_EQ(p.cmem_map_fail_rate, 0.07);
  EXPECT_EQ(p.heap_cap_bytes, std::size_t{1} << 20);
  EXPECT_FALSE(p.empty());
}

TEST(FaultPlan, EmptyAndMalformedSpecs) {
  EXPECT_TRUE(FaultPlan{}.empty());
  EXPECT_TRUE(FaultPlan::parse("").empty());
  EXPECT_TRUE(FaultPlan::parse("seed=7").empty());  // seed alone = no faults
  EXPECT_THROW(FaultPlan::parse("bogus_key=1"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("udn_drop=notanumber"),
               std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("udn_drop"), std::invalid_argument);
}

TEST(FaultPlan, RejectsOutOfRangeAndNaNRates) {
  // Rates above 1 or below 0 are spec errors, not clamped probabilities.
  EXPECT_THROW(FaultPlan::parse("udn_drop=1.5"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("udn_drop=-0.1"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("shard_stall=2.0:1000"),
               std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("shard_crash=1.0001"),
               std::invalid_argument);
  // "nan" parses via std::stod and compares false against both bounds; a
  // naively written range check would let it poison every verdict hash.
  EXPECT_THROW(FaultPlan::parse("udn_drop=nan"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("replica_flap=nan:1000"),
               std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("udn_drop=inf"), std::invalid_argument);
  // The boundary values themselves are legal.
  EXPECT_DOUBLE_EQ(FaultPlan::parse("udn_drop=0.0").udn_drop_rate, 0.0);
  EXPECT_DOUBLE_EQ(FaultPlan::parse("udn_drop=1.0").udn_drop_rate, 1.0);
  // The thrown message names the offending entry.
  try {
    FaultPlan::parse("seed=3,udn_drop=1.5");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("udn_drop=1.5"),
              std::string::npos);
  }
}

TEST(FaultPlan, RejectsNegativeMagnitudes) {
  // std::stoull silently wraps "-50" to a huge unsigned value: a negative
  // magnitude must be a parse error, not a ~2^64 ps stall.
  EXPECT_THROW(FaultPlan::parse("udn_delay=0.1:-50000"),
               std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("tile_stall=0.1:-1"),
               std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("replica_flap=0.1:-2000"),
               std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("heap_cap=-1048576"),
               std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("seed=-7"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("shard_crash_shard=-2"),
               std::invalid_argument);
  try {
    FaultPlan::parse("udn_delay=0.1:-50000");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("udn_delay=0.1:-50000"),
              std::string::npos);
  }
}

TEST(FaultPlan, ParsesCrashAndFlapSites) {
  const FaultPlan p = FaultPlan::parse(
      "seed=9,shard_crash=0.5,shard_crash_shard=1,"
      "replica_flap=0.25:40000000000,replica_flap_shard=3");
  EXPECT_EQ(p.seed, 9u);
  EXPECT_DOUBLE_EQ(p.shard_crash_rate, 0.5);
  EXPECT_EQ(p.shard_crash_shard, 1);
  EXPECT_DOUBLE_EQ(p.replica_flap_rate, 0.25);
  EXPECT_EQ(p.replica_flap_down_ps, 40'000'000'000);
  EXPECT_EQ(p.replica_flap_shard, 3);
  EXPECT_FALSE(p.empty());
  // describe() round-trips through parse() for the new keys.
  const FaultPlan q = FaultPlan::parse(p.describe());
  EXPECT_EQ(p, q);
}

TEST(FaultPlan, CrashAndFlapVerdictsAreDeterministicAndTargeted) {
  FaultPlan plan = FaultPlan::parse(
      "seed=11,shard_crash=0.3,shard_crash_shard=2,replica_flap=0.4:5000");
  tilesim::FaultEngine a(plan);
  tilesim::FaultEngine b(plan);
  for (int replica = 0; replica < 4; ++replica) {
    for (int i = 0; i < 64; ++i) {
      const ps_t now = static_cast<ps_t>(i) * 100;
      const bool crash = a.shard_crash(replica, now);
      EXPECT_EQ(crash, b.shard_crash(replica, now));
      // The targeted crash site never fires off-target, but still
      // consumes its ordinal there (stream alignment).
      if (replica != 2) {
        EXPECT_FALSE(crash);
      }
      EXPECT_EQ(a.replica_flap(replica, now), b.replica_flap(replica, now));
    }
  }
  EXPECT_GT(a.event_count(), 0u);
  EXPECT_EQ(a.event_count(), b.event_count());
  EXPECT_EQ(a.events(), b.events());
  // A fired flap reports the plan's down time.
  bool fired = false;
  tilesim::FaultEngine c(plan);
  for (int i = 0; i < 256 && !fired; ++i) {
    const ps_t down = c.replica_flap(0, 0);
    if (down > 0) {
      EXPECT_EQ(down, 5000);
      fired = true;
    }
  }
  EXPECT_TRUE(fired);
}

// ===========================================================================
// Deterministic replay
// ===========================================================================

namespace {
// A mixed workload touching every hardened layer: UDN barriers and
// point-to-point puts, NBI traffic, interrupt-serviced static transfers
// (bounce buffers -> cmem maps), and collective allocations.
void mixed_workload(Context& ctx) {
  const int npes = ctx.num_pes();
  int* dyn = ctx.shmalloc_n<int>(256);
  int* stat = ctx.static_sym<int>("fault_mix", 64);
  for (int i = 0; i < 64; ++i) stat[i] = ctx.my_pe();
  ctx.barrier_all();
  for (int round = 0; round < 4; ++round) {
    const int peer = (ctx.my_pe() + 1 + round) % npes;
    std::vector<int> src(256, ctx.my_pe() * 100 + round);
    ctx.put(dyn, src.data(), 256 * sizeof(int), peer);
    ctx.barrier_all();
    ctx.put_nbi(dyn, src.data(), 128 * sizeof(int), peer);
    ctx.quiet();
    ctx.put(stat, stat, 32 * sizeof(int), peer);  // interrupt/bounce path
    ctx.barrier_all();
  }
  ctx.shfree(dyn);
}

struct ReplayResult {
  std::vector<FaultEvent> events;
  obs::MetricsSnapshot metrics;
  std::vector<tilesim::ps_t> final_clocks;
};

ReplayResult run_replay(const FaultPlan& plan, int npes) {
  RuntimeOptions opts;
  opts.metrics = true;
  opts.fault_plan = plan;
  Runtime rt(tilesim::tile_gx36(), opts);
  ReplayResult r;
  r.final_clocks.assign(static_cast<std::size_t>(npes), 0);
  rt.run(npes, [&](Context& ctx) {
    mixed_workload(ctx);
    r.final_clocks[static_cast<std::size_t>(ctx.my_pe())] =
        ctx.clock().now();
  });
  if (rt.fault_engine() != nullptr) r.events = rt.fault_engine()->events();
  r.metrics = rt.metrics();
  return r;
}
}  // namespace

TEST(FaultReplay, SameSeedAndPlanReplaysBitIdentically) {
  const FaultPlan plan = FaultPlan::parse(
      "seed=1234,udn_drop=0.05,udn_corrupt=0.03,udn_delay=0.1:20000,"
      "dma_stall=0.2:50000,dma_fail=0.1,tile_stall=0.1:100000,"
      "cmem_fail=0.2");
  const ReplayResult a = run_replay(plan, 4);
  const ReplayResult b = run_replay(plan, 4);
  EXPECT_FALSE(a.events.empty());  // the plan actually injected something
  EXPECT_EQ(a.events, b.events);   // identical injected-event log
  EXPECT_EQ(a.metrics, b.metrics);  // identical final metrics snapshot
  EXPECT_EQ(a.final_clocks, b.final_clocks);
}

TEST(FaultReplay, DifferentSeedsProduceDifferentLogs) {
  FaultPlan plan = FaultPlan::parse("udn_drop=0.1,udn_delay=0.2:30000");
  plan.seed = 1;
  const ReplayResult a = run_replay(plan, 4);
  plan.seed = 2;
  const ReplayResult b = run_replay(plan, 4);
  EXPECT_FALSE(a.events.empty());
  EXPECT_FALSE(b.events.empty());
  EXPECT_NE(a.events, b.events);
}

TEST(FaultReplay, HardeningWithEmptyPlanIsVirtualTimeNeutral) {
  // The zero-virtual-cost contract: watchdog armed + debug validation on +
  // empty plan must leave every PE's final virtual clock identical to the
  // stock configuration.
  auto final_clocks = [](const RuntimeOptions& opts) {
    Runtime rt(tilesim::tile_gx36(), opts);
    std::vector<tilesim::ps_t> clocks(4, 0);
    rt.run(4, [&](Context& ctx) {
      mixed_workload(ctx);
      clocks[static_cast<std::size_t>(ctx.my_pe())] = ctx.clock().now();
    });
    EXPECT_EQ(rt.fault_engine(), nullptr);  // empty plan attaches nothing
    return clocks;
  };
  RuntimeOptions stock;
  stock.watchdog_ms = 0;
  RuntimeOptions hardened;
  hardened.watchdog_ms = 60'000;
  hardened.debug_validation = true;
  EXPECT_EQ(final_clocks(stock), final_clocks(hardened));
}

// ===========================================================================
// Recovery and graceful degradation
// ===========================================================================

TEST(FaultRecovery, UdnDropsRecoveredByBoundedRetry) {
  RuntimeOptions opts;
  opts.metrics = true;
  opts.fault_plan = FaultPlan::parse("seed=7,udn_drop=0.2");
  Runtime rt(tilesim::tile_gx36(), opts);
  std::atomic<int> sum{0};
  rt.run(4, [&](Context& ctx) {
    int* v = ctx.shmalloc_n<int>(1);
    *v = 0;
    ctx.barrier_all();
    ctx.p(v, ctx.my_pe() + 1, (ctx.my_pe() + 1) % 4);
    ctx.barrier_all();
    sum.fetch_add(*v);
    ctx.shfree(v);
  });
  EXPECT_EQ(sum.load(), 1 + 2 + 3 + 4);  // every put delivered exactly once
  ASSERT_NE(rt.fault_engine(), nullptr);
  EXPECT_GT(rt.fault_engine()->event_count(), 0u);
  // Recovered drops show up in the recovery.* family, not as lost data.
  const obs::MetricsSnapshot snap = rt.metrics();
  std::uint64_t retries = 0, drops = 0;
  for (const auto& c : snap.counters) {
    if (c.name == "recovery.udn.retries") retries += c.value;
    if (c.name == "fault.udn.drop") drops += c.value;
  }
  EXPECT_GT(drops, 0u);
  EXPECT_GE(retries, drops);  // every drop costs at least one retry
}

TEST(FaultRecovery, RetryExhaustionSurfacesErrorWithoutDeadlock) {
  RuntimeOptions opts;
  opts.fault_plan = FaultPlan::parse("udn_drop=1.0,udn_retries=3");
  opts.watchdog_ms = 2'000;  // unstick the receiving PE
  Runtime rt(tilesim::tile_gx36(), opts);
  try {
    rt.run(2, [](Context& ctx) { ctx.barrier_all(); });
    FAIL() << "barrier under 100% drop did not throw";
  } catch (const Error& e) {
    // The sender exhausts its retry budget; the peer may instead hit the
    // watchdog first depending on scheduling — both are structured errors.
    EXPECT_TRUE(e.code() == Errc::kRetriesExhausted ||
                e.code() == Errc::kWatchdogTimeout)
        << e.what();
  }
}

TEST(FaultRecovery, DmaDescriptorFailureDegradesToSynchronous) {
  RuntimeOptions opts;
  opts.metrics = true;
  opts.fault_plan = FaultPlan::parse("dma_fail=1.0");
  Runtime rt(tilesim::tile_gx36(), opts);
  rt.run(2, [](Context& ctx) {
    int* buf = ctx.shmalloc_n<int>(64);
    std::memset(buf, 0, 64 * sizeof(int));
    ctx.barrier_all();
    int src[64];
    for (int i = 0; i < 64; ++i) src[i] = 100 + i;
    ctx.put_nbi(buf, src, sizeof(src), 1 - ctx.my_pe());
    // Every descriptor post is rejected: the transfer completed
    // synchronously instead and nothing sits in the queue.
    EXPECT_EQ(ctx.nbi_pending(), 0u);
    ctx.quiet();
    ctx.barrier_all();
    for (int i = 0; i < 64; ++i) EXPECT_EQ(buf[i], 100 + i);
    ctx.shfree(buf);
  });
  const obs::MetricsSnapshot snap = rt.metrics();
  std::uint64_t fallbacks = 0, failures = 0;
  for (const auto& c : snap.counters) {
    if (c.name == "recovery.nbi.sync_fallbacks") fallbacks += c.value;
    if (c.name == "fault.dma.desc_fail") failures += c.value;
  }
  EXPECT_EQ(fallbacks, 2u);  // one per PE
  EXPECT_EQ(failures, 2u);
}

TEST(FaultRecovery, HeapCapDenialIsSymmetricAndRecoverable) {
  RuntimeOptions opts;
  opts.metrics = true;
  opts.fault_plan = FaultPlan::parse("heap_cap=65536");
  Runtime rt(tilesim::tile_gx36(), opts);
  std::atomic<int> nulls{0};
  rt.run(4, [&](Context& ctx) {
    void* big = ctx.shmalloc(100 * 1024);  // over the injected cap
    if (big == nullptr) nulls.fetch_add(1);
    void* small = ctx.shmalloc(1024);  // under the cap: still works
    EXPECT_NE(small, nullptr);
    ctx.shfree(small);
  });
  EXPECT_EQ(nulls.load(), 4);  // denial identical on every PE
  ASSERT_NE(rt.fault_engine(), nullptr);
  std::uint64_t denials = 0;
  for (const FaultEvent& ev : rt.fault_engine()->events()) {
    if (ev.site == tilesim::FaultSite::kHeapCap) ++denials;
  }
  EXPECT_EQ(denials, 4u);
}

TEST(FaultRecovery, CmemMapFaultsRecoveredByBoundedRetry) {
  RuntimeOptions opts;
  opts.metrics = true;
  opts.fault_plan = FaultPlan::parse("seed=7,cmem_fail=0.2");
  Runtime rt(tilesim::tile_gx36(), opts);
  // Every job maps the symmetric partitions plus one bounce slot per PE
  // that runs a static-static transfer, so repeated jobs accumulate plenty
  // of opportunities for injected map faults to be retried.
  for (int job = 0; job < 8; ++job) {
    rt.run(2, [](Context& ctx) {
      int* stat = ctx.static_sym<int>("cmem_retry", 128);
      for (int i = 0; i < 128; ++i) stat[i] = ctx.my_pe() * 1000 + i;
      ctx.barrier_all();
      if (ctx.my_pe() == 0) {
        for (int i = 0; i < 4; ++i) {
          ctx.put(stat, stat, 128 * sizeof(int), 1);
        }
      }
      ctx.barrier_all();
      if (ctx.my_pe() == 1) {
        for (int i = 0; i < 128; ++i) EXPECT_EQ(stat[i], i);
      }
    });
  }
  ASSERT_NE(rt.fault_engine(), nullptr);
  std::uint64_t injected = 0;
  for (const FaultEvent& ev : rt.fault_engine()->events()) {
    if (ev.site == tilesim::FaultSite::kCmemMapFail) ++injected;
  }
  EXPECT_GT(injected, 0u);  // rate 0.2 over 16+ maps: faults fired...
  std::uint64_t retries = 0;
  for (const auto& c : rt.metrics().counters) {
    if (c.name == "recovery.cmem.map_retries") retries += c.value;
  }
  EXPECT_EQ(retries, injected);  // ...and every one was absorbed by a retry
}

TEST(FaultRecovery, PersistentCmemFailureSurfacesStructuredError) {
  RuntimeOptions opts;
  opts.fault_plan = FaultPlan::parse("cmem_fail=1.0");
  Runtime rt(tilesim::tile_gx36(), opts);
  try {
    rt.run(2, [](Context& ctx) { ctx.barrier_all(); });
    FAIL() << "persistent map failure did not throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), Errc::kCmemMapFailed);
    EXPECT_NE(std::string(e.what()).find("cmem_map_failed"),
              std::string::npos);
  }
}

TEST(FaultRecovery, UdnDelayOnlyAddsVirtualTime) {
  // Delays slow virtual time but never lose data or change results.
  auto final_clock = [](const std::string& spec) {
    RuntimeOptions opts;
    if (!spec.empty()) opts.fault_plan = FaultPlan::parse(spec);
    Runtime rt(tilesim::tile_gx36(), opts);
    tilesim::ps_t out = 0;
    rt.run(2, [&](Context& ctx) {
      for (int i = 0; i < 8; ++i) ctx.barrier_all();
      if (ctx.my_pe() == 0) out = ctx.clock().now();
    });
    return out;
  };
  const tilesim::ps_t base = final_clock("");
  const tilesim::ps_t delayed = final_clock("udn_delay=1.0:500000");
  EXPECT_GT(delayed, base);
}

// ===========================================================================
// Watchdog
// ===========================================================================

TEST(Watchdog, FiresOnMismatchedBarrierNamingStuckPe) {
  RuntimeOptions opts;
  opts.watchdog_ms = 300;
  Runtime rt(tilesim::tile_gx36(), opts);
  try {
    rt.run(2, [](Context& ctx) {
      if (ctx.my_pe() == 0) ctx.barrier_all();  // PE 1 never arrives
    });
    FAIL() << "mismatched barrier did not trip the watchdog";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), Errc::kWatchdogTimeout);
    const std::string what = e.what();
    EXPECT_NE(what.find("PE 0"), std::string::npos) << what;
    EXPECT_NE(what.find("stuck in"), std::string::npos) << what;
    // The diagnostic snapshot reports every PE's last operation.
    EXPECT_NE(what.find("per-PE diagnostic snapshot"), std::string::npos)
        << what;
    EXPECT_NE(what.find("op="), std::string::npos) << what;
  }
  // The runtime survives the aborted job.
  rt.run(2, [](Context& ctx) { ctx.barrier_all(); });
}

TEST(Watchdog, FiresOnWaitUntilThatCanNeverBeSatisfied) {
  RuntimeOptions opts;
  opts.watchdog_ms = 300;
  Runtime rt(tilesim::tile_gx36(), opts);
  try {
    rt.run(2, [](Context& ctx) {
      long* flag = ctx.shmalloc_n<long>(1);
      *flag = 0;
      ctx.barrier_all();
      if (ctx.my_pe() == 0) {
        ctx.wait(flag, 0L);  // nobody ever writes it
      } else {
        ctx.barrier_all();  // also stuck: PE 0 never joins
      }
    });
    FAIL() << "unsatisfiable wait did not trip the watchdog";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), Errc::kWatchdogTimeout);
  }
}

}  // namespace
