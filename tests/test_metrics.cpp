// Tests for the virtual-time metrics subsystem (obs/): instruments,
// lock-sharded registry under concurrency, log2 bucket edges, the metrics
// JSON schema round-trip, the Chrome/Perfetto trace export, and the
// zero-virtual-cost contract — metrics on vs off must produce bit-identical
// virtual-time results.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/exporters.hpp"
#include "obs/metrics.hpp"
#include "obs/quantiles.hpp"
#include "sim/fault.hpp"
#include "support/json.hpp"
#include "tshmem/context.hpp"
#include "tshmem/runtime.hpp"

namespace {

using obs::Counter;
using obs::Gauge;
using obs::JsonValue;
using obs::Log2Histogram;
using obs::MetricsRegistry;
using obs::MetricsSnapshot;

// ===========================================================================
// Instruments
// ===========================================================================

TEST(Metrics, CounterAndGauge) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.owner_add(8);
  EXPECT_EQ(c.value(), 50u);

  Gauge g;
  g.set(100);
  g.add(-30);
  EXPECT_EQ(g.value(), 70);
}

TEST(Metrics, HistogramBucketEdges) {
  // Bucket index is the sample's bit width: 0 -> bucket 0, 1 -> bucket 1,
  // [2,3] -> bucket 2, [4,7] -> bucket 3, ...
  EXPECT_EQ(Log2Histogram::bucket_of(0), 0);
  EXPECT_EQ(Log2Histogram::bucket_of(1), 1);
  EXPECT_EQ(Log2Histogram::bucket_of(2), 2);
  EXPECT_EQ(Log2Histogram::bucket_of(3), 2);
  EXPECT_EQ(Log2Histogram::bucket_of(4), 3);
  EXPECT_EQ(Log2Histogram::bucket_of(7), 3);
  EXPECT_EQ(Log2Histogram::bucket_of(8), 4);
  EXPECT_EQ(Log2Histogram::bucket_of((1ull << 32) - 1), 32);
  EXPECT_EQ(Log2Histogram::bucket_of(1ull << 32), 33);
  EXPECT_EQ(Log2Histogram::bucket_of(std::numeric_limits<std::uint64_t>::max()),
            64);

  // bucket_lower/upper are the inclusive range; bucket_of is consistent
  // with them at both edges of every bucket.
  EXPECT_EQ(Log2Histogram::bucket_lower(0), 0u);
  EXPECT_EQ(Log2Histogram::bucket_upper(0), 0u);
  for (int b = 1; b < Log2Histogram::kBuckets; ++b) {
    const auto lo = Log2Histogram::bucket_lower(b);
    const auto hi = Log2Histogram::bucket_upper(b);
    EXPECT_EQ(lo, 1ull << (b - 1));
    EXPECT_EQ(Log2Histogram::bucket_of(lo), b) << "bucket " << b;
    EXPECT_EQ(Log2Histogram::bucket_of(hi), b) << "bucket " << b;
    if (b >= 2) {
      EXPECT_EQ(Log2Histogram::bucket_of(lo - 1), b - 1);
    }
  }
}

// record() and the single-writer owner_record() aggregate alike.
TEST(Metrics, HistogramRecordAggregates) {
  for (const bool owner : {false, true}) {
    SCOPED_TRACE(owner ? "owner_record" : "record");
    Log2Histogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.min(), std::numeric_limits<std::uint64_t>::max());
    EXPECT_EQ(h.max(), 0u);
    for (const std::uint64_t s : {3ull, 1000ull, 0ull, 4ull, 1ull}) {
      if (owner) {
        h.owner_record(s);
      } else {
        h.record(s);
      }
    }
    EXPECT_EQ(h.count(), 5u);
    EXPECT_EQ(h.sum(), 1008u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 1000u);
    EXPECT_EQ(h.bucket_count(0), 1u);   // 0
    EXPECT_EQ(h.bucket_count(1), 1u);   // 1
    EXPECT_EQ(h.bucket_count(2), 1u);   // 3
    EXPECT_EQ(h.bucket_count(3), 1u);   // 4
    EXPECT_EQ(h.bucket_count(10), 1u);  // 1000 in [512, 1023]
  }
}

// ===========================================================================
// Registry
// ===========================================================================

TEST(Metrics, RegistryReturnsStableHandles) {
  MetricsRegistry reg;
  Counter& a = reg.counter("x.calls", 0);
  Counter& b = reg.counter("x.calls", 0);
  EXPECT_EQ(&a, &b);
  Counter& other_pe = reg.counter("x.calls", 1);
  EXPECT_NE(&a, &other_pe);
  EXPECT_EQ(reg.metric_count(), 2u);
}

TEST(Metrics, RegistryKindMismatchThrows) {
  MetricsRegistry reg;
  (void)reg.counter("m", 0);
  EXPECT_THROW((void)reg.gauge("m", 0), std::logic_error);
  EXPECT_THROW((void)reg.histogram("m", 0), std::logic_error);
}

TEST(Metrics, RegistryConcurrentRegistrationAndUpdate) {
  // Many PE threads hammer the same names concurrently — registration must
  // not lose cells, and per-(name, pe) counts must be exact.
  MetricsRegistry reg(8);
  constexpr int kThreads = 16;
  constexpr int kIters = 2000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int pe = 0; pe < kThreads; ++pe) {
    threads.emplace_back([&reg, pe] {
      for (int i = 0; i < kIters; ++i) {
        reg.counter("conc.calls", pe).inc();
        reg.counter("conc.shared", /*pe=*/-1).inc();
        reg.histogram("conc.lat", pe).record(static_cast<std::uint64_t>(i));
      }
    });
  }
  for (auto& t : threads) t.join();

  for (int pe = 0; pe < kThreads; ++pe) {
    EXPECT_EQ(reg.counter("conc.calls", pe).value(),
              static_cast<std::uint64_t>(kIters));
    EXPECT_EQ(reg.histogram("conc.lat", pe).count(),
              static_cast<std::uint64_t>(kIters));
  }
  EXPECT_EQ(reg.counter("conc.shared", -1).value(),
            static_cast<std::uint64_t>(kThreads) * kIters);
  // conc.calls x16, conc.lat x16, conc.shared x1
  EXPECT_EQ(reg.metric_count(), 33u);
}

TEST(Metrics, SnapshotIsSortedByNameThenPe) {
  MetricsRegistry reg;
  reg.counter("b", 1).inc();
  reg.counter("b", 0).inc();
  reg.counter("a", 2).inc();
  reg.gauge("g", 0).set(-5);
  const MetricsSnapshot snap = reg.snapshot("gx36", 4);
  EXPECT_EQ(snap.device, "gx36");
  EXPECT_EQ(snap.npes, 4);
  ASSERT_EQ(snap.counters.size(), 3u);
  EXPECT_EQ(snap.counters[0].name, "a");
  EXPECT_EQ(snap.counters[1].name, "b");
  EXPECT_EQ(snap.counters[1].pe, 0);
  EXPECT_EQ(snap.counters[2].pe, 1);
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges[0].value, -5);
}

// ===========================================================================
// JSON exporters
// ===========================================================================

TEST(Metrics, JsonEscape) {
  EXPECT_EQ(obs::json_escape("plain"), "plain");
  EXPECT_EQ(obs::json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(obs::json_escape("\n\t"), "\\n\\t");
  EXPECT_EQ(obs::json_escape(std::string_view("\x01", 1)), "\\u0001");
}

TEST(Metrics, MetricsJsonSchemaRoundTrip) {
  MetricsRegistry reg;
  reg.counter("shmem.put.calls", 0).add(7);
  reg.counter("shmem.put.calls", 1).add(9);
  reg.gauge("shmem.heap.bytes_in_use", 0).set(4096);
  reg.histogram("shmem.put.latency_ps", 0).record(1000);
  reg.histogram("shmem.put.latency_ps", 0).record(3000);

  std::ostringstream os;
  obs::write_metrics_json(os, reg.snapshot("gx36", 2));

  const JsonValue doc = JsonValue::parse(os.str());
  EXPECT_EQ(doc.at("schema").as_string(), obs::kMetricsSchema);
  const JsonValue& run = doc.at("runs").at(0);
  EXPECT_EQ(run.at("device").as_string(), "gx36");
  EXPECT_EQ(run.at("npes").as_int(), 2);

  const auto& counters = run.at("counters").as_array();
  ASSERT_EQ(counters.size(), 2u);
  EXPECT_EQ(counters[0].at("name").as_string(), "shmem.put.calls");
  EXPECT_EQ(counters[0].at("pe").as_int(), 0);
  EXPECT_EQ(counters[0].at("value").as_uint(), 7u);
  EXPECT_EQ(counters[1].at("pe").as_int(), 1);
  EXPECT_EQ(counters[1].at("value").as_uint(), 9u);

  const auto& gauges = run.at("gauges").as_array();
  ASSERT_EQ(gauges.size(), 1u);
  EXPECT_EQ(gauges[0].at("value").as_int(), 4096);

  const auto& hists = run.at("histograms").as_array();
  ASSERT_EQ(hists.size(), 1u);
  EXPECT_EQ(hists[0].at("count").as_uint(), 2u);
  EXPECT_EQ(hists[0].at("sum").as_uint(), 4000u);
  EXPECT_EQ(hists[0].at("min").as_uint(), 1000u);
  EXPECT_EQ(hists[0].at("max").as_uint(), 3000u);
  // 1000 -> bucket 10, 3000 -> bucket 12; only non-empty buckets emitted.
  const auto& buckets = hists[0].at("buckets").as_array();
  ASSERT_EQ(buckets.size(), 2u);
  EXPECT_EQ(buckets[0].at("log2").as_int(), 10);
  EXPECT_EQ(buckets[0].at("count").as_uint(), 1u);
  EXPECT_EQ(buckets[1].at("log2").as_int(), 12);
}

TEST(Metrics, MetricsJsonIsByteStableAcrossIdenticalSnapshots) {
  const auto dump = [] {
    MetricsRegistry reg;
    reg.counter("z", 1).inc();
    reg.counter("a", 0).add(3);
    reg.histogram("h", 0).record(42);
    std::ostringstream os;
    obs::write_metrics_json(os, reg.snapshot("pro64", 2));
    return os.str();
  };
  EXPECT_EQ(dump(), dump());
}

TEST(Metrics, ChromeTracePerfettoSmoke) {
  // The exported document must be loadable by Perfetto/chrome://tracing:
  // an object with a "traceEvents" array of "X" complete events (us-domain
  // ts/dur, pid/tid ints) plus "M" process/thread metadata.
  obs::TraceTrack track{0, "gx36", 36, {}};
  track.events.push_back({0, "collective", "fft row", 0, 2'000'000});
  track.events.push_back({1, "dma", "put \"x\"", 500'000, 1'500'000});
  std::ostringstream os;
  obs::write_chrome_trace_json(os, {track});

  const JsonValue doc = JsonValue::parse(os.str());
  const auto& trace_events = doc.at("traceEvents").as_array();
  int complete = 0, metadata = 0;
  bool saw_process_name = false;
  for (const JsonValue& e : trace_events) {
    const std::string& ph = e.at("ph").as_string();
    if (ph == "X") {
      ++complete;
      EXPECT_GE(e.at("dur").as_double(), 0.0);
      EXPECT_TRUE(e.contains("ts"));
      EXPECT_TRUE(e.contains("pid"));
      EXPECT_TRUE(e.contains("tid"));
      EXPECT_TRUE(e.contains("cat"));
    } else if (ph == "M") {
      ++metadata;
      saw_process_name |= e.at("name").as_string() == "process_name";
    }
  }
  EXPECT_EQ(complete, 2);
  EXPECT_GE(metadata, 1);
  EXPECT_TRUE(saw_process_name);
  // ps -> us: the 2'000'000 ps compute span is 2 us.
  for (const JsonValue& e : trace_events) {
    if (e.at("ph").as_string() == "X" &&
        e.at("name").as_string() == "fft row") {
      EXPECT_DOUBLE_EQ(e.at("dur").as_double(), 2.0);
    }
  }
}

// ===========================================================================
// Runtime integration
// ===========================================================================

// A workload touching every instrumented subsystem: puts, gets, barriers,
// a broadcast, a reduction, atomics, locks, and heap churn. The put writes
// words [0, 256) of `buf` while every read is of [256, 512), so no two PEs
// touch one word at once (test_metrics runs under TSan in tools/ci.sh).
void workload(tshmem::Context& ctx, std::vector<std::uint64_t>* end_ps) {
  const int npes = ctx.num_pes();
  auto* buf = ctx.shmalloc_n<std::uint32_t>(512);
  auto* acc = ctx.shmalloc_n<std::int64_t>(1);
  auto* sum = ctx.shmalloc_n<std::int64_t>(1);
  acc[0] = 0;
  std::vector<std::uint32_t> got(128);
  ctx.barrier_all();
  ctx.put(buf, buf + 256, 256 * sizeof(std::uint32_t),
          (ctx.my_pe() + 1) % npes);
  ctx.get(got.data(), buf + 256, 128 * sizeof(std::uint32_t),
          (ctx.my_pe() + 2) % npes);
  ctx.barrier_all();
  ctx.add(acc, std::int64_t{1}, 0);
  ctx.broadcast(buf, buf, 64 * sizeof(std::uint32_t), 0, ctx.world());
  ctx.reduce(sum, acc, 1, tshmem::RedOp::kSum, ctx.world());
  ctx.barrier_all();
  ctx.shfree(sum);
  ctx.shfree(acc);
  ctx.shfree(buf);
  (*end_ps)[static_cast<std::size_t>(ctx.my_pe())] = ctx.clock().now();
}

TEST(Metrics, RuntimeCollectsAllSubsystems) {
  tshmem::RuntimeOptions opts;
  opts.metrics = true;
  tshmem::Runtime rt(tilesim::tile_gx36(), opts);
  ASSERT_TRUE(rt.metrics_enabled());
  constexpr int kPes = 4;
  std::vector<std::uint64_t> end_ps(kPes, 0);
  rt.run(kPes, [&](tshmem::Context& ctx) { workload(ctx, &end_ps); });

  const MetricsSnapshot snap = rt.metrics();
  EXPECT_EQ(snap.device, "gx36");
  EXPECT_EQ(snap.npes, kPes);

  const auto counter = [&](const std::string& name,
                           int pe) -> std::uint64_t {
    for (const auto& c : snap.counters) {
      if (c.name == name && c.pe == pe) return c.value;
    }
    ADD_FAILURE() << "missing counter " << name << " pe=" << pe;
    return 0;
  };
  const auto hist_count = [&](const std::string& name,
                              int pe) -> std::uint64_t {
    for (const auto& h : snap.histograms) {
      if (h.name == name && h.pe == pe) return h.count;
    }
    ADD_FAILURE() << "missing histogram " << name << " pe=" << pe;
    return 0;
  };

  for (int pe = 0; pe < kPes; ++pe) {
    EXPECT_EQ(counter("shmem.put.calls", pe), 1u) << "pe " << pe;
    EXPECT_EQ(counter("shmem.put.bytes", pe), 1024u);
    // Collectives issue further gets/barriers internally, so these are
    // lower bounds: at least the workload's own one get and three barriers.
    EXPECT_GE(counter("shmem.get.calls", pe), 1u);
    EXPECT_GE(counter("shmem.barrier.calls", pe), 3u);
    EXPECT_EQ(counter("shmem.broadcast.calls", pe), 1u);
    EXPECT_EQ(counter("shmem.reduce.calls", pe), 1u);
    EXPECT_EQ(counter("shmem.atomic.calls", pe), 1u);
    EXPECT_EQ(counter("shmem.heap.alloc.calls", pe), 3u);
    EXPECT_EQ(counter("shmem.heap.free.calls", pe), 3u);
    EXPECT_EQ(hist_count("shmem.put.latency_ps", pe), 1u);
    EXPECT_GE(hist_count("shmem.get.latency_ps", pe), 1u);
    EXPECT_GE(hist_count("shmem.barrier.wait_ps", pe), 3u);
    EXPECT_GT(counter("sim.tile.busy_ps", pe), 0u);
    EXPECT_GT(counter("udn.packets", pe), 0u);
  }
  // Device-wide metrics live at pe = -1.
  EXPECT_GT(counter("tmc.cmem.maps", -1), 0u);
}

TEST(Metrics, VirtualTimeBitIdenticalWithMetricsOnOrOff) {
  // The zero-virtual-cost contract: the same workload must leave every PE's
  // clock at exactly the same picosecond whether metrics are on or off.
  constexpr int kPes = 4;
  const auto run_with = [&](bool metrics) {
    tshmem::RuntimeOptions opts;
    opts.metrics = metrics;
    tshmem::Runtime rt(tilesim::tile_gx36(), opts);
    std::vector<std::uint64_t> end_ps(kPes, 0);
    rt.run(kPes, [&](tshmem::Context& ctx) { workload(ctx, &end_ps); });
    return end_ps;
  };
  const auto off = run_with(false);
  const auto on = run_with(true);
  ASSERT_EQ(off.size(), on.size());
  for (int pe = 0; pe < kPes; ++pe) {
    EXPECT_EQ(off[static_cast<std::size_t>(pe)],
              on[static_cast<std::size_t>(pe)])
        << "virtual time diverged on pe " << pe;
  }
  for (const std::uint64_t t : off) EXPECT_GT(t, 0u);
}

// An NBI-heavy workload: non-blocking puts/gets with interleaved fences,
// compute, and quiet — exercises the DMA-engine counters end to end.
void nbi_workload(tshmem::Context& ctx, std::vector<std::uint64_t>* end_ps) {
  const int npes = ctx.num_pes();
  auto* buf = static_cast<std::byte*>(ctx.shmalloc(1 << 16));
  ctx.barrier_all();
  for (int round = 0; round < 3; ++round) {
    // Puts write the remote [0, 2048) window; the get reads a disjoint
    // remote window so concurrent rounds never conflict.
    ctx.put_nbi(buf, buf + (1 << 15), 2048, (ctx.my_pe() + 1) % npes);
    ctx.put_nbi(buf, buf + (1 << 15), 1024, (ctx.my_pe() + 1) % npes);
    ctx.fence();  // pending queue: store-buffer drain only
    ctx.get_nbi(buf + (1 << 15), buf + (1 << 14), 512,
                (ctx.my_pe() + 2) % npes);
    ctx.charge_int_ops(10'000);
    ctx.quiet();
    ctx.barrier_all();
  }
  ctx.shfree(buf);
  (*end_ps)[static_cast<std::size_t>(ctx.my_pe())] = ctx.clock().now();
}

TEST(Metrics, RuntimeCollectsDmaCounters) {
  tshmem::RuntimeOptions opts;
  opts.metrics = true;
  tshmem::Runtime rt(tilesim::tile_gx36(), opts);
  constexpr int kPes = 4;
  std::vector<std::uint64_t> end_ps(kPes, 0);
  rt.run(kPes, [&](tshmem::Context& ctx) { nbi_workload(ctx, &end_ps); });

  const MetricsSnapshot snap = rt.metrics();
  const auto counter = [&](const std::string& name, int pe) -> std::uint64_t {
    for (const auto& c : snap.counters) {
      if (c.name == name && c.pe == pe) return c.value;
    }
    ADD_FAILURE() << "missing counter " << name << " pe=" << pe;
    return 0;
  };
  const auto gauge = [&](const std::string& name, int pe) -> std::int64_t {
    for (const auto& g : snap.gauges) {
      if (g.name == name && g.pe == pe) return g.value;
    }
    ADD_FAILURE() << "missing gauge " << name << " pe=" << pe;
    return -1;
  };
  const auto hist_count = [&](const std::string& name,
                              int pe) -> std::uint64_t {
    for (const auto& h : snap.histograms) {
      if (h.name == name && h.pe == pe) return h.count;
    }
    ADD_FAILURE() << "missing histogram " << name << " pe=" << pe;
    return 0;
  };

  for (int pe = 0; pe < kPes; ++pe) {
    // 3 rounds x (2 puts + 1 get), all retired by the explicit quiet.
    EXPECT_EQ(counter("shmem.nbi.issued", pe), 9u) << "pe " << pe;
    EXPECT_EQ(counter("shmem.nbi.retired", pe), 9u);
    EXPECT_EQ(counter("shmem.nbi.bytes", pe), 3u * (2048 + 1024 + 512));
    EXPECT_EQ(gauge("shmem.nbi.queue_depth", pe), 0);  // all drained
    EXPECT_EQ(hist_count("shmem.nbi.quiet_wait_ps", pe), 3u);
    EXPECT_EQ(hist_count("shmem.nbi.overlap_pct", pe), 3u);
    // Two puts were in flight together before each fence/get.
    EXPECT_GE(gauge("sim.dma.peak_pending", pe), 2);
    // The DMA path bypasses the blocking put/get counters entirely.
    EXPECT_EQ(counter("shmem.put.calls", pe), 0u);
    EXPECT_EQ(counter("shmem.get.calls", pe), 0u);
  }
}

TEST(Metrics, VirtualTimeBitIdenticalWithMetricsOnOrOffNbiHeavy) {
  // Re-assert the zero-virtual-cost contract on the DMA-engine paths: the
  // new counters, gauges, and histograms must not move any PE clock.
  constexpr int kPes = 4;
  const auto run_with = [&](bool metrics) {
    tshmem::RuntimeOptions opts;
    opts.metrics = metrics;
    tshmem::Runtime rt(tilesim::tile_gx36(), opts);
    std::vector<std::uint64_t> end_ps(kPes, 0);
    rt.run(kPes, [&](tshmem::Context& ctx) { nbi_workload(ctx, &end_ps); });
    return end_ps;
  };
  const auto off = run_with(false);
  const auto on = run_with(true);
  ASSERT_EQ(off.size(), on.size());
  for (int pe = 0; pe < kPes; ++pe) {
    EXPECT_EQ(off[static_cast<std::size_t>(pe)],
              on[static_cast<std::size_t>(pe)])
        << "virtual time diverged on pe " << pe;
  }
  for (const std::uint64_t t : off) EXPECT_GT(t, 0u);
}

// Every per-PE shmem.* metric, as (name -> value) with a histogram's
// sample count for its value.
std::map<std::string, std::int64_t> shmem_metrics(const MetricsSnapshot& s,
                                                  int pe) {
  std::map<std::string, std::int64_t> out;
  const auto take = [&](const std::string& name, int at, std::int64_t v) {
    if (at == pe && name.rfind("shmem.", 0) == 0) out[name] = v;
  };
  for (const auto& c : s.counters) {
    take(c.name, c.pe, static_cast<std::int64_t>(c.value));
  }
  for (const auto& g : s.gauges) take(g.name, g.pe, g.value);
  for (const auto& h : s.histograms) {
    take(h.name, h.pe, static_cast<std::int64_t>(h.count));
  }
  return out;
}

std::uint64_t counter_at(const MetricsSnapshot& s, const std::string& name,
                         int pe) {
  for (const auto& c : s.counters) {
    if (c.name == name && c.pe == pe) return c.value;
  }
  ADD_FAILURE() << "missing counter " << name << " pe=" << pe;
  return 0;
}

// Each metered op runs a known number of times on every PE of a 4-PE job;
// the collectives (root PE 0) add their own puts and gets. Every shmem.*
// counter, gauge and histogram count must be exactly what the ops imply.
TEST(Metrics, EveryShmemMetricCountsItsOps) {
  constexpr int kPes = 4;
  tshmem::RuntimeOptions opts;
  opts.metrics = true;
  tshmem::Runtime rt(tilesim::tile_gx36(), opts);
  rt.run(kPes, [](tshmem::Context& ctx) {
    const int me = ctx.my_pe();
    const int right = (me + 1) % kPes;
    const int across = (me + 2) % kPes;
    // 5 allocations, each with its implicit barrier.
    auto* dyn = static_cast<std::uint64_t*>(ctx.shmalloc(1024));
    void* grown = ctx.shrealloc(ctx.shmalloc(64), 256);
    void* aligned = ctx.shmemalign(128, 256);
    long* word = ctx.shmalloc_n<long>(2);  // [0] lock, [1] wait flag
    auto* stat = ctx.static_sym<std::uint64_t>("metered_ops_static", 4);
    word[0] = 0;
    word[1] = 0;
    std::uint64_t local[32] = {};
    ctx.barrier_all();
    // RMA, on disjoint words of `dyn`: 2 blocking puts, one of them to a
    // remote static object (an interrupt), a get, and two NBI transfers
    // that the fence leaves queued and the quiet drains.
    ctx.put(dyn, local, 64, right);
    ctx.get(local, dyn + 8, 32, across);
    ctx.put(stat, dyn + 12, 16, right);
    ctx.put_nbi(dyn + 16, local, 128, right);
    ctx.get_nbi(local + 16, dyn + 32, 64, across);
    ctx.fence();
    ctx.quiet();
    ctx.barrier_all();
    // Collectives rooted at PE 0.
    ctx.broadcast(dyn + 40, dyn + 48, 64, 0, ctx.world());
    ctx.fcollect(dyn + 56, dyn + 48, 8, ctx.world());
    ctx.collect(dyn + 64, dyn + 48, 8 * static_cast<std::size_t>(me + 1),
                ctx.world());
    auto* red = reinterpret_cast<long*>(dyn + 80);
    ctx.reduce(red + 1, red, 1, tshmem::RedOp::kSum, ctx.world());
    // Atomics on PE 0, then the lock taken in turns so no CAS fails.
    (void)ctx.swap(reinterpret_cast<long*>(dyn + 90), long{me}, 0);
    (void)ctx.fadd(reinterpret_cast<long*>(dyn + 91), 1L, 0);
    for (int turn = 0; turn < kPes; ++turn) {
      if (me == turn) {
        ctx.set_lock(&word[0]);
        ctx.clear_lock(&word[0]);
        EXPECT_EQ(ctx.test_lock(&word[0]), 0);
        ctx.clear_lock(&word[0]);
      }
      ctx.barrier_all();
    }
    ctx.p(&word[1], 1L, right);
    ctx.wait_until(&word[1], tshmem::Cmp::kEq, 1L);
    ctx.barrier_all();
    ctx.shfree(word);
    ctx.shfree(aligned);
    ctx.shfree(grown);
    ctx.shfree(dyn);
  });

  const MetricsSnapshot snap = rt.metrics();
  for (int pe = 0; pe < kPes; ++pe) {
    const bool root = pe == 0;
    // Non-root PEs put their fcollect and collect blocks; PE 0 gets one
    // reduction operand from each peer, the others pull the broadcast,
    // fcollect, collect and reduction results from PE 0.
    const std::int64_t puts = root ? 3 : 5;
    const std::int64_t put_bytes = root ? 88 : 88 + 8 + 8 * (pe + 1);
    const std::int64_t gets = root ? 4 : 5;
    const std::int64_t get_bytes = root ? 32 + 3 * 8 : 32 + 64 + 32 + 80 + 8;
    const std::map<std::string, std::int64_t> want = {
        {"shmem.put.calls", puts},
        {"shmem.put.bytes", put_bytes},
        {"shmem.put.latency_ps", puts},
        {"shmem.get.calls", gets},
        {"shmem.get.bytes", get_bytes},
        {"shmem.get.latency_ps", gets},
        // 5 allocations, 4 frees, 4 lock turns and 3 explicit barriers.
        {"shmem.barrier.calls", 16},
        {"shmem.barrier.wait_ps", 16},
        {"shmem.broadcast.calls", 1},
        {"shmem.broadcast.bytes", 64},
        {"shmem.collect.calls", 2},
        {"shmem.collect.bytes", 8 + 8 * (pe + 1)},
        {"shmem.reduce.calls", 1},
        {"shmem.reduce.bytes", 8},
        {"shmem.collective.wait_ps", 4},
        // swap, fadd, and one CAS each for set, 2x clear and test.
        {"shmem.atomic.calls", 6},
        {"shmem.lock.ops", 4},
        {"shmem.wait.calls", 1},
        {"shmem.wait.latency_ps", 1},
        {"shmem.heap.alloc.calls", 5},
        {"shmem.heap.free.calls", 4},
        {"shmem.heap.bytes_in_use", 0},
        {"shmem.heap.blocks", 1},  // the one coalesced free block
        {"shmem.interrupt.services", 1},
        {"shmem.nbi.issued", 2},
        {"shmem.nbi.bytes", 192},
        {"shmem.nbi.retired", 2},
        {"shmem.nbi.queue_depth", 0},
        {"shmem.nbi.quiet_wait_ps", 1},
        {"shmem.nbi.overlap_pct", 1},
    };
    EXPECT_EQ(shmem_metrics(snap, pe), want) << "pe " << pe;
    EXPECT_EQ(counter_at(snap, "recovery.nbi.sync_fallbacks", pe), 0u);
  }
  const std::map<std::string, std::int64_t> device_wide = {
      {"shmem.statics.bytes_used", 32}, {"shmem.statics.objects", 1}};
  EXPECT_EQ(shmem_metrics(snap, -1), device_wide);
}

// NBI sync fallbacks and interrupts are counted per PE across runs: every
// descriptor post fails here, so each put_nbi completes as a blocking put.
TEST(Metrics, FallbacksAndInterruptsAccumulateAcrossRuns) {
  constexpr int kPes = 2;
  tshmem::RuntimeOptions opts;
  opts.metrics = true;
  opts.fault_plan = tilesim::FaultPlan::parse("dma_fail=1.0");
  tshmem::Runtime rt(tilesim::tile_gx36(), opts);
  const auto job = [](tshmem::Context& ctx) {
    auto* dyn = ctx.shmalloc_n<std::uint64_t>(16);
    auto* stat = ctx.static_sym<std::uint64_t>("fallback_static", 8);
    std::uint64_t src[8] = {};
    ctx.barrier_all();
    const int peer = 1 - ctx.my_pe();
    ctx.put_nbi(dyn, src, sizeof(src), peer);
    ctx.put_nbi(dyn, src, sizeof(src), peer);
    ctx.put(stat, dyn + 8, 16, peer);  // remote static: an interrupt
    ctx.quiet();
    ctx.barrier_all();
    ctx.shfree(dyn);
  };
  for (int run = 1; run <= 2; ++run) {
    rt.run(kPes, job);
    const MetricsSnapshot snap = rt.metrics();
    const auto n = static_cast<std::uint64_t>(run);
    for (int pe = 0; pe < kPes; ++pe) {
      EXPECT_EQ(counter_at(snap, "recovery.nbi.sync_fallbacks", pe), 2 * n)
          << "pe " << pe << " run " << run;
      EXPECT_EQ(counter_at(snap, "fault.dma.desc_fail", pe), 2 * n);
      EXPECT_EQ(counter_at(snap, "shmem.nbi.issued", pe), 0u);
      EXPECT_EQ(counter_at(snap, "shmem.put.calls", pe), 3 * n);
      EXPECT_EQ(counter_at(snap, "shmem.interrupt.services", pe), n);
    }
  }
}

TEST(Metrics, EnvVarOverridesRuntimeOption) {
  ::setenv("TSHMEM_METRICS", "1", 1);
  {
    tshmem::Runtime rt(tilesim::tile_gx36());
    EXPECT_TRUE(rt.metrics_enabled());
  }
  ::setenv("TSHMEM_METRICS", "off", 1);
  {
    tshmem::RuntimeOptions opts;
    opts.metrics = true;
    tshmem::Runtime rt(tilesim::tile_gx36(), opts);
    EXPECT_FALSE(rt.metrics_enabled());
  }
  ::unsetenv("TSHMEM_METRICS");
}

// ===========================================================================
// Quantile extraction (obs/quantiles.hpp, serving tentpole)
// ===========================================================================

TEST(Quantiles, EmptyHistogramReturnsZero) {
  Log2Histogram h;
  EXPECT_EQ(obs::histogram_quantile(h, 0.0), 0u);
  EXPECT_EQ(obs::histogram_quantile(h, 0.5), 0u);
  EXPECT_EQ(obs::histogram_quantile(h, 1.0), 0u);
  EXPECT_EQ(obs::latency_quantiles(h), obs::LatencyQuantiles{});
}

TEST(Quantiles, OutOfRangeQThrows) {
  Log2Histogram h;
  h.record(42);
  EXPECT_THROW((void)obs::histogram_quantile(h, -0.01),
               std::invalid_argument);
  EXPECT_THROW((void)obs::histogram_quantile(h, 1.01),
               std::invalid_argument);
}

TEST(Quantiles, SingleSampleIsExactAtEveryQ) {
  Log2Histogram h;
  h.record(12345);
  for (const double q : {0.0, 0.25, 0.5, 0.99, 0.999, 1.0}) {
    EXPECT_EQ(obs::histogram_quantile(h, q), 12345u) << "q=" << q;
  }
}

TEST(Quantiles, SingleBucketInterpolatesWithinMinMaxEnvelope) {
  // All samples in bucket 10 ([512, 1023]); the envelope [600, 1000]
  // must clip the interpolation.
  Log2Histogram h;
  h.record(600);
  h.record(800);
  h.record(1000);
  EXPECT_EQ(obs::histogram_quantile(h, 0.0), 600u);
  EXPECT_EQ(obs::histogram_quantile(h, 1.0), 1000u);
  const std::uint64_t p50 = obs::histogram_quantile(h, 0.5);
  EXPECT_GE(p50, 600u);
  EXPECT_LE(p50, 1000u);
}

TEST(Quantiles, SaturatedTopBucketStaysWithinMax) {
  // Bucket 64's nominal upper bound is 2^64 - 1; the exact max must cap
  // the tail instead of exploding it.
  Log2Histogram h;
  const std::uint64_t top = std::numeric_limits<std::uint64_t>::max() - 7;
  for (int i = 0; i < 10; ++i) h.record(100);
  h.record(top);
  EXPECT_EQ(obs::histogram_quantile(h, 1.0), top);
  EXPECT_LE(obs::histogram_quantile(h, 0.999), top);
  EXPECT_GE(obs::histogram_quantile(h, 0.999), 100u);
}

TEST(Quantiles, TailOrderingAcrossBuckets) {
  // 900 fast + 90 medium + 10 slow: p50 fast, p99 medium+, p999 slow.
  Log2Histogram h;
  for (int i = 0; i < 900; ++i) h.record(1'000);
  for (int i = 0; i < 90; ++i) h.record(1'000'000);
  for (int i = 0; i < 10; ++i) h.record(100'000'000);
  const obs::LatencyQuantiles lq = obs::latency_quantiles(h);
  EXPECT_LE(lq.p50, lq.p99);
  EXPECT_LE(lq.p99, lq.p999);
  EXPECT_LE(lq.p50, 2'047u);             // inside the fast bucket
  EXPECT_GE(lq.p999, 67'108'864u);       // inside the slow bucket
  EXPECT_LE(lq.p999, 100'000'000u);      // capped by the exact max
}

TEST(Quantiles, SnapshotSampleAgreesWithLiveHistogram) {
  MetricsRegistry reg;
  Log2Histogram& h = reg.histogram("svc.latency.ps", 0);
  std::uint64_t v = 17;
  for (int i = 0; i < 500; ++i) {
    h.record(v);
    v = v * 2'654'435'761u % 10'000'000u + 1;
  }
  const MetricsSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.histograms.size(), 1u);
  for (const double q : {0.0, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    EXPECT_EQ(obs::histogram_quantile(h, q),
              obs::histogram_quantile(snap.histograms[0], q))
        << "q=" << q;
  }
}

}  // namespace
