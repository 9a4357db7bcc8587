// Tests for the virtual-time flight recorder + windowed time series
// (obs/flightrec, obs/timeseries — ISSUE 9 tentpole): ring wraparound,
// deterministic ring contents across host schedules, window-boundary and
// epoch-fold edge cases, the tshmem.timeseries.v1 / tshmem.blackbox.v1
// JSON shapes, post-mortem dumps on watchdog timeouts and shard
// degradation, and the zero-virtual-cost contract (bit-identical end
// clocks recorder on/off).
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "obs/flightrec.hpp"
#include "obs/quantiles.hpp"
#include "obs/timeseries.hpp"
#include "sim/device.hpp"
#include "sim/fault.hpp"
#include "sim/probe.hpp"
#include "support/json.hpp"
#include "svc/service.hpp"
#include "tshmem/cluster.hpp"
#include "tshmem/context.hpp"
#include "tshmem/runtime.hpp"
#include "util/error.hpp"

namespace {

using obs::FlightRecorder;
using obs::FrEvent;
using obs::JsonValue;
using obs::TimeSeries;
using obs::TimeSeriesReport;
using tilesim::ProbeKind;
using tilesim::ps_t;
using tshmem::Context;

// ===========================================================================
// Ring mechanics (recorder driven directly)
// ===========================================================================

TEST(FlightRecorder, RingWrapsKeepingNewest) {
  FlightRecorder fr(1, 4);
  for (int i = 0; i < 10; ++i) {
    fr.on_event(0,
                {ProbeKind::kPut, "put", static_cast<ps_t>(100 * i), i % 3, 8});
  }
  EXPECT_EQ(fr.total_recorded(0), 10u);
  const std::vector<FrEvent> snap = fr.snapshot(0);
  ASSERT_EQ(snap.size(), 4u);
  // Oldest to newest: the last four of the ten recorded events.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(snap[static_cast<std::size_t>(i)].seq,
              static_cast<std::uint64_t>(6 + i));
    EXPECT_EQ(snap[static_cast<std::size_t>(i)].vt, 100 * (6 + i));
  }
}

TEST(FlightRecorder, MergedOrdersByTimePeSeq) {
  FlightRecorder fr(3, 8);
  fr.on_event(2, {ProbeKind::kBarrier, "bar", 500, -1, 0});
  fr.on_event(0, {ProbeKind::kPut, "put", 500, 1, 8});
  fr.on_event(1, {ProbeKind::kGet, "get", 100, 0, 8});
  const std::vector<FrEvent> merged = fr.merged();
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[0].pe, 1);  // earliest vt first
  EXPECT_EQ(merged[1].pe, 0);  // vt tie broken by pe
  EXPECT_EQ(merged[2].pe, 2);
}

// The ring's contract: events arrive per PE in program order with that
// PE's own virtual clock, so ring contents are a pure function of the
// (deterministic) protocol — identical across host thread schedules.
TEST(FlightRecorder, RingContentsDeterministicAcrossRuns) {
  auto run_once = [] {
    tshmem::RuntimeOptions opts;
    opts.flightrec = true;
    opts.flightrec_capacity = 64;
    tshmem::Runtime rt(tilesim::tile_gx36(), opts);
    rt.run(4, [](Context& ctx) {
      int* buf = ctx.shmalloc_n<int>(64);
      ctx.barrier_all();
      for (int round = 0; round < 3; ++round) {
        const int peer = (ctx.my_pe() + 1) % ctx.num_pes();
        std::vector<int> src(64, ctx.my_pe());
        ctx.put(buf, src.data(), 64 * sizeof(int), peer);
        ctx.barrier_all();
      }
      ctx.shfree(buf);
    });
    std::vector<std::string> lines;
    for (const FrEvent& e : rt.flightrec()->merged()) {
      std::ostringstream os;
      os << e.vt << " " << e.pe << " " << e.seq << " "
         << tilesim::probe_kind_name(e.kind) << " " << e.site << " " << e.peer
         << " " << e.bytes << " " << e.errc;
      lines.push_back(os.str());
    }
    return lines;
  };
  const std::vector<std::string> a = run_once();
  const std::vector<std::string> b = run_once();
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

// ===========================================================================
// Epoch folding (Device::reset_clocks boundaries)
// ===========================================================================

TEST(FlightRecorder, DeviceAttachedFoldsEpochAtClockReset) {
  tilesim::Device device(tilesim::tile_gx36());
  FlightRecorder fr(device, 16);
  device.attach_probe(&fr);
  device.tile(0).clock().advance(300);
  device.tile(1).clock().advance(750);  // epoch extent = max tile clock
  tilesim::probe_event(device.tile(0), {ProbeKind::kPut, "put", 300, 1, 8});
  device.reset_clocks();
  EXPECT_EQ(fr.epoch_base_ps(), 750);
  // Post-reset events arrive epoch-local and are folded onto the
  // monotone run timeline.
  tilesim::probe_event(device.tile(0), {ProbeKind::kGet, "get", 10, 1, 8});
  const std::vector<FrEvent> snap = fr.snapshot(0);
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].vt, 300);
  EXPECT_EQ(snap[1].vt, 760);
  device.detach_probe(&fr);
}

TEST(TimeSeries, EpochFoldOffsetsLaterObservations) {
  TimeSeries ts(100);
  ts.series_add("x", 40, 1);   // window 0
  ts.fold_epoch(250);
  ts.series_add("x", 40, 1);   // folded to 290 -> window 2
  ts.fold_epoch(60);           // base 310
  ts.series_add("x", 0, 1);    // folded to 310 -> window 3
  const TimeSeriesReport rep = ts.report();
  ASSERT_EQ(rep.series.size(), 1u);
  ASSERT_EQ(rep.series[0].windows.size(), 3u);
  EXPECT_EQ(rep.series[0].windows[0].index, 0u);
  EXPECT_EQ(rep.series[0].windows[1].index, 2u);
  EXPECT_EQ(rep.series[0].windows[1].start_ps, 200);
  EXPECT_EQ(rep.series[0].windows[2].index, 3u);
  EXPECT_EQ(rep.series[0].total_count, 3u);
}

// ===========================================================================
// Window aggregation
// ===========================================================================

TEST(TimeSeries, WindowBoundariesAreHalfOpen) {
  TimeSeries ts(100);
  ts.series_add("x", 0, 1);
  ts.series_add("x", 99, 1);   // still window 0
  ts.series_add("x", 100, 1);  // first vt of window 1
  ts.series_add("x", 199, 1);
  ts.series_add("x", 200, 1);  // window 2
  const TimeSeriesReport rep = ts.report();
  ASSERT_EQ(rep.series.size(), 1u);
  const auto& w = rep.series[0].windows;
  ASSERT_EQ(w.size(), 3u);
  EXPECT_EQ(w[0].count, 2u);
  EXPECT_EQ(w[1].count, 2u);
  EXPECT_EQ(w[1].start_ps, 100);
  EXPECT_EQ(w[2].count, 1u);
  EXPECT_EQ(rep.series[0].total_count, 5u);
}

TEST(TimeSeries, SamplesCarryQuantilesAndCounts) {
  TimeSeries ts(1000);
  for (std::uint64_t v : {10u, 20u, 30u, 40u, 1000u}) {
    ts.series_sample("lat", 500, v);
  }
  const TimeSeriesReport rep = ts.report();
  ASSERT_EQ(rep.series.size(), 1u);
  ASSERT_EQ(rep.series[0].windows.size(), 1u);
  const obs::SeriesWindow& w = rep.series[0].windows[0];
  EXPECT_TRUE(w.has_samples);
  EXPECT_EQ(w.count, 5u);  // samples count toward the window count
  EXPECT_EQ(w.sum, 1100u);
  EXPECT_EQ(w.min, 10u);
  EXPECT_EQ(w.max, 1000u);
  EXPECT_GE(w.p99, w.p50);
  EXPECT_GE(w.p999, w.p99);
}

TEST(TimeSeries, JsonReportHasSchemaAndReconcilesCounts) {
  TimeSeries ts(100);
  ts.series_add("a", 10, 2);
  ts.series_sample("b", 150, 7);
  std::ostringstream os;
  obs::write_timeseries_json(os, ts.report());
  const JsonValue doc = JsonValue::parse(os.str());
  EXPECT_EQ(doc.at("schema").as_string(), "tshmem.timeseries.v1");
  EXPECT_EQ(doc.at("window_ps").as_int(), 100);
  const auto& series = doc.at("series").as_array();
  ASSERT_EQ(series.size(), 2u);
  for (const JsonValue& s : series) {
    std::uint64_t windows = 0;
    for (const JsonValue& w : s.at("windows").as_array()) {
      windows += w.at("count").as_uint();
    }
    EXPECT_EQ(windows, s.at("total_count").as_uint()) << s.at("name").as_string();
  }
}

// The time series as a probe consumer: every event counts once in its
// kind's "event.<kind>" series (PEs outside its cells are dropped), a
// kBarrier event's bytes are a "shmem.barrier.ps" sample, and the
// device-attached form folds each finished epoch itself.
TEST(TimeSeries, CountsProbeEventsAndFoldsEpochs) {
  TimeSeries ts(100, 2);
  ts.on_event(0, {ProbeKind::kPut, "put", 10, 1, 8});
  ts.on_event(1, {ProbeKind::kPut, "put", 110, 0, 8});
  ts.on_event(0, {ProbeKind::kBarrier, "bar", 120, -1, 40});
  ts.on_event(2, {ProbeKind::kPut, "put", 10, 1, 8});  // no cell: dropped
  TimeSeriesReport rep = ts.report();
  ASSERT_EQ(rep.series.size(), 3u);
  EXPECT_EQ(rep.series[0].name, "event.barrier");
  EXPECT_EQ(rep.series[0].total_count, 1u);
  EXPECT_EQ(rep.series[1].name, "event.put");
  EXPECT_EQ(rep.series[1].total_count, 2u);
  ASSERT_EQ(rep.series[1].windows.size(), 2u);
  EXPECT_EQ(rep.series[2].name, "shmem.barrier.ps");
  ASSERT_EQ(rep.series[2].windows.size(), 1u);
  EXPECT_EQ(rep.series[2].windows[0].index, 1u);
  EXPECT_EQ(rep.series[2].windows[0].sum, 40u);

  tilesim::Device device(tilesim::tile_gx36());
  TimeSeries attached(device, 100);
  device.attach_probe(&attached);
  device.tile(1).clock().advance(250);  // epoch extent = max tile clock
  tilesim::probe_event(device.tile(0), {ProbeKind::kGet, "get", 50, 1, 8});
  device.reset_clocks();
  EXPECT_EQ(attached.epoch_base_ps(), 250);
  tilesim::probe_event(device.tile(0), {ProbeKind::kGet, "get", 60, 1, 8});
  device.detach_probe(&attached);
  rep = attached.report();
  ASSERT_EQ(rep.series.size(), 1u);
  ASSERT_EQ(rep.series[0].windows.size(), 2u);
  EXPECT_EQ(rep.series[0].windows[0].index, 0u);
  EXPECT_EQ(rep.series[0].windows[1].index, 3u);  // 250 + 60 = 310
}

// Batched per PE and stored compactly, the probe form reports exactly what
// feeding each event straight through series_add/series_sample reports.
// The PEs lag behind one another and interleave their windows, and PE 1
// flushes a window older than the newest one stored, so cells and sample
// buckets land mid-series and merge across PEs. Each window's quantiles
// also equal the dense Log2Histogram's over the same samples.
TEST(TimeSeries, BatchedEventsMatchDirectFeed) {
  constexpr ps_t kWindow = 100;
  TimeSeries batched(kWindow, 3);
  TimeSeries direct(kWindow, 3);
  std::map<std::uint64_t, obs::Log2Histogram> dense;
  auto feed = [&](int pe, ProbeKind kind, ps_t vt, std::uint64_t bytes) {
    batched.on_event(pe, {kind, "site", vt, -1, bytes});
    direct.series_add(std::string("event.") + tilesim::probe_kind_name(kind),
                      vt, 1);
    if (kind == ProbeKind::kBarrier) {
      direct.series_sample("shmem.barrier.ps", vt, bytes);
      dense[static_cast<std::uint64_t>(vt / kWindow)].record(bytes);
    }
  };
  // In window 0 the PE that flushes last holds neither the lowest
  // bucket's min nor the highest bucket's max.
  feed(0, ProbeKind::kPut, 10, 8);
  feed(0, ProbeKind::kBarrier, 20, 301);
  feed(0, ProbeKind::kBarrier, 30, 4);
  feed(0, ProbeKind::kPut, 250, 8);  // PE 0 flushes window 0
  feed(0, ProbeKind::kBarrier, 260, 70'000);
  feed(1, ProbeKind::kBarrier, 40, 300);  // PE 1 is still in window 0
  feed(1, ProbeKind::kBarrier, 42, 5);
  feed(1, ProbeKind::kBarrier, 45, 9);
  feed(2, ProbeKind::kGet, 510, 8);
  feed(2, ProbeKind::kBarrier, 520, 1);
  feed(1, ProbeKind::kBarrier, 150, 4);   // PE 1 flushes window 0
  feed(2, ProbeKind::kPut, 610, 8);       // PE 2 flushes window 5
  feed(1, ProbeKind::kBarrier, 320, 2);   // PE 1 flushes window 1, below 5
  feed(1, ProbeKind::kBarrier, 330, 1'000'000);
  feed(0, ProbeKind::kBarrier, 280, 64);
  feed(2, ProbeKind::kBarrier, 190, 3);  // PE 2 flushes 6, back to window 1
  feed(0, ProbeKind::kFence, 340, 0);    // PE 0 flushes window 2, below 6

  const TimeSeriesReport got = batched.report();
  std::ostringstream got_json;
  std::ostringstream want_json;
  obs::write_timeseries_json(got_json, got);
  obs::write_timeseries_json(want_json, direct.report());
  EXPECT_EQ(got_json.str(), want_json.str());

  const obs::SeriesTimeline* barrier_ps = nullptr;
  for (const obs::SeriesTimeline& tl : got.series) {
    if (tl.name == "shmem.barrier.ps") barrier_ps = &tl;
  }
  ASSERT_NE(barrier_ps, nullptr);
  ASSERT_EQ(barrier_ps->windows.size(), dense.size());
  for (const obs::SeriesWindow& w : barrier_ps->windows) {
    const obs::Log2Histogram& h = dense.at(w.index);
    EXPECT_EQ(w.count, h.count()) << "window " << w.index;
    EXPECT_EQ(w.sum, h.sum()) << "window " << w.index;
    EXPECT_EQ(w.min, h.min()) << "window " << w.index;
    EXPECT_EQ(w.max, h.max()) << "window " << w.index;
    EXPECT_EQ((obs::LatencyQuantiles{w.p50, w.p99, w.p999}),
              obs::latency_quantiles(h))
        << "window " << w.index;
  }
}

// ===========================================================================
// Post-mortem dumps
// ===========================================================================

TEST(Blackbox, WatchdogTimeoutDumpNamesTheStuckOp) {
  tshmem::RuntimeOptions opts;
  opts.flightrec = true;
  opts.watchdog_ms = 200;
  tshmem::Runtime rt(tilesim::tile_gx36(), opts);
  bool threw = false;
  try {
    rt.run(2, [](Context& ctx) {
      long* flag = ctx.shmalloc_n<long>(1);
      *flag = 0;
      ctx.barrier_all();
      if (ctx.my_pe() == 0) {
        ctx.wait_until(flag, tshmem::Cmp::kNe, 0L);  // never satisfied
      }
    });
  } catch (const tshmem::Error& e) {
    threw = true;
    EXPECT_EQ(e.code(), tshmem::Errc::kWatchdogTimeout);
  }
  ASSERT_TRUE(threw);
  std::ostringstream os;
  ASSERT_TRUE(rt.write_blackbox(os, "unit test", 7));
  const JsonValue doc = JsonValue::parse(os.str());
  EXPECT_EQ(doc.at("schema").as_string(), "tshmem.blackbox.v1");
  EXPECT_EQ(doc.at("source").as_string(), "runtime");
  EXPECT_EQ(doc.at("errc_name").as_string(), "watchdog_timeout");
  // The aborting PE recorded a kError event at the throw site.
  bool found_error = false;
  for (const JsonValue& e : doc.at("merged").as_array()) {
    if (e.at("kind").as_string() == "error") {
      found_error = true;
      EXPECT_EQ(e.at("site").as_string(), "shmem_wait_until");
      EXPECT_EQ(e.at("pe").as_int(), 0);
      EXPECT_EQ(e.at("errc").as_int(), 7);
    }
  }
  EXPECT_TRUE(found_error);
}

TEST(Blackbox, ShardDegradationDumpsFromTheService) {
  tshmem::ClusterOptions opts;
  opts.runtime.heap_per_pe = 8 << 20;
  tshmem::Cluster cluster(tilesim::tile_gx36(), opts, 2);
  svc::ServiceConfig cfg;
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
  cfg.flightrec = true;
  // The degrade event fires early in the run; a ring deep enough to hold
  // the whole campaign keeps it visible to the end-of-run dump below.
  cfg.flightrec_capacity = 16384;
  cfg.fault_plan = tilesim::FaultPlan::parse(
      "seed=3,shard_stall=1.0:30000000000,shard_stall_shard=1");
  svc::Service service(cluster, cfg);
  const svc::ServiceReport rep = service.run();
  EXPECT_GT(rep.shed, 0u);
  std::ostringstream os;
  ASSERT_TRUE(service.write_blackbox(os, "unit test", 12));
  const JsonValue doc = JsonValue::parse(os.str());
  EXPECT_EQ(doc.at("schema").as_string(), "tshmem.blackbox.v1");
  EXPECT_EQ(doc.at("source").as_string(), "svc");
  EXPECT_EQ(doc.at("errc_name").as_string(), "shard_degraded");
  bool degraded = false;
  bool shed = false;
  for (const JsonValue& e : doc.at("merged").as_array()) {
    if (e.at("kind").as_string() == "svc_degraded") degraded = true;
    if (e.at("kind").as_string() == "svc_shed") shed = true;
  }
  EXPECT_TRUE(degraded);
  EXPECT_TRUE(shed);
}

// A Service owning both a recorder and a time series must tear down
// cleanly in any member order (tools/ci.sh runs this suite under ASan).
TEST(TimeSeries, ServiceWithWindowAndRecorderTearsDownCleanly) {
  tshmem::ClusterOptions opts;
  opts.runtime.heap_per_pe = 8 << 20;
  tshmem::Cluster cluster(tilesim::tile_gx36(), opts, 2);
  svc::ServiceConfig cfg;
  cfg.pes_per_shard = 2;
  cfg.db.images = 32;
  cfg.db.width = 16;
  cfg.db.height = 16;
  cfg.load.queries = 500;
  cfg.load.key_space = 32;
  cfg.flightrec = true;
  cfg.timeseries_window_ps = 1'000'000'000;
  TimeSeriesReport rep;
  {
    svc::Service service(cluster, cfg);
    EXPECT_EQ(service.run().completed, 500u);
    ASSERT_NE(service.flightrec(), nullptr);
    ASSERT_NE(service.timeseries(), nullptr);
    rep = service.timeseries()->report();
  }
  std::uint64_t arrivals = 0, offered = 0;
  for (const obs::SeriesTimeline& s : rep.series) {
    if (s.name == "event.svc_arrival") arrivals = s.total_count;
    if (s.name == "svc.offered") offered = s.total_count;
  }
  EXPECT_EQ(arrivals, 500u);
  EXPECT_EQ(offered, 500u);
}

// ===========================================================================
// Zero virtual cost (the contract tools/ci.sh enforces end to end)
// ===========================================================================

TEST(FlightRecorder, EndClocksBitIdenticalRecorderOnAndOff) {
  auto end_clocks = [](bool record) {
    tshmem::RuntimeOptions opts;
    opts.flightrec = record;
    if (record) opts.timeseries_window_ps = 1'000'000;
    tshmem::Runtime rt(tilesim::tile_gx36(), opts);
    std::vector<ps_t> clocks(4, 0);
    rt.run(4, [&](Context& ctx) {
      int* buf = ctx.shmalloc_n<int>(128);
      ctx.barrier_all();
      for (int round = 0; round < 4; ++round) {
        const int peer = (ctx.my_pe() + 1) % ctx.num_pes();
        std::vector<int> src(128, round);
        ctx.put(buf, src.data(), 128 * sizeof(int), peer);
        ctx.put_nbi(buf, src.data(), 64 * sizeof(int), peer);
        ctx.quiet();
        ctx.barrier_all();
      }
      ctx.shfree(buf);
      clocks[static_cast<std::size_t>(ctx.my_pe())] = ctx.clock().now();
    });
    return clocks;
  };
  const std::vector<ps_t> off = end_clocks(false);
  const std::vector<ps_t> on = end_clocks(true);
  ASSERT_EQ(off.size(), on.size());
  EXPECT_EQ(off, on);
}

}  // namespace
