// Tests for the virtual-time critical-path profiler (obs/profiler, ISSUE 7
// tentpole): span nesting/attribution, critical-path correctness on
// hand-built DAGs (serial chain, fork-join barrier, NBI-overlap
// self-edge), deterministic reports across host schedules, the
// zero-virtual-cost contract (profile on vs off bit-identical), the
// tshmem.profile.v1 JSON shape, the folded/flow exports, and the
// perf_run.py selftest (tshmem.bench.v1 schema logic).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "obs/exporters.hpp"
#include "obs/profiler.hpp"
#include "sim/device.hpp"
#include "sim/probe.hpp"
#include "support/json.hpp"
#include "tshmem/context.hpp"
#include "tshmem/runtime.hpp"

namespace {

using obs::JsonValue;
using obs::ProfileReport;
using obs::Profiler;
using tilesim::ProbeKind;
using tilesim::ProfPhase;
using tilesim::ps_t;

ps_t phase_total(const ProfileReport& r, ProfPhase p) {
  return r.phase_ps[static_cast<std::size_t>(p)];
}

ps_t crit_total(const ProfileReport& r, ProfPhase p) {
  return r.crit_phase_ps[static_cast<std::size_t>(p)];
}

const obs::ProfileSite* find_site(const ProfileReport& r,
                                  const std::string& phase,
                                  const std::string& site) {
  for (const auto& s : r.sites) {
    if (s.phase == phase && s.site == site) return &s;
  }
  return nullptr;
}

// ===========================================================================
// Span mechanics (profiler driven directly as a Probe)
// ===========================================================================

TEST(Profiler, SerialSpansAttributePhases) {
  tilesim::Device device(tilesim::tile_gx36());
  Profiler prof(device);
  prof.on_span_begin(0, ProbeKind::kPut, "put", 100);
  prof.on_span_end(0, 500);
  prof.on_span_begin(0, ProbeKind::kBarrier, "bar", 500);
  prof.on_span_end(0, 900);

  const ProfileReport r = prof.report();
  EXPECT_EQ(r.npes, device.tile_count());
  EXPECT_EQ(r.total_vt_ps, 900u);
  EXPECT_EQ(phase_total(r, ProfPhase::kDma), 400u);
  EXPECT_EQ(phase_total(r, ProfPhase::kBarrier), 400u);
  // [0, 100) had no open span: residual compute.
  EXPECT_EQ(phase_total(r, ProfPhase::kCompute), 100u);

  const auto* put = find_site(r, "dma", "put");
  ASSERT_NE(put, nullptr);
  EXPECT_EQ(put->calls, 1u);
  EXPECT_EQ(put->self_ps, 400u);
  EXPECT_EQ(put->total_ps, 400u);
}

TEST(Profiler, NestedSpansSplitSelfAndTotal) {
  tilesim::Device device(tilesim::tile_gx36());
  Profiler prof(device);
  prof.on_span_begin(0, ProbeKind::kBarrier, "bar", 0);
  prof.on_span_begin(0, ProbeKind::kQuiet, "quiet", 100);
  prof.on_span_end(0, 300);
  prof.on_span_end(0, 1000);

  const ProfileReport r = prof.report();
  // The innermost-phase timeline splits the interval, so per-phase totals
  // count the nested window once.
  EXPECT_EQ(phase_total(r, ProfPhase::kBarrier), 800u);
  EXPECT_EQ(phase_total(r, ProfPhase::kDma), 200u);

  const auto* bar = find_site(r, "barrier", "bar");
  ASSERT_NE(bar, nullptr);
  EXPECT_EQ(bar->self_ps, 800u);   // 1000 minus the nested 200
  EXPECT_EQ(bar->total_ps, 1000u);
  const auto* quiet = find_site(r, "dma", "quiet");
  ASSERT_NE(quiet, nullptr);
  EXPECT_EQ(quiet->self_ps, 200u);

  // Folded stacks carry the full frame chain.
  EXPECT_TRUE(r.folded.count("pe0;barrier:bar"));
  EXPECT_TRUE(r.folded.count("pe0;barrier:bar;dma:quiet"));
  EXPECT_EQ(r.folded.at("pe0;barrier:bar;dma:quiet"), 200u);
}

// ===========================================================================
// Critical path on hand-built DAGs
// ===========================================================================

TEST(Profiler, CriticalPathSerialChainHopsThroughProducers) {
  // PE0 works [0,100], PE1 waits on PE0 then works [100,300], PE2 waits on
  // PE1 then works [300,600]. The path must hop 2 <- 1 <- 0 and attribute
  // all 600 ps to the dma spans.
  tilesim::Device device(tilesim::tile_gx36());
  Profiler prof(device);
  prof.on_span_begin(0, ProbeKind::kPut, "put", 0);
  prof.on_span_end(0, 100);
  prof.on_wait_edge(1, 0, ProbeKind::kUdnRecv, "udn_recv", 0, 100);
  prof.on_span_begin(1, ProbeKind::kPut, "put", 100);
  prof.on_span_end(1, 300);
  prof.on_wait_edge(2, 1, ProbeKind::kUdnRecv, "udn_recv", 0, 300);
  prof.on_span_begin(2, ProbeKind::kPut, "put", 300);
  prof.on_span_end(2, 600);

  const ProfileReport r = prof.report();
  EXPECT_EQ(r.crit_epoch_vt_ps, 600u);
  ASSERT_EQ(r.critical_path.size(), 5u);  // 3 local + 2 wait
  EXPECT_EQ(r.critical_path.front().kind, "local");
  EXPECT_EQ(r.critical_path.front().pe, 0);
  EXPECT_EQ(r.critical_path.back().kind, "local");
  EXPECT_EQ(r.critical_path.back().pe, 2);
  // Forward order alternates local/wait; the waits carry their producers.
  EXPECT_EQ(r.critical_path[1].kind, "wait");
  EXPECT_EQ(r.critical_path[1].pe, 1);
  EXPECT_EQ(r.critical_path[1].src_pe, 0);
  EXPECT_EQ(r.critical_path[1].site, "udn_recv");
  EXPECT_EQ(r.critical_path[3].src_pe, 1);
  // Cross-PE waits are off-path (producer activity covers them): every
  // on-path picosecond lands in dma.
  EXPECT_EQ(crit_total(r, ProfPhase::kDma), 600u);
  EXPECT_EQ(r.dominant_phase, "dma");
  EXPECT_DOUBLE_EQ(r.dominant_share, 1.0);
}

TEST(Profiler, CriticalPathForkJoinBarrier) {
  // Three PEs join a barrier released at 600 by the last arriver PE1
  // (arrived 500 after computing [0,500]). The walk must route through
  // PE1: its pre-barrier compute is on-path, the other arrivals are not.
  tilesim::Device device(tilesim::tile_gx36());
  Profiler prof(device);
  prof.on_wait_edge(0, 1, ProbeKind::kBarrier, "tmc_barrier", 300, 600);
  prof.on_span_begin(1, ProbeKind::kAlloc, "work", 0);  // a compute kind
  prof.on_span_end(1, 500);
  prof.on_wait_edge(1, 1, ProbeKind::kBarrier, "tmc_barrier", 500, 600);
  prof.on_wait_edge(2, 1, ProbeKind::kBarrier, "tmc_barrier", 200, 600);

  const ProfileReport r = prof.report();
  EXPECT_EQ(r.crit_epoch_vt_ps, 600u);
  // PE1's own barrier window [500,600] is on-path (self edge), its compute
  // [0,500] fills the rest; dominant phase is compute at 5/6.
  EXPECT_EQ(crit_total(r, ProfPhase::kBarrier), 100u);
  EXPECT_EQ(crit_total(r, ProfPhase::kCompute), 500u);
  EXPECT_EQ(r.dominant_phase, "compute");
  EXPECT_NEAR(r.dominant_share, 5.0 / 6.0, 1e-9);
  bool saw_barrier_wait = false;
  for (const auto& seg : r.critical_path) {
    if (seg.kind == "wait" && seg.site == "tmc_barrier") {
      EXPECT_EQ(seg.src_pe, 1);
      saw_barrier_wait = true;
    }
  }
  EXPECT_TRUE(saw_barrier_wait);
}

TEST(Profiler, CriticalPathNbiOverlapSelfEdge) {
  // NBI overlap: PE0 issues work [0,100], then quiet() drains its own DMA
  // until 400. The drain is a self edge — on-path, attributed to dma.
  tilesim::Device device(tilesim::tile_gx36());
  Profiler prof(device);
  prof.on_span_begin(0, ProbeKind::kPutNbi, "shmem_put_nbi", 0);
  prof.on_span_end(0, 100);
  prof.on_wait_edge(0, 0, ProbeKind::kDmaDrain, "dma_drain", 100, 400);

  const ProfileReport r = prof.report();
  EXPECT_EQ(r.crit_epoch_vt_ps, 400u);
  EXPECT_EQ(crit_total(r, ProfPhase::kDma), 400u);  // 100 span + 300 drain
  EXPECT_EQ(r.dominant_phase, "dma");
  bool saw_drain = false;
  for (const auto& seg : r.critical_path) {
    if (seg.kind == "wait" && seg.site == "dma_drain") saw_drain = true;
  }
  EXPECT_TRUE(saw_drain);
}

TEST(Profiler, TopKWaitEdgesTruncatesDeterministically) {
  tilesim::Device device(tilesim::tile_gx36());
  Profiler prof(device);
  prof.set_top_k(2);
  prof.on_wait_edge(1, 0, ProbeKind::kUdnRecv, "a", 0, 500);
  prof.on_wait_edge(2, 0, ProbeKind::kUdnRecv, "b", 0, 300);
  prof.on_wait_edge(3, 0, ProbeKind::kUdnRecv, "c", 0, 100);

  const ProfileReport r = prof.report();
  ASSERT_EQ(r.top_edges.size(), 2u);
  EXPECT_EQ(r.top_edges[0].site, "a");
  EXPECT_EQ(r.top_edges[0].wait_ps, 500u);
  EXPECT_EQ(r.top_edges[1].site, "b");
}

TEST(Profiler, EpochsAccumulateAcrossClockResets) {
  tilesim::Device device(tilesim::tile_gx36());
  Profiler prof(device);
  prof.on_span_begin(0, ProbeKind::kPut, "put", 0);
  prof.on_span_end(0, 100);
  prof.on_clock_reset();  // closes epoch 1 at vt 100
  prof.on_span_begin(0, ProbeKind::kBarrier, "bar", 0);
  prof.on_span_end(0, 50);

  const ProfileReport r = prof.report();
  EXPECT_EQ(r.epochs, 2u);  // folded epoch + tail
  EXPECT_EQ(r.total_vt_ps, 150u);
  EXPECT_EQ(phase_total(r, ProfPhase::kDma), 100u);
  EXPECT_EQ(phase_total(r, ProfPhase::kBarrier), 50u);
  // The critical path keeps the longest epoch (the first, vt 100).
  EXPECT_EQ(r.crit_epoch_vt_ps, 100u);
  EXPECT_EQ(r.dominant_phase, "dma");
}

// ===========================================================================
// Runtime integration
// ===========================================================================

// Staggered compute + barriers + NBI traffic: every phase the real
// runtime instruments shows up.
void workload(tshmem::Context& ctx, std::vector<std::uint64_t>* end_ps) {
  const int npes = ctx.num_pes();
  auto* buf = static_cast<std::byte*>(ctx.shmalloc(1 << 14));
  ctx.barrier_all();
  for (int round = 0; round < 3; ++round) {
    ctx.charge_int_ops(5'000 * (ctx.my_pe() + 1));  // staggered arrivals
    ctx.put(buf, buf + (1 << 13), 1024, (ctx.my_pe() + 1) % npes);
    ctx.put_nbi(buf, buf + (1 << 13), 512, (ctx.my_pe() + 1) % npes);
    ctx.quiet();
    ctx.barrier_all();
  }
  ctx.shfree(buf);
  if (end_ps != nullptr) {
    (*end_ps)[static_cast<std::size_t>(ctx.my_pe())] = ctx.clock().now();
  }
}

TEST(Profiler, VirtualTimeBitIdenticalWithProfileOnOrOff) {
  // The zero-virtual-cost contract (same as metrics and tshmem-check):
  // identical per-PE end clocks whether the profiler observes or not.
  constexpr int kPes = 4;
  const auto run_with = [&](bool profile) {
    tshmem::RuntimeOptions opts;
    opts.profile = profile;
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

TEST(Profiler, ReportDeterministicAcrossHostSchedules) {
  // Virtual-time profiles depend only on the virtual schedule: two
  // independent runs (different host interleavings) must serialize to the
  // same bytes.
  const auto run_once = [&] {
    tshmem::RuntimeOptions opts;
    opts.profile = true;
    tshmem::Runtime rt(tilesim::tile_gx36(), opts);
    rt.run(4, [&](tshmem::Context& ctx) { workload(ctx, nullptr); });
    std::ostringstream os;
    obs::write_profile_json(os, rt.profiler()->report());
    return os.str();
  };
  const std::string a = run_once();
  const std::string b = run_once();
  EXPECT_EQ(a, b);
}

TEST(Profiler, RuntimeProfileCapturesWaitEdgesAndSpans) {
  tshmem::RuntimeOptions opts;
  opts.profile = true;
  tshmem::Runtime rt(tilesim::tile_gx36(), opts);
  rt.run(4, [&](tshmem::Context& ctx) { workload(ctx, nullptr); });
  const ProfileReport r = rt.profiler()->report();

  EXPECT_EQ(r.npes, 36);
  EXPECT_GT(r.total_vt_ps, 0u);
  EXPECT_NE(find_site(r, "dma", "shmem_put"), nullptr);
  EXPECT_NE(find_site(r, "dma", "shmem_put_nbi"), nullptr);
  EXPECT_NE(find_site(r, "dma", "shmem_quiet"), nullptr);
  EXPECT_NE(find_site(r, "barrier", "shmem_barrier"), nullptr);
  EXPECT_FALSE(r.top_edges.empty());
  EXPECT_FALSE(r.critical_path.empty());
  EXPECT_FALSE(r.dominant_phase.empty());
  EXPECT_GT(r.dominant_share, 0.0);
  EXPECT_LE(r.dominant_share, 1.0);
  // Staggered compute makes the last arriver's compute on-path; the other
  // PEs' barrier waits show as wait edges.
  EXPECT_GT(crit_total(r, ProfPhase::kCompute), 0u);
}

TEST(Profiler, EnvVarEnablesProfiler) {
  ASSERT_EQ(setenv("TSHMEM_PROFILE", "1", 1), 0);
  tshmem::Runtime rt(tilesim::tile_gx36(), {});
  EXPECT_TRUE(rt.profile_enabled());
  EXPECT_NE(rt.profiler(), nullptr);
  ASSERT_EQ(unsetenv("TSHMEM_PROFILE"), 0);
  tshmem::Runtime off(tilesim::tile_gx36(), {});
  EXPECT_FALSE(off.profile_enabled());
  EXPECT_EQ(off.profiler(), nullptr);
}

// ===========================================================================
// Exports: JSON schema shape, folded stacks, Perfetto flows
// ===========================================================================

TEST(Profiler, ProfileJsonSchemaShape) {
  tshmem::RuntimeOptions opts;
  opts.profile = true;
  tshmem::Runtime rt(tilesim::tile_gx36(), opts);
  rt.run(4, [&](tshmem::Context& ctx) { workload(ctx, nullptr); });
  std::ostringstream os;
  obs::write_profile_json(os, rt.profiler()->report());

  const JsonValue doc = JsonValue::parse(os.str());
  EXPECT_EQ(doc.at("schema").as_string(), obs::kProfileSchema);
  EXPECT_EQ(doc.at("npes").as_int(), 36);
  EXPECT_GT(doc.at("total_vt_ps").as_uint(), 0u);
  ASSERT_EQ(doc.at("phases").size(), 7u);
  EXPECT_EQ(doc.at("phases").at(std::size_t{0}).at("phase").as_string(),
            "compute");
  ASSERT_GT(doc.at("pes").size(), 0u);
  ASSERT_GT(doc.at("sites").size(), 0u);
  const JsonValue& site = doc.at("sites").at(std::size_t{0});
  EXPECT_TRUE(site.contains("phase"));
  EXPECT_TRUE(site.contains("site"));
  EXPECT_TRUE(site.contains("calls"));
  EXPECT_TRUE(site.contains("self_ps"));
  EXPECT_TRUE(site.contains("total_ps"));
  ASSERT_GT(doc.at("top_wait_edges").size(), 0u);
  const JsonValue& crit = doc.at("critical_path");
  EXPECT_GT(crit.at("epoch_vt_ps").as_uint(), 0u);
  EXPECT_FALSE(crit.at("dominant_phase").as_string().empty());
  ASSERT_GT(crit.at("segments").size(), 0u);
  const JsonValue& seg = crit.at("segments").at(std::size_t{0});
  const std::string kind = seg.at("kind").as_string();
  EXPECT_TRUE(kind == "local" || kind == "wait");
}

TEST(Profiler, FoldedExportIsFlamegraphShaped) {
  tilesim::Device device(tilesim::tile_gx36());
  Profiler prof(device);
  prof.on_span_begin(0, ProbeKind::kBarrier, "bar", 0);
  prof.on_span_begin(0, ProbeKind::kQuiet, "quiet", 100);
  prof.on_span_end(0, 300);
  prof.on_span_end(0, 1000);
  std::ostringstream os;
  obs::write_profile_folded(os, prof.report());
  const std::string out = os.str();
  EXPECT_NE(out.find("pe0;barrier:bar 800\n"), std::string::npos);
  EXPECT_NE(out.find("pe0;barrier:bar;dma:quiet 200\n"), std::string::npos);
}

TEST(Profiler, FlowEventsPairUpInTraceJson) {
  tilesim::Device device(tilesim::tile_gx36());
  Profiler prof(device);
  device.attach_probe(&prof);
  // A 50 ps first epoch: the critical path's epoch starts 50 ps in.
  device.tile(0).clock().advance(50);
  device.reset_clocks();
  prof.on_span_begin(0, ProbeKind::kPut, "put", 0);
  prof.on_span_end(0, 100);
  prof.on_wait_edge(1, 0, ProbeKind::kUdnRecv, "udn_recv", 0, 100);
  prof.on_span_begin(1, ProbeKind::kPut, "put", 100);
  prof.on_span_end(1, 300);
  device.detach_probe(&prof);

  const ProfileReport r = prof.report();
  const std::vector<obs::TraceFlow> flows =
      obs::profile_flow_events(r, /*pid=*/0);
  ASSERT_FALSE(flows.empty());
  EXPECT_EQ(flows[0].src_tile, 0);
  EXPECT_EQ(flows[0].dst_tile, 1);
  EXPECT_EQ(flows[0].src_ps, 50u);
  EXPECT_EQ(flows[0].dst_ps, 150u);

  // A track with no X events still names the tracks its flows use.
  std::ostringstream os;
  obs::write_chrome_trace_json(os, {obs::TraceTrack{0, "gx36", 36, {}}},
                               flows);
  const JsonValue doc = JsonValue::parse(os.str());
  bool saw_s = false;
  bool saw_f = false;
  std::vector<std::int64_t> named;
  for (const JsonValue& e : doc.at("traceEvents").as_array()) {
    const std::string& ph = e.at("ph").as_string();
    saw_s = saw_s || ph == "s";
    saw_f = saw_f || ph == "f";
    if (ph == "M" && e.at("name").as_string() == "thread_name") {
      named.push_back(e.at("tid").as_int());
    }
  }
  EXPECT_TRUE(saw_s);
  EXPECT_TRUE(saw_f);
  EXPECT_EQ(named, (std::vector<std::int64_t>{0, 1}));
}

TEST(Profiler, TraceAgreesWithProfileAcrossEpochs) {
  // A 3-epoch job traced and profiled at once: the trace's spans must be
  // the profile's (same calls and total per site), laid out epoch after
  // epoch with no partial overlap on any track, and every flow arrow must
  // end where a wait interval on its track ends.
  constexpr int kPes = 4;
  constexpr int kEpochs = 3;
  tshmem::RuntimeOptions opts;
  opts.profile = true;
  tshmem::Runtime rt(tilesim::tile_gx36(), opts);
  obs::TraceLog log(rt.device());
  rt.device().attach_probe(&log);
  std::vector<std::vector<ps_t>> epoch_end(kEpochs,
                                           std::vector<ps_t>(kPes, 0));
  rt.run(kPes, [&](tshmem::Context& ctx) {
    auto* buf = static_cast<std::byte*>(ctx.shmalloc(1 << 14));
    const int next = (ctx.my_pe() + 1) % ctx.num_pes();
    for (int e = 0; e < kEpochs; ++e) {
      if (e > 0) ctx.harness_sync_reset();
      ctx.charge_int_ops(5'000 * (ctx.my_pe() + 1));
      ctx.put(buf, buf + (1 << 13), 1024, next);
      ctx.put_nbi(buf, buf + (1 << 13), 512, next);
      ctx.quiet();
      ctx.barrier_all();
      ctx.broadcast(buf, buf + 64, 64, 0, ctx.world());
      if (e + 1 == kEpochs) ctx.shfree(buf);
      epoch_end[static_cast<std::size_t>(e)]
               [static_cast<std::size_t>(ctx.my_pe())] = ctx.clock().now();
    }
  });
  rt.device().detach_probe(&log);
  const ProfileReport r = rt.profiler()->report();
  const obs::TraceTrack track = log.track(0, "gx36");
  const std::vector<obs::TraceFlow> flows = obs::profile_flow_events(r, 0);
  ASSERT_EQ(r.dropped_events, 0u);
  ASSERT_EQ(r.epochs, static_cast<std::uint64_t>(kEpochs));
  ASSERT_FALSE(flows.empty());

  std::map<std::pair<std::string, std::string>,
           std::pair<std::uint64_t, ps_t>> spans;
  std::map<int, std::vector<const obs::TraceEvent*>> by_tid;
  bool saw_nbi = false;
  for (const obs::TraceEvent& e : track.events) {
    by_tid[e.tid].push_back(&e);
    const std::string cat = e.cat;
    saw_nbi = saw_nbi || cat == "nbi";
    if (cat == "wait_edge" || cat == "nbi") continue;
    auto& [calls, total] = spans[{cat, e.name}];
    calls += 1;
    total += e.end_ps - e.begin_ps;
  }
  EXPECT_TRUE(saw_nbi);
  std::map<std::pair<std::string, std::string>,
           std::pair<std::uint64_t, ps_t>> sites;
  for (const obs::ProfileSite& s : r.sites) {
    if (s.phase == "compute" && s.site == "compute") continue;  // residual
    sites[{s.phase, s.site}] = {s.calls, s.total_ps};
  }
  EXPECT_EQ(spans, sites);

  // Epoch k covers [base_k, base_k + extent_k), extent = its last clock.
  std::vector<ps_t> epoch_start{0};
  for (const auto& ends : epoch_end) {
    epoch_start.push_back(epoch_start.back() +
                          *std::max_element(ends.begin(), ends.end()));
  }
  for (const auto& [tid, events] : by_tid) {
    std::vector<ps_t> open;  // end times of the enclosing events
    for (const obs::TraceEvent* e : events) {
      while (!open.empty() && open.back() <= e->begin_ps) open.pop_back();
      EXPECT_TRUE(open.empty() || e->end_ps <= open.back())
          << "partial overlap on track " << tid << " at " << e->begin_ps;
      open.push_back(e->end_ps);
      const auto epoch = std::upper_bound(epoch_start.begin(),
                                          epoch_start.end(), e->begin_ps);
      ASSERT_NE(epoch, epoch_start.end()) << e->name << " past the run";
      EXPECT_LE(e->end_ps, *epoch) << e->name << " crosses an epoch end";
    }
  }

  for (const obs::TraceFlow& f : flows) {
    bool ends_wait = false;
    for (const obs::TraceEvent* e : by_tid[f.dst_tile]) {
      ends_wait = ends_wait || (std::string(e->cat) == "wait_edge" &&
                                e->end_ps == f.dst_ps);
    }
    EXPECT_TRUE(ends_wait) << "flow " << f.id << " to tile " << f.dst_tile;
  }

  std::ostringstream os;
  obs::write_chrome_trace_json(os, {track}, flows);
  const JsonValue doc = JsonValue::parse(os.str());
  std::set<std::int64_t> used;
  std::set<std::int64_t> named;
  for (const JsonValue& e : doc.at("traceEvents").as_array()) {
    if (e.at("ph").as_string() != "M") {
      used.insert(e.at("tid").as_int());
    } else if (e.at("name").as_string() == "thread_name") {
      named.insert(e.at("tid").as_int());
    }
  }
  EXPECT_EQ(used, named);
}

// ===========================================================================
// Perf harness (tools/perf_run.py): schema + regression logic selftest
// ===========================================================================

TEST(Profiler, PerfRunSelftestPasses) {
  const std::string cmd =
      std::string("python3 ") + TSHMEM_SOURCE_DIR
      + "/tools/perf_run.py --selftest >/dev/null 2>&1";
  EXPECT_EQ(std::system(cmd.c_str()), 0);
}

}  // namespace
