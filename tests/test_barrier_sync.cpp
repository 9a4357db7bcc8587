// Tests for TSHMEM synchronization: the linear UDN token barrier (all
// algorithms, and its closed-form rendezvous against the token messages,
// clock for clock and record for record),
// active sets, fence/quiet, wait/wait_until, and locks.
#include <gtest/gtest.h>

#include <atomic>
#include <ostream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "obs/exporters.hpp"
#include "obs/flightrec.hpp"
#include "obs/profiler.hpp"
#include "obs/timeseries.hpp"
#include "sim/fault.hpp"
#include "tshmem/context.hpp"
#include "tshmem/runtime.hpp"
#include "tshmem/token_barrier.hpp"

namespace {

using tilesim::ps_t;
using tshmem::ActiveSet;
using tshmem::BarrierAlgo;
using tshmem::Cmp;
using tshmem::Context;
using tshmem::Runtime;

TEST(ActiveSet, MembershipAndIndexing) {
  const ActiveSet as{2, 1, 4};  // PEs 2, 4, 6, 8
  EXPECT_TRUE(as.contains(2));
  EXPECT_TRUE(as.contains(8));
  EXPECT_FALSE(as.contains(3));
  EXPECT_FALSE(as.contains(10));
  EXPECT_FALSE(as.contains(0));
  EXPECT_EQ(as.index_of(6), 2);
  EXPECT_EQ(as.pe_at(3), 8);
  EXPECT_THROW((void)as.index_of(5), std::invalid_argument);
  EXPECT_THROW((void)as.pe_at(4), std::out_of_range);
  EXPECT_EQ(as.members(), (std::vector<int>{2, 4, 6, 8}));
}

TEST(ActiveSet, IdsDifferAcrossShapes) {
  EXPECT_NE((ActiveSet{0, 0, 4}).id(), (ActiveSet{0, 0, 8}).id());
  EXPECT_NE((ActiveSet{0, 1, 4}).id(), (ActiveSet{0, 0, 4}).id());
  EXPECT_NE((ActiveSet{1, 0, 4}).id(), (ActiveSet{0, 0, 4}).id());
}

class BarrierAlgoTest : public ::testing::TestWithParam<BarrierAlgo> {};

TEST_P(BarrierAlgoTest, BarrierAllIsARealRendezvous) {
  Runtime rt(tilesim::tile_gx36());
  std::atomic<int> phase_count{0};
  rt.run(8, [&](Context& ctx) {
    ctx.set_barrier_algo(GetParam());
    for (int round = 1; round <= 10; ++round) {
      phase_count.fetch_add(1);
      ctx.barrier_all();
      EXPECT_GE(phase_count.load(), round * 8);
    }
  });
  EXPECT_EQ(phase_count.load(), 80);
}

TEST_P(BarrierAlgoTest, OrdersPutsBeforeReads) {
  Runtime rt(tilesim::tile_gx36());
  rt.run(6, [&](Context& ctx) {
    ctx.set_barrier_algo(GetParam());
    long* data = ctx.shmalloc_n<long>(1);
    *data = -1;
    ctx.barrier_all();
    for (long round = 0; round < 20; ++round) {
      ctx.p(data, round * 100 + ctx.my_pe(), (ctx.my_pe() + 1) % 6);
      ctx.barrier_all();
      EXPECT_EQ(*data, round * 100 + (ctx.my_pe() + 5) % 6);
      ctx.barrier_all();
    }
    ctx.shfree(data);
  });
}

INSTANTIATE_TEST_SUITE_P(AllAlgos, BarrierAlgoTest,
                         ::testing::Values(BarrierAlgo::kLinearToken,
                                           BarrierAlgo::kBroadcastRelease,
                                           BarrierAlgo::kTmcSpin));

TEST(Barrier, ActiveSetSubsetOnlySyncsMembers) {
  Runtime rt(tilesim::tile_gx36());
  std::atomic<int> inside{0};
  rt.run(8, [&](Context& ctx) {
    const ActiveSet evens{0, 1, 4};  // PEs 0, 2, 4, 6
    if (evens.contains(ctx.my_pe())) {
      inside.fetch_add(1);
      ctx.barrier(evens);
      EXPECT_GE(inside.load(), 4);
    }
    // Odd PEs proceed without ever entering the barrier.
    ctx.harness_sync();
  });
}

TEST(Barrier, StridedActiveSet) {
  Runtime rt(tilesim::tile_gx36());
  rt.run(9, [&](Context& ctx) {
    const ActiveSet quads{0, 2, 3};  // PEs 0, 4, 8
    if (quads.contains(ctx.my_pe())) {
      for (int i = 0; i < 5; ++i) ctx.barrier(quads);
    }
    ctx.harness_sync();
  });
}

TEST(Barrier, NonMemberCallThrows) {
  Runtime rt(tilesim::tile_gx36());
  EXPECT_THROW(rt.run(4,
                      [](Context& ctx) {
                        const ActiveSet as{0, 0, 2};
                        ctx.barrier(as);  // PEs 2 and 3 are not members
                      }),
               std::invalid_argument);
}

TEST(Barrier, SinglePeBarrierIsLocal) {
  Runtime rt(tilesim::tile_gx36());
  rt.run(3, [](Context& ctx) {
    const ActiveSet self{ctx.my_pe(), 0, 1};
    ctx.barrier(self);  // must not deadlock or message anyone
    ctx.barrier_all();
  });
}

TEST(Barrier, VirtualLatencyBestWorstSpread) {
  // Fig 8 shape: the start tile exits last (worst case ~ 2(n-1) links), a
  // mid-chain tile exits earlier (best case), with roughly 2x spread.
  Runtime rt(tilesim::tile_gx36());
  std::vector<tilesim::ps_t> elapsed(16);
  rt.run(16, [&](Context& ctx) {
    ctx.barrier_all();  // warm
    ctx.harness_sync_reset();
    const auto t0 = ctx.clock().now();
    ctx.barrier_all();
    elapsed[static_cast<std::size_t>(ctx.my_pe())] = ctx.clock().now() - t0;
    ctx.harness_sync();
  });
  const auto [mn, mx] = std::minmax_element(elapsed.begin(), elapsed.end());
  EXPECT_GT(*mx, *mn);
  EXPECT_EQ(elapsed[0], *mx);  // the start tile leaves last
  EXPECT_NEAR(static_cast<double>(*mx) / static_cast<double>(*mn), 2.0, 0.6);
}

TEST(Barrier, TshmemBeatsTmcSpinOnProButNotOnGx) {
  // Fig 8: on the TILEPro the UDN token barrier (~3 us @ 36 tiles) crushes
  // the TMC spin barrier (47.2 us); on the Gx, TMC spin stays faster.
  auto worst_latency = [](const tilesim::DeviceConfig& cfg, BarrierAlgo algo) {
    Runtime rt(cfg);
    tilesim::ps_t worst = 0;
    std::mutex mu;
    const int npes = 36;
    rt.run(npes, [&](Context& ctx) {
      ctx.set_barrier_algo(algo);
      ctx.barrier_all();
      ctx.harness_sync_reset();
      const auto t0 = ctx.clock().now();
      ctx.barrier_all();
      const auto dt = ctx.clock().now() - t0;
      std::scoped_lock lk(mu);
      worst = std::max(worst, dt);
    });
    return worst;
  };
  const auto pro_token =
      worst_latency(tilesim::tile_pro64(), BarrierAlgo::kLinearToken);
  const auto pro_spin =
      worst_latency(tilesim::tile_pro64(), BarrierAlgo::kTmcSpin);
  EXPECT_LT(pro_token * 5, pro_spin);
  const auto gx_token =
      worst_latency(tilesim::tile_gx36(), BarrierAlgo::kLinearToken);
  const auto gx_spin =
      worst_latency(tilesim::tile_gx36(), BarrierAlgo::kTmcSpin);
  EXPECT_LT(gx_spin, gx_token);
  // Anchor: Pro token barrier ~3 us at 36 tiles.
  EXPECT_NEAR(static_cast<double>(pro_token) / 1e6, 3.0, 1.0);
}

TEST(Barrier, BroadcastReleaseIsRoughlyTwiceSlower) {
  // §IV-C1: "Another design was evaluated whereby the start tile broadcasts
  // the release signal; however, latencies were two times slower."
  Runtime rt(tilesim::tile_gx36());
  tilesim::ps_t linear = 0, bcast = 0;
  rt.run(36, [&](Context& ctx) {
    for (const auto algo :
         {BarrierAlgo::kLinearToken, BarrierAlgo::kBroadcastRelease}) {
      ctx.set_barrier_algo(algo);
      ctx.barrier_all();  // warm
      ctx.harness_sync_reset();
      const auto t0 = ctx.clock().now();
      ctx.barrier_all();
      const auto dt = ctx.clock().now() - t0;
      if (ctx.my_pe() == 0) {
        (algo == BarrierAlgo::kLinearToken ? linear : bcast) = dt;
      }
      ctx.harness_sync();
    }
  });
  EXPECT_NEAR(static_cast<double>(bcast) / static_cast<double>(linear), 2.0,
              0.7);
}

// --- token rendezvous vs. token messages ----------------------------------------

TEST(TokenSchedule, TwoPeClosedFormByHand) {
  const tilesim::DeviceConfig& cfg = tilesim::tile_gx36();
  const ps_t cycle = cfg.cycle_ps();
  const ps_t f = cfg.barrier_forward_ps;
  const ps_t inject = 2 * cycle;
  // Tile 0 -> 1 is one hop right, 1 -> 0 one hop left, neither turns; the
  // second payload word adds one cycle.
  const auto bias = [&](tilesim::Dir d) {
    return static_cast<ps_t>(cfg.udn_dir_bias_ps[static_cast<int>(d)]);
  };
  const ps_t l01 =
      cfg.udn_setup_teardown_ps + cycle + bias(tilesim::Dir::kRight) + cycle;
  const ps_t l10 =
      cfg.udn_setup_teardown_ps + cycle + bias(tilesim::Dir::kLeft) + cycle;
  const int pes[] = {0, 1};

  // PE 1 arrives 1 us late, so every forward after its arrival is on the
  // critical path: WAIT 1 -> 0, RELEASE 0 -> 1, RELEASE 1 -> 0.
  const ps_t late[] = {0, 1'000'000};
  const auto t = tshmem::linear_token_schedule(late, pes, cfg);
  ASSERT_EQ(t.size(), 2u);
  EXPECT_EQ(t[1].wait_in, f + l01);
  EXPECT_EQ(t[0].wait_in, 1'000'000 + f + l10);
  EXPECT_EQ(t[1].release_in, 1'000'000 + 2 * f + l10 + l01);
  EXPECT_EQ(t[0].release_in, 1'000'000 + 3 * f + l10 + l01 + l10);

  // Simultaneous arrival: PE 1 forwards the WAIT as soon as it lands, and
  // PE 1's own WAIT injection never delays its RELEASE forward.
  const ps_t even[] = {0, 0};
  const auto u = tshmem::linear_token_schedule(even, pes, cfg);
  EXPECT_EQ(u[1].wait_in, f + l01);
  EXPECT_EQ(u[0].wait_in, 2 * f + l01 + l10);
  EXPECT_EQ(u[1].release_in, 3 * f + l01 + l10 + l01);
  EXPECT_EQ(u[0].release_in, 4 * f + 2 * l01 + 2 * l10);
  EXPECT_GT(u[1].release_in, 2 * f + l01 + inject);

  EXPECT_THROW((void)tshmem::linear_token_schedule(
                   std::span<const ps_t>(late, 1), std::span<const int>(pes, 1),
                   cfg),
               std::invalid_argument);
}

struct TokenCase {
  const char* device;  // "gx36" or "pro64"
  int npes;
  ActiveSet set;  // pe_size 0: every PE of the job
};

// gtest prints the parameter into each case's listed name. Its default
// byte dump would show the `device` pointer, which ASLR moves every run.
void PrintTo(const TokenCase& c, std::ostream* os) {
  *os << c.device << " n=" << c.npes << " {" << c.set.pe_start << ","
      << c.set.log_pe_stride << "," << c.set.pe_size << "}";
}

// Each case's listed name: device, PE count, and whether the set strides.
std::string token_case_name(const ::testing::TestParamInfo<TokenCase>& p) {
  std::string name =
      std::string(p.param.device) + "_n" + std::to_string(p.param.npes);
  if (p.param.set.pe_size != 0) name += "_strided";
  return name;
}

struct PeOutcome {
  ps_t now, busy, idle;
  std::uint64_t packets, words, hops;
  friend bool operator==(const PeOutcome&, const PeOutcome&) = default;
};

const tilesim::DeviceConfig& device_of(const TokenCase& c) {
  return std::string(c.device) == "pro64" ? tilesim::tile_pro64()
                                          : tilesim::tile_gx36();
}

// The seam that forces the per-token message path: a fault plan whose only
// fault acts on NBI descriptors, which these jobs never issue, still
// attaches a fault engine, and its verdicts act on each token send.
constexpr const char* kMessagePathPlan = "seed=1,dma_stall=0.5:1000";

// Seeded per-PE clock skew, then three barriers back to back, with the
// recorder and the time series attached. Returns every PE's final clock
// split and UDN traffic, and which host path the job took.
std::vector<PeOutcome> run_token_case(const TokenCase& c, bool messages,
                                      bool* rendezvous) {
  tshmem::RuntimeOptions opts;
  opts.flightrec = true;
  opts.timeseries_window_ps = 1'000'000;
  if (messages) opts.fault_plan = tilesim::FaultPlan::parse(kMessagePathPlan);
  Runtime rt(device_of(c), opts);
  rt.run(c.npes, [&](Context& ctx) {
    if (ctx.my_pe() == 0) *rendezvous = ctx.runtime().token_rendezvous();
    const ActiveSet as = c.set.pe_size == 0 ? ctx.world() : c.set;
    if (!as.contains(ctx.my_pe())) return;
    std::mt19937_64 rng(1000003u * static_cast<unsigned>(c.npes) +
                        static_cast<unsigned>(ctx.my_pe()));
    ctx.clock().advance(rng() % 5'000'000);  // up to 5 us of skew
    for (int i = 0; i < 3; ++i) ctx.barrier(as, BarrierAlgo::kLinearToken);
  });
  std::vector<PeOutcome> out;
  for (int pe = 0; pe < c.npes; ++pe) {
    const tilesim::SimClock& clk = rt.device().tile(pe).clock();
    const auto traffic = rt.udn().traffic(pe);
    out.push_back(PeOutcome{clk.now(), clk.busy_ps(), clk.idle_ps(),
                            traffic.packets, traffic.words, traffic.hops});
  }
  return out;
}

class TokenRendezvousTest : public ::testing::TestWithParam<TokenCase> {};

TEST_P(TokenRendezvousTest, MatchesTokenMessages) {
  // An observed runtime computes the loop in one host rendezvous; a fault
  // plan selects the per-token message path. Clocks, the busy/idle split
  // and traffic counters must agree PE for PE.
  bool on_rendezvous = false;
  bool on_messages = true;
  const auto rendezvous = run_token_case(GetParam(), false, &on_rendezvous);
  const auto messages = run_token_case(GetParam(), true, &on_messages);
  EXPECT_TRUE(on_rendezvous);
  EXPECT_FALSE(on_messages);
  ASSERT_EQ(rendezvous.size(), messages.size());
  for (std::size_t pe = 0; pe < rendezvous.size(); ++pe) {
    EXPECT_EQ(rendezvous[pe], messages[pe]) << "PE " << pe;
  }
  const ActiveSet as = GetParam().set.pe_size == 0
                           ? ActiveSet{0, 0, GetParam().npes}
                           : GetParam().set;
  // Three barriers, two tokens each, sent by every member.
  EXPECT_EQ(rendezvous[static_cast<std::size_t>(as.pe_at(0))].packets, 6u);
}

std::vector<TokenCase> token_cases() {
  std::vector<TokenCase> cases;
  const ActiveSet whole_job{0, 0, 0};
  for (const char* device : {"gx36", "pro64"}) {
    for (int n : {2, 3, 4, 7, 16, 36}) cases.push_back({device, n, whole_job});
  }
  cases.push_back({"pro64", 64, whole_job});
  cases.push_back({"gx36", 12, ActiveSet{1, 1, 5}});  // PEs 1, 3, 5, 7, 9
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Devices, TokenRendezvousTest,
                         ::testing::ValuesIn(token_cases()), token_case_name);

// The rendezvous reports every token's records itself, so every probe
// consumer keeps it. Only what acts on individual tokens takes the message
// path: a fault plan's verdicts, and the race detector's vector clocks.
TEST(TokenRendezvous, FollowsTheConsumerSet) {
  const auto rendezvous = [](const tshmem::RuntimeOptions& opts) {
    Runtime rt(tilesim::tile_gx36(), opts);
    bool on = false;
    rt.run(2, [&](Context& ctx) {
      if (ctx.my_pe() == 0) on = ctx.runtime().token_rendezvous();
      ctx.barrier_all();
    });
    return on;
  };
  tshmem::RuntimeOptions opts;
  EXPECT_TRUE(rendezvous(opts)) << "no consumer";
  opts.metrics = true;
  EXPECT_TRUE(rendezvous(opts)) << "metrics alone";
  opts = {};
  opts.flightrec = true;
  EXPECT_TRUE(rendezvous(opts)) << "flight recorder";
  opts = {};
  opts.timeseries_window_ps = 1'000'000;
  EXPECT_TRUE(rendezvous(opts)) << "time series alone";
  opts = {};
  opts.profile = true;
  EXPECT_TRUE(rendezvous(opts)) << "profiler";
  opts = {};
  opts.racecheck = tshmem::analysis::RaceMode::kReport;
  EXPECT_FALSE(rendezvous(opts)) << "race detector";
  opts = {};
  opts.fault_plan = tilesim::FaultPlan::parse(kMessagePathPlan);
  EXPECT_FALSE(rendezvous(opts)) << "fault plan";
}

// What every probe consumer keeps of one job. Its per-PE recorder rings
// hold the whole job.
struct Observed {
  bool rendezvous = false;
  std::vector<std::vector<obs::FrEvent>> rings;
  std::string timeseries;
  std::string profile;
  std::string trace;
};

constexpr std::size_t kRingCapacity = 1024;

// Gets, puts and static puts (gx36 only: the TILEPro has no static
// transfers) between seeded clock skews and barriers, over one epoch
// boundary, with the recorder, the time series, the profiler and a trace
// log attached.
Observed run_observed_case(const TokenCase& c, bool messages) {
  const bool statics = std::string(c.device) == "gx36";
  tshmem::RuntimeOptions opts;
  opts.flightrec = true;
  opts.flightrec_capacity = kRingCapacity;
  opts.timeseries_window_ps = 2'000'000;
  opts.profile = true;
  if (messages) opts.fault_plan = tilesim::FaultPlan::parse(kMessagePathPlan);
  Runtime rt(device_of(c), opts);
  obs::TraceLog log(rt.device());
  rt.device().attach_probe(&log);
  Observed out;
  rt.run(c.npes, [&](Context& ctx) {
    const int me = ctx.my_pe();
    if (me == 0) out.rendezvous = ctx.runtime().token_rendezvous();
    long* dyn = ctx.shmalloc_n<long>(8);
    long* stat = statics ? ctx.static_sym<long>("token_records", 8) : nullptr;
    ctx.barrier_all();
    const ActiveSet as = c.set.pe_size == 0 ? ctx.world() : c.set;
    std::mt19937_64 rng(7919u * static_cast<unsigned>(c.npes) +
                        static_cast<unsigned>(me));
    for (int round = 0; round < 4; ++round) {
      if (round == 2) ctx.harness_sync_reset();
      if (!as.contains(me)) continue;
      ctx.clock().advance(rng() % 3'000'000);
      // Slots 0-3 of both arrays take the previous member's puts, slot 4
      // is this PE's own get target and put source, and slot 5, which the
      // next member reads, is never written.
      const int peer = as.pe_at((as.index_of(me) + 1) % as.pe_size);
      ctx.put(dyn + round, dyn + 4, sizeof(long), peer);
      ctx.get(dyn + 4, dyn + 5, sizeof(long), peer);
      if (stat != nullptr) ctx.put(stat + round, dyn + 4, sizeof(long), peer);
      ctx.barrier(as, BarrierAlgo::kLinearToken);
    }
    ctx.barrier_all();
    ctx.shfree(dyn);
  });
  rt.device().detach_probe(&log);
  for (int pe = 0; pe < c.npes; ++pe) {
    out.rings.push_back(rt.flightrec()->snapshot(pe));
  }
  std::ostringstream ts;
  obs::write_timeseries_json(ts, rt.timeseries()->report());
  out.timeseries = ts.str();
  const obs::ProfileReport profile = rt.profiler()->report();
  std::ostringstream prof;
  obs::write_profile_json(prof, profile);
  out.profile = prof.str();
  std::ostringstream trace;
  obs::write_chrome_trace_json(trace, {log.track(0, c.device)},
                               obs::profile_flow_events(profile, 0));
  out.trace = trace.str();
  return out;
}

std::string describe(const obs::FrEvent& e) {
  std::ostringstream os;
  os << "vt=" << e.vt << " seq=" << e.seq << " pe=" << e.pe << " kind="
     << tilesim::probe_kind_name(e.kind) << " site=" << e.site
     << " peer=" << e.peer << " bytes=" << e.bytes << " errc=" << e.errc;
  return os.str();
}

class TokenRecordsTest : public ::testing::TestWithParam<TokenCase> {};

TEST_P(TokenRecordsTest, MatchTokenMessages) {
  // The rendezvous replays each token's records in the message path's
  // order, so every consumer keeps the same thing on either path.
  const Observed rendezvous = run_observed_case(GetParam(), false);
  const Observed messages = run_observed_case(GetParam(), true);
  EXPECT_TRUE(rendezvous.rendezvous);
  EXPECT_FALSE(messages.rendezvous);
  ASSERT_EQ(rendezvous.rings.size(), messages.rings.size());
  std::size_t ctrl_recvs = 0;
  for (std::size_t pe = 0; pe < messages.rings.size(); ++pe) {
    const auto& want = messages.rings[pe];
    const auto& got = rendezvous.rings[pe];
    ASSERT_LT(want.size(), kRingCapacity) << "PE " << pe << "'s ring wrapped";
    ASSERT_EQ(got.size(), want.size()) << "PE " << pe;
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(describe(got[i]), describe(want[i]))
          << "PE " << pe << " record " << i;
      if (want[i].kind == tilesim::ProbeKind::kCtrlRecv) ++ctrl_recvs;
    }
  }
  EXPECT_GT(ctrl_recvs, 0u);
  EXPECT_EQ(rendezvous.timeseries, messages.timeseries);
  EXPECT_EQ(rendezvous.profile, messages.profile);
  EXPECT_EQ(rendezvous.trace, messages.trace);
}

std::vector<TokenCase> record_cases() {
  std::vector<TokenCase> cases;
  const ActiveSet whole_job{0, 0, 0};
  for (int n : {2, 3, 4, 7, 16, 36}) cases.push_back({"gx36", n, whole_job});
  for (int n : {16, 36, 64}) cases.push_back({"pro64", n, whole_job});
  cases.push_back({"gx36", 12, ActiveSet{1, 1, 5}});  // PEs 1, 3, 5, 7, 9
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Devices, TokenRecordsTest,
                         ::testing::ValuesIn(record_cases()),
                         token_case_name);

// --- fence / quiet -------------------------------------------------------------

TEST(FenceQuiet, AdvanceClockAndKeepSemantics) {
  Runtime rt(tilesim::tile_gx36());
  rt.run(2, [](Context& ctx) {
    long* flag = ctx.shmalloc_n<long>(1);
    long* data = ctx.shmalloc_n<long>(1);
    *flag = 0;
    *data = 0;
    ctx.barrier_all();
    if (ctx.my_pe() == 0) {
      ctx.p(data, 42L, 1);
      ctx.fence();  // data must arrive before flag
      ctx.p(flag, 1L, 1);
    } else {
      ctx.wait(flag, 0L);       // block while flag == 0
      EXPECT_EQ(*data, 42L);    // fence ordered the puts
    }
    ctx.barrier_all();
    ctx.shfree(data);
    ctx.shfree(flag);
  });
}

// --- wait / wait_until ----------------------------------------------------------

TEST(WaitUntil, AllComparisons) {
  Runtime rt(tilesim::tile_gx36());
  rt.run(2, [](Context& ctx) {
    int* v = ctx.shmalloc_n<int>(6);
    for (int i = 0; i < 6; ++i) v[i] = 0;
    ctx.barrier_all();
    if (ctx.my_pe() == 0) {
      ctx.p(&v[0], 5, 1);   // EQ 5
      ctx.p(&v[1], 9, 1);   // NE 0
      ctx.p(&v[2], 7, 1);   // GT 3
      ctx.p(&v[3], -2, 1);  // LE 0 (already true? starts 0 -> LE 0 true)
      ctx.p(&v[4], -1, 1);  // LT 0
      ctx.p(&v[5], 3, 1);   // GE 3
    } else {
      ctx.wait_until(&v[0], Cmp::kEq, 5);
      ctx.wait_until(&v[1], Cmp::kNe, 0);
      ctx.wait_until(&v[2], Cmp::kGt, 3);
      ctx.wait_until(&v[3], Cmp::kLe, 0);
      ctx.wait_until(&v[4], Cmp::kLt, 0);
      ctx.wait_until(&v[5], Cmp::kGe, 3);
      EXPECT_EQ(v[0], 5);
      EXPECT_EQ(v[4], -1);
    }
    ctx.barrier_all();
    ctx.shfree(v);
  });
}

TEST(WaitUntil, VirtualClockOrdersAfterDelivery) {
  Runtime rt(tilesim::tile_gx36());
  rt.run(2, [](Context& ctx) {
    long* flag = ctx.shmalloc_n<long>(1);
    *flag = 0;
    ctx.barrier_all();
    ctx.harness_sync_reset();
    if (ctx.my_pe() == 0) {
      ctx.clock().advance(10'000'000);  // writer is 10 us into its work
      ctx.p(flag, 1L, 1);
      ctx.harness_sync();
    } else {
      ctx.wait(flag, 0L);
      // The waiter cannot observe the flag "before" it was written.
      EXPECT_GE(ctx.clock().now(), 10'000'000u);
      ctx.harness_sync();
    }
    ctx.barrier_all();
    ctx.shfree(flag);
  });
}

TEST(WaitUntil, LongLongAndShortVariants) {
  Runtime rt(tilesim::tile_gx36());
  rt.run(2, [](Context& ctx) {
    long long* a = ctx.shmalloc_n<long long>(1);
    *a = 0;
    ctx.barrier_all();
    if (ctx.my_pe() == 0) {
      ctx.p(a, 0x1234567890LL, 1);
    } else {
      ctx.wait_until(a, Cmp::kEq, 0x1234567890LL);
    }
    ctx.barrier_all();
    ctx.shfree(a);
  });
}

// --- locks ----------------------------------------------------------------------

TEST(Locks, MutualExclusionUnderContention) {
  Runtime rt(tilesim::tile_gx36());
  rt.run(8, [](Context& ctx) {
    long* lock = ctx.shmalloc_n<long>(1);
    long* counter = ctx.shmalloc_n<long>(1);
    if (ctx.my_pe() == 0) {
      *lock = 0;
      *counter = 0;
    }
    ctx.barrier_all();
    for (int i = 0; i < 25; ++i) {
      ctx.set_lock(lock);
      // Unprotected read-modify-write on PE 0's counter: correct only if
      // the lock really excludes.
      const long v = ctx.g(counter, 0);
      ctx.p(counter, v + 1, 0);
      ctx.quiet();
      ctx.clear_lock(lock);
    }
    ctx.barrier_all();
    if (ctx.my_pe() == 0) {
      EXPECT_EQ(*counter, 8 * 25);
    }
    ctx.barrier_all();
    ctx.shfree(counter);
    ctx.shfree(lock);
  });
}

TEST(Locks, TestLockReportsState) {
  Runtime rt(tilesim::tile_gx36());
  rt.run(2, [](Context& ctx) {
    long* lock = ctx.shmalloc_n<long>(1);
    if (ctx.my_pe() == 0) *lock = 0;
    ctx.barrier_all();
    if (ctx.my_pe() == 0) {
      EXPECT_EQ(ctx.test_lock(lock), 0);  // acquired
      ctx.harness_sync();
      ctx.harness_sync();
      ctx.clear_lock(lock);
    } else {
      ctx.harness_sync();
      EXPECT_EQ(ctx.test_lock(lock), 1);  // busy
      ctx.harness_sync();
    }
    ctx.barrier_all();
    ctx.shfree(lock);
  });
}

TEST(Locks, ClearByNonOwnerThrows) {
  Runtime rt(tilesim::tile_gx36());
  rt.run(2, [](Context& ctx) {
    long* lock = ctx.shmalloc_n<long>(1);
    if (ctx.my_pe() == 0) *lock = 0;
    ctx.barrier_all();
    if (ctx.my_pe() == 0) {
      ctx.set_lock(lock);
      ctx.harness_sync();
      ctx.harness_sync();
      ctx.clear_lock(lock);
    } else {
      ctx.harness_sync();
      EXPECT_THROW(ctx.clear_lock(lock), std::logic_error);
      ctx.harness_sync();
    }
    ctx.barrier_all();
    ctx.shfree(lock);
  });
}

}  // namespace
