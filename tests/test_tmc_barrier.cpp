// Tests for TMC spin/sync barriers: real rendezvous semantics plus the
// Fig 5 latency models, and the interrupt controller.
#include <gtest/gtest.h>

#include <atomic>
#include <string_view>
#include <vector>

#include "obs/flightrec.hpp"
#include "sim/device.hpp"
#include "tmc/barrier.hpp"
#include "tmc/interrupt.hpp"
#include "tshmem/context.hpp"
#include "tshmem/runtime.hpp"

namespace {

using tilesim::Device;
using tilesim::Tile;
using tmc::SpinBarrier;
using tmc::SyncBarrier;
using tmc::VtBarrier;

TEST(VtBarrier, RendezvousIsReal) {
  Device device(tilesim::tile_gx36());
  VtBarrier barrier(4, [](tilesim::ps_t t, int) { return t; });
  std::atomic<int> before{0};
  std::atomic<int> after{0};
  device.run(4, [&](Tile& tile) {
    before.fetch_add(1);
    barrier.wait(tile);
    // Every tile must observe all arrivals before any release.
    EXPECT_EQ(before.load(), 4);
    after.fetch_add(1);
  });
  EXPECT_EQ(after.load(), 4);
}

TEST(VtBarrier, ReleasesAtMaxArrivalPlusModel) {
  Device device(tilesim::tile_gx36());
  VtBarrier barrier(3, [](tilesim::ps_t t, int n) {
    return t + static_cast<tilesim::ps_t>(n) * 1000;
  });
  device.run(3, [&](Tile& tile) {
    tile.clock().advance(static_cast<tilesim::ps_t>(tile.id()) * 500'000);
    barrier.wait(tile);
    EXPECT_EQ(tile.clock().now(), 1'000'000u + 3'000u);  // max + 3*1000
  });
}

TEST(VtBarrier, ReusableAcrossGenerations) {
  Device device(tilesim::tile_gx36());
  VtBarrier barrier(4, [](tilesim::ps_t t, int) { return t + 100; });
  std::atomic<int> counter{0};
  device.run(4, [&](Tile& tile) {
    for (int round = 0; round < 50; ++round) {
      counter.fetch_add(1);
      barrier.wait(tile);
      // All 4 increments of this round must be visible.
      EXPECT_GE(counter.load(), (round + 1) * 4);
    }
  });
  EXPECT_EQ(counter.load(), 200);
}

TEST(VtBarrier, Validation) {
  EXPECT_THROW(VtBarrier(0, [](tilesim::ps_t t, int) { return t; }),
               std::invalid_argument);
  EXPECT_THROW(VtBarrier(2, nullptr), std::invalid_argument);
}

TEST(SpinBarrier, ModelMatchesFig5Anchors) {
  // 1.5 us @ 36 tiles on the Gx; 47.2 us @ 36 tiles on the Pro.
  const auto gx36 =
      SpinBarrier::model_latency_ps(tilesim::tile_gx36(), 36);
  EXPECT_NEAR(static_cast<double>(gx36) / 1e6, 1.5, 0.1);
  const auto pro36 =
      SpinBarrier::model_latency_ps(tilesim::tile_pro64(), 36);
  EXPECT_NEAR(static_cast<double>(pro36) / 1e6, 47.2, 1.0);
}

TEST(SyncBarrier, ModelMatchesFig5Anchors) {
  const auto gx36 =
      SyncBarrier::model_latency_ps(tilesim::tile_gx36(), 36);
  EXPECT_NEAR(static_cast<double>(gx36) / 1e6, 321.0, 5.0);
  const auto pro36 =
      SyncBarrier::model_latency_ps(tilesim::tile_pro64(), 36);
  EXPECT_NEAR(static_cast<double>(pro36) / 1e6, 786.0, 10.0);
}

TEST(Barriers, SpinBeatsSyncEverywhere) {
  for (const auto* cfg : tilesim::all_devices()) {
    for (int n = 2; n <= 36; n += 2) {
      EXPECT_LT(SpinBarrier::model_latency_ps(*cfg, n),
                SyncBarrier::model_latency_ps(*cfg, n));
    }
  }
}

TEST(Barriers, GxSpinBeatsProSpin) {
  // Fig 5: "the spin barrier for the TILE-Gx significantly outperforms the
  // TILEPro's".
  for (int n = 2; n <= 36; ++n) {
    EXPECT_LT(SpinBarrier::model_latency_ps(tilesim::tile_gx36(), n) * 5,
              SpinBarrier::model_latency_ps(tilesim::tile_pro64(), n));
  }
}

TEST(SpinBarrier, VirtualLatencyObserved) {
  Device device(tilesim::tile_gx36());
  SpinBarrier barrier(device, 8);
  device.run(8, [&](Tile& tile) {
    const auto t0 = tile.clock().now();
    barrier.wait(tile);
    const auto dt = tile.clock().now() - t0;
    EXPECT_EQ(dt, SpinBarrier::model_latency_ps(device.config(), 8));
  });
}

TEST(SpinBarrier, EveryPeBracketsEveryWait) {
  // Each PE reports one wait bracket per barrier, the last arriver too, so
  // the recorder's rings do not depend on which PE arrived last.
  constexpr int kBarriers = 200;
  tshmem::RuntimeOptions opts;
  opts.flightrec = true;
  opts.flightrec_capacity = 4096;
  opts.metrics = true;
  tshmem::Runtime rt(tilesim::tile_gx36(), opts);
  rt.run(4, [](tshmem::Context& ctx) {
    ctx.set_barrier_algo(tshmem::BarrierAlgo::kTmcSpin);
    for (int i = 0; i < kBarriers; ++i) ctx.barrier_all();
  });
  std::uint64_t spin_waits = 0;
  for (const auto& c : rt.metrics().counters) {
    if (c.name == "tmc.barrier.spin_waits") spin_waits = c.value;
  }
  EXPECT_EQ(spin_waits, 4u * kBarriers);
  for (int pe = 0; pe < 4; ++pe) {
    ASSERT_LE(rt.flightrec()->total_recorded(pe), opts.flightrec_capacity);
    int begins = 0;
    int ends = 0;
    for (const obs::FrEvent& e : rt.flightrec()->snapshot(pe)) {
      if (std::string_view(e.site) != "barrier wait") continue;
      begins += e.kind == tilesim::ProbeKind::kWaitBegin ? 1 : 0;
      ends += e.kind == tilesim::ProbeKind::kWaitEnd ? 1 : 0;
    }
    EXPECT_EQ(begins, kBarriers) << "PE " << pe;
    EXPECT_EQ(ends, kBarriers) << "PE " << pe;
  }
}

TEST(MemFence, AdvancesClockSlightly) {
  Device device(tilesim::tile_gx36());
  device.run(1, [&](Tile& tile) {
    const auto t0 = tile.clock().now();
    tmc::mem_fence(tile);
    EXPECT_GT(tile.clock().now(), t0);
    EXPECT_LT(tile.clock().now() - t0, 100'000u);  // well under 100 ns
  });
}

// --- interrupts --------------------------------------------------------------

TEST(Interrupts, SupportedOnlyOnGx) {
  Device gx(tilesim::tile_gx36());
  Device pro(tilesim::tile_pro64());
  EXPECT_TRUE(tmc::InterruptController(gx).supported());
  EXPECT_FALSE(tmc::InterruptController(pro).supported());
}

TEST(Interrupts, HandlerChargesRemoteClock) {
  Device device(tilesim::tile_gx36());
  tmc::InterruptController intc(device);
  device.run(2, [&](Tile& tile) {
    tile.device().host_sync();
    if (tile.id() == 0) {
      intc.raise(tile, 1, [&](Tile& remote) {
        EXPECT_EQ(remote.id(), 1);
        remote.clock().advance(123'000);
      });
      // Requester waits for the service completion.
      EXPECT_GE(tile.clock().now(),
                device.config().interrupt_dispatch_ps +
                    device.config().interrupt_service_ps + 123'000);
      EXPECT_EQ(intc.serviced(1), 1u);
      EXPECT_EQ(intc.serviced(0), 0u);
    }
    tile.device().host_sync();  // keep tile 1 alive until serviced
  });
}

TEST(Interrupts, RaiseOnProThrows) {
  Device pro(tilesim::tile_pro64());
  tmc::InterruptController intc(pro);
  pro.run(2, [&](Tile& tile) {
    if (tile.id() == 0) {
      EXPECT_THROW(intc.raise(tile, 1, [](Tile&) {}), std::runtime_error);
    }
  });
}

TEST(Interrupts, SelfInterruptAndBadTargetThrow) {
  Device gx(tilesim::tile_gx36());
  tmc::InterruptController intc(gx);
  gx.run(1, [&](Tile& tile) {
    EXPECT_THROW(intc.raise(tile, 0, [](Tile&) {}), std::invalid_argument);
    EXPECT_THROW(intc.raise(tile, 99, [](Tile&) {}), std::invalid_argument);
  });
}

TEST(Interrupts, SerializedPerTargetTile) {
  Device gx(tilesim::tile_gx36());
  tmc::InterruptController intc(gx);
  std::atomic<int> concurrent{0};
  std::atomic<int> max_seen{0};
  gx.run(8, [&](Tile& tile) {
    tile.device().host_sync();
    if (tile.id() != 7) {
      for (int i = 0; i < 10; ++i) {
        intc.raise(tile, 7, [&](Tile&) {
          const int now = concurrent.fetch_add(1) + 1;
          int prev = max_seen.load();
          while (now > prev && !max_seen.compare_exchange_weak(prev, now)) {
          }
          concurrent.fetch_sub(1);
        });
      }
    }
    tile.device().host_sync();
    if (tile.id() == 0) {
      EXPECT_EQ(max_seen.load(), 1);  // one handler at a time
      EXPECT_EQ(intc.serviced(7), 70u);
    }
  });
}

// Three PEs put into a static object on PE 0, each put an interrupt
// serviced on PE 0's behalf, while PE 0 runs puts of its own. The
// requesters write only their own clocks and PE 0's service clock, one at
// a time under PE 0's lock: PE 0's own clock ends exactly where it ends
// with no requester at all, and every clock's busy and idle add up.
struct ClockSplit {
  tilesim::ps_t now, busy, idle;
  friend bool operator==(const ClockSplit&, const ClockSplit&) = default;
};

TEST(Interrupts, RequestersNeverChargeTheTargetsClock) {
  constexpr int kPuts = 200;
  const auto run = [](bool requesters, std::uint64_t* raised,
                      std::uint64_t* serviced) {
    tshmem::Runtime rt(tilesim::tile_gx36());
    std::vector<ClockSplit> out(4);
    rt.run(4, [&](tshmem::Context& ctx) {
      const int me = ctx.my_pe();
      long* stat = ctx.static_sym<long>("interrupt_target", 4);
      long* dyn = ctx.shmalloc_n<long>(16);
      dyn[0] = me;
      ctx.barrier_all();
      for (int i = 0; i < kPuts; ++i) {
        if (me == 0) {
          ctx.put(dyn + 8, dyn, 4 * sizeof(long), 0);
        } else if (requesters) {
          ctx.put(stat + me, dyn, sizeof(long), 0);
        }
      }
      const tilesim::SimClock& c = ctx.clock();
      out[static_cast<std::size_t>(me)] = {c.now(), c.busy_ps(), c.idle_ps()};
      ctx.barrier_all();
      if (me == 0 && requesters) {
        for (int pe = 1; pe < 4; ++pe) EXPECT_EQ(stat[pe], pe);
      }
      ctx.shfree(dyn);
    });
    for (int pe = 0; pe < 4; ++pe) {
      raised[pe] = rt.interrupts().raised(pe);
    }
    *serviced = rt.interrupts().serviced(0);
    return out;
  };
  std::uint64_t raised[4];
  std::uint64_t serviced = 0;
  const std::vector<ClockSplit> alone = run(false, raised, &serviced);
  EXPECT_EQ(serviced, 0u);
  const std::vector<ClockSplit> shared = run(true, raised, &serviced);
  EXPECT_EQ(shared[0], alone[0]);
  EXPECT_EQ(raised[0], 0u);
  for (int pe = 1; pe < 4; ++pe) EXPECT_EQ(raised[pe], kPuts) << "PE " << pe;
  EXPECT_EQ(serviced, 3u * kPuts);
  for (const ClockSplit& c : shared) EXPECT_EQ(c.busy + c.idle, c.now);
}

}  // namespace
