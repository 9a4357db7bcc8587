// Tests for the Device/Tile runtime itself: thread binding, clock
// lifecycle, host synchronization primitives (host_sync and the
// Rendezvous every host-side meeting is built on), reentrancy guards, the
// spin-then-park decision of blocking waits, and the ScopedTimer helper.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "sim/clock.hpp"
#include "sim/device.hpp"
#include "sim/guarded_wait.hpp"
#include "sim/rendezvous.hpp"

namespace {

using tilesim::Device;
using tilesim::ScopedTimer;
using tilesim::SimClock;
using tilesim::Tile;

TEST(SimClock, AdvanceAndAdvanceTo) {
  SimClock c;
  EXPECT_EQ(c.now(), 0u);
  c.advance(100);
  EXPECT_EQ(c.now(), 100u);
  c.advance_to(50);  // never goes backwards
  EXPECT_EQ(c.now(), 100u);
  c.advance_to(250);
  EXPECT_EQ(c.now(), 250u);
  c.reset();
  EXPECT_EQ(c.now(), 0u);
}

TEST(SimClock, ConcurrentAdvanceToIsMaxMonotone) {
  SimClock c;
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&c, t] {
      for (int i = 0; i < 1000; ++i) {
        c.advance_to(static_cast<tilesim::ps_t>(t * 1000 + i));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.now(), 7999u);
}

TEST(ScopedTimerTest, MeasuresScope) {
  SimClock c;
  tilesim::ps_t elapsed = 0;
  {
    ScopedTimer timer(c, elapsed);
    c.advance(12345);
  }
  EXPECT_EQ(elapsed, 12345u);
}

TEST(DeviceRuntime, BindsOneThreadPerTileWithCurrent) {
  Device device(tilesim::tile_gx36());
  std::mutex mu;
  std::set<std::thread::id> thread_ids;
  device.run(6, [&](Tile& tile) {
    EXPECT_EQ(Device::current(), &tile);
    EXPECT_EQ(&tile.device(), &device);
    std::scoped_lock lk(mu);
    thread_ids.insert(std::this_thread::get_id());
  });
  EXPECT_EQ(thread_ids.size(), 6u);
  EXPECT_EQ(Device::current(), nullptr);
}

TEST(DeviceRuntime, ClocksResetOnEveryRun) {
  Device device(tilesim::tile_gx36());
  device.run(2, [](Tile& tile) { tile.clock().advance(999); });
  device.run(2, [](Tile& tile) { EXPECT_EQ(tile.clock().now(), 0u); });
}

TEST(DeviceRuntime, RejectsBadActiveCounts) {
  Device device(tilesim::tile_gx36());
  EXPECT_THROW(device.run(0, [](Tile&) {}), std::invalid_argument);
  EXPECT_THROW(device.run(37, [](Tile&) {}), std::invalid_argument);
  device.run(36, [](Tile&) {});  // full mesh is fine
}

TEST(DeviceRuntime, TileAccessorBounds) {
  Device device(tilesim::tile_pro64());
  EXPECT_NO_THROW((void)device.tile(63));
  EXPECT_THROW((void)device.tile(64), std::out_of_range);
  EXPECT_THROW((void)device.tile(-1), std::out_of_range);
}

TEST(DeviceRuntime, HostSyncOutsideRunThrows) {
  Device device(tilesim::tile_gx36());
  EXPECT_THROW(device.host_sync(), std::logic_error);
}

TEST(DeviceRuntime, SyncAndResetClocksMidRun) {
  Device device(tilesim::tile_gx36());
  device.run(4, [&](Tile& tile) {
    tile.clock().advance(1'000'000 + static_cast<tilesim::ps_t>(tile.id()));
    device.sync_and_reset_clocks();
    EXPECT_EQ(tile.clock().now(), 0u);
  });
}

TEST(DeviceRuntime, ExceptionDoesNotDeadlockHostBarrierUsers) {
  // One tile dies before a host_sync; it drops out of the host barrier,
  // which keeps the survivors' rendezvous functional.
  Device device(tilesim::tile_gx36());
  EXPECT_THROW(device.run(3,
                          [&](Tile& tile) {
                            if (tile.id() == 1) {
                              throw std::runtime_error("dead tile");
                            }
                            device.host_sync();
                          }),
               std::runtime_error);
  // And the device remains usable.
  std::atomic<int> ran{0};
  device.run(3, [&](Tile&) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 3);
}

TEST(DeviceRuntime, ChargesUseConfiguredCosts) {
  Device device(tilesim::tile_gx36());
  device.run(1, [](Tile& tile) {
    const auto t0 = tile.clock().now();
    tile.charge_int_ops(7);
    tile.charge_fp_ops(3);
    tile.charge_mem_ops(2);
    tile.charge_calls(1);
    const auto& c = tile.device().config().compute;
    EXPECT_EQ(tile.clock().now() - t0,
              7 * c.int_op_ps + 3 * c.fp_op_ps + 2 * c.mem_op_ps + c.call_ps);
  });
}

TEST(SpinDecision, SpinsWhileTileThreadsFitOnCpus) {
  EXPECT_TRUE(tilesim::spin_before_park(1, 2));
  EXPECT_TRUE(tilesim::spin_before_park(2, 4));
  EXPECT_TRUE(tilesim::spin_before_park(4, 4));  // one tile per CPU
  EXPECT_TRUE(tilesim::spin_before_park(36, 64));
}

TEST(SpinDecision, ParksWhenTileThreadsOutnumberCpus) {
  EXPECT_FALSE(tilesim::spin_before_park(5, 4));
  EXPECT_FALSE(tilesim::spin_before_park(8, 4));  // 2-device x 4-PE cluster
  EXPECT_FALSE(tilesim::spin_before_park(36, 4));  // a full gx36 mesh
  EXPECT_FALSE(tilesim::spin_before_park(64, 36));
  // One CPU: the waker could only run once the spinner gives it up.
  EXPECT_FALSE(tilesim::spin_before_park(1, 1));
}

TEST(SpinDecision, CountsTileThreadsAcrossDevices) {
  // Tile 0 of `outer` runs a job on `inner` while tile 1 waits, so both
  // devices' tiles are running at once.
  Device outer(tilesim::tile_gx36());
  Device inner(tilesim::tile_gx36());
  EXPECT_EQ(Device::running_tile_threads(), 0);
  std::array<int, 2> seen{};
  outer.run(2, [&](Tile& tile) {
    if (tile.id() == 0) {
      inner.run(2, [&](Tile& t) {
        seen[static_cast<std::size_t>(t.id())] =
            Device::running_tile_threads();
        inner.host_sync();  // nobody leaves before everyone counted
      });
    }
    outer.host_sync();
  });
  EXPECT_EQ(seen[0], 4);
  EXPECT_EQ(seen[1], 4);
  EXPECT_EQ(Device::running_tile_threads(), 0);
  EXPECT_GE(Device::usable_cpus(), 1);
}

TEST(Rendezvous, LastArriverReleasesOverEveryArrivalByIndex) {
  // Members are numbered against tile order, so the release must see each
  // arrival in its member's slot, once per generation. What it stores
  // stays put until the reader arrives again.
  Device device(tilesim::tile_gx36());
  tilesim::Rendezvous meet(4, "test meet",
                           tilesim::RendezvousReport::kSyncAndWait);
  std::vector<tilesim::ps_t> clocks;
  std::vector<int> tiles;
  int releases = 0;
  device.run(4, [&](Tile& tile) {
    for (int round = 1; round <= 3; ++round) {
      tile.clock().advance(100 * static_cast<tilesim::ps_t>(tile.id() + 1));
      meet.arrive(tile, 3 - tile.id(),
                  [&](std::span<const tilesim::ps_t> c,
                      std::span<const int> t) {
                    clocks.assign(c.begin(), c.end());
                    tiles.assign(t.begin(), t.end());
                    ++releases;
                  });
      EXPECT_EQ(releases, round);
      const auto r = static_cast<tilesim::ps_t>(round);
      EXPECT_EQ(clocks, (std::vector<tilesim::ps_t>{400 * r, 300 * r,
                                                    200 * r, 100 * r}));
      EXPECT_EQ(tiles, (std::vector<int>{3, 2, 1, 0}));
    }
  });
  EXPECT_EQ(meet.generations(), 3u);
}

TEST(Rendezvous, DroppedMemberLetsTheRestMeet) {
  Device device(tilesim::tile_gx36());
  tilesim::Rendezvous meet(3, "test meet", tilesim::RendezvousReport::kNone);
  device.run(3, [&](Tile& tile) {
    if (tile.id() == 2) {
      meet.drop(2);
      meet.drop(2);  // leaving twice is leaving once
      return;
    }
    for (int i = 0; i < 10; ++i) meet.arrive(tile, tile.id());
  });
  EXPECT_EQ(meet.generations(), 10u);
}

TEST(Rendezvous, WatchdogWithdrawsTheArrival) {
  // Tile 1 never arrives, so tile 0's wait times out. Its arrival must not
  // linger: the next run's two arrivals make exactly one generation.
  Device device(tilesim::tile_gx36());
  tilesim::Watchdog wd;
  wd.timeout = std::chrono::milliseconds(100);
  wd.on_timeout = [](int, const char* what) {
    throw std::runtime_error(what);
  };
  device.attach_watchdog(&wd);
  tilesim::Rendezvous meet(2, "test meet", tilesim::RendezvousReport::kNone);
  EXPECT_THROW(device.run(2,
                          [&](Tile& tile) {
                            if (tile.id() == 0) meet.arrive(tile, 0);
                          }),
               std::runtime_error);
  EXPECT_EQ(meet.generations(), 0u);
  device.run(2, [&](Tile& tile) { meet.arrive(tile, tile.id()); });
  EXPECT_EQ(meet.generations(), 1u);
}

TEST(DeviceRuntime, RunIsNotReentrant) {
  Device device(tilesim::tile_gx36());
  device.run(1, [&](Tile&) {
    EXPECT_THROW(device.run(1, [](Tile&) {}), std::logic_error);
  });
}

}  // namespace
