// Tests for the Device/Tile runtime itself: thread binding, clock
// lifecycle and its single-owner writes, the copy-cost memo, host
// synchronization primitives (host_sync and the
// Rendezvous every host-side meeting is built on), reentrancy guards, the
// spin-then-park decision of blocking waits, and the crew of host threads
// each Device keeps from run to run.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "sim/clock.hpp"
#include "sim/device.hpp"
#include "sim/guarded_wait.hpp"
#include "sim/rendezvous.hpp"
#include "tmc/interrupt.hpp"
#include "tshmem/context.hpp"
#include "tshmem/runtime.hpp"
#include "util/rng.hpp"

namespace {

using tilesim::Device;
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

// Seeded mixes of advance, advance_to (forward and backward) and reset:
// the owner's busy and idle split its clock exactly after every step.
TEST(SimClock, BusyPlusIdleEqualsNowAfterMixedWrites) {
  SimClock c;
  tshmem_util::Xoshiro256 rng(26);
  tilesim::ps_t busy = 0;
  tilesim::ps_t idle = 0;
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t op = rng.below(100);
    if (op < 45) {
      const tilesim::ps_t d = rng.below(5000);
      c.advance(d);
      busy += d;
    } else if (op < 98) {
      // About half of the targets lie behind the clock: no-ops.
      const tilesim::ps_t now = c.now();
      const tilesim::ps_t t =
          now - std::min<tilesim::ps_t>(now, 4000) + rng.below(8000);
      if (t > now) idle += t - now;
      c.advance_to(t);
    } else {
      c.reset();
      busy = idle = 0;
    }
    ASSERT_EQ(c.busy_ps(), busy) << "step " << i;
    ASSERT_EQ(c.idle_ps(), idle) << "step " << i;
    ASSERT_EQ(c.busy_ps() + c.idle_ps(), c.now()) << "step " << i;
  }
}

// One owner thread writes the clock while other threads read it, as
// barrier releases, UDN stamps and scrapes do: every reader sees the
// clock only move forward, and the owner's split stays exact.
TEST(SimClock, ReadersSeeTheOwnersTimeOnlyMoveForward) {
  SimClock c;
  constexpr tilesim::ps_t kEnd = 2'000'000;
  std::atomic<bool> done{false};
  std::atomic<int> backwards{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      tilesim::ps_t last = 0;
      while (!done.load(std::memory_order_acquire)) {
        const tilesim::ps_t now = c.now();
        if (now < last) backwards.fetch_add(1);
        last = now;
      }
    });
  }
  tilesim::ps_t step = 0;
  while (c.now() < kEnd) {
    if (++step % 3 == 0) {
      c.advance_to(c.now() + step % 7);
    } else {
      c.advance(step % 5);
    }
  }
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  EXPECT_EQ(backwards.load(), 0);
  EXPECT_EQ(c.busy_ps() + c.idle_ps(), c.now());
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

// --- the copy-cost memo ----------------------------------------------------

// Requests that differ from the base in one field at a time: each field's
// variants follow one another, then the walk returns to the base.
std::vector<tilesim::CopyRequest> one_field_walk() {
  using tilesim::CopyRequest;
  using tilesim::Homing;
  using tilesim::MemSpace;
  CopyRequest base;
  base.bytes = 4096;
  std::vector<CopyRequest> walk{CopyRequest{}, base};
  auto vary = [&](auto&& set, auto... values) {
    for (const auto v : {values...}) {
      CopyRequest r = base;
      set(r, v);
      walk.push_back(r);
    }
    walk.push_back(base);
  };
  vary([](CopyRequest& r, std::size_t v) { r.bytes = v; }, std::size_t{0},
       std::size_t{8}, std::size_t{4097}, std::size_t{1} << 20);
  vary([](CopyRequest& r, MemSpace v) { r.src = v; }, MemSpace::kPrivate);
  vary([](CopyRequest& r, MemSpace v) { r.dst = v; }, MemSpace::kPrivate);
  vary([](CopyRequest& r, Homing v) { r.homing = v; }, Homing::kLocal,
       Homing::kRemote);
  vary([](CopyRequest& r, int v) { r.concurrent_readers = v; }, 2, 17);
  vary([](CopyRequest& r, int v) { r.concurrent_writers = v; }, 3, 36);
  return walk;
}

const tilesim::DeviceConfig* const kBothDevices[] = {&tilesim::tile_gx36(),
                                                     &tilesim::tile_pro64()};

// Tile::charge_copy keeps its last request and its cost: every charge, a
// repeat or a change of one field, moves the clock by exactly the model's
// cost of that request.
TEST(CopyMemo, EveryChargeIsTheModelsCost) {
  const auto walk = one_field_walk();
  for (const tilesim::DeviceConfig* cfg : kBothDevices) {
    Device device(*cfg);
    Tile& tile = device.tile(0);
    for (std::size_t i = 0; i < walk.size(); ++i) {
      const tilesim::ps_t want = device.mem_model().copy_cost_ps(walk[i]);
      for (int repeat = 0; repeat < 2; ++repeat) {
        const tilesim::ps_t before = tile.clock().now();
        tile.charge_copy(walk[i]);
        ASSERT_EQ(tile.clock().now() - before, want)
            << cfg->name << " request " << i << " repeat " << repeat;
      }
    }
  }
}

// An interrupt service tile is charged by whichever requester holds its
// target's lock. Three requesters walk the requests in different orders
// on one target, so its memo sees them interleaved; each charge must
// still be the model's cost.
TEST(CopyMemo, ServiceTileChargedByThreeRequesters) {
  const auto walk = one_field_walk();
  Device device(tilesim::tile_gx36());
  tmc::InterruptController intc(device);
  std::atomic<int> wrong{0};
  device.run(4, [&](Tile& tile) {
    if (tile.id() == 0) return;
    for (std::size_t i = 0; i < 3 * walk.size(); ++i) {
      const auto& req =
          walk[(i * static_cast<std::size_t>(tile.id())) % walk.size()];
      const tilesim::ps_t want = device.mem_model().copy_cost_ps(req);
      intc.raise(tile, 0, [&](Tile& service) {
        for (int repeat = 0; repeat < 2; ++repeat) {
          const tilesim::ps_t before = service.clock().now();
          service.charge_copy(req);
          if (service.clock().now() - before != want) wrong.fetch_add(1);
        }
      });
    }
  });
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(intc.serviced(0), 3 * 3 * walk.size());
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

/// One seeded draw per (seed, generation, member): every thread that asks
/// gets the same value.
std::uint64_t draw(std::uint64_t seed, int generation, int member) {
  return tshmem_util::SplitMix64(
             seed ^ static_cast<std::uint64_t>(generation) << 24 ^
             static_cast<std::uint64_t>(member) * 0x9e3779b97f4a7c15ULL)
      .next();
}

/// A late arrival: busy host time, so no clock moves and no wait starts.
void busy_for(std::chrono::nanoseconds ns) {
  const auto until = std::chrono::steady_clock::now() + ns;
  while (std::chrono::steady_clock::now() < until) {
  }
}

TEST(Rendezvous, StressEveryMemberSeesItsGenerationsMax) {
  // Seeded clocks and seeded host delays, one arrival in 16 past the 5 us
  // spin budget. The last count has more members than the host has CPUs,
  // so its waits park at once. A member that returns before its generation
  // opens, or a release that misses an arrival, sees another max; a lost
  // wake-up hangs the test until ctest's TIMEOUT fails it.
  constexpr int kGenerations = 20'000;
  const int crowd = std::min(Device::usable_cpus() + 2, 8);
  for (const int members : {2, 3, 4, crowd}) {
    SCOPED_TRACE(members);
    Device device(tilesim::tile_gx36());
    tilesim::Rendezvous meet(members, "stress",
                             tilesim::RendezvousReport::kNone);
    const std::uint64_t seed = 0x5eed00 + static_cast<std::uint64_t>(members);
    tilesim::ps_t released = 0;
    std::atomic<int> wrong{0};
    device.run(members, [&](Tile& tile) {
      const int me = tile.id();
      // Every member's clock, replayed from the seed in every thread.
      std::vector<tilesim::ps_t> clocks(static_cast<std::size_t>(members));
      for (int g = 0; g < kGenerations; ++g) {
        tilesim::ps_t want = 0;
        for (int m = 0; m < members; ++m) {
          auto& c = clocks[static_cast<std::size_t>(m)];
          c += draw(seed, g, m) % 1'000'000;
          want = std::max(want, c);
        }
        const std::uint64_t d = draw(~seed, g, me);
        busy_for(std::chrono::nanoseconds(d % 16 == 0 ? 6'000 + d % 4'000
                                                      : d % 1'000));
        tile.clock().advance_to(clocks[static_cast<std::size_t>(me)]);
        meet.arrive(tile, me,
                    [&](std::span<const tilesim::ps_t> c,
                        std::span<const int>) {
                      released = *std::max_element(c.begin(), c.end());
                    });
        if (released != want) wrong.fetch_add(1, std::memory_order_relaxed);
      }
    });
    EXPECT_EQ(wrong.load(), 0);
    EXPECT_EQ(meet.generations(), static_cast<std::uint64_t>(kGenerations));
  }
}

TEST(Rendezvous, DropRacingArrivalsCompletesTheGeneration) {
  // Member 2 leaves at a seeded moment around the survivors' first counts.
  // When it leaves last, its departure opens the generation; either way
  // the survivors then meet on their own, once per round.
  constexpr int kTrials = 500;
  constexpr int kRounds = 3;
  Device device(tilesim::tile_gx36());
  for (int trial = 0; trial < kTrials; ++trial) {
    tilesim::Rendezvous meet(3, "drop race", tilesim::RendezvousReport::kNone);
    std::atomic<int> arriving{0};
    device.run(3, [&](Tile& tile) {
      if (tile.id() == 2) {
        while (arriving.load(std::memory_order_acquire) < 2) {
          tilesim::detail::cpu_relax();
        }
        busy_for(std::chrono::nanoseconds(draw(7, trial, 2) % 4'000));
        meet.drop(2);
        return;
      }
      arriving.fetch_add(1, std::memory_order_release);
      for (int r = 0; r < kRounds; ++r) meet.arrive(tile, tile.id());
    });
    ASSERT_EQ(meet.generations(), static_cast<std::uint64_t>(kRounds))
        << "trial " << trial;
  }
}

TEST(Rendezvous, WithdrawRacingTheOpeningCountsOnce) {
  // Member 0's 1 ms watchdog fires about when member 1's arrival completes
  // the generation. Either the generation opened (its opener returns, and
  // the other member may still report its timeout) or member 0 withdrew
  // first (member 1 then waits for it and times out too). Either way the
  // arrival counts once: the next ordinary round opens exactly one
  // generation.
  constexpr int kTrials = 200;
  Device device(tilesim::tile_gx36());
  tilesim::Watchdog wd;
  wd.on_timeout = [](int, const char* what) {
    throw std::runtime_error(what);
  };
  device.attach_watchdog(&wd);
  tilesim::Rendezvous meet(2, "withdraw race",
                           tilesim::RendezvousReport::kNone);
  std::uint64_t opened = 0;
  for (int trial = 0; trial < kTrials; ++trial) {
    wd.timeout = std::chrono::milliseconds(1);
    std::atomic<int> returned{0};
    try {
      device.run(2, [&](Tile& tile) {
        if (tile.id() == 1) {
          busy_for(std::chrono::microseconds(900 + draw(9, trial, 1) % 300));
        }
        meet.arrive(tile, tile.id());
        returned.fetch_add(1, std::memory_order_relaxed);
      });
    } catch (const std::runtime_error&) {
    }
    if (returned.load() > 0) ++opened;
    ASSERT_EQ(meet.generations(), opened) << "trial " << trial;
    // An ordinary round; a double count would open it without a member,
    // and that member's wait would end in the watchdog's error.
    wd.timeout = std::chrono::seconds(10);
    std::array<tilesim::ps_t, 2> seen{};
    device.run(2, [&](Tile& tile) {
      tile.clock().advance(static_cast<tilesim::ps_t>(tile.id() + 1));
      meet.arrive(tile, tile.id(),
                  [&](std::span<const tilesim::ps_t> c, std::span<const int>) {
                    std::copy(c.begin(), c.end(), seen.begin());
                  });
    });
    ++opened;
    ASSERT_EQ(meet.generations(), opened) << "trial " << trial;
    ASSERT_EQ(seen, (std::array<tilesim::ps_t, 2>{1, 2})) << "trial " << trial;
  }
}

TEST(DeviceRuntime, RunIsNotReentrant) {
  Device device(tilesim::tile_gx36());
  device.run(1, [&](Tile&) {
    EXPECT_THROW(device.run(1, [](Tile&) {}), std::logic_error);
  });
}

TEST(DeviceCrew, SameWorkersServeConsecutiveRuns) {
  // Tile 0 runs on the caller; tiles 1.. keep their crew thread from run
  // to run, whatever the run's size.
  Device device(tilesim::tile_gx36());
  using Ids = std::array<std::thread::id, 4>;
  auto record = [&](int tiles) {
    Ids ids{};
    device.run(tiles, [&](Tile& tile) {
      ids[static_cast<std::size_t>(tile.id())] = std::this_thread::get_id();
    });
    return ids;
  };
  const Ids first = record(4);
  EXPECT_EQ(first[0], std::this_thread::get_id());
  EXPECT_EQ(std::set<std::thread::id>(first.begin(), first.end()).size(), 4u);
  for (int run = 0; run < 5; ++run) {
    EXPECT_EQ(record(4), first) << "run " << run;
    const Ids two = record(2);
    EXPECT_EQ(two[0], first[0]);
    EXPECT_EQ(two[1], first[1]);
  }
}

TEST(DeviceCrew, GrowsAndShrinksRunningEveryTileOnce) {
  // The crew grows while its older workers wait for their next job, which
  // is the moment a worker that indexed the crew's slot vector would race
  // the vector's reallocation. Three Devices give the race three chances.
  for (int round = 0; round < 3; ++round) {
    Device device(tilesim::tile_gx36());
    for (const int tiles : {2, 6, 36, 2}) {
      SCOPED_TRACE(tiles);
      std::array<std::atomic<int>, 36> ran{};
      device.run(tiles, [&](Tile& tile) {
        ran[static_cast<std::size_t>(tile.id())].fetch_add(1);
      });
      for (int t = 0; t < 36; ++t) {
        EXPECT_EQ(ran[static_cast<std::size_t>(t)].load(), t < tiles ? 1 : 0)
            << "tile " << t;
      }
    }
  }
}

TEST(DeviceCrew, ThrowingTileSurfacesAndTheNextRunStartsClean) {
  // Tile 0 throws on the caller's thread, tile 3 on a crew thread. Either
  // way run() rethrows after every tile returned, and the next run resets
  // the clocks and runs every tile again.
  for (const int dead : {0, 3}) {
    SCOPED_TRACE(dead);
    Device device(tilesim::tile_gx36());
    const std::string message = "tile " + std::to_string(dead) + " died";
    try {
      device.run(4, [&](Tile& tile) {
        tile.clock().advance(1000);
        if (tile.id() == dead) throw std::runtime_error(message);
        device.host_sync();
        device.host_sync();
      });
      FAIL() << "the tile's error was lost";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(e.what(), message);
    }
    EXPECT_EQ(Device::current(), nullptr);
    EXPECT_EQ(Device::running_tile_threads(), 0);
    std::array<std::atomic<int>, 4> ran{};
    device.run(4, [&](Tile& tile) {
      EXPECT_EQ(tile.clock().now(), 0u);
      ran[static_cast<std::size_t>(tile.id())].fetch_add(1);
      device.host_sync();
    });
    for (const auto& r : ran) EXPECT_EQ(r.load(), 1);
  }
}

TEST(DeviceCrew, NestedRunRestoresCurrentTileAndContext) {
  // PE 0 of `outer` runs on the test's thread and PE 1 on a crew thread;
  // each becomes PE 0 of a run on a runtime of its own, and gets its own
  // tile and context back afterwards.
  tshmem::Runtime outer(tilesim::tile_gx36());
  std::array<std::unique_ptr<tshmem::Runtime>, 2> inner;
  for (auto& rt : inner) {
    rt = std::make_unique<tshmem::Runtime>(tilesim::tile_gx36());
  }
  std::atomic<int> nested{0};
  outer.run(2, [&](tshmem::Context& ctx) {
    Tile* const tile = Device::current();
    ASSERT_NE(tile, nullptr);
    tshmem::Runtime& rt = *inner[static_cast<std::size_t>(ctx.my_pe())];
    rt.run(2, [&](tshmem::Context& c) {
      EXPECT_EQ(tshmem::Runtime::current(), &c);
      EXPECT_EQ(&Device::current()->device(), &rt.device());
      nested.fetch_add(1);
    });
    EXPECT_EQ(Device::current(), tile);
    EXPECT_EQ(tshmem::Runtime::current(), &ctx);
  });
  EXPECT_EQ(nested.load(), 4);
  EXPECT_EQ(Device::current(), nullptr);
  EXPECT_EQ(tshmem::Runtime::current(), nullptr);
}

TEST(DeviceCrew, DestroyedWhileItsCrewIsParked) {
  // A crew that fits on the CPUs parks once its idle spin is over; one
  // larger than the CPUs parks at once. ~Device must wake and join either:
  // a lost wake-up hangs here until ctest's TIMEOUT fails the test.
  for (const int tiles : {2, 4, 36}) {
    Device device(tilesim::tile_gx36());
    device.run(tiles, [](Tile&) {});
    busy_for(std::chrono::milliseconds(2));
  }
}

TEST(DeviceCrew, StressBackToBackRunsWithHostSyncs) {
  // Seeded run sizes of 1-4 tiles, each meeting twice: a worker that
  // started a job before its hand-off, or finished it after the caller
  // returned, shows as a wrong count.
  constexpr int kRuns = 20'000;
  Device device(tilesim::tile_gx36());
  tshmem_util::Xoshiro256 rng(0xc4e3);
  std::atomic<int> arrived{0};
  std::atomic<int> wrong{0};
  std::atomic<long long> finished{0};
  long long want = 0;
  for (int run = 0; run < kRuns; ++run) {
    const int tiles = 1 + static_cast<int>(rng.below(4));
    arrived.store(0, std::memory_order_relaxed);
    device.run(tiles, [&](Tile&) {
      arrived.fetch_add(1, std::memory_order_relaxed);
      device.host_sync();
      if (arrived.load(std::memory_order_relaxed) != tiles) {
        wrong.fetch_add(1, std::memory_order_relaxed);
      }
      device.host_sync();
      finished.fetch_add(1, std::memory_order_relaxed);
    });
    want += tiles;
    ASSERT_EQ(finished.load(std::memory_order_relaxed), want) << "run " << run;
  }
  EXPECT_EQ(wrong.load(), 0);
}

}  // namespace
