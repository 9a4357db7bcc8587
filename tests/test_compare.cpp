// Tests for the §VI comparison baselines: the two-sided MsgPassing layer
// (send/recv matching, staging semantics, collectives) and the ForkJoin
// layer (static scheduling, fork/join cost model), plus the symmetry
// validator added to the TSHMEM runtime.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <string>

#include "compare/fork_join.hpp"
#include "compare/msg_passing.hpp"
#include "tshmem/context.hpp"
#include "tshmem/runtime.hpp"

namespace {

using compare::ForkJoin;
using compare::MsgPassing;
using tilesim::Device;
using tilesim::Tile;

class MsgPassingTest : public ::testing::Test {
 protected:
  Device device_{tilesim::tile_gx36()};
  tmc::CommonMemory cmem_{16 << 20};
};

TEST_F(MsgPassingTest, SendRecvRoundTrip) {
  MsgPassing mp(device_, cmem_, 2, 4096);
  device_.run(2, [&](Tile& tile) {
    std::vector<std::byte> buf(100);
    if (tile.id() == 0) {
      for (int i = 0; i < 100; ++i) buf[i] = static_cast<std::byte>(i);
      mp.send(tile, 1, 7, buf);
    } else {
      std::vector<std::byte> out(256);
      const std::size_t n = mp.recv(tile, 0, 7, out);
      EXPECT_EQ(n, 100u);
      EXPECT_EQ(out[42], std::byte{42});
    }
  });
}

TEST_F(MsgPassingTest, RendezvousBlocksSenderUntilRecv) {
  // Causal, not timed: the receiver sleeps, then raises a flag just before
  // it calls recv(). The ack releasing the sender is enqueued inside
  // recv(), so a rendezvous send returns only after the flag is up. A send
  // that did not block would return during the sleep and see it down.
  MsgPassing mp(device_, cmem_, 2, 4096);
  constexpr auto kRecvDelay = std::chrono::milliseconds(10);
  std::atomic<bool> receiving{false};
  device_.run(2, [&](Tile& tile) {
    std::vector<std::byte> buf(8);
    if (tile.id() == 0) {
      mp.send(tile, 1, 1, buf);
      EXPECT_TRUE(receiving.load(std::memory_order_acquire));
    } else {
      // Deliberate delay so a send that does not block returns first; not
      // a wait loop, so the Watchdog wrapper does not apply.
      std::this_thread::sleep_for(kRecvDelay);  // tshmem-lint: allow(R002)
      receiving.store(true, std::memory_order_release);
      std::vector<std::byte> out(8);
      (void)mp.recv(tile, 0, 1, out);
    }
  });
}

TEST_F(MsgPassingTest, ValidationErrors) {
  MsgPassing mp(device_, cmem_, 2, 64);
  EXPECT_THROW(MsgPassing(device_, cmem_, 0, 64), std::invalid_argument);
  device_.run(2, [&](Tile& tile) {
    std::vector<std::byte> big(100);
    if (tile.id() == 0) {
      EXPECT_THROW(mp.send(tile, 1, 0, big), std::length_error);
      EXPECT_THROW(mp.send(tile, 9, 0, {}), std::invalid_argument);
      std::vector<std::byte> ok(32);
      mp.send(tile, 1, 0, ok);
    } else {
      std::vector<std::byte> tiny(8);
      EXPECT_THROW((void)mp.recv(tile, 0, 0, tiny), std::length_error);
    }
  });
}

TEST_F(MsgPassingTest, BcastDeliversFromAnyRoot) {
  MsgPassing mp(device_, cmem_, 6, 1024);
  for (const int root : {0, 3}) {
    device_.run(6, [&](Tile& tile) {
      std::vector<std::byte> data(64);
      if (tile.id() == root) {
        for (int i = 0; i < 64; ++i) data[i] = static_cast<std::byte>(i + 1);
      }
      mp.bcast(tile, root, data);
      for (int i = 0; i < 64; ++i) {
        ASSERT_EQ(data[i], static_cast<std::byte>(i + 1))
            << "tile " << tile.id() << " root " << root;
      }
      mp.barrier(tile);
    });
  }
}

TEST_F(MsgPassingTest, ReduceSumMatchesClosedForm) {
  MsgPassing mp(device_, cmem_, 7, 1024);
  device_.run(7, [&](Tile& tile) {
    std::vector<long> vals(5);
    for (int i = 0; i < 5; ++i) vals[static_cast<std::size_t>(i)] = tile.id() + i;
    mp.reduce_sum(tile, 0, vals);
    if (tile.id() == 0) {
      for (int i = 0; i < 5; ++i) {
        EXPECT_EQ(vals[static_cast<std::size_t>(i)], 21 + 7 * i);  // sum(0..6)
      }
    }
    mp.barrier(tile);
  });
}

TEST_F(MsgPassingTest, BarrierIsRendezvous) {
  MsgPassing mp(device_, cmem_, 8, 64);
  std::atomic<int> count{0};
  device_.run(8, [&](Tile& tile) {
    for (int round = 1; round <= 4; ++round) {
      count.fetch_add(1);
      mp.barrier(tile);
      EXPECT_GE(count.load(), round * 8);
    }
  });
}

TEST_F(MsgPassingTest, TwoSidedCostsMoreThanOneSidedPut) {
  // The §VI comparison in miniature: the same 256 kB payload moved by a
  // TSHMEM put vs a send/recv pair — the two-sided path pays two copies
  // plus a rendezvous.
  constexpr std::size_t kBytes = 256 * 1024;
  tilesim::ps_t two_sided = 0;
  {
    MsgPassing mp(device_, cmem_, 2, kBytes);
    device_.run(2, [&](Tile& tile) {
      std::vector<std::byte> buf(kBytes);
      device_.sync_and_reset_clocks();
      if (tile.id() == 0) {
        mp.send(tile, 1, 0, buf);
        two_sided = tile.clock().now();
      } else {
        (void)mp.recv(tile, 0, 0, buf);
      }
      device_.host_sync();
    });
  }
  tilesim::ps_t one_sided = 0;
  tshmem::Runtime rt(tilesim::tile_gx36());
  rt.run(2, [&](tshmem::Context& ctx) {
    auto* sym = static_cast<std::byte*>(ctx.shmalloc(kBytes));
    std::vector<std::byte> local(kBytes);
    ctx.barrier_all();
    ctx.harness_sync_reset();
    if (ctx.my_pe() == 0) {
      ctx.put(sym, local.data(), kBytes, 1);
      one_sided = ctx.clock().now();
    }
    ctx.harness_sync();
    ctx.shfree(sym);
  });
  EXPECT_GT(two_sided, one_sided * 3 / 2);  // >= 1.5x
}

// --- fork-join ------------------------------------------------------------------

TEST(ForkJoinTest, StaticSchedulingCoversRangeExactlyOnce) {
  Device device(tilesim::tile_gx36());
  ForkJoin fj(device, 6);
  std::vector<std::atomic<int>> hits(100);
  device.run(6, [&](Tile& tile) {
    fj.parallel_for(tile, 100, [&](std::size_t b, std::size_t e, Tile&) {
      for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
    });
  });
  for (int i = 0; i < 100; ++i) EXPECT_EQ(hits[static_cast<std::size_t>(i)].load(), 1);
}

TEST(ForkJoinTest, HandlesFewerItemsThanThreads) {
  Device device(tilesim::tile_gx36());
  ForkJoin fj(device, 8);
  std::atomic<int> total{0};
  device.run(8, [&](Tile& tile) {
    fj.parallel_for(tile, 3, [&](std::size_t b, std::size_t e, Tile&) {
      total.fetch_add(static_cast<int>(e - b));
    });
  });
  EXPECT_EQ(total.load(), 3);
}

TEST(ForkJoinTest, ForkAndJoinCostsCharged) {
  Device device(tilesim::tile_gx36());
  ForkJoin fj(device, 4);
  device.run(4, [&](Tile& tile) {
    device.sync_and_reset_clocks();
    fj.parallel_for(tile, 4, [](std::size_t, std::size_t, Tile&) {});
    // Everyone leaves at/after the sync-barrier release, which itself sits
    // after the last worker's staggered wake-up.
    const auto min_expected =
        3 * compare::ForkJoinConfig{}.wake_per_worker_ps;
    EXPECT_GT(tile.clock().now(), min_expected);
    device.host_sync();
  });
}

TEST(ForkJoinTest, MissingThreadTripsWatchdog) {
  // Tile 1 never enters the region: tile 0's fork wait must end in the
  // device watchdog's error, not hang.
  Device device(tilesim::tile_gx36());
  tilesim::Watchdog wd;
  wd.timeout = std::chrono::milliseconds(300);
  wd.on_timeout = [](int tile, const char* what) {
    throw std::runtime_error("watchdog: tile " + std::to_string(tile) +
                             " stuck in " + what);
  };
  device.attach_watchdog(&wd);
  ForkJoin fj(device, 2);
  try {
    device.run(2, [&](Tile& tile) {
      if (tile.id() == 0) {
        fj.parallel_for(tile, 8, [](std::size_t, std::size_t, Tile&) {});
      }
    });
    FAIL() << "a missing thread did not trip the watchdog";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("watchdog: tile 0"),
              std::string::npos)
        << e.what();
  }
}

TEST(ForkJoinTest, RejectsBadThreadCount) {
  Device device(tilesim::tile_gx36());
  EXPECT_THROW(ForkJoin(device, 0), std::invalid_argument);
  EXPECT_THROW(ForkJoin(device, 37), std::invalid_argument);
}

// --- symmetry validator ------------------------------------------------------------

TEST(SymmetryValidation, AcceptsMatchingRejectsDivergent) {
  tshmem::RuntimeOptions opts;
  opts.validate_symmetry = true;
  {
    tshmem::Runtime rt(tilesim::tile_gx36(), opts);
    rt.run(4, [](tshmem::Context& ctx) {
      int* p = ctx.shmalloc_n<int>(64);  // identical on all PEs: fine
      ctx.shfree(p);
    });
  }
  {
    tshmem::Runtime rt(tilesim::tile_gx36(), opts);
    EXPECT_THROW(rt.run(4,
                        [](tshmem::Context& ctx) {
                          // PE-dependent size: the SIV-A violation.
                          (void)ctx.shmalloc(64 +
                                             static_cast<std::size_t>(
                                                 ctx.my_pe()));
                        }),
                 std::logic_error);
  }
}

}  // namespace
