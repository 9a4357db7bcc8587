// Tests for tshmem-check (src/analysis/): vector-clock algebra, detector
// happens-before edges (ctrl messages, quiet, rendezvous, acquire/release,
// atomics), shadow-memory byte masks, report canonicalization and
// determinism, the runtime integration (modes, env overrides, kFail), and
// the bit-identical virtual-time contract with the detector on or off.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "analysis/race.hpp"
#include "analysis/vector_clock.hpp"
#include "sim/config.hpp"
#include "tshmem/context.hpp"
#include "tshmem/runtime.hpp"
#include "util/error.hpp"

namespace {

using tshmem::Context;
using tshmem::analysis::AccessKind;
using tshmem::analysis::RaceDetector;
using tshmem::analysis::RaceMode;
using tshmem::analysis::RaceReport;
using tshmem::analysis::Epoch;
using tshmem::analysis::VectorClock;

// ===========================================================================
// VectorClock algebra
// ===========================================================================

TEST(VectorClock, TickJoinCovers) {
  VectorClock a, b;
  a.tick(0);  // a = {1, 0}
  a.tick(0);  // a = {2, 0}
  b.tick(1);  // b = {0, 1}

  EXPECT_EQ(a.at(0), 2u);
  EXPECT_EQ(a.at(1), 0u);
  EXPECT_TRUE(a.covers(Epoch{0, 2}));
  EXPECT_FALSE(a.covers(Epoch{0, 3}));
  EXPECT_FALSE(a.covers(Epoch{1, 1}));

  b.join(a);  // b = {2, 1}
  EXPECT_EQ(b.at(0), 2u);
  EXPECT_EQ(b.at(1), 1u);
  EXPECT_TRUE(b.covers(Epoch{0, 2}));
  EXPECT_TRUE(b.covers(Epoch{1, 1}));

  // join is monotone / idempotent.
  VectorClock c = b;
  c.join(a);
  EXPECT_TRUE(c == b);
}

TEST(VectorClock, EpochOf) {
  VectorClock a;
  a.tick(3);
  a.tick(3);
  const Epoch e = a.epoch_of(3);
  EXPECT_EQ(e.actor, 3);
  EXPECT_EQ(e.clk, 2u);
}

// ===========================================================================
// RaceDetector core semantics (driven directly, no Runtime)
// ===========================================================================

class DetectorTest : public ::testing::Test {
 protected:
  static constexpr int kPes = 2;
  static constexpr std::size_t kBytes = 256;

  void SetUp() override {
    det_ = std::make_unique<RaceDetector>(kPes);
    buf_.assign(kBytes, std::byte{0});
    det_->add_region(0, /*is_static=*/false, buf_.data(), kBytes);
  }

  std::unique_ptr<RaceDetector> det_;
  std::vector<std::byte> buf_;
};

TEST_F(DetectorTest, FreshClocksDoNotCoverFirstAccess) {
  // Epochs start at 1: an all-zero peer view must not cover anyone's
  // first access (otherwise two never-synchronized actors never race).
  EXPECT_EQ(det_->clock_of(0).at(0), 1u);
  EXPECT_FALSE(det_->clock_of(1).covers(Epoch{0, 1}));
}

TEST_F(DetectorTest, UnorderedWriteWriteRaces) {
  det_->on_access(0, false, AccessKind::kWrite, buf_.data(), 8, "w0", 100);
  det_->on_access(1, false, AccessKind::kWrite, buf_.data(), 8, "w1", 200);
  const auto reports = det_->reports();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].owner_pe, 0);
  EXPECT_EQ(reports[0].bytes, 8u);
}

TEST_F(DetectorTest, ReadReadNeverRaces) {
  det_->on_access(0, false, AccessKind::kRead, buf_.data(), 8, "r0", 100);
  det_->on_access(1, false, AccessKind::kRead, buf_.data(), 8, "r1", 200);
  EXPECT_TRUE(det_->reports().empty());
}

TEST_F(DetectorTest, AtomicAtomicNeverRaces) {
  det_->on_atomic(0, buf_.data(), 8, "shmem_fadd", 100);
  det_->on_atomic(1, buf_.data(), 8, "shmem_fadd", 200);
  EXPECT_TRUE(det_->reports().empty());
}

TEST_F(DetectorTest, AtomicVersusPlainWriteRaces) {
  det_->on_access(0, false, AccessKind::kWrite, buf_.data(), 8, "w", 100);
  det_->on_atomic(1, buf_.data(), 8, "shmem_fadd", 200);
  ASSERT_EQ(det_->reports().size(), 1u);
}

TEST_F(DetectorTest, DisjointBytesInOneGranuleDoNotRace) {
  // Default granule is 8 B; accesses to bytes [0,4) and [4,8) share the
  // granule but not bytes, so the byte mask must suppress the pair.
  det_->on_access(0, false, AccessKind::kWrite, buf_.data(), 4, "w0", 100);
  det_->on_access(1, false, AccessKind::kWrite, buf_.data() + 4, 4, "w1", 200);
  EXPECT_TRUE(det_->reports().empty());
}

TEST_F(DetectorTest, CtrlMessageCreatesEdge) {
  det_->on_access(0, false, AccessKind::kWrite, buf_.data(), 8, "w", 100);
  det_->on_ctrl_send(0, 1, /*queue=*/0, /*tag=*/7);
  det_->on_ctrl_consume(1, 0, /*queue=*/0, /*tag=*/7);
  det_->on_access(1, false, AccessKind::kRead, buf_.data(), 8, "r", 200);
  EXPECT_TRUE(det_->reports().empty());
}

TEST_F(DetectorTest, NbiUnorderedUntilQuiet) {
  // The DMA pseudo-actor's read of the source buffer is unordered with the
  // issuing PE's subsequent writes until on_quiet joins it back.
  det_->on_nbi_issue(0, buf_.data(), buf_.data() + 128, 8, "shmem_put_nbi",
                     100, 500);
  det_->on_access(0, false, AccessKind::kWrite, buf_.data(), 8, "reuse", 200);
  ASSERT_EQ(det_->reports().size(), 1u);
  EXPECT_TRUE(det_->reports()[0].first.via_dma ||
              det_->reports()[0].second.via_dma);
}

TEST_F(DetectorTest, QuietOrdersNbiTraffic) {
  det_->on_nbi_issue(0, buf_.data(), buf_.data() + 128, 8, "shmem_put_nbi",
                     100, 500);
  det_->on_quiet(0);
  det_->on_access(0, false, AccessKind::kWrite, buf_.data(), 8, "reuse", 600);
  EXPECT_TRUE(det_->reports().empty());
}

TEST_F(DetectorTest, RendezvousJoinsAllParticipants) {
  int dummy = 0;  // barrier identity
  det_->on_access(0, false, AccessKind::kWrite, buf_.data(), 8, "w", 100);
  det_->on_rendezvous_arrive(&dummy, 0, 0);
  det_->on_rendezvous_arrive(&dummy, 0, 1);
  det_->on_rendezvous_release(&dummy, 0, 0, kPes);
  det_->on_rendezvous_release(&dummy, 0, 1, kPes);
  det_->on_access(1, false, AccessKind::kRead, buf_.data(), 8, "r", 200);
  EXPECT_TRUE(det_->reports().empty());
}

TEST_F(DetectorTest, ReleaseAcquireOrdersFlagProtocol) {
  // Elemental put publishes on the flag granule; wait_until acquires it.
  std::byte* flag = buf_.data() + 64;
  det_->on_access(0, false, AccessKind::kWrite, buf_.data(), 8, "data", 100);
  det_->on_release(0, flag);
  det_->on_acquire(1, flag);
  det_->on_access(1, false, AccessKind::kRead, buf_.data(), 8, "r", 200);
  EXPECT_TRUE(det_->reports().empty());
}

TEST_F(DetectorTest, HeapFreeForgetsShadowState) {
  det_->on_access(0, false, AccessKind::kWrite, buf_.data(), 8, "w0", 100);
  det_->on_heap_free(buf_.data(), 64);
  det_->on_access(1, false, AccessKind::kWrite, buf_.data(), 8, "w1", 200);
  EXPECT_TRUE(det_->reports().empty());
}

TEST_F(DetectorTest, NonSymmetricAddressesIgnored) {
  int local = 0;
  det_->on_access(0, false, AccessKind::kWrite, &local, 4, "w", 100);
  det_->on_access(1, false, AccessKind::kWrite, &local, 4, "w", 200);
  EXPECT_TRUE(det_->reports().empty());
  EXPECT_EQ(det_->stats().checked_granules, 0u);
}

TEST_F(DetectorTest, GranuleOptionRespected) {
  RaceDetector::Options opts;
  opts.granule = 16;
  RaceDetector d(2, opts);
  EXPECT_EQ(d.granule(), 16u);
}

TEST_F(DetectorTest, ReportOrderCanonical) {
  // The same conflicts observed in a different order must produce the
  // same canonical report list (schedule independence).
  RaceDetector d2(kPes);
  d2.add_region(0, false, buf_.data(), kBytes);

  det_->on_access(0, false, AccessKind::kWrite, buf_.data(), 8, "w", 100);
  det_->on_access(1, false, AccessKind::kRead, buf_.data(), 8, "r", 200);
  det_->on_access(1, false, AccessKind::kWrite, buf_.data() + 32, 8, "w", 300);
  det_->on_access(0, false, AccessKind::kRead, buf_.data() + 32, 8, "r", 400);

  d2.on_access(1, false, AccessKind::kWrite, buf_.data() + 32, 8, "w", 300);
  d2.on_access(0, false, AccessKind::kRead, buf_.data() + 32, 8, "r", 400);
  d2.on_access(0, false, AccessKind::kWrite, buf_.data(), 8, "w", 100);
  d2.on_access(1, false, AccessKind::kRead, buf_.data(), 8, "r", 200);

  const auto a = det_->reports();
  const auto b = d2.reports();
  ASSERT_EQ(a.size(), 2u);
  ASSERT_EQ(b.size(), a.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(a[i] == b[i]) << "report " << i << " differs:\n  "
                              << a[i].describe() << "\n  " << b[i].describe();
  }
}

// ===========================================================================
// Runtime integration: the gallery kernels (bench/ext_races.cpp siblings)
// ===========================================================================

std::vector<RaceReport> run_checked(RaceMode mode,
                                    const std::function<void(Context&)>& fn,
                                    int npes = 2) {
  tshmem::RuntimeOptions opts;
  opts.racecheck = mode;
  tshmem::Runtime rt(tilesim::tile_gx36(), opts);
  rt.run(npes, fn);
  return rt.race_reports();
}

void put_no_barrier(Context& ctx, bool fixed) {
  auto* buf = static_cast<int*>(ctx.shmalloc(64));
  static std::atomic<int> token;
  if (ctx.my_pe() == 0) token.store(0, std::memory_order_relaxed);
  ctx.barrier_all();
  if (ctx.my_pe() == 0) {
    std::vector<int> payload(16, 7);
    ctx.put(buf, payload.data(), 64, 1);
    token.store(1, std::memory_order_release);
  }
  if (fixed) ctx.barrier_all();
  if (ctx.my_pe() == 1) {
    while (token.load(std::memory_order_acquire) == 0) {
    }
    (void)ctx.sym_load(&buf[0]);
  }
  ctx.shfree(buf);
}

TEST(RacecheckRuntime, PutBeforeBarrierFlagged) {
  const auto reports =
      run_checked(RaceMode::kReport, [](Context& c) { put_no_barrier(c, false); });
  ASSERT_FALSE(reports.empty());
  EXPECT_EQ(reports[0].owner_pe, 1);
  EXPECT_FALSE(reports[0].is_static);
  EXPECT_FALSE(reports[0].suggestion.empty());
}

TEST(RacecheckRuntime, PutWithBarrierClean) {
  const auto reports =
      run_checked(RaceMode::kReport, [](Context& c) { put_no_barrier(c, true); });
  EXPECT_TRUE(reports.empty());
}

void nbi_reuse(Context& ctx, bool fixed) {
  auto* dst = static_cast<int*>(ctx.shmalloc(64));
  auto* src = static_cast<int*>(ctx.shmalloc(64));
  ctx.barrier_all();
  if (ctx.my_pe() == 0) {
    ctx.put_nbi(dst, src, 64, 1);
    if (fixed) ctx.quiet();
    for (int i = 0; i < 16; ++i) ctx.sym_store(&src[i], i);
    if (!fixed) ctx.quiet();
  }
  ctx.barrier_all();
  ctx.shfree(src);
  ctx.shfree(dst);
}

TEST(RacecheckRuntime, NbiReuseWithoutQuietFlagged) {
  const auto reports =
      run_checked(RaceMode::kReport, [](Context& c) { nbi_reuse(c, false); });
  ASSERT_FALSE(reports.empty());
  EXPECT_TRUE(reports[0].first.via_dma || reports[0].second.via_dma);
  EXPECT_NE(reports[0].suggestion.find("quiet"), std::string::npos);
}

TEST(RacecheckRuntime, NbiReuseWithQuietClean) {
  const auto reports =
      run_checked(RaceMode::kReport, [](Context& c) { nbi_reuse(c, true); });
  EXPECT_TRUE(reports.empty());
}

void unlocked_add(Context& ctx, bool fixed) {
  auto* counter = static_cast<long*>(ctx.shmalloc(sizeof(long)));
  auto* lock = static_cast<long*>(ctx.shmalloc(sizeof(long)));
  static std::atomic<int> token;
  if (ctx.my_pe() == 0) {
    ctx.sym_store(counter, 0L);
    ctx.sym_store(lock, 0L);
    token.store(1, std::memory_order_release);
  }
  ctx.barrier_all();
  if (ctx.my_pe() == 1 || ctx.my_pe() == 2) {
    while (token.load(std::memory_order_acquire) != ctx.my_pe()) {
    }
    if (fixed) ctx.set_lock(lock);
    long v = 0;
    ctx.get(&v, counter, sizeof(long), 0);
    v += 1;
    ctx.put(counter, &v, sizeof(long), 0);
    if (fixed) ctx.clear_lock(lock);
    token.store(ctx.my_pe() + 1, std::memory_order_release);
  }
  ctx.barrier_all();
  ctx.shfree(lock);
  ctx.shfree(counter);
}

TEST(RacecheckRuntime, UnlockedAccumulateFlagged) {
  const auto reports = run_checked(
      RaceMode::kReport, [](Context& c) { unlocked_add(c, false); }, 3);
  EXPECT_FALSE(reports.empty());
}

TEST(RacecheckRuntime, LockedAccumulateClean) {
  const auto reports = run_checked(
      RaceMode::kReport, [](Context& c) { unlocked_add(c, true); }, 3);
  EXPECT_TRUE(reports.empty());
}

TEST(RacecheckRuntime, ReportsDeterministicAcrossReruns) {
  const auto a = run_checked(
      RaceMode::kReport, [](Context& c) { unlocked_add(c, false); }, 3);
  const auto b = run_checked(
      RaceMode::kReport, [](Context& c) { unlocked_add(c, false); }, 3);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(a[i] == b[i]) << "report " << i << " differs:\n  "
                              << a[i].describe() << "\n  " << b[i].describe();
  }
}

TEST(RacecheckRuntime, FailModeThrowsRaceDetected) {
  tshmem::RuntimeOptions opts;
  opts.racecheck = RaceMode::kFail;
  tshmem::Runtime rt(tilesim::tile_gx36(), opts);
  try {
    rt.run(2, [](Context& c) { put_no_barrier(c, false); });
    FAIL() << "expected Error(kRaceDetected)";
  } catch (const tshmem::Error& e) {
    EXPECT_EQ(e.code(), tshmem::Errc::kRaceDetected);
    EXPECT_NE(std::string(e.what()).find("race"), std::string::npos);
  }
}

TEST(RacecheckRuntime, OffModeCollectsNothing) {
  const auto reports = run_checked(
      RaceMode::kOff, [](Context& c) { put_no_barrier(c, false); });
  EXPECT_TRUE(reports.empty());
}

TEST(RacecheckRuntime, EnvOverridesOptions) {
  ASSERT_EQ(::setenv("TSHMEM_RACECHECK", "fail", 1), 0);
  {
    tshmem::Runtime rt(tilesim::tile_gx36());
    EXPECT_EQ(rt.racecheck_mode(), RaceMode::kFail);
  }
  ASSERT_EQ(::setenv("TSHMEM_RACECHECK", "0", 1), 0);
  {
    tshmem::RuntimeOptions opts;
    opts.racecheck = RaceMode::kReport;  // env wins
    tshmem::Runtime rt(tilesim::tile_gx36(), opts);
    EXPECT_EQ(rt.racecheck_mode(), RaceMode::kOff);
  }
  ASSERT_EQ(::unsetenv("TSHMEM_RACECHECK"), 0);
  {
    tshmem::RuntimeOptions opts;
    opts.racecheck = RaceMode::kReport;
    tshmem::Runtime rt(tilesim::tile_gx36(), opts);
    EXPECT_EQ(rt.racecheck_mode(), RaceMode::kReport);
  }
}

// ===========================================================================
// Bit-identical virtual time with the detector on or off
// ===========================================================================

TEST(RacecheckRuntime, VirtualTimeBitIdenticalOnOrOff) {
  constexpr int kPes = 4;
  const auto run_with = [&](RaceMode mode) {
    tshmem::RuntimeOptions opts;
    opts.racecheck = mode;
    tshmem::Runtime rt(tilesim::tile_gx36(), opts);
    std::vector<std::uint64_t> end_ps(kPes, 0);
    rt.run(kPes, [&](Context& ctx) {
      const int me = ctx.my_pe();
      auto* buf = static_cast<long*>(ctx.shmalloc(64 * sizeof(long)));
      ctx.barrier_all();
      // Exercise every hooked path: puts, gets, _nbi + quiet, elemental
      // put + wait_until, atomics, locks, and a collective.
      long v = me;
      ctx.put(&buf[me], &v, sizeof(long), (me + 1) % kPes);
      ctx.barrier_all();
      ctx.get(&v, &buf[me], sizeof(long), (me + 3) % kPes);
      ctx.put_nbi(&buf[8], &v, sizeof(long), (me + 1) % kPes);
      ctx.quiet();
      ctx.barrier_all();
      (void)ctx.fadd(&buf[16], 1L, 0);
      // One PE at a time: a contended set_lock retries a host-schedule-
      // dependent number of times, and each failed CAS charges virtual
      // time (docs/TIMING_MODEL.md §3, caveat 1).
      for (int turn = 0; turn < kPes; ++turn) {
        if (me == turn) {
          ctx.set_lock(&buf[24]);
          ctx.clear_lock(&buf[24]);
        }
        ctx.barrier_all();
      }
      if (me == 0) ctx.p(&buf[32], 99L, 1);
      if (me == 1) ctx.wait_until((volatile long*)&buf[32], tshmem::Cmp::kEq,
                                  99L);
      ctx.barrier_all();
      ctx.sym_store(&buf[48], v);
      ctx.barrier_all();
      ctx.reduce(&buf[40], &buf[48], 1, tshmem::RedOp::kSum,
                 tshmem::ActiveSet{0, 0, kPes});
      ctx.barrier_all();
      ctx.shfree(buf);
      end_ps[static_cast<std::size_t>(me)] = ctx.clock().now();
    });
    return end_ps;
  };
  const auto off = run_with(RaceMode::kOff);
  const auto on = run_with(RaceMode::kReport);
  for (int pe = 0; pe < kPes; ++pe) {
    EXPECT_EQ(off[static_cast<std::size_t>(pe)],
              on[static_cast<std::size_t>(pe)])
        << "virtual time diverged on pe " << pe;
    EXPECT_GT(off[static_cast<std::size_t>(pe)], 0u);
  }
}

}  // namespace
