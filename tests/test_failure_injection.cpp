// Failure-injection tests: drive the library's error paths deliberately —
// heap exhaustion, resource misuse, protocol violations, teardown checks —
// and assert the failure surfaces cleanly (documented error, no deadlock,
// runtime reusable afterwards).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <functional>
#include <vector>

#include "tshmem/context.hpp"
#include "tshmem/runtime.hpp"
#include "util/error.hpp"

namespace {

using tshmem::Context;
using tshmem::Runtime;
using tshmem::RuntimeOptions;

TEST(FailureInjection, ShmallocExhaustionReturnsNullOnEveryPe) {
  RuntimeOptions opts;
  opts.heap_per_pe = 1 << 16;  // tiny partitions
  Runtime rt(tilesim::tile_gx36(), opts);
  std::atomic<int> nulls{0};
  rt.run(4, [&](Context& ctx) {
    void* big = ctx.shmalloc(1 << 20);  // cannot fit
    if (big == nullptr) nulls.fetch_add(1);
    // The heap remains usable after the failed allocation.
    void* ok = ctx.shmalloc(128);
    EXPECT_NE(ok, nullptr);
    ctx.shfree(ok);
  });
  EXPECT_EQ(nulls.load(), 4);  // same answer everywhere: symmetry preserved
}

TEST(FailureInjection, ShreallocFailureKeepsOriginalIntact) {
  RuntimeOptions opts;
  opts.heap_per_pe = 1 << 16;
  Runtime rt(tilesim::tile_gx36(), opts);
  rt.run(2, [](Context& ctx) {
    int* p = ctx.shmalloc_n<int>(16);
    ASSERT_NE(p, nullptr);
    for (int i = 0; i < 16; ++i) p[i] = i * 3;
    void* moved = ctx.shrealloc(p, 1 << 20);  // cannot fit
    EXPECT_EQ(moved, nullptr);
    for (int i = 0; i < 16; ++i) EXPECT_EQ(p[i], i * 3);  // untouched
    ctx.shfree(p);
  });
}

TEST(FailureInjection, ExhaustedHeapRecoversAfterFree) {
  RuntimeOptions opts;
  opts.heap_per_pe = 1 << 17;
  Runtime rt(tilesim::tile_gx36(), opts);
  rt.run(2, [](Context& ctx) {
    void* a = ctx.shmalloc(100 * 1024);
    ASSERT_NE(a, nullptr);
    EXPECT_EQ(ctx.shmalloc(100 * 1024), nullptr);  // exhausted
    ctx.shfree(a);
    void* b = ctx.shmalloc(100 * 1024);  // space reclaimed
    EXPECT_NE(b, nullptr);
    ctx.shfree(b);
  });
}

TEST(FailureInjection, StaticArenaExhaustionThrows) {
  RuntimeOptions opts;
  opts.private_per_pe = 4096;
  Runtime rt(tilesim::tile_gx36(), opts);
  EXPECT_THROW(
      rt.run(2,
             [](Context& ctx) {
               (void)ctx.static_sym<std::byte>("fits", 2048);
               (void)ctx.static_sym<std::byte>("does_not", 4096);
             }),
      std::runtime_error);
  // Runtime reusable after the failed job.
  rt.run(2, [](Context& ctx) { ctx.barrier_all(); });
}

TEST(FailureInjection, FailedJobSetupLeavesRuntimeReusable) {
  // No host can back this arena, so setup fails after it has mapped the
  // symmetric partitions. The runtime must undo that mapping and the PE
  // count; a leak would make the next run fail differently, on a
  // "duplicate common-memory mapping".
  RuntimeOptions opts;
  opts.private_per_pe = std::size_t{1} << 62;
  Runtime rt(tilesim::tile_gx36(), opts);
  for (int attempt = 0; attempt < 2; ++attempt) {
    EXPECT_THROW(rt.run(2, [](Context&) {}), std::bad_alloc);
    EXPECT_EQ(rt.cmem().mapping_count(), 0u);
    EXPECT_EQ(rt.npes(), 0);
  }
}

TEST(FailureInjection, BadRacecheckGranuleRejectedAtConstruction) {
  // Caught when the Runtime is built, not by the first run's setup.
  RuntimeOptions opts;
  opts.racecheck = tshmem::analysis::RaceMode::kReport;
  opts.racecheck_granule = 3;
  EXPECT_THROW({ Runtime rt(tilesim::tile_gx36(), opts); },
               std::invalid_argument);
  opts.racecheck_granule = 8;
  ASSERT_EQ(::setenv("TSHMEM_RACECHECK_GRANULE", "3", 1), 0);
  EXPECT_THROW({ Runtime rt(tilesim::tile_gx36(), opts); },
               std::invalid_argument);
  ASSERT_EQ(::unsetenv("TSHMEM_RACECHECK_GRANULE"), 0);
  Runtime rt(tilesim::tile_gx36(), opts);
  rt.run(2, [](Context& ctx) { ctx.barrier_all(); });
}

TEST(FailureInjection, FinalizeDetectsUndrainedUdnQueue) {
  // A stray message left in a demux queue is exactly the condition the
  // paper's proposed shmem_finalize() exists to catch (SIV-E: "platform
  // instability or lockup may occur if [the UDN] is not properly
  // disengaged").
  Runtime rt(tilesim::tile_gx36());
  EXPECT_THROW(
      rt.run(2,
             [](Context& ctx) {
               ctx.barrier_all();
               if (ctx.my_pe() == 0) {
                 ctx.runtime().udn().send1(ctx.tile(), 1, 0, 0xdead);
               }
               ctx.barrier_all();
               if (ctx.my_pe() == 1) {
                 ctx.finalize();  // queue 0 still holds the stray packet
               }
             }),
      std::runtime_error);
}

TEST(FailureInjection, MismatchedCollectiveSizesCaughtByValidator) {
  RuntimeOptions opts;
  opts.validate_symmetry = true;
  Runtime rt(tilesim::tile_gx36(), opts);
  EXPECT_THROW(rt.run(3,
                      [](Context& ctx) {
                        (void)ctx.shmalloc(ctx.my_pe() == 1 ? 256 : 128);
                      }),
               std::logic_error);
}

TEST(FailureInjection, MismatchedShfreeCaughtByValidator) {
  RuntimeOptions opts;
  opts.validate_symmetry = true;
  Runtime rt(tilesim::tile_gx36(), opts);
  EXPECT_THROW(rt.run(2,
                      [](Context& ctx) {
                        void* a = ctx.shmalloc(64);
                        void* b = ctx.shmalloc(64);
                        // PEs free different blocks: asymmetric heaps ahead.
                        ctx.shfree(ctx.my_pe() == 0 ? a : b);
                      }),
               std::logic_error);
}

TEST(FailureInjection, DeadPeDoesNotHangTheJob) {
  Runtime rt(tilesim::tile_gx36());
  for (int trial = 0; trial < 3; ++trial) {
    EXPECT_THROW(rt.run(6,
                        [](Context& ctx) {
                          if (ctx.my_pe() == 3) {
                            throw std::runtime_error("injected PE death");
                          }
                          // Others do independent (non-collective) work.
                          int* p = ctx.static_sym<int>("survivor");
                          *p = ctx.my_pe();
                        }),
                 std::runtime_error);
  }
  // Full job still possible afterwards.
  rt.run(6, [](Context& ctx) { ctx.barrier_all(); });
}

TEST(FailureInjection, BounceBufferFreedEvenAcrossManyStaticTransfers) {
  // The static-static path stages through a persistent per-PE bounce slot;
  // leaking a mapping per transfer would exhaust common memory. Hammer the
  // path and verify the mapping count stays at baseline plus the one slot,
  // then that teardown returns common memory to its pre-job state.
  Runtime rt(tilesim::tile_gx36());
  const std::size_t idle = rt.cmem().mapping_count();
  rt.run(2, [](Context& ctx) {
    auto* stat = ctx.static_sym<std::byte>("bounce_hammer", 4096);
    ctx.barrier_all();
    const std::size_t baseline = ctx.runtime().cmem().mapping_count();
    if (ctx.my_pe() == 0) {
      for (int i = 0; i < 50; ++i) {
        ctx.put(stat, stat, 4096, 1);
      }
      EXPECT_EQ(ctx.runtime().cmem().mapping_count(), baseline + 1);
    }
    ctx.barrier_all();
  });
  EXPECT_EQ(rt.cmem().mapping_count(), idle);  // slot unmapped at teardown
}

TEST(FailureInjection, OversizedUdnPayloadFromApiSurfacesCleanly) {
  Runtime rt(tilesim::tile_gx36());
  rt.run(2, [](Context& ctx) {
    std::vector<std::uint64_t> words(200, 0);
    EXPECT_THROW(
        ctx.runtime().udn().send(ctx.tile(), 1, 0, words),
        std::invalid_argument);
    ctx.barrier_all();
  });
}

TEST(FailureInjection, ConcurrentRunRejectedWithStructuredError) {
  // Runtime::run while a job is already running must fail fast with the
  // documented kRunInProgress code instead of corrupting the live job's
  // partitions (docs/ROBUSTNESS.md error-code table).
  Runtime rt(tilesim::tile_gx36());
  std::atomic<int> caught{0};
  rt.run(2, [&](Context& ctx) {
    if (ctx.my_pe() == 0) {
      try {
        ctx.runtime().run(1, [](Context&) {});
        ADD_FAILURE() << "nested Runtime::run did not throw";
      } catch (const tshmem::Error& e) {
        EXPECT_EQ(e.code(), tshmem::Errc::kRunInProgress);
        EXPECT_NE(std::string(e.what()).find("run_in_progress"),
                  std::string::npos);
        caught.fetch_add(1);
      }
    }
    ctx.barrier_all();
  });
  EXPECT_EQ(caught.load(), 1);
  // The live job was unaffected and the runtime stays reusable.
  rt.run(2, [](Context& ctx) { ctx.barrier_all(); });
}

TEST(FailureInjection, ForeignPointerShfreeSurfacesStructuredError) {
  // shfree of memory the symmetric heap does not own is a program error
  // that must surface as kForeignFree naming the PE, not corrupt the heap.
  Runtime rt(tilesim::tile_gx36());
  rt.run(2, [](Context& ctx) {
    long local = 0;
    try {
      ctx.shfree(&local);
      ADD_FAILURE() << "foreign shfree did not throw";
    } catch (const tshmem::Error& e) {
      EXPECT_EQ(e.code(), tshmem::Errc::kForeignFree);
      const std::string what = e.what();
      EXPECT_NE(what.find("foreign_free"), std::string::npos);
      EXPECT_NE(what.find("PE " + std::to_string(ctx.my_pe())),
                std::string::npos);
    }
    // The heap survives the rejected free.
    void* ok = ctx.shmalloc(64);
    EXPECT_NE(ok, nullptr);
    EXPECT_TRUE(ctx.heap().validate());
    ctx.shfree(ok);
  });
}

/// Runs one transfer and returns the structured code it raised, or
/// Errc{} (no code) when the transfer went through.
tshmem::Errc raised(const std::function<void()>& transfer) {
  try {
    transfer();
  } catch (const tshmem::Error& e) {
    return e.code();
  }
  return tshmem::Errc{};
}

// TSHMEM_DEBUG validation (docs/ROBUSTNESS.md codes 1-3) on the static
// side: the remote range must lie inside one registered static object.
TEST(DebugValidation, StaticTransfersSurfaceStructuredErrors) {
  using tshmem::Errc;
  RuntimeOptions opts;
  opts.debug_validation = true;
  Runtime rt(tilesim::tile_gx36(), opts);
  rt.run(2, [](Context& ctx) {
    long* a = ctx.static_sym<long>("debug_a", 4);
    long* b = ctx.static_sym<long>("debug_b", 4);
    ASSERT_EQ(b, a + 4);  // adjacent: a range can run from one into b
    long local[8] = {};
    const int peer = 1 - ctx.my_pe();
    EXPECT_EQ(raised([&] { ctx.put(a, local, sizeof(long), 2); }),
              Errc::kInvalidPe);
    EXPECT_EQ(raised([&] { ctx.get(local, a, sizeof(long), -1); }),
              Errc::kInvalidPe);
    // A static local side does not make a non-symmetric remote side valid.
    EXPECT_EQ(raised([&] { ctx.put(local, a, sizeof(long), peer); }),
              Errc::kNotSymmetric);
    EXPECT_EQ(raised([&] { ctx.get(a, local, sizeof(long), peer); }),
              Errc::kNotSymmetric);
    // Inside the arena, but not inside one object.
    EXPECT_EQ(raised([&] { ctx.put(a, local, 8 * sizeof(long), peer); }),
              Errc::kOutOfBounds);
    EXPECT_EQ(raised([&] { ctx.get(local, a + 2, 4 * sizeof(long), peer); }),
              Errc::kOutOfBounds);
    EXPECT_EQ(raised([&] { ctx.put(b + 4, local, sizeof(long), peer); }),
              Errc::kOutOfBounds);
    EXPECT_EQ(raised([&] { ctx.put_nbi(a, local, 8 * sizeof(long), peer); }),
              Errc::kOutOfBounds);
    // Whole-object transfers pass.
    EXPECT_EQ(raised([&] { ctx.put(b, local, 4 * sizeof(long), peer); }),
              Errc{});
    ctx.barrier_all();
    EXPECT_EQ(raised([&] { ctx.get(local, a, 4 * sizeof(long), peer); }),
              Errc{});
    ctx.barrier_all();
  });
}

// The same codes on the heap side: the remote range must lie inside one
// live symmetric-heap allocation.
TEST(DebugValidation, HeapTransfersSurfaceStructuredErrors) {
  using tshmem::Errc;
  RuntimeOptions opts;
  opts.debug_validation = true;
  Runtime rt(tilesim::tile_gx36(), opts);
  rt.run(2, [](Context& ctx) {
    long* d = ctx.shmalloc_n<long>(4);
    std::vector<long> local(64, 0);
    const int peer = 1 - ctx.my_pe();
    EXPECT_EQ(raised([&] { ctx.put(d, local.data(), sizeof(long), 2); }),
              Errc::kInvalidPe);
    EXPECT_EQ(raised([&] { ctx.get(local.data(), d, sizeof(long), -1); }),
              Errc::kInvalidPe);
    EXPECT_EQ(raised([&] {
                ctx.get(d, local.data(), sizeof(long), peer);
              }),
              Errc::kNotSymmetric);
    EXPECT_EQ(raised([&] {
                ctx.put(d, local.data(), local.size() * sizeof(long), peer);
              }),
              Errc::kOutOfBounds);
    EXPECT_EQ(raised([&] {
                ctx.get_nbi(local.data(), d + 2, 32 * sizeof(long), peer);
              }),
              Errc::kOutOfBounds);
    EXPECT_EQ(raised([&] {
                ctx.put(d, local.data(), 4 * sizeof(long), peer);
              }),
              Errc{});
    ctx.barrier_all();
    ctx.shfree(d);
  });
}

TEST(FailureInjection, InterruptPathUnavailableMidAlgorithmOnPro) {
  // A Pro job that mixes dynamic traffic (fine) with one static transfer
  // (unsupported) must fail on the static transfer only, after the dynamic
  // traffic completed correctly.
  Runtime rt(tilesim::tile_pro64());
  std::atomic<bool> dynamic_ok{false};
  EXPECT_THROW(
      rt.run(2,
             [&](Context& ctx) {
               long* dyn = ctx.shmalloc_n<long>(1);
               long* stat = ctx.static_sym<long>("pro_mixed");
               *dyn = 0;
               ctx.barrier_all();
               if (ctx.my_pe() == 0) {
                 ctx.p(dyn, 42L, 1);
                 ctx.quiet();
                 dynamic_ok.store(true);
                 ctx.put(stat, dyn, sizeof(long), 1);  // throws here
               } else {
                 ctx.wait(dyn, 0L);
                 EXPECT_EQ(*dyn, 42L);
               }
             }),
      std::runtime_error);
  EXPECT_TRUE(dynamic_ok.load());
}

}  // namespace
