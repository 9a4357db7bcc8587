// Tests for collectives: broadcast (push/pull/binomial), collect/fcollect
// (naive/ring), and reductions (naive/recursive-doubling) across element
// types, operators, active sets, and PE counts.
#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <type_traits>
#include <vector>

#include "tshmem/context.hpp"
#include "tshmem/runtime.hpp"

namespace {

using tshmem::ActiveSet;
using tshmem::BcastAlgo;
using tshmem::CollectAlgo;
using tshmem::Context;
using tshmem::RedOp;
using tshmem::ReduceAlgo;
using tshmem::Runtime;

// gtest names each case by dumping its bytes, so the case structs spell out
// their padding as zeroed members: implicit padding holds stale memory and
// would make the test names change from run to run.

// --- broadcast -----------------------------------------------------------------

struct BcastCase {
  BcastAlgo algo;
  std::uint8_t pad[3];
  int npes;
  int root_index;
};
static_assert(std::has_unique_object_representations_v<BcastCase>);

class BroadcastTest : public ::testing::TestWithParam<BcastCase> {};

TEST_P(BroadcastTest, DeliversRootDataToAllMembers) {
  const auto p = GetParam();
  Runtime rt(tilesim::tile_gx36());
  rt.run(p.npes, [&](Context& ctx) {
    const ActiveSet as{0, 0, p.npes};
    const int root = as.pe_at(p.root_index);
    int* data = ctx.shmalloc_n<int>(128);
    for (int i = 0; i < 128; ++i) {
      data[i] = ctx.my_pe() == root ? 9000 + i : -1;
    }
    ctx.barrier_all();
    ctx.broadcast(data, data, 128 * sizeof(int), p.root_index, as, p.algo);
    ctx.barrier_all();
    if (ctx.my_pe() == root) {
      // OpenSHMEM: the root's target is not written by broadcast.
      for (int i = 0; i < 128; ++i) EXPECT_EQ(data[i], 9000 + i);
    } else {
      for (int i = 0; i < 128; ++i) EXPECT_EQ(data[i], 9000 + i);
    }
    ctx.shfree(data);
  });
}

INSTANTIATE_TEST_SUITE_P(
    AlgoSweep, BroadcastTest,
    ::testing::Values(BcastCase{BcastAlgo::kPush, {}, 2, 0},
                      BcastCase{BcastAlgo::kPush, {}, 7, 3},
                      BcastCase{BcastAlgo::kPush, {}, 16, 0},
                      BcastCase{BcastAlgo::kPull, {}, 2, 1},
                      BcastCase{BcastAlgo::kPull, {}, 9, 4},
                      BcastCase{BcastAlgo::kPull, {}, 16, 0},
                      BcastCase{BcastAlgo::kBinomial, {}, 2, 0},
                      BcastCase{BcastAlgo::kBinomial, {}, 8, 5},
                      BcastCase{BcastAlgo::kBinomial, {}, 13, 7},
                      BcastCase{BcastAlgo::kBinomial, {}, 16, 15}));

TEST(Broadcast, SeparateTargetAndSourceBuffers) {
  Runtime rt(tilesim::tile_gx36());
  rt.run(5, [](Context& ctx) {
    double* src = ctx.shmalloc_n<double>(32);
    double* dst = ctx.shmalloc_n<double>(32);
    for (int i = 0; i < 32; ++i) {
      src[i] = ctx.my_pe() == 2 ? i * 1.5 : -1.0;
      dst[i] = -2.0;
    }
    ctx.barrier_all();
    ctx.broadcast(dst, src, 32 * sizeof(double), 2, ctx.world(),
                  BcastAlgo::kPull);
    ctx.barrier_all();
    if (ctx.my_pe() != 2) {
      for (int i = 0; i < 32; ++i) EXPECT_EQ(dst[i], i * 1.5);
    } else {
      for (int i = 0; i < 32; ++i) EXPECT_EQ(dst[i], -2.0);  // untouched
    }
    ctx.shfree(dst);
    ctx.shfree(src);
  });
}

TEST(Broadcast, ActiveSetSubsetUntouchedOutside) {
  Runtime rt(tilesim::tile_gx36());
  rt.run(8, [](Context& ctx) {
    const ActiveSet evens{0, 1, 4};  // 0, 2, 4, 6
    long* data = ctx.shmalloc_n<long>(8);
    for (int i = 0; i < 8; ++i) data[i] = ctx.my_pe() == 0 ? 500 + i : -1;
    ctx.barrier_all();
    if (evens.contains(ctx.my_pe())) {
      ctx.broadcast(data, data, 8 * sizeof(long), 0, evens, BcastAlgo::kPull);
    }
    ctx.harness_sync();
    if (evens.contains(ctx.my_pe()) && ctx.my_pe() != 0) {
      for (int i = 0; i < 8; ++i) EXPECT_EQ(data[i], 500 + i);
    } else if (!evens.contains(ctx.my_pe())) {
      for (int i = 0; i < 8; ++i) EXPECT_EQ(data[i], -1);
    }
    ctx.harness_sync();
    ctx.shfree(data);
  });
}

TEST(Broadcast, Validation) {
  Runtime rt(tilesim::tile_gx36());
  rt.run(4, [](Context& ctx) {
    int* buf = ctx.shmalloc_n<int>(4);
    ctx.barrier_all();
    EXPECT_THROW(
        ctx.broadcast(buf, buf, 16, 7, ctx.world(), BcastAlgo::kPull),
        std::out_of_range);
    if (ctx.my_pe() >= 2) {
      // Non-members of {0,0,2} must be rejected before any communication.
      EXPECT_THROW(ctx.broadcast(buf, buf, 16, 0, ActiveSet{0, 0, 2},
                                 BcastAlgo::kPull),
                   std::invalid_argument);
    }
    ctx.barrier_all();
    ctx.shfree(buf);
  });
}

TEST(Broadcast, PushSerializesOnRootInVirtualTime) {
  // Fig 9 vs Fig 10 mechanism: the push root's elapsed time grows with the
  // member count, while pull members work concurrently.
  Runtime rt(tilesim::tile_gx36());
  constexpr std::size_t kBytes = 256 * 1024;
  auto root_elapsed = [&](BcastAlgo algo, int npes) {
    tilesim::ps_t elapsed = 0;
    rt.run(npes, [&](Context& ctx) {
      auto* buf = static_cast<std::byte*>(ctx.shmalloc(kBytes));
      ctx.barrier_all();
      ctx.harness_sync_reset();
      const auto t0 = ctx.clock().now();
      ctx.broadcast(buf, buf, kBytes, 0, ctx.world(), algo);
      if (ctx.my_pe() == 0) elapsed = ctx.clock().now() - t0;
      ctx.harness_sync();
      ctx.shfree(buf);
    });
    return elapsed;
  };
  const auto push8 = root_elapsed(BcastAlgo::kPush, 8);
  const auto push16 = root_elapsed(BcastAlgo::kPush, 16);
  EXPECT_NEAR(static_cast<double>(push16) / static_cast<double>(push8),
              15.0 / 7.0, 0.3);  // root cost ~ (n-1) puts
  const auto pull8 = root_elapsed(BcastAlgo::kPull, 8);
  const auto pull16 = root_elapsed(BcastAlgo::kPull, 16);
  // Pull's wall time grows only through contention, much slower than 2x.
  EXPECT_LT(static_cast<double>(pull16) / static_cast<double>(pull8), 1.8);
  EXPECT_LT(pull16, push16);
}

// --- fcollect / collect ---------------------------------------------------------

struct CollectCase {
  CollectAlgo algo;
  std::uint8_t pad[3];
  int npes;
};
static_assert(std::has_unique_object_representations_v<CollectCase>);

class FcollectTest : public ::testing::TestWithParam<CollectCase> {};

TEST_P(FcollectTest, ConcatenatesFixedBlocksInPeOrder) {
  const auto p = GetParam();
  Runtime rt(tilesim::tile_gx36());
  rt.run(p.npes, [&](Context& ctx) {
    constexpr int kElems = 16;
    const int n = ctx.num_pes();
    int* src = ctx.shmalloc_n<int>(kElems);
    int* dst = ctx.shmalloc_n<int>(static_cast<std::size_t>(n) * kElems);
    for (int i = 0; i < kElems; ++i) src[i] = ctx.my_pe() * 1000 + i;
    ctx.barrier_all();
    ctx.fcollect(dst, src, kElems * sizeof(int), ctx.world(), p.algo);
    ctx.barrier_all();
    for (int pe = 0; pe < n; ++pe) {
      for (int i = 0; i < kElems; ++i) {
        ASSERT_EQ(dst[pe * kElems + i], pe * 1000 + i)
            << "pe=" << pe << " i=" << i << " on " << ctx.my_pe();
      }
    }
    ctx.shfree(dst);
    ctx.shfree(src);
  });
}

INSTANTIATE_TEST_SUITE_P(
    AlgoSweep, FcollectTest,
    ::testing::Values(CollectCase{CollectAlgo::kNaive, {}, 1},
                      CollectCase{CollectAlgo::kNaive, {}, 2},
                      CollectCase{CollectAlgo::kNaive, {}, 6},
                      CollectCase{CollectAlgo::kNaive, {}, 16},
                      CollectCase{CollectAlgo::kRing, {}, 2},
                      CollectCase{CollectAlgo::kRing, {}, 6},
                      CollectCase{CollectAlgo::kRing, {}, 16}));

TEST(Collect, VariableSizedContributions) {
  Runtime rt(tilesim::tile_gx36());
  rt.run(6, [](Context& ctx) {
    const int n = ctx.num_pes();
    // PE p contributes p+1 ints.
    const int mine = ctx.my_pe() + 1;
    const int total = n * (n + 1) / 2;
    int* src = ctx.shmalloc_n<int>(static_cast<std::size_t>(n));
    int* dst = ctx.shmalloc_n<int>(static_cast<std::size_t>(total));
    for (int i = 0; i < mine; ++i) src[i] = ctx.my_pe() * 100 + i;
    ctx.barrier_all();
    ctx.collect(dst, src, static_cast<std::size_t>(mine) * sizeof(int),
                ctx.world());
    ctx.barrier_all();
    int off = 0;
    for (int pe = 0; pe < n; ++pe) {
      for (int i = 0; i < pe + 1; ++i) {
        ASSERT_EQ(dst[off], pe * 100 + i) << "pe=" << pe << " i=" << i;
        ++off;
      }
    }
    EXPECT_EQ(off, total);
    ctx.shfree(dst);
    ctx.shfree(src);
  });
}

TEST(Collect, ZeroSizedContributionAllowed) {
  Runtime rt(tilesim::tile_gx36());
  rt.run(4, [](Context& ctx) {
    int* src = ctx.shmalloc_n<int>(4);
    int* dst = ctx.shmalloc_n<int>(16);
    const std::size_t mine = ctx.my_pe() == 2 ? 0 : sizeof(int);
    if (mine > 0) src[0] = ctx.my_pe();
    ctx.barrier_all();
    ctx.collect(dst, src, mine, ctx.world());
    ctx.barrier_all();
    EXPECT_EQ(dst[0], 0);
    EXPECT_EQ(dst[1], 1);
    EXPECT_EQ(dst[2], 3);  // PE 2 contributed nothing
    ctx.shfree(dst);
    ctx.shfree(src);
  });
}

TEST(Collect, RingRequiresFixedSizes) {
  Runtime rt(tilesim::tile_gx36());
  EXPECT_THROW(rt.run(2,
                      [](Context& ctx) {
                        int* b = ctx.shmalloc_n<int>(4);
                        ctx.collect(b, b, 4, ctx.world(), CollectAlgo::kRing);
                      }),
               std::invalid_argument);
}

TEST(Fcollect, ActiveSetSubset) {
  Runtime rt(tilesim::tile_gx36());
  rt.run(9, [](Context& ctx) {
    const ActiveSet odds{1, 1, 4};  // PEs 1, 3, 5, 7
    long* src = ctx.shmalloc_n<long>(2);
    long* dst = ctx.shmalloc_n<long>(8);
    src[0] = ctx.my_pe() * 10;
    src[1] = ctx.my_pe() * 10 + 1;
    ctx.barrier_all();
    if (odds.contains(ctx.my_pe())) {
      ctx.fcollect(dst, src, 2 * sizeof(long), odds);
      for (int idx = 0; idx < 4; ++idx) {
        const int pe = odds.pe_at(idx);
        EXPECT_EQ(dst[idx * 2], pe * 10);
        EXPECT_EQ(dst[idx * 2 + 1], pe * 10 + 1);
      }
    }
    ctx.harness_sync();
    ctx.shfree(dst);
    ctx.shfree(src);
  });
}

// --- reductions -----------------------------------------------------------------

struct ReduceCase {
  ReduceAlgo algo;
  std::uint8_t pad[3];
  int npes;
};
static_assert(std::has_unique_object_representations_v<ReduceCase>);

class ReduceTest : public ::testing::TestWithParam<ReduceCase> {};

TEST_P(ReduceTest, IntSumMatchesClosedForm) {
  const auto p = GetParam();
  Runtime rt(tilesim::tile_gx36());
  rt.run(p.npes, [&](Context& ctx) {
    constexpr int kElems = 37;  // deliberately not chunk-aligned
    const int n = ctx.num_pes();
    int* src = ctx.shmalloc_n<int>(kElems);
    int* dst = ctx.shmalloc_n<int>(kElems);
    for (int i = 0; i < kElems; ++i) src[i] = ctx.my_pe() + i;
    ctx.barrier_all();
    ctx.reduce(dst, src, kElems, RedOp::kSum, ctx.world(), p.algo);
    ctx.barrier_all();
    const int pe_sum = n * (n - 1) / 2;
    for (int i = 0; i < kElems; ++i) {
      ASSERT_EQ(dst[i], pe_sum + i * n) << "i=" << i;
    }
    ctx.shfree(dst);
    ctx.shfree(src);
  });
}

INSTANTIATE_TEST_SUITE_P(
    AlgoSweep, ReduceTest,
    ::testing::Values(ReduceCase{ReduceAlgo::kNaive, {}, 1},
                      ReduceCase{ReduceAlgo::kNaive, {}, 2},
                      ReduceCase{ReduceAlgo::kNaive, {}, 7},
                      ReduceCase{ReduceAlgo::kNaive, {}, 16},
                      ReduceCase{ReduceAlgo::kRecursiveDoubling, {}, 2},
                      ReduceCase{ReduceAlgo::kRecursiveDoubling, {}, 5},
                      ReduceCase{ReduceAlgo::kRecursiveDoubling, {}, 8},
                      ReduceCase{ReduceAlgo::kRecursiveDoubling, {}, 16}));

TEST(Reduce, AllOperatorsOnInts) {
  Runtime rt(tilesim::tile_gx36());
  rt.run(4, [](Context& ctx) {
    int* src = ctx.shmalloc_n<int>(4);
    int* dst = ctx.shmalloc_n<int>(4);
    const int me = ctx.my_pe();
    for (int i = 0; i < 4; ++i) src[i] = me + i + 1;  // 1..7 range
    ctx.barrier_all();

    ctx.reduce(dst, src, 4, RedOp::kMin, ctx.world());
    for (int i = 0; i < 4; ++i) EXPECT_EQ(dst[i], i + 1);  // PE 0's values
    ctx.barrier_all();

    ctx.reduce(dst, src, 4, RedOp::kMax, ctx.world());
    for (int i = 0; i < 4; ++i) EXPECT_EQ(dst[i], 3 + i + 1);
    ctx.barrier_all();

    ctx.reduce(dst, src, 4, RedOp::kProd, ctx.world());
    for (int i = 0; i < 4; ++i) {
      EXPECT_EQ(dst[i], (i + 1) * (i + 2) * (i + 3) * (i + 4));
    }
    ctx.barrier_all();

    // Bitwise ops.
    for (int i = 0; i < 4; ++i) src[i] = 1 << me;
    ctx.barrier_all();
    ctx.reduce(dst, src, 4, RedOp::kOr, ctx.world());
    for (int i = 0; i < 4; ++i) EXPECT_EQ(dst[i], 0b1111);
    ctx.barrier_all();
    ctx.reduce(dst, src, 4, RedOp::kXor, ctx.world());
    for (int i = 0; i < 4; ++i) EXPECT_EQ(dst[i], 0b1111);
    ctx.barrier_all();
    for (int i = 0; i < 4; ++i) src[i] = 0b1100 | (1 << me);
    ctx.barrier_all();
    ctx.reduce(dst, src, 4, RedOp::kAnd, ctx.world());
    for (int i = 0; i < 4; ++i) EXPECT_EQ(dst[i], 0b1100);
    ctx.barrier_all();
    ctx.shfree(dst);
    ctx.shfree(src);
  });
}

TEST(Reduce, FloatAndDoubleSum) {
  Runtime rt(tilesim::tile_pro64());
  rt.run(6, [](Context& ctx) {
    double* src = ctx.shmalloc_n<double>(8);
    double* dst = ctx.shmalloc_n<double>(8);
    for (int i = 0; i < 8; ++i) src[i] = 0.25 * ctx.my_pe() + i;
    ctx.barrier_all();
    ctx.reduce(dst, src, 8, RedOp::kSum, ctx.world());
    for (int i = 0; i < 8; ++i) {
      EXPECT_NEAR(dst[i], 0.25 * 15 + 6.0 * i, 1e-9);
    }
    ctx.barrier_all();
    ctx.shfree(dst);
    ctx.shfree(src);
  });
}

TEST(Reduce, ActiveSetExcludesOthers) {
  Runtime rt(tilesim::tile_gx36());
  rt.run(8, [](Context& ctx) {
    const ActiveSet evens{0, 1, 4};
    int* src = ctx.shmalloc_n<int>(1);
    int* dst = ctx.shmalloc_n<int>(1);
    *src = 1;
    *dst = -7;
    ctx.barrier_all();
    if (evens.contains(ctx.my_pe())) {
      ctx.reduce(dst, src, 1, RedOp::kSum, evens);
      EXPECT_EQ(*dst, 4);
    }
    ctx.harness_sync();
    if (!evens.contains(ctx.my_pe())) {
      EXPECT_EQ(*dst, -7);
    }
    ctx.harness_sync();
    ctx.shfree(dst);
    ctx.shfree(src);
  });
}

TEST(Reduce, BitwiseOnFloatThrows) {
  Runtime rt(tilesim::tile_gx36());
  EXPECT_THROW(
      rt.run(2,
             [](Context& ctx) {
               float* b = ctx.shmalloc_n<float>(1);
               ctx.reduce(b, b, 1, RedOp::kXor, ctx.world());
             }),
      std::invalid_argument);
}

TEST(Reduce, LargeArrayCrossesChunkBoundaries) {
  Runtime rt(tilesim::tile_gx36());
  rt.run(3, [](Context& ctx) {
    constexpr int kElems = 5000;  // > 4096-byte chunk
    long* src = ctx.shmalloc_n<long>(kElems);
    long* dst = ctx.shmalloc_n<long>(kElems);
    for (int i = 0; i < kElems; ++i) src[i] = ctx.my_pe() * kElems + i;
    ctx.barrier_all();
    ctx.reduce(dst, src, kElems, RedOp::kSum, ctx.world());
    for (int i = 0; i < kElems; ++i) {
      ASSERT_EQ(dst[i], 3L * i + 3L * kElems) << i;
    }
    ctx.barrier_all();
    ctx.shfree(dst);
    ctx.shfree(src);
  });
}

TEST(Reduce, NaiveAggregateIsFlatInTileCount) {
  // Fig 12's shape: serialized reduction keeps aggregate bandwidth flat as
  // tiles increase.
  Runtime rt(tilesim::tile_gx36());
  constexpr std::size_t kElems = 64 * 1024 / sizeof(int);
  auto aggregate_mbps = [&](int npes) {
    double out = 0;
    rt.run(npes, [&](Context& ctx) {
      int* src = ctx.shmalloc_n<int>(kElems);
      int* dst = ctx.shmalloc_n<int>(kElems);
      ctx.barrier_all();
      ctx.harness_sync_reset();
      const auto t0 = ctx.clock().now();
      ctx.reduce(dst, src, kElems, RedOp::kSum, ctx.world());
      ctx.barrier_all();
      if (ctx.my_pe() == 0) {
        const auto dt = ctx.clock().now() - t0;
        out = tshmem_util::bandwidth_mbps(
            static_cast<std::uint64_t>(npes) * kElems * sizeof(int), dt);
      }
      ctx.harness_sync();
      ctx.shfree(dst);
      ctx.shfree(src);
    });
    return out;
  };
  const double at8 = aggregate_mbps(8);
  const double at32 = aggregate_mbps(32);
  EXPECT_NEAR(at32 / at8, 1.0, 0.25);  // flat
}

TEST(Reduce, RecursiveDoublingBeatsNaiveInVirtualTime) {
  // The §IV-E extension exists to beat the serialized design.
  Runtime rt(tilesim::tile_gx36());
  constexpr std::size_t kElems = 32 * 1024 / sizeof(int);
  auto elapsed = [&](ReduceAlgo algo) {
    tilesim::ps_t out = 0;
    rt.run(16, [&](Context& ctx) {
      int* src = ctx.shmalloc_n<int>(kElems);
      int* dst = ctx.shmalloc_n<int>(kElems);
      ctx.barrier_all();
      ctx.harness_sync_reset();
      const auto t0 = ctx.clock().now();
      ctx.reduce(dst, src, kElems, RedOp::kSum, ctx.world(), algo);
      ctx.barrier_all();
      if (ctx.my_pe() == 0) out = ctx.clock().now() - t0;
      ctx.harness_sync();
      ctx.shfree(dst);
      ctx.shfree(src);
    });
    return out;
  };
  EXPECT_LT(elapsed(ReduceAlgo::kRecursiveDoubling),
            elapsed(ReduceAlgo::kNaive));
}

}  // namespace
