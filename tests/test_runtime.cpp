// Tests for the TSHMEM runtime: launching, partitions, static registry,
// shmalloc family semantics, address classification, and finalize.
#include <gtest/gtest.h>

#include <atomic>
#include <set>

#include "tshmem/context.hpp"
#include "tshmem/runtime.hpp"

namespace {

using tshmem::AddrClass;
using tshmem::Context;
using tshmem::Runtime;
using tshmem::RuntimeOptions;
using tshmem::StaticRegistry;

TEST(StaticRegistry, StableOffsetsAndAlignment) {
  StaticRegistry reg(1 << 20);
  const auto a = reg.reserve("counter", 8, 8);
  const auto b = reg.reserve("array", 1000, 64);
  EXPECT_EQ(a.offset % 8, 0u);
  EXPECT_EQ(b.offset % 64, 0u);
  EXPECT_GE(b.offset, a.offset + a.bytes);
  // Idempotent lookup.
  EXPECT_EQ(reg.reserve("counter", 8, 8).offset, a.offset);
  EXPECT_EQ(reg.object_count(), 2u);
}

TEST(StaticRegistry, SizeConflictThrows) {
  StaticRegistry reg(1 << 20);
  (void)reg.reserve("x", 8, 8);
  EXPECT_THROW((void)reg.reserve("x", 16, 8), std::invalid_argument);
}

TEST(StaticRegistry, ExhaustionThrows) {
  StaticRegistry reg(128);
  (void)reg.reserve("a", 100, 16);
  EXPECT_THROW((void)reg.reserve("b", 100, 16), std::runtime_error);
}

TEST(StaticRegistry, Validation) {
  StaticRegistry reg(1024);
  EXPECT_THROW((void)reg.reserve("z", 0, 8), std::invalid_argument);
  EXPECT_THROW((void)reg.reserve("z", 8, 3), std::invalid_argument);
}

TEST(StaticRegistry, ContainsRangeStaysInsideOneObject) {
  StaticRegistry reg(1 << 20);
  const auto a = reg.reserve("a", 16, 8);
  const auto b = reg.reserve("b", 16, 8);
  const auto c = reg.reserve("c", 8, 64);
  ASSERT_EQ(b.offset, a.offset + 16);  // adjacent objects
  ASSERT_GT(c.offset, b.offset + 16);  // alignment gap before c
  EXPECT_TRUE(reg.contains_range(a.offset, 16));
  EXPECT_TRUE(reg.contains_range(a.offset + 8, 8));
  EXPECT_FALSE(reg.contains_range(a.offset + 8, 16));  // spills into b
  EXPECT_TRUE(reg.contains_range(b.offset, 16));
  EXPECT_FALSE(reg.contains_range(b.offset + 16, 1));  // in the gap
  EXPECT_TRUE(reg.contains_range(c.offset, 8));
  EXPECT_FALSE(reg.contains_range(c.offset + 8, 1));  // past every object
  EXPECT_FALSE(reg.contains_range(c.offset, ~std::size_t{0}));
}

TEST(Runtime, RejectsBadNpes) {
  Runtime rt(tilesim::tile_gx36());
  EXPECT_THROW(rt.run(0, [](Context&) {}), std::invalid_argument);
  EXPECT_THROW(rt.run(37, [](Context&) {}), std::invalid_argument);
}

TEST(Runtime, Pro64Allows64Pes) {
  RuntimeOptions opts;
  opts.heap_per_pe = 1 << 20;  // keep the arena small for 64 PEs
  Runtime rt(tilesim::tile_pro64(), opts);
  std::atomic<int> count{0};
  rt.run(64, [&](Context& ctx) {
    count.fetch_add(1);
    ctx.barrier_all();
  });
  EXPECT_EQ(count.load(), 64);
}

TEST(Runtime, ExceptionInOnePePropagates) {
  Runtime rt(tilesim::tile_gx36());
  EXPECT_THROW(rt.run(4,
                      [](Context& ctx) {
                        if (ctx.my_pe() == 2) {
                          throw std::runtime_error("boom");
                        }
                      }),
               std::runtime_error);
  // Runtime must be reusable after a failed job.
  rt.run(2, [](Context& ctx) { ctx.barrier_all(); });
}

TEST(Runtime, PartitionsAreDisjointPerPe) {
  Runtime rt(tilesim::tile_gx36());
  std::mutex mu;
  std::set<void*> bases;
  rt.run(6, [&](Context& ctx) {
    void* p = ctx.shmalloc(64);
    {
      std::scoped_lock lk(mu);
      bases.insert(p);
    }
    ctx.barrier_all();
    ctx.shfree(p);
  });
  EXPECT_EQ(bases.size(), 6u);  // same offset, different partitions
}

TEST(Runtime, ShmallocOffsetsAreSymmetric) {
  Runtime rt(tilesim::tile_gx36());
  rt.run(4, [](Context& ctx) {
    void* a = ctx.shmalloc(100);
    void* b = ctx.shmalloc(200);
    // Identical allocation sequences give identical partition offsets, so
    // remote_addr on b must land at b's offset in every partition.
    for (int pe = 0; pe < ctx.num_pes(); ++pe) {
      auto* mine = static_cast<std::byte*>(b);
      auto* theirs = static_cast<std::byte*>(ctx.remote_addr(b, pe));
      auto* my_base = static_cast<std::byte*>(ctx.remote_addr(a, ctx.my_pe()));
      auto* their_base = static_cast<std::byte*>(ctx.remote_addr(a, pe));
      EXPECT_EQ(mine - my_base, theirs - their_base);
    }
    ctx.shfree(b);
    ctx.shfree(a);
  });
}

TEST(Runtime, ClassifyAddressKinds) {
  Runtime rt(tilesim::tile_gx36());
  rt.run(2, [](Context& ctx) {
    void* dyn = ctx.shmalloc(64);
    int* stat = ctx.static_sym<int>("classify_test", 4);
    int local = 0;
    EXPECT_EQ(ctx.classify(dyn), AddrClass::kDynamic);
    EXPECT_EQ(ctx.classify(stat), AddrClass::kStatic);
    EXPECT_EQ(ctx.classify(&local), AddrClass::kOther);
    ctx.shfree(dyn);
  });
}

TEST(Runtime, StaticSymSameOffsetPrivateStorage) {
  Runtime rt(tilesim::tile_gx36());
  std::mutex mu;
  std::vector<std::pair<int, int*>> ptrs;
  rt.run(4, [&](Context& ctx) {
    int* p = ctx.static_sym<int>("per_pe_counter");
    *p = ctx.my_pe() * 11;
    ctx.barrier_all();
    {
      std::scoped_lock lk(mu);
      ptrs.emplace_back(ctx.my_pe(), p);
    }
    ctx.barrier_all();
    // My write must not have been clobbered: storage is private per PE.
    EXPECT_EQ(*p, ctx.my_pe() * 11);
  });
  std::set<int*> unique;
  for (const auto& [pe, p] : ptrs) unique.insert(p);
  EXPECT_EQ(unique.size(), 4u);
}

TEST(Runtime, StaticArenasPersistAcrossJobs) {
  Runtime rt(tilesim::tile_gx36());
  std::vector<std::byte*> first(4), again(4);
  rt.run(4, [&](Context& ctx) {
    first[static_cast<std::size_t>(ctx.my_pe())] =
        ctx.runtime().private_base(ctx.my_pe());
  });
  rt.run(2, [](Context& ctx) { ctx.barrier_all(); });
  rt.run(4, [&](Context& ctx) {
    again[static_cast<std::size_t>(ctx.my_pe())] =
        ctx.runtime().private_base(ctx.my_pe());
  });
  EXPECT_EQ(first, again);
  EXPECT_EQ(std::set<std::byte*>(first.begin(), first.end()).size(), 4u);
}

TEST(Runtime, EveryJobStartsWithZeroedStatics) {
  // Arenas outlive jobs, so the runtime re-zeroes what a job wrote. Going
  // 4 -> 2 -> 4 PEs leaves arenas 2 and 3 idle for a job, then reuses them.
  constexpr int kWords = 8;
  constexpr int kHalf = kWords / 2;
  Runtime rt(tilesim::tile_gx36());
  std::atomic<int> nonzero{0};
  auto expect_zero = [&](const long* obj) {
    for (int i = 0; i < kWords; ++i) {
      if (obj[i] != 0) nonzero.fetch_add(1);
    }
  };
  // Dirties `obj` on every PE: the first half by local stores, the second
  // half by a static put (the interrupt/bounce path) from the previous PE.
  auto dirty = [](Context& ctx, long* obj) {
    const int n = ctx.num_pes();
    const int pe = ctx.my_pe();
    for (int i = 0; i < kHalf; ++i) obj[i] = 100 + pe;
    ctx.barrier_all();
    ctx.put(obj + kHalf, obj, kHalf * sizeof(long), (pe + 1) % n);
    ctx.barrier_all();
    EXPECT_EQ(obj[kHalf], 100 + (pe + n - 1) % n);
  };

  rt.run(4, [&](Context& ctx) {
    long* a = ctx.static_sym<long>("reset_a", kWords);
    expect_zero(a);
    dirty(ctx, a);
  });
  rt.run(2, [&](Context& ctx) {
    long* a = ctx.static_sym<long>("reset_a", kWords);
    long* b = ctx.static_sym<long>("reset_b", kWords);  // first seen here
    expect_zero(a);
    expect_zero(b);
    dirty(ctx, a);
    dirty(ctx, b);
  });
  rt.run(4, [&](Context& ctx) {
    long* a = ctx.static_sym<long>("reset_a", kWords);
    long* b = ctx.static_sym<long>("reset_b", kWords);
    long* c = ctx.static_sym<long>("reset_c", kWords);  // first seen here
    expect_zero(a);
    expect_zero(b);
    expect_zero(c);
    dirty(ctx, b);
    dirty(ctx, c);
  });
  // A job that dies after writing still hands the next one zeroed statics.
  EXPECT_THROW(rt.run(4,
                      [&](Context& ctx) {
                        dirty(ctx, ctx.static_sym<long>("reset_a", kWords));
                        if (ctx.my_pe() == 1) throw std::runtime_error("die");
                      }),
               std::runtime_error);
  rt.run(4, [&](Context& ctx) {
    expect_zero(ctx.static_sym<long>("reset_a", kWords));
    expect_zero(ctx.static_sym<long>("reset_b", kWords));
    expect_zero(ctx.static_sym<long>("reset_c", kWords));
  });
  EXPECT_EQ(nonzero.load(), 0);
}

TEST(Runtime, ShmemPtrOnlyForDynamic) {
  Runtime rt(tilesim::tile_gx36());
  rt.run(2, [](Context& ctx) {
    int* dyn = ctx.shmalloc_n<int>(1);
    int* stat = ctx.static_sym<int>("ptr_test");
    EXPECT_NE(ctx.ptr(dyn, 1 - ctx.my_pe()), nullptr);
    EXPECT_EQ(ctx.ptr(stat, 1 - ctx.my_pe()), nullptr);
    EXPECT_EQ(ctx.ptr(dyn, 99), nullptr);
    // shmem_ptr gives a direct load/store path to the remote object.
    if (ctx.my_pe() == 0) *dyn = 123;
    ctx.barrier_all();
    if (ctx.my_pe() == 1) {
      const int* remote = static_cast<int*>(ctx.ptr(dyn, 0));
      EXPECT_EQ(*remote, 123);
    }
    ctx.barrier_all();
    ctx.shfree(dyn);
  });
}

TEST(Runtime, AccessibilityQueries) {
  Runtime rt(tilesim::tile_gx36());
  rt.run(3, [](Context& ctx) {
    int* dyn = ctx.shmalloc_n<int>(1);
    int local = 0;
    EXPECT_TRUE(ctx.pe_accessible(0));
    EXPECT_TRUE(ctx.pe_accessible(2));
    EXPECT_FALSE(ctx.pe_accessible(3));
    EXPECT_FALSE(ctx.pe_accessible(-1));
    EXPECT_TRUE(ctx.addr_accessible(dyn, 1));
    EXPECT_FALSE(ctx.addr_accessible(&local, 1));
    ctx.shfree(dyn);
  });
}

TEST(Runtime, ShreallocPreservesData) {
  Runtime rt(tilesim::tile_gx36());
  rt.run(2, [](Context& ctx) {
    int* p = ctx.shmalloc_n<int>(4);
    for (int i = 0; i < 4; ++i) p[i] = i + ctx.my_pe();
    int* q = static_cast<int*>(ctx.shrealloc(p, 64 * sizeof(int)));
    ASSERT_NE(q, nullptr);
    for (int i = 0; i < 4; ++i) EXPECT_EQ(q[i], i + ctx.my_pe());
    ctx.shfree(q);
  });
}

TEST(Runtime, ShmemalignAllocatesAligned) {
  Runtime rt(tilesim::tile_gx36());
  rt.run(2, [](Context& ctx) {
    void* p = ctx.shmemalign(4096, 100);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % 4096, 0u);
    EXPECT_EQ(ctx.classify(p), AddrClass::kDynamic);
    ctx.shfree(p);
  });
}

TEST(Runtime, FinalizeValidatesAndRejectsDoubleCall) {
  Runtime rt(tilesim::tile_gx36());
  rt.run(2, [](Context& ctx) {
    ctx.barrier_all();
    ctx.finalize();
    EXPECT_TRUE(ctx.finalized());
    EXPECT_THROW(ctx.finalize(), std::logic_error);
  });
}

TEST(Runtime, DeliveryClockMonotone) {
  Runtime rt(tilesim::tile_gx36());
  rt.run(2, [](Context& ctx) {
    long* slot = ctx.shmalloc_n<long>(1);
    *slot = 0;
    ctx.barrier_all();
    if (ctx.my_pe() == 0) {
      ctx.p(slot, 1L, 1);
      const auto after_first = ctx.runtime().last_delivery(1);
      EXPECT_GT(after_first, 0u);
      ctx.p(slot, 2L, 1);
      EXPECT_GE(ctx.runtime().last_delivery(1), after_first);
    }
    ctx.barrier_all();
    ctx.shfree(slot);
  });
}

TEST(Runtime, RunSpmdHelper) {
  std::atomic<int> hits{0};
  tshmem::run_spmd(tilesim::tile_pro64(), 3,
                   [&](Context& ctx) { hits.fetch_add(1 + ctx.my_pe()); });
  EXPECT_EQ(hits.load(), 6);
}

TEST(Runtime, CurrentContextOnlyInsideRun) {
  EXPECT_EQ(Runtime::current(), nullptr);
  Runtime rt(tilesim::tile_gx36());
  rt.run(2, [](Context& ctx) {
    EXPECT_EQ(Runtime::current(), &ctx);
  });
  EXPECT_EQ(Runtime::current(), nullptr);
}

}  // namespace
