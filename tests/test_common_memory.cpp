// Tests for TMC common memory: mapping semantics, free-list reuse, and the
// reserved (not committed) arena behind a paper-scale Runtime.
#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <string>

#include "tmc/common_memory.hpp"
#include "tshmem/context.hpp"
#include "tshmem/runtime.hpp"

namespace {

using tilesim::Homing;
using tmc::CommonMemory;

TEST(CommonMemory, MapAndLookup) {
  CommonMemory cm(1 << 20);
  void* p = cm.map("seg", 4096, Homing::kHashForHome, 3);
  ASSERT_NE(p, nullptr);
  const auto info = cm.lookup("seg");
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->addr, p);
  EXPECT_EQ(info->bytes, 4096u);
  EXPECT_EQ(info->creator_tile, 3);
  EXPECT_EQ(cm.mapping_count(), 1u);
}

TEST(CommonMemory, AnyTileCanCreateVisibleMappings) {
  // The TMC property the paper highlights: mappings created by any process
  // become visible to all others (§III-B).
  CommonMemory cm(1 << 20);
  void* by_tile5 = cm.map("from5", 128, Homing::kLocal, 5);
  const auto seen = cm.lookup("from5");
  ASSERT_TRUE(seen.has_value());
  EXPECT_EQ(seen->addr, by_tile5);
  EXPECT_EQ(seen->creator_tile, 5);
}

TEST(CommonMemory, DuplicateNameThrows) {
  CommonMemory cm(1 << 16);
  (void)cm.map("dup", 64, Homing::kHashForHome, 0);
  EXPECT_THROW((void)cm.map("dup", 64, Homing::kHashForHome, 0),
               std::invalid_argument);
}

TEST(CommonMemory, ZeroBytesThrows) {
  CommonMemory cm(1 << 16);
  EXPECT_THROW((void)cm.map("z", 0, Homing::kHashForHome, 0),
               std::invalid_argument);
}

TEST(CommonMemory, ExhaustionThrowsBadAlloc) {
  CommonMemory cm(4096);
  (void)cm.map("big", 4096, Homing::kHashForHome, 0);
  EXPECT_THROW((void)cm.map("more", 64, Homing::kHashForHome, 0),
               std::bad_alloc);
}

TEST(CommonMemory, UnmapReturnsSpaceAndCoalesces) {
  CommonMemory cm(64 * 1024);
  (void)cm.map("a", 16 * 1024, Homing::kHashForHome, 0);
  (void)cm.map("b", 16 * 1024, Homing::kHashForHome, 0);
  (void)cm.map("c", 16 * 1024, Homing::kHashForHome, 0);
  cm.unmap("a");
  cm.unmap("b");  // must coalesce with a's block
  void* big = cm.map("big", 32 * 1024, Homing::kHashForHome, 0);
  EXPECT_NE(big, nullptr);
}

TEST(CommonMemory, UnmapUnknownThrows) {
  CommonMemory cm(1 << 16);
  EXPECT_THROW(cm.unmap("nothing"), std::invalid_argument);
}

TEST(CommonMemory, MappingsAre64ByteAligned) {
  CommonMemory cm(1 << 16);
  for (int i = 0; i < 5; ++i) {
    void* p = cm.map("seg" + std::to_string(i), 100, Homing::kHashForHome, 0);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % 64, 0u);
  }
}

TEST(CommonMemory, BytesMappedAccounting) {
  CommonMemory cm(1 << 16);
  EXPECT_EQ(cm.bytes_mapped(), 0u);
  (void)cm.map("a", 100, Homing::kHashForHome, 0);  // rounds to 128
  EXPECT_EQ(cm.bytes_mapped(), 128u);
  cm.unmap("a");
  EXPECT_EQ(cm.bytes_mapped(), 0u);
}

TEST(CommonMemory, DataSurvivesOtherMappings) {
  CommonMemory cm(1 << 16);
  auto* p = static_cast<std::byte*>(cm.map("keep", 256, Homing::kLocal, 0));
  std::memset(p, 0xab, 256);
  (void)cm.map("other", 256, Homing::kLocal, 0);
  cm.unmap("other");
  for (int i = 0; i < 256; ++i) EXPECT_EQ(p[i], std::byte{0xab});
}

TEST(CommonMemory, PaperScaleArenaIsReservedNotCommitted) {
  // fig14 --full's heap: the 22,000-image database per PE plus 64 MiB. The
  // pro64 Runtime reserves 64 such partitions (about 27 GB) of common
  // memory, more than a 16 GB host can commit; a 2-PE job touches two.
  std::string mode;
  std::ifstream("/proc/sys/vm/overcommit_memory") >> mode;
  if (mode == "2") {
    GTEST_SKIP() << "strict overcommit ignores MAP_NORESERVE";
  }
  tshmem::RuntimeOptions opts;
  opts.heap_per_pe = std::size_t{22000} * 128 * 128 + (std::size_t{64} << 20);
  tshmem::Runtime rt(tilesim::tile_pro64(), opts);
  rt.run(2, [](tshmem::Context& ctx) {
    constexpr int kWords = 1024;
    const int me = ctx.my_pe();
    const int other = 1 - me;
    long* buf = ctx.shmalloc_n<long>(kWords);
    long src[kWords];
    for (int i = 0; i < kWords; ++i) src[i] = me * 100000L + i;
    ctx.put(buf, src, sizeof(src), other);
    ctx.barrier_all();
    for (int i = 0; i < kWords; ++i) EXPECT_EQ(buf[i], other * 100000L + i);
    long back[kWords] = {};
    ctx.get(back, buf, sizeof(back), other);
    for (int i = 0; i < kWords; ++i) EXPECT_EQ(back[i], me * 100000L + i);
    ctx.barrier_all();
    ctx.shfree(buf);
  });
}

}  // namespace
