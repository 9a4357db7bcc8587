// Tests for TMC common memory: mapping semantics, the address classifier,
// homing attributes, and free-list reuse.
#include <gtest/gtest.h>

#include <cstring>

#include "tmc/common_memory.hpp"

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

TEST(CommonMemory, ContainsClassifiesPointers) {
  CommonMemory cm(1 << 16);
  void* p = cm.map("a", 256, Homing::kHashForHome, 0);
  EXPECT_TRUE(cm.contains(p));
  EXPECT_TRUE(cm.contains(static_cast<std::byte*>(p) + 255));
  int on_stack = 0;
  EXPECT_FALSE(cm.contains(&on_stack));
  EXPECT_FALSE(cm.contains(nullptr));
}

TEST(CommonMemory, HomingOfMapping) {
  CommonMemory cm(1 << 16);
  void* a = cm.map("local", 256, Homing::kLocal, 0);
  void* b = cm.map("remote", 256, Homing::kRemote, 0);
  EXPECT_EQ(cm.homing_of(a), Homing::kLocal);
  EXPECT_EQ(cm.homing_of(static_cast<std::byte*>(a) + 100), Homing::kLocal);
  EXPECT_EQ(cm.homing_of(b), Homing::kRemote);
  int other = 0;
  EXPECT_EQ(cm.homing_of(&other), Homing::kHashForHome);  // device default
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

}  // namespace
