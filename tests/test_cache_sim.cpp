// Tests for the mechanistic cache simulator: set-associative behaviour,
// LRU, DDC capacity aggregation and homing-policy effects, plus the
// capacity-transition property that ties it to the analytic MemModel.
#include <gtest/gtest.h>

#include <cstdint>
#include <type_traits>

#include "sim/cache_sim.hpp"

namespace {

using tilesim::AccessCounts;
using tilesim::CacheSim;
using tilesim::HitLevel;
using tilesim::Homing;
using tilesim::SetAssocCache;

TEST(SetAssocCache, GeometryDerivation) {
  SetAssocCache c(32 * 1024, 64, 2);
  EXPECT_EQ(c.sets(), 256u);
  EXPECT_EQ(c.ways(), 2u);
  EXPECT_EQ(c.line_bytes(), 64u);
}

TEST(SetAssocCache, RejectsBadGeometry) {
  EXPECT_THROW(SetAssocCache(100, 64, 2), std::invalid_argument);   // not sets*ways*line
  EXPECT_THROW(SetAssocCache(32 * 1024, 48, 2), std::invalid_argument);  // line not pow2
  EXPECT_THROW(SetAssocCache(32 * 1024, 64, 0), std::invalid_argument);
}

TEST(SetAssocCache, MissThenHit) {
  SetAssocCache c(4096, 64, 2);
  EXPECT_FALSE(c.access(0));
  EXPECT_TRUE(c.access(0));
  EXPECT_TRUE(c.access(63));   // same line
  EXPECT_FALSE(c.access(64));  // next line
  EXPECT_EQ(c.hits(), 2u);
  EXPECT_EQ(c.misses(), 2u);
}

TEST(SetAssocCache, LruEvictionWithinSet) {
  // 2-way, 2 sets: lines mapping to set 0 are multiples of 2*64 = 128.
  SetAssocCache c(256, 64, 2);
  ASSERT_EQ(c.sets(), 2u);
  c.access(0);    // set 0, way A
  c.access(128);  // set 0, way B
  c.access(0);    // touch A -> B becomes LRU
  c.access(256);  // set 0, evicts B (128)
  EXPECT_TRUE(c.resident(0));
  EXPECT_FALSE(c.resident(128));
  EXPECT_TRUE(c.resident(256));
}

TEST(SetAssocCache, InvalidateAll) {
  SetAssocCache c(4096, 64, 2);
  c.access(0);
  ASSERT_TRUE(c.resident(0));
  c.invalidate_all();
  EXPECT_FALSE(c.resident(0));
}

TEST(SetAssocCache, WorkingSetWithinCapacityAlwaysHitsAfterWarmup) {
  SetAssocCache c(8 * 1024, 64, 8);
  for (std::uint64_t a = 0; a < 8 * 1024; a += 64) c.access(a);
  c.reset_stats();
  for (std::uint64_t a = 0; a < 8 * 1024; a += 64) c.access(a);
  EXPECT_EQ(c.misses(), 0u);
}

TEST(CacheSim, Gx36HierarchyCapacities) {
  CacheSim sim(tilesim::tile_gx36());
  EXPECT_EQ(sim.l1().capacity_bytes(), 32u * 1024);
  EXPECT_EQ(sim.l2().capacity_bytes(), 256u * 1024);
  // DDC = other 35 tiles' L2 = 8.75 MB, rounded down to a legal geometry.
  EXPECT_GT(sim.ddc().capacity_bytes(), 4u << 20);
  EXPECT_LE(sim.ddc().capacity_bytes(), 35u * 256 * 1024);
}

// The central property: steady-state residency transitions at the L1d, L2
// and DDC capacities — the same breakpoints the Fig 3 curve encodes.
// gtest names each case by dumping its bytes, so the padding is a zeroed
// member: implicit padding holds stale memory and would make the test names
// change from run to run.
struct SweepCase {
  std::size_t working_set;
  HitLevel expected_majority;
  std::uint8_t pad[7];
};
static_assert(std::has_unique_object_representations_v<SweepCase>);

class CapacityTransitionTest : public ::testing::TestWithParam<SweepCase> {};

TEST_P(CapacityTransitionTest, SteadyStateResidency) {
  const auto& p = GetParam();
  CacheSim sim(tilesim::tile_gx36());
  const AccessCounts counts =
      sim.sweep(0, p.working_set, /*passes=*/4, Homing::kHashForHome);
  const std::uint64_t total = counts.total();
  ASSERT_GT(total, 0u);
  std::uint64_t majority = 0;
  switch (p.expected_majority) {
    case HitLevel::kL1: majority = counts.l1; break;
    case HitLevel::kL2: majority = counts.l2; break;
    case HitLevel::kDdc: majority = counts.ddc; break;
    case HitLevel::kDram: majority = counts.dram; break;
  }
  EXPECT_GT(majority * 2, total)
      << "working set " << p.working_set << ": l1=" << counts.l1
      << " l2=" << counts.l2 << " ddc=" << counts.ddc
      << " dram=" << counts.dram;
}

INSTANTIATE_TEST_SUITE_P(
    Gx36, CapacityTransitionTest,
    ::testing::Values(
        SweepCase{16 * 1024, HitLevel::kL1, {}},    // within 32 kB L1d
        SweepCase{128 * 1024, HitLevel::kL2, {}},   // within 256 kB L2
        SweepCase{2 << 20, HitLevel::kDdc, {}},     // within ~8.4 MB DDC
        SweepCase{64 << 20, HitLevel::kDram, {}})); // beyond everything

TEST(CacheSim, LocalHomingNeverUsesDdc) {
  // Paper §III-A: locally-homed pages cannot be distributed into other
  // tiles' L2 caches, so a 2 MB working set (DDC-resident under
  // hash-for-home) degrades to DRAM.
  CacheSim sim(tilesim::tile_gx36());
  const auto local = sim.sweep(0, 2 << 20, 4, Homing::kLocal);
  EXPECT_EQ(local.ddc, 0u);
  EXPECT_GT(local.dram, local.l2);
  sim.reset();
  const auto hashed = sim.sweep(0, 2 << 20, 4, Homing::kHashForHome);
  EXPECT_GT(hashed.ddc, hashed.dram);
}

TEST(CacheSim, StreamBandwidthDecreasesWithWorkingSet) {
  CacheSim sim(tilesim::tile_gx36());
  // Warm each size, then measure a steady-state pass.
  auto steady_mbps = [&](std::size_t bytes) {
    sim.reset();
    (void)sim.stream_copy_mbps(0, 1 << 28, bytes, Homing::kHashForHome);
    return sim.stream_copy_mbps(0, 1 << 28, bytes, Homing::kHashForHome);
  };
  const double small = steady_mbps(8 * 1024);
  const double mid = steady_mbps(128 * 1024);
  const double big = steady_mbps(16 << 20);
  EXPECT_GT(small, mid);
  EXPECT_GT(mid, big);
}

TEST(CacheSim, LevelCyclesOrdering) {
  CacheSim sim(tilesim::tile_gx36());
  EXPECT_LT(sim.level_cycles(HitLevel::kL1), sim.level_cycles(HitLevel::kL2));
  EXPECT_LT(sim.level_cycles(HitLevel::kL2), sim.level_cycles(HitLevel::kDdc));
  EXPECT_LT(sim.level_cycles(HitLevel::kDdc),
            sim.level_cycles(HitLevel::kDram));
}

TEST(CacheSim, SweepValidatesPasses) {
  CacheSim sim(tilesim::tile_pro64());
  EXPECT_THROW((void)sim.sweep(0, 1024, 0, Homing::kHashForHome),
               std::invalid_argument);
}

TEST(CacheSim, Pro64SmallerCachesTransitionEarlier) {
  // TILEPro64's 8 kB L1d / 64 kB L2: a 16 kB working set that is L1-resident
  // on the Gx becomes L2-resident on the Pro.
  CacheSim pro(tilesim::tile_pro64());
  const auto counts = pro.sweep(0, 16 * 1024, 4, Homing::kHashForHome);
  EXPECT_GT(counts.l2, counts.l1);
}

}  // namespace
