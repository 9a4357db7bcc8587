// Tests for the CBIR case study (paper §V-B): deterministic synthetic
// database, autocorrelogram properties, the pair-counting extractor against
// a per-neighbor oracle, the feature cache under concurrent lookups, query
// self-retrieval, and PE-count invariance of the retrieval result.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <thread>
#include <utility>
#include <vector>

#include "apps/cbir.hpp"
#include "tshmem/runtime.hpp"

namespace {

namespace cbir = apps::cbir;
using tshmem::Context;
using tshmem::Runtime;

// Oracle: the straightforward extractor. It visits the four axial neighbors
// of every pixel at every distance, skips the ones out of bounds, and
// counts one op per quantize, histogram update and comparison it issues.
struct OracleFeature {
  cbir::Feature feature{};
  std::uint64_t ops = 0;
};

OracleFeature oracle(std::span<const std::uint8_t> img, int width,
                     int height) {
  std::array<std::uint32_t, cbir::kFeatureLen> hits{};
  std::array<std::uint32_t, cbir::kBins> counts{};
  OracleFeature out;
  auto bin_at = [&](int x, int y) {
    return img[static_cast<std::size_t>(y) * width + x] >> 4;
  };
  for (int y = 0; y < height; ++y) {
    for (int x = 0; x < width; ++x) {
      const int b = bin_at(x, y);
      ++counts[static_cast<std::size_t>(b)];
      out.ops += 2;  // quantize + histogram
      for (std::size_t di = 0; di < cbir::kDistances.size(); ++di) {
        const int d = cbir::kDistances[di];
        const int nx[4] = {x - d, x + d, x, x};
        const int ny[4] = {y, y, y - d, y + d};
        for (int k = 0; k < 4; ++k) {
          ++out.ops;
          if (nx[k] < 0 || nx[k] >= width || ny[k] < 0 || ny[k] >= height) {
            continue;
          }
          if (bin_at(nx[k], ny[k]) == b) {
            ++hits[di * cbir::kBins + static_cast<std::size_t>(b)];
          }
        }
      }
    }
  }
  for (std::size_t di = 0; di < cbir::kDistances.size(); ++di) {
    for (int b = 0; b < cbir::kBins; ++b) {
      const std::size_t i = di * cbir::kBins + static_cast<std::size_t>(b);
      const std::uint32_t total = counts[static_cast<std::size_t>(b)] * 4;
      out.feature[i] = total == 0 ? 0.0f
                                  : static_cast<float>(hits[i]) /
                                        static_cast<float>(total);
    }
  }
  return out;
}

/// True when the extractor's feature is bytewise the oracle's and
/// extract_ops is the oracle's op count.
bool matches_oracle(std::span<const std::uint8_t> img, int width,
                    int height) {
  const OracleFeature want = oracle(img, width, height);
  const cbir::Feature got = cbir::autocorrelogram(img, width, height);
  return std::memcmp(got.data(), want.feature.data(),
                     sizeof(cbir::Feature)) == 0 &&
         cbir::extract_ops(width, height) == want.ops;
}

TEST(CbirOracle, EveryDefaultDatabaseImage) {
  const cbir::Params p;
  const unsigned threads = std::max(1u, std::thread::hardware_concurrency());
  std::vector<std::vector<int>> mismatches(threads);
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      std::vector<std::uint8_t> img(static_cast<std::size_t>(p.width) *
                                    static_cast<std::size_t>(p.height));
      for (int i = static_cast<int>(t); i < p.images;
           i += static_cast<int>(threads)) {
        cbir::generate_image(img, p.width, p.height,
                             p.seed + static_cast<std::uint64_t>(i));
        if (!matches_oracle(img, p.width, p.height)) mismatches[t].push_back(i);
      }
    });
  }
  for (auto& th : pool) th.join();
  for (const auto& m : mismatches) {
    EXPECT_TRUE(m.empty()) << m.size() << " mismatching images, first "
                           << m.front();
  }
}

TEST(CbirOracle, EdgeShapes) {
  // Sides shorter than the largest distance, one-pixel rows and columns,
  // non-square and odd sizes.
  const std::pair<int, int> shapes[] = {{1, 1},  {1, 9},  {9, 1},
                                        {3, 3},  {7, 7},  {8, 8},
                                        {5, 40}, {40, 5}, {13, 200},
                                        {129, 127}};
  for (const auto& [w, h] : shapes) {
    std::vector<std::uint8_t> img(static_cast<std::size_t>(w) *
                                  static_cast<std::size_t>(h));
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
      cbir::generate_image(img, w, h, seed);
      EXPECT_TRUE(matches_oracle(img, w, h))
          << w << "x" << h << " seed " << seed;
    }
  }
}

TEST(CbirFeatureCache, ConcurrentLookupsAgreeWithOracle) {
  // Every thread looks up the same seeds in its own order, so misses race
  // each other on every key: each key is extracted at least once, stored
  // once, and every other lookup counts as a hit.
  constexpr int kSeeds = 64;
  constexpr int kThreads = 4;
  constexpr int kSide = 32;
  cbir::FeatureCache cache;
  std::vector<int> wrong(kThreads, 0);
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      std::vector<std::uint8_t> img(kSide * kSide);
      for (int i = 0; i < kSeeds; ++i) {
        const int k = (t % 2 == 0 ? i : kSeeds - 1 - i) * (2 * t + 1) % kSeeds;
        const std::uint64_t seed = 500 + static_cast<std::uint64_t>(k);
        cbir::generate_image(img, kSide, kSide, seed);
        const cbir::Feature& f = cache.seeded(img, kSide, kSide, seed);
        const OracleFeature want = oracle(img, kSide, kSide);
        if (std::memcmp(f.data(), want.feature.data(),
                        sizeof(cbir::Feature)) != 0) {
          ++wrong[static_cast<std::size_t>(t)];
        }
      }
    });
  }
  for (auto& th : pool) th.join();
  for (const int w : wrong) EXPECT_EQ(w, 0);
  EXPECT_EQ(cache.size(), static_cast<std::size_t>(kSeeds));
  EXPECT_EQ(cache.hits(), static_cast<std::uint64_t>(kSeeds * (kThreads - 1)));
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.hits(), 0u);
}

TEST(CbirImages, GeneratorIsDeterministic) {
  std::vector<std::uint8_t> a(128 * 128), b(128 * 128);
  cbir::generate_image(a, 128, 128, 77);
  cbir::generate_image(b, 128, 128, 77);
  EXPECT_EQ(a, b);
  cbir::generate_image(b, 128, 128, 78);
  EXPECT_NE(a, b);
}

TEST(CbirImages, SizeMismatchThrows) {
  std::vector<std::uint8_t> buf(10);
  EXPECT_THROW(cbir::generate_image(buf, 128, 128, 1), std::invalid_argument);
}

TEST(CbirFeature, ProbabilitiesAreNormalized) {
  std::vector<std::uint8_t> img(128 * 128);
  cbir::generate_image(img, 128, 128, 5);
  const auto f = cbir::autocorrelogram(img, 128, 128);
  for (const float v : f) {
    EXPECT_GE(v, 0.0f);
    EXPECT_LE(v, 1.0f);
  }
}

TEST(CbirFeature, UniformImageHasPerfectAutocorrelation) {
  // A constant image: every in-bounds neighbor shares the bin, so the
  // occupied bin's correlogram entries approach 1 (boundary samples count
  // as misses, keeping values just under 1).
  std::vector<std::uint8_t> img(64 * 64, 200);
  const auto f = cbir::autocorrelogram(img, 64, 64);
  const int bin = 200 >> 4;
  for (std::size_t d = 0; d < cbir::kDistances.size(); ++d) {
    EXPECT_GT(f[d * cbir::kBins + bin], 0.85f);
  }
  // Unoccupied bins contribute zero.
  EXPECT_EQ(f[0], 0.0f);
}

TEST(CbirFeature, CheckerboardDecorrelatesAtOddDistances) {
  // A 1-pixel checkerboard: axial neighbors at odd distances always land on
  // the other color, at even distances on the same color. Distances {1,3,5,7}
  // are all odd, so same-bin hits vanish away from the border.
  std::vector<std::uint8_t> img(64 * 64);
  for (int y = 0; y < 64; ++y) {
    for (int x = 0; x < 64; ++x) {
      img[y * 64 + x] = ((x + y) & 1) ? 240 : 0;
    }
  }
  const auto f = cbir::autocorrelogram(img, 64, 64);
  for (std::size_t d = 0; d < cbir::kDistances.size(); ++d) {
    EXPECT_EQ(f[d * cbir::kBins + 0], 0.0f);
    EXPECT_EQ(f[d * cbir::kBins + 15], 0.0f);
  }
}

TEST(CbirFeature, DistanceIsAMetricOnIdenticalInputs) {
  std::vector<std::uint8_t> img(128 * 128);
  cbir::generate_image(img, 128, 128, 9);
  const auto f = cbir::autocorrelogram(img, 128, 128);
  EXPECT_EQ(cbir::feature_distance(f, f), 0.0f);
  std::vector<std::uint8_t> other(128 * 128);
  cbir::generate_image(other, 128, 128, 10);
  const auto g = cbir::autocorrelogram(other, 128, 128);
  EXPECT_GT(cbir::feature_distance(f, g), 0.0f);
  EXPECT_EQ(cbir::feature_distance(f, g), cbir::feature_distance(g, f));
}

TEST(CbirFeature, ChargesComputeModel) {
  static_assert(cbir::extract_ops(128, 128) == 18u * 128 * 128);
  Runtime rt(tilesim::tile_gx36());
  rt.run(1, [](Context& ctx) {
    const auto t0 = ctx.clock().now();
    ctx.charge_int_ops(cbir::extract_ops(128, 128));
    const auto dt = ctx.clock().now() - t0;
    // 18 ops/pixel at 1 ns: roughly 0.3 ms of device time per image.
    EXPECT_GT(dt, 100'000'000u);   // > 0.1 ms
    EXPECT_LT(dt, 1'000'000'000u); // < 1 ms
  });
}

class CbirQueryTest : public ::testing::TestWithParam<int> {};

TEST_P(CbirQueryTest, QueryRetrievesItselfAtAnyPeCount) {
  const int npes = GetParam();
  cbir::Params p;
  p.images = 60;
  p.query_index = 17;
  Runtime rt(tilesim::tile_gx36());
  int best = -1;
  rt.run(npes, [&](Context& ctx) {
    const auto result = cbir::run_query(ctx, p);
    if (ctx.my_pe() == 0) best = result.best_image;
    // The broadcast verdict is visible on all PEs.
    EXPECT_EQ(result.best_image % p.images, 17 % p.images);
  });
  EXPECT_EQ(best, 17);
}

INSTANTIATE_TEST_SUITE_P(PeSweep, CbirQueryTest,
                         ::testing::Values(1, 2, 3, 5, 8, 16));

TEST(CbirQuery, RankingIsCompleteAndSorted) {
  cbir::Params p;
  p.images = 40;
  p.query_index = 8;
  Runtime rt(tilesim::tile_gx36());
  rt.run(4, [&](Context& ctx) {
    const auto r = cbir::run_query(ctx, p);
    if (ctx.my_pe() == 0) {
      ASSERT_EQ(r.ranking.size(), 40u);
      EXPECT_EQ(r.best_image, 8);
      EXPECT_EQ(r.best_distance, 0.0f);
      const auto top = r.top(5);
      EXPECT_EQ(top.front(), 8);
      // Rescanned head is sorted.
      EXPECT_LE(r.ranking[0].first, r.ranking[1].first);
    }
  });
}

TEST(CbirQuery, TimingsArePopulatedOnRoot) {
  cbir::Params p;
  p.images = 30;
  Runtime rt(tilesim::tile_pro64());
  rt.run(3, [&](Context& ctx) {
    const auto r = cbir::run_query(ctx, p);
    if (ctx.my_pe() == 0) {
      EXPECT_GT(r.extract_ps, 0u);
      EXPECT_GT(r.rank_ps, 0u);
      EXPECT_EQ(r.elapsed_ps, r.extract_ps + r.rank_ps);
    }
  });
}

TEST(CbirQuery, ResultIndependentOfPeCount) {
  cbir::Params p;
  p.images = 50;
  p.query_index = 31;
  p.seed = 1234;
  std::vector<int> results;
  Runtime rt(tilesim::tile_gx36());
  for (int npes : {1, 4, 8}) {
    rt.run(npes, [&](Context& ctx) {
      const auto r = cbir::run_query(ctx, p);
      if (ctx.my_pe() == 0) results.push_back(r.best_image);
    });
  }
  EXPECT_EQ(results[0], results[1]);
  EXPECT_EQ(results[1], results[2]);
}

TEST(CbirQuery, ExtractPhaseScalesRankPhaseDoesNot) {
  // The mechanism behind Fig 14's speedup ceiling: the parallel phase
  // shrinks with PEs, the serial gather/merge/re-rank phase does not.
  cbir::Params p;
  p.images = 160;
  Runtime rt(tilesim::tile_gx36());
  tilesim::ps_t extract2 = 0, extract8 = 0, rank2 = 0, rank8 = 0;
  rt.run(2, [&](Context& ctx) {
    const auto r = cbir::run_query(ctx, p);
    if (ctx.my_pe() == 0) {
      extract2 = r.extract_ps;
      rank2 = r.rank_ps;
    }
  });
  rt.run(8, [&](Context& ctx) {
    const auto r = cbir::run_query(ctx, p);
    if (ctx.my_pe() == 0) {
      extract8 = r.extract_ps;
      rank8 = r.rank_ps;
    }
  });
  EXPECT_LT(extract8 * 3, extract2);                 // ~4x fewer images each
  EXPECT_GT(rank8 * 3, rank2);                       // roughly constant
}

TEST(CbirQuery, ValidatesParams) {
  Runtime rt(tilesim::tile_gx36());
  rt.run(1, [](Context& ctx) {
    cbir::Params p;
    p.images = 0;
    EXPECT_THROW((void)cbir::run_query(ctx, p), std::invalid_argument);
  });
}

}  // namespace
