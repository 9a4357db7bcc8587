// Content-based image retrieval case study (paper §V-B).
//
// A color-feature-extraction CBIR application based on the autocorrelogram
// of Huang et al. (CVPR'97): each image is characterized by, for each
// quantized color bin and each distance d in {1,3,5,7}, the probability
// that a pixel at distance d from a bin-b pixel is also bin-b. The image
// database is block-distributed across PEs; each PE extracts features for
// its block and scores them against the query; PE 0 then gathers features,
// merges the candidate rankings, and re-ranks the best candidates — the
// serial tail that keeps speedup at 25 (Gx) / 27 (Pro) at 32 tiles.
//
// The paper's 22,000-image database is proprietary; a seeded synthetic
// generator produces 128 x 128 8-bit images with comparable smooth color
// statistics (DESIGN.md §2).
#pragma once

#include <array>
#include <cstdint>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "tshmem/context.hpp"

namespace apps::cbir {

inline constexpr int kBins = 16;
inline constexpr std::array<int, 4> kDistances{1, 3, 5, 7};
inline constexpr int kFeatureLen = kBins * static_cast<int>(kDistances.size());

using Feature = std::array<float, kFeatureLen>;

struct Params {
  int images = 5500;       ///< paper scale is 22,000; default is quarter scale
  int width = 128;
  int height = 128;
  std::uint64_t seed = 0x7351u;
  int query_index = 4242;  ///< database image used as the query
  double rescan_fraction = 0.005;  ///< share of DB re-ranked serially on PE 0
};

/// Deterministic synthetic image: smooth random gradients + speckle.
void generate_image(std::span<std::uint8_t> out, int width, int height,
                    std::uint64_t image_seed);

/// Autocorrelogram feature. Extraction charges nothing itself; its callers
/// charge extract_ops(width, height) to the compute model.
[[nodiscard]] Feature autocorrelogram(std::span<const std::uint8_t> img,
                                      int width, int height);

/// Integer ops one extraction costs the compute model: per pixel, one
/// quantize, one histogram update, and one comparison per distance and
/// axial neighbor, in bounds or not.
[[nodiscard]] constexpr std::uint64_t extract_ops(int width, int height) {
  return static_cast<std::uint64_t>(width) *
         static_cast<std::uint64_t>(height) * (2 + 4 * kDistances.size());
}

/// Process-wide memoization of synthetic-image features, keyed by the
/// image's generator seed and dimensions. The database is deterministic
/// (image_seed fully determines the pixels), so every PE, every tile-count
/// sweep, and every serving shard re-extracting image `s` computes the
/// same feature — the cache computes it once, removing the dominant host
/// cost of fig14 (re-extraction per scoring pass). Thread-safe; entry
/// references stay valid until clear(), which must only run with no job
/// in flight.
class FeatureCache {
 public:
  static FeatureCache& shared();

  /// Returns the cached feature for (image_seed, width, height), computing
  /// it from `img` on the first call. The caller guarantees `img` holds
  /// the pixels generate_image produces for `image_seed`.
  const Feature& seeded(std::span<const std::uint8_t> img, int width,
                        int height, std::uint64_t image_seed);

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::uint64_t hits() const;
  void clear();

 private:
  struct Key {
    std::uint64_t seed;
    int width;
    int height;
    friend bool operator==(const Key&, const Key&) = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const noexcept {
      std::uint64_t h = k.seed * 0x9e3779b97f4a7c15ULL;
      h ^= (static_cast<std::uint64_t>(k.width) << 32 |
            static_cast<std::uint32_t>(k.height)) *
           0xbf58476d1ce4e5b9ULL;
      return static_cast<std::size_t>(h ^ (h >> 29));
    }
  };

  mutable std::mutex mu_;
  std::unordered_map<Key, Feature, KeyHash> map_;
  std::uint64_t hits_ = 0;
};

/// L1 feature distance; charges ~3 ops per component when `charge_to` set.
[[nodiscard]] float feature_distance(const Feature& a, const Feature& b,
                                     tshmem::Context* charge_to = nullptr);

struct QueryResult {
  tilesim::ps_t elapsed_ps = 0;       ///< whole query, measured on PE 0
  tilesim::ps_t extract_ps = 0;       ///< parallel feature extraction phase
  tilesim::ps_t rank_ps = 0;          ///< serial gather + merge + re-rank
  int best_image = -1;                ///< global index of the best match
  float best_distance = 0.0f;
  std::vector<int> top(std::size_t k) const;
  std::vector<std::pair<float, int>> ranking;  ///< PE 0 only, ascending
};

/// SPMD body: run one retrieval query over the synthetic database.
QueryResult run_query(tshmem::Context& ctx, const Params& p);

// ===========================================================================
// Per-query serving path (src/svc; docs/SERVING.md)
// ===========================================================================

/// One scored retrieval answer.
struct Hit {
  int image = -1;       ///< global database index of the best match
  float distance = 0.0f;

  friend bool operator==(const Hit&, const Hit&) = default;
};

/// Shard-resident precomputed feature index: the features of the database
/// slice [first, first + count) extracted once and block-distributed across
/// the job's PEs in symmetric memory. This is the reusable per-query path
/// the serving subsystem batches queries against — build() pays the
/// extraction exactly once per shard, query_batch() then costs one feature
/// scan plus one argmin reduction per batch.
///
/// Collective contract: every PE of the job must call build / query_batch /
/// destroy with identical arguments, in the same order (SPMD symmetry, as
/// with any collective).
class ShardIndex {
 public:
  /// Collective: synthesizes (or reuses cached features of) the slice and
  /// stores each PE's block in its symmetric partition.
  ShardIndex(tshmem::Context& ctx, const Params& p, int first, int count);

  ShardIndex(const ShardIndex&) = delete;
  ShardIndex& operator=(const ShardIndex&) = delete;

  /// Collective: releases the symmetric feature block.
  void destroy(tshmem::Context& ctx);

  [[nodiscard]] int first() const noexcept { return first_; }
  [[nodiscard]] int count() const noexcept { return count_; }

  /// SPMD batch scoring: every PE passes the same `queries` (extracted
  /// query features); each PE scans its feature block, then one argmin
  /// reduction per batch merges the per-PE candidates. `out` receives one
  /// Hit per query on every PE. This is the shard-side service body whose
  /// virtual-time cost the serving simulator calibrates.
  void query_batch(tshmem::Context& ctx, std::span<const Feature> queries,
                   std::span<Hit> out) const;

  /// Single-query convenience wrapper.
  [[nodiscard]] Hit query(tshmem::Context& ctx, const Feature& qf) const;

 private:
  int first_ = 0;
  int count_ = 0;
  int per_pe_ = 0;        ///< slice rows per PE (ceil division)
  int my_count_ = 0;      ///< rows this PE owns
  float* features_ = nullptr;  ///< symmetric: my_count_ * kFeatureLen
};

}  // namespace apps::cbir
