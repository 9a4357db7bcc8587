#include "apps/cbir.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "util/rng.hpp"

namespace apps::cbir {

void generate_image(std::span<std::uint8_t> out, int width, int height,
                    std::uint64_t image_seed) {
  if (out.size() != static_cast<std::size_t>(width) *
                        static_cast<std::size_t>(height)) {
    throw std::invalid_argument("generate_image: buffer size mismatch");
  }
  tshmem_util::Xoshiro256 rng(image_seed);
  // Smooth background: a sum of a few random low-frequency gradients gives
  // images with spatially-correlated color regions, which is what makes
  // the autocorrelogram informative on natural photos.
  const double ax = rng.uniform(-1.0, 1.0);
  const double ay = rng.uniform(-1.0, 1.0);
  const double bx = rng.uniform(0.02, 0.12);
  const double by = rng.uniform(0.02, 0.12);
  const double phase = rng.uniform(0.0, 6.28318);
  const double offset = rng.uniform(64.0, 192.0);
  for (int y = 0; y < height; ++y) {
    for (int x = 0; x < width; ++x) {
      double v = offset + 60.0 * ax * (2.0 * x / width - 1.0) +
                 60.0 * ay * (2.0 * y / height - 1.0) +
                 40.0 * std::sin(bx * x + by * y + phase);
      // Sparse speckle noise.
      if ((rng.next() & 0x3f) == 0) v += rng.uniform(-80.0, 80.0);
      v = std::clamp(v, 0.0, 255.0);
      out[static_cast<std::size_t>(y) * width + x] =
          static_cast<std::uint8_t>(v);
    }
  }
}

Feature autocorrelogram(std::span<const std::uint8_t> img, int width,
                        int height) {
  if (img.size() != static_cast<std::size_t>(width) *
                        static_cast<std::size_t>(height)) {
    throw std::invalid_argument("autocorrelogram: image size mismatch");
  }
  std::array<std::uint32_t, kBins> counts{};
  for (const std::uint8_t v : img) ++counts[v >> 4];  // 16 bins
  // The four axial neighbors at distance d (the standard banded
  // approximation of the full ring) pair each pixel with the ones d apart
  // along its row and its column. A same-bin pair is a hit seen from both
  // of its ends, so it adds 2 to its bin.
  std::array<std::uint32_t, kFeatureLen> hits{};
  const std::size_t w = static_cast<std::size_t>(width);
  for (std::size_t di = 0; di < kDistances.size(); ++di) {
    const std::size_t d = static_cast<std::size_t>(kDistances[di]);
    std::uint32_t* h = hits.data() + di * kBins;
    for (std::size_t y = 0; y < static_cast<std::size_t>(height); ++y) {
      const std::uint8_t* row = img.data() + y * w;
      for (std::size_t x = 0; x + d < w; ++x) {
        h[row[x] >> 4] += 2 * ((row[x] ^ row[x + d]) < 16);
      }
      if (y + d >= static_cast<std::size_t>(height)) continue;
      const std::uint8_t* below = row + d * w;
      for (std::size_t x = 0; x < w; ++x) {
        h[row[x] >> 4] += 2 * ((row[x] ^ below[x]) < 16);
      }
    }
  }
  Feature f{};
  for (std::size_t i = 0; i < f.size(); ++i) {
    const std::uint32_t total = counts[i % kBins] * 4;
    f[i] = total == 0 ? 0.0f
                      : static_cast<float>(hits[i]) /
                            static_cast<float>(total);
  }
  return f;
}

FeatureCache& FeatureCache::shared() {
  static FeatureCache cache;
  return cache;
}

const Feature& FeatureCache::seeded(std::span<const std::uint8_t> img,
                                    int width, int height,
                                    std::uint64_t image_seed) {
  const Key key{image_seed, width, height};
  {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = map_.find(key);
    if (it != map_.end()) {
      ++hits_;
      return it->second;
    }
  }
  // Extract outside the lock so concurrent PEs still parallelize misses.
  // The image is a pure function of (image_seed, width, height), so a lost
  // insertion race produced the identical value; first insert wins.
  const Feature f = autocorrelogram(img, width, height);
  std::lock_guard<std::mutex> lk(mu_);
  auto [it, inserted] = map_.try_emplace(key, f);
  if (!inserted) ++hits_;
  return it->second;
}

std::size_t FeatureCache::size() const {
  std::lock_guard<std::mutex> lk(mu_);
  return map_.size();
}

std::uint64_t FeatureCache::hits() const {
  std::lock_guard<std::mutex> lk(mu_);
  return hits_;
}

void FeatureCache::clear() {
  std::lock_guard<std::mutex> lk(mu_);
  map_.clear();
  hits_ = 0;
}

float feature_distance(const Feature& a, const Feature& b,
                       tshmem::Context* charge_to) {
  float d = 0.0f;
  // Normalized L1 distance, as in Huang et al. '97 (d1 measure).
  for (int i = 0; i < kFeatureLen; ++i) {
    d += std::abs(a[i] - b[i]) /
         (1.0f + a[i] + b[i]);
  }
  if (charge_to != nullptr) {
    charge_to->charge_int_ops(static_cast<std::uint64_t>(kFeatureLen) * 3);
  }
  return d;
}

std::vector<int> QueryResult::top(std::size_t k) const {
  std::vector<int> out;
  out.reserve(std::min(k, ranking.size()));
  for (std::size_t i = 0; i < std::min(k, ranking.size()); ++i) {
    out.push_back(ranking[i].second);
  }
  return out;
}

QueryResult run_query(tshmem::Context& ctx, const Params& p) {
  if (p.images < 1) throw std::invalid_argument("cbir: need >= 1 image");
  const int npes = ctx.num_pes();
  const int me = ctx.my_pe();
  const int per_pe = (p.images + npes - 1) / npes;
  const int my_first = std::min(p.images, me * per_pe);
  const int my_count = std::min(p.images - my_first, per_pe);
  const std::size_t px = static_cast<std::size_t>(p.width) *
                         static_cast<std::size_t>(p.height);

  // Symmetric storage: my image block, my feature block, my score block.
  auto* images = ctx.shmalloc_n<std::uint8_t>(
      static_cast<std::size_t>(per_pe) * px);
  auto* features = ctx.shmalloc_n<float>(
      static_cast<std::size_t>(per_pe) * kFeatureLen);
  auto* scores =
      ctx.shmalloc_n<float>(static_cast<std::size_t>(per_pe));
  if (images == nullptr || features == nullptr || scores == nullptr) {
    throw std::runtime_error("cbir: symmetric heap exhausted");
  }

  // Database synthesis happens outside the measured region (the paper's
  // database already resides in memory when the query runs).
  for (int i = 0; i < my_count; ++i) {
    generate_image(
        std::span<std::uint8_t>(images + static_cast<std::size_t>(i) * px, px),
        p.width, p.height, p.seed + static_cast<std::uint64_t>(my_first + i));
  }
  const std::uint64_t query_seed =
      p.seed +
      static_cast<std::uint64_t>(p.query_index % std::max(p.images, 1));
  std::vector<std::uint8_t> query_img(px);
  generate_image(query_img, p.width, p.height, query_seed);

  ctx.harness_sync_reset();
  QueryResult out;
  const auto t0 = ctx.clock().now();

  // --- parallel phase: extract + score my block ---------------------------
  // Extraction goes through the seed-keyed FeatureCache, so the host skips
  // the (dominant) extraction work on repeat scoring passes. The charge
  // depends only on the image's shape, so hit or miss it is the same.
  FeatureCache& fcache = FeatureCache::shared();
  const std::uint64_t ops = extract_ops(p.width, p.height);
  const Feature qf = fcache.seeded(query_img, p.width, p.height, query_seed);
  ctx.charge_int_ops(ops);
  for (int i = 0; i < my_count; ++i) {
    const Feature& f = fcache.seeded(
        std::span<const std::uint8_t>(
            images + static_cast<std::size_t>(i) * px, px),
        p.width, p.height,
        p.seed + static_cast<std::uint64_t>(my_first + i));
    ctx.charge_int_ops(ops);
    std::memcpy(features + static_cast<std::size_t>(i) * kFeatureLen,
                f.data(), sizeof(Feature));
    scores[i] = feature_distance(qf, f, &ctx);
  }
  ctx.quiet();
  ctx.barrier_all();
  const auto t1 = ctx.clock().now();

  // --- serial phase on PE 0: gather, merge, re-rank ------------------------
  if (me == 0) {
    std::vector<float> all_scores(static_cast<std::size_t>(npes) * per_pe);
    std::vector<float> all_feats(static_cast<std::size_t>(npes) * per_pe *
                                 kFeatureLen);
    for (int pe = 0; pe < npes; ++pe) {
      const int count = std::min(p.images - std::min(p.images, pe * per_pe),
                                 per_pe);
      if (count <= 0) continue;
      ctx.get(all_scores.data() + static_cast<std::size_t>(pe) * per_pe,
              scores, static_cast<std::size_t>(count) * sizeof(float), pe);
      ctx.get(all_feats.data() +
                  static_cast<std::size_t>(pe) * per_pe * kFeatureLen,
              features,
              static_cast<std::size_t>(count) * kFeatureLen * sizeof(float),
              pe);
    }
    // Merge into a global ranking, re-checking each candidate's distance
    // from the gathered features (verification scan).
    out.ranking.reserve(static_cast<std::size_t>(p.images));
    for (int g = 0; g < p.images; ++g) {
      const int pe = g / per_pe;
      const int local = g % per_pe;
      const auto* f = all_feats.data() +
                      (static_cast<std::size_t>(pe) * per_pe + local) *
                          kFeatureLen;
      Feature fv;
      std::memcpy(fv.data(), f, sizeof(Feature));
      const float d = feature_distance(qf, fv, &ctx);
      ctx.charge_int_ops(12);  // candidate bookkeeping / heap insert
      out.ranking.emplace_back(
          (d + all_scores[static_cast<std::size_t>(pe) * per_pe + local]) *
              0.5f,
          g);
    }
    std::sort(out.ranking.begin(), out.ranking.end());
    ctx.charge_int_ops(static_cast<std::uint64_t>(p.images) * 18);  // sort
    // Re-rank the head of the list by re-extracting full features from the
    // original image data (remote reads of the image blocks).
    const int rescan =
        std::max(1, static_cast<int>(p.rescan_fraction * p.images));
    std::vector<std::uint8_t> img(px);
    for (int k = 0; k < std::min<int>(rescan, p.images); ++k) {
      const int g = out.ranking[static_cast<std::size_t>(k)].second;
      const int pe = g / per_pe;
      const int local = g % per_pe;
      ctx.get(img.data(), images + static_cast<std::size_t>(local) * px, px,
              pe);
      const Feature& f = fcache.seeded(
          img, p.width, p.height, p.seed + static_cast<std::uint64_t>(g));
      ctx.charge_int_ops(ops);
      out.ranking[static_cast<std::size_t>(k)].first =
          feature_distance(qf, f, &ctx);
    }
    std::sort(out.ranking.begin(),
              out.ranking.begin() + std::min<int>(rescan, p.images));
    out.best_distance = out.ranking.front().first;
    out.best_image = out.ranking.front().second;
  }
  // Distribute the verdict (a broadcast of the best index).
  auto* verdict = ctx.shmalloc_n<long>(1);
  if (me == 0) *verdict = out.best_image;
  ctx.broadcast(verdict, verdict, sizeof(long), 0, ctx.world());
  out.best_image = static_cast<int>(*verdict);
  ctx.barrier_all();
  const auto t2 = ctx.clock().now();

  if (me == 0) {
    out.extract_ps = t1 - t0;
    out.rank_ps = t2 - t1;
    out.elapsed_ps = t2 - t0;
  }
  ctx.shfree(verdict);
  ctx.shfree(scores);
  ctx.shfree(features);
  ctx.shfree(images);
  return out;
}

// ===========================================================================
// ShardIndex — precomputed per-shard feature index (serving path)
// ===========================================================================

namespace {

/// Packed per-query candidate for the argmin reduction. Trivially copyable
/// so reduce_custom can move it through symmetric memory byte-wise.
struct ScoredHit {
  float distance;
  std::int32_t image;
};
static_assert(sizeof(ScoredHit) == 8);

/// Fold: min by distance, ties broken toward the lower global image index
/// so the merged verdict is independent of PE order.
void min_hit_apply(void* acc, const void* in, std::size_t n) {
  auto* a = static_cast<ScoredHit*>(acc);
  const auto* b = static_cast<const ScoredHit*>(in);
  for (std::size_t i = 0; i < n; ++i) {
    if (b[i].distance < a[i].distance ||
        (b[i].distance == a[i].distance && b[i].image < a[i].image)) {
      a[i] = b[i];
    }
  }
}

}  // namespace

ShardIndex::ShardIndex(tshmem::Context& ctx, const Params& p, int first,
                       int count)
    : first_(first), count_(count) {
  if (count < 1) throw std::invalid_argument("ShardIndex: need >= 1 image");
  if (first < 0) throw std::invalid_argument("ShardIndex: negative first");
  const int npes = ctx.num_pes();
  const int me = ctx.my_pe();
  per_pe_ = (count + npes - 1) / npes;
  const int my_first = std::min(count, me * per_pe_);
  my_count_ = std::min(count - my_first, per_pe_);
  features_ = ctx.shmalloc_n<float>(static_cast<std::size_t>(per_pe_) *
                                    kFeatureLen);
  if (features_ == nullptr) {
    throw std::runtime_error("ShardIndex: symmetric heap exhausted");
  }
  const std::size_t px = static_cast<std::size_t>(p.width) *
                         static_cast<std::size_t>(p.height);
  std::vector<std::uint8_t> img(px);
  FeatureCache& fcache = FeatureCache::shared();
  for (int i = 0; i < my_count_; ++i) {
    const std::uint64_t s =
        p.seed + static_cast<std::uint64_t>(first + my_first + i);
    generate_image(img, p.width, p.height, s);
    const Feature& f = fcache.seeded(img, p.width, p.height, s);
    ctx.charge_int_ops(extract_ops(p.width, p.height));
    std::memcpy(features_ + static_cast<std::size_t>(i) * kFeatureLen,
                f.data(), sizeof(Feature));
  }
  ctx.quiet();
  ctx.barrier_all();
}

void ShardIndex::destroy(tshmem::Context& ctx) {
  ctx.barrier_all();
  if (features_ != nullptr) {
    ctx.shfree(features_);
    features_ = nullptr;
  }
}

void ShardIndex::query_batch(tshmem::Context& ctx,
                             std::span<const Feature> queries,
                             std::span<Hit> out) const {
  if (out.size() != queries.size()) {
    throw std::invalid_argument("ShardIndex::query_batch: span mismatch");
  }
  if (queries.empty()) return;
  if (features_ == nullptr) {
    throw std::runtime_error("ShardIndex::query_batch: index destroyed");
  }
  const int me = ctx.my_pe();
  const int my_first = std::min(count_, me * per_pe_);
  // reduce_custom reads every PE's source remotely and pull-broadcasts the
  // target, so both legs live in symmetric memory.
  auto* local = ctx.shmalloc_n<ScoredHit>(queries.size());
  auto* merged = ctx.shmalloc_n<ScoredHit>(queries.size());
  if (local == nullptr || merged == nullptr) {
    throw std::runtime_error("ShardIndex::query_batch: heap exhausted");
  }
  for (std::size_t q = 0; q < queries.size(); ++q) {
    ScoredHit best{std::numeric_limits<float>::max(), -1};
    Feature f;
    for (int i = 0; i < my_count_; ++i) {
      std::memcpy(f.data(),
                  features_ + static_cast<std::size_t>(i) * kFeatureLen,
                  sizeof(Feature));
      const float d = feature_distance(queries[q], f, &ctx);
      const auto g = static_cast<std::int32_t>(first_ + my_first + i);
      if (d < best.distance ||
          (d == best.distance && g < best.image)) {
        best = ScoredHit{d, g};
      }
    }
    // Candidate tracking: compare + conditional update per scanned row.
    ctx.charge_int_ops(static_cast<std::uint64_t>(my_count_) * 2 + 4);
    local[q] = best;
  }
  ctx.quiet();
  ctx.reduce_custom(merged, local, queries.size(), sizeof(ScoredHit),
                    &min_hit_apply, /*is_fp=*/false, ctx.world());
  for (std::size_t q = 0; q < queries.size(); ++q) {
    out[q] = Hit{static_cast<int>(merged[q].image), merged[q].distance};
  }
  ctx.shfree(merged);
  ctx.shfree(local);
}

Hit ShardIndex::query(tshmem::Context& ctx, const Feature& qf) const {
  Hit h;
  query_batch(ctx, std::span<const Feature>(&qf, 1), std::span<Hit>(&h, 1));
  return h;
}

}  // namespace apps::cbir
