#include "sim/cache_sim.hpp"

#include <algorithm>
#include <stdexcept>

namespace tilesim {

namespace {
constexpr std::size_t kLineBytes = 64;

[[nodiscard]] bool is_pow2(std::size_t v) { return v && (v & (v - 1)) == 0; }
}  // namespace

SetAssocCache::SetAssocCache(std::size_t capacity_bytes,
                             std::size_t line_bytes, std::size_t ways)
    : capacity_(capacity_bytes), line_(line_bytes), ways_(ways) {
  if (!is_pow2(line_bytes) || line_bytes == 0) {
    throw std::invalid_argument("cache line size must be a power of two");
  }
  if (ways == 0 || capacity_bytes % (line_bytes * ways) != 0) {
    throw std::invalid_argument("cache capacity must be sets*ways*line");
  }
  sets_ = capacity_bytes / (line_bytes * ways);
  if (!is_pow2(sets_)) {
    throw std::invalid_argument("cache set count must be a power of two");
  }
  entries_.resize(sets_ * ways_);
}

std::size_t SetAssocCache::set_index(std::uint64_t addr) const noexcept {
  return static_cast<std::size_t>((addr / line_) & (sets_ - 1));
}

std::uint64_t SetAssocCache::tag_of(std::uint64_t addr) const noexcept {
  return (addr / line_) / sets_;
}

bool SetAssocCache::access(std::uint64_t addr) {
  const std::size_t set = set_index(addr);
  const std::uint64_t tag = tag_of(addr);
  Way* begin = entries_.data() + set * ways_;
  ++tick_;
  Way* victim = begin;
  for (std::size_t w = 0; w < ways_; ++w) {
    Way& way = begin[w];
    if (way.valid && way.tag == tag) {
      way.lru = tick_;
      ++hits_;
      return true;
    }
    if (!way.valid) {
      victim = &way;
    } else if (victim->valid && way.lru < victim->lru) {
      victim = &way;
    }
  }
  victim->valid = true;
  victim->tag = tag;
  victim->lru = tick_;
  ++misses_;
  return false;
}

bool SetAssocCache::resident(std::uint64_t addr) const {
  const std::size_t set = set_index(addr);
  const std::uint64_t tag = tag_of(addr);
  const Way* begin = entries_.data() + set * ways_;
  for (std::size_t w = 0; w < ways_; ++w) {
    if (begin[w].valid && begin[w].tag == tag) return true;
  }
  return false;
}

void SetAssocCache::invalidate_all() {
  for (auto& way : entries_) way.valid = false;
  tick_ = 0;
}

namespace {

/// The DDC capacity seen by one tile is the L2 of every *other* tile.
/// SetAssocCache needs a power-of-two set count; keep the capacity close
/// to the true aggregate by fixing sets at the largest fitting power of
/// two and widening the associativity to absorb the remainder.
SetAssocCache make_ddc(const DeviceConfig& cfg) {
  const std::size_t raw = cfg.l2_bytes * static_cast<std::size_t>(
                                             cfg.tile_count() - 1);
  const std::size_t min_ways = 16;
  std::size_t sets = 1;
  while (sets * 2 * kLineBytes * min_ways <= raw) sets *= 2;
  const std::size_t ways = raw / (sets * kLineBytes);
  return SetAssocCache(sets * ways * kLineBytes, kLineBytes, ways);
}

}  // namespace

CacheSim::CacheSim(const DeviceConfig& cfg, CacheLatencies lat)
    : cfg_(&cfg),
      lat_(lat),
      l1_(cfg.l1d_bytes, kLineBytes, 2),
      l2_(cfg.l2_bytes, kLineBytes, 8),
      ddc_(make_ddc(cfg)) {}

HitLevel CacheSim::access(std::uint64_t addr, Homing homing) {
  if (l1_.access(addr)) {
    ++counts_.l1;
    return HitLevel::kL1;
  }
  if (l2_.access(addr)) {
    ++counts_.l2;
    return HitLevel::kL2;
  }
  // Locally homed pages may not be cached by other tiles, so they can never
  // be serviced from the DDC (paper §III-A: local homing "loses the
  // advantage of DDC").
  if (homing != Homing::kLocal && ddc_.access(addr)) {
    ++counts_.ddc;
    return HitLevel::kDdc;
  }
  if (homing != Homing::kLocal) {
    // Miss already installed the line in the DDC via the access() above.
  }
  ++counts_.dram;
  return HitLevel::kDram;
}

double CacheSim::level_cycles(HitLevel level) const noexcept {
  switch (level) {
    case HitLevel::kL1: return lat_.l1_cycles;
    case HitLevel::kL2: return lat_.l2_cycles;
    case HitLevel::kDdc: return lat_.ddc_cycles;
    case HitLevel::kDram: return lat_.dram_cycles;
  }
  return lat_.dram_cycles;
}

double CacheSim::stream_copy_mbps(std::uint64_t src_base,
                                  std::uint64_t dst_base, std::size_t bytes,
                                  Homing homing) {
  if (bytes == 0) return 0.0;
  double cycles = 0.0;
  for (std::size_t off = 0; off < bytes; off += kLineBytes) {
    const HitLevel r = access(src_base + off, homing);
    const HitLevel w = access(dst_base + off, homing);
    // L1 hits are pipelined with the copy loop itself; misses overlap up to
    // the machine's memory-level parallelism.
    const double rc = level_cycles(r);
    const double wc = level_cycles(w);
    cycles += (rc + wc) / lat_.mlp;
  }
  const double ns = cycles * 1000.0 / (cfg_->clock_ghz * 1000.0);
  if (ns <= 0.0) return 0.0;
  return static_cast<double>(bytes) * 1e3 / ns;  // bytes/ns -> MB/s
}

AccessCounts CacheSim::sweep(std::uint64_t base, std::size_t bytes, int passes,
                             Homing homing) {
  if (passes <= 0) throw std::invalid_argument("sweep needs passes >= 1");
  for (int p = 0; p < passes - 1; ++p) {
    for (std::size_t off = 0; off < bytes; off += kLineBytes) {
      access(base + off, homing);
    }
  }
  reset_stats();
  for (std::size_t off = 0; off < bytes; off += kLineBytes) {
    access(base + off, homing);
  }
  return counts_;
}

void CacheSim::reset() {
  l1_.invalidate_all();
  l2_.invalidate_all();
  ddc_.invalidate_all();
  counts_ = {};
}

}  // namespace tilesim
