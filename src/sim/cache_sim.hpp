// Mechanistic cache-hierarchy simulator for one tile's view of the Tilera
// memory system: a set-associative L1d and L2, plus the Dynamic Distributed
// Cache (DDC) — the aggregation of the *other* tiles' L2 capacity that
// hash-for-home pages can occupy (paper §III-A).
//
// This substrate exists to validate the analytic MemModel: streaming a
// working set of size S repeatedly must transition L1-hit -> L2-hit ->
// DDC-hit -> DRAM at the same capacities where Fig 3's bandwidth curve
// breaks. It also powers the homing-strategy ablation (local homing cannot
// spill into the DDC; hash-for-home distributes lines across home tiles).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/config.hpp"

namespace tilesim {

/// Which level serviced an access.
enum class HitLevel : std::uint8_t { kL1, kL2, kDdc, kDram };

/// A single set-associative, write-allocate, LRU cache.
class SetAssocCache {
 public:
  SetAssocCache(std::size_t capacity_bytes, std::size_t line_bytes,
                std::size_t ways);

  /// Returns true on hit; on miss the line is installed (evicting LRU).
  bool access(std::uint64_t addr);

  /// Is the line currently resident (no state change)?
  [[nodiscard]] bool resident(std::uint64_t addr) const;

  void invalidate_all();

  [[nodiscard]] std::size_t capacity_bytes() const noexcept {
    return capacity_;
  }
  [[nodiscard]] std::size_t line_bytes() const noexcept { return line_; }
  [[nodiscard]] std::size_t ways() const noexcept { return ways_; }
  [[nodiscard]] std::size_t sets() const noexcept { return sets_; }

  [[nodiscard]] std::uint64_t hits() const noexcept { return hits_; }
  [[nodiscard]] std::uint64_t misses() const noexcept { return misses_; }
  void reset_stats() noexcept { hits_ = misses_ = 0; }

 private:
  struct Way {
    std::uint64_t tag = 0;
    std::uint64_t lru = 0;  // larger = more recently used
    bool valid = false;
  };

  std::size_t capacity_;
  std::size_t line_;
  std::size_t ways_;
  std::size_t sets_;
  std::uint64_t tick_ = 0;
  std::vector<Way> entries_;  // sets_ * ways_, row-major by set
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;

  [[nodiscard]] std::size_t set_index(std::uint64_t addr) const noexcept;
  [[nodiscard]] std::uint64_t tag_of(std::uint64_t addr) const noexcept;
};

/// Latency parameters (in core cycles) of each hierarchy level.
struct CacheLatencies {
  double l1_cycles = 2.0;
  double l2_cycles = 11.0;
  double ddc_cycles = 40.0;   ///< remote-L2 round trip across the mesh
  double dram_cycles = 100.0;
  /// Overlap factor: outstanding misses the core can keep in flight, which
  /// converts per-access latency into streaming throughput.
  double mlp = 4.0;
};

struct AccessCounts {
  std::uint64_t l1 = 0;
  std::uint64_t l2 = 0;
  std::uint64_t ddc = 0;
  std::uint64_t dram = 0;

  [[nodiscard]] std::uint64_t total() const noexcept {
    return l1 + l2 + ddc + dram;
  }
};

class CacheSim {
 public:
  /// Builds the hierarchy for `cfg`. The DDC is modeled as an additional
  /// cache whose capacity is the L2 capacity of all other tiles; lines only
  /// enter it when their homing strategy allows distribution.
  CacheSim(const DeviceConfig& cfg, CacheLatencies lat = {});

  /// One line-granular access; returns the servicing level and updates all
  /// levels' state (install on miss at every level above the hit).
  HitLevel access(std::uint64_t addr, Homing homing);

  /// Streams a copy of `bytes` from `src_base` to `dst_base` (line-granular
  /// reads + writes) and returns the modeled effective bandwidth in MB/s.
  double stream_copy_mbps(std::uint64_t src_base, std::uint64_t dst_base,
                          std::size_t bytes, Homing homing);

  /// Sweeps one buffer of `bytes` `passes` times and reports the counts of
  /// the final pass — exposes the steady-state residency level.
  AccessCounts sweep(std::uint64_t base, std::size_t bytes, int passes,
                     Homing homing);

  void reset();

  [[nodiscard]] const AccessCounts& counts() const noexcept { return counts_; }
  void reset_stats() noexcept { counts_ = {}; }

  [[nodiscard]] const SetAssocCache& l1() const noexcept { return l1_; }
  [[nodiscard]] const SetAssocCache& l2() const noexcept { return l2_; }
  [[nodiscard]] const SetAssocCache& ddc() const noexcept { return ddc_; }
  [[nodiscard]] const CacheLatencies& latencies() const noexcept {
    return lat_;
  }

  /// Cycles to service one access at the given level (before MLP overlap).
  [[nodiscard]] double level_cycles(HitLevel level) const noexcept;

 private:
  const DeviceConfig* cfg_;
  CacheLatencies lat_;
  SetAssocCache l1_;
  SetAssocCache l2_;
  SetAssocCache ddc_;
  AccessCounts counts_;
};

}  // namespace tilesim
