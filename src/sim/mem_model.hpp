// Analytic memory-system timing model.
//
// Charges virtual time for memory-copy operations according to the
// bandwidth-vs-size curves calibrated from Fig 3, adjusted for the homing
// strategy (paper §III-A) and for concurrent access to the same partition
// (read/write contention; drives the Fig 10/11 saturation behaviour).
//
// A mechanistic counterpart (CacheSim, sim/cache_sim.hpp) validates that
// the analytic curve's breakpoints coincide with the capacity transitions
// a set-associative L1d/L2 + DDC hierarchy actually produces.
#pragma once

#include <cstddef>

#include "sim/config.hpp"

namespace tilesim {

/// Parameters of one modeled copy.
struct CopyRequest {
  std::size_t bytes = 0;
  MemSpace src = MemSpace::kShared;
  MemSpace dst = MemSpace::kShared;
  Homing homing = Homing::kHashForHome;  ///< homing of the shared page(s)
  int concurrent_readers = 1;  ///< streams concurrently reading the source
  int concurrent_writers = 1;  ///< streams concurrently writing the target

  friend bool operator==(const CopyRequest&, const CopyRequest&) = default;
};

class MemModel {
 public:
  explicit MemModel(const DeviceConfig& cfg) : cfg_(&cfg) {}

  /// Effective bandwidth (MB/s) for the copy, after homing and contention
  /// adjustments. Excludes the fixed call overhead.
  [[nodiscard]] double effective_mbps(const CopyRequest& req) const;

  /// Total modeled cost (ps) including the fixed per-call overhead.
  [[nodiscard]] ps_t copy_cost_ps(const CopyRequest& req) const;

  /// Bandwidth curve selected for a src/dst space pairing.
  [[nodiscard]] const BandwidthCurve& curve_for(MemSpace src,
                                                MemSpace dst) const;

  [[nodiscard]] const DeviceConfig& config() const noexcept { return *cfg_; }

 private:
  const DeviceConfig* cfg_;

  [[nodiscard]] double homing_factor(std::size_t bytes, Homing homing) const;
};

}  // namespace tilesim
