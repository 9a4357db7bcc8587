// UDN interrupt emulation (paper §IV-B2).
//
// On the TILE-Gx a tile can raise an interrupt on a remote tile over the
// UDN, forcing it to service an operation it alone can perform (access to
// its private static symmetric variables). The TILEPro lacks this feature,
// which is why TSHMEM does not support static-variable transfers there.
//
// Emulation: the requesting thread executes the handler on the remote
// tile's *behalf* (all memory is reachable in-process). Timing runs on a
// dedicated per-target *service context* — a Tile whose clock is only ever
// touched under the per-target mutex: the handler cannot start before the
// interrupt arrives (the requester's raise timestamp) nor before the
// previous service on that target completed, and the requester then waits
// (in virtual time) for the handler completion. Because the service clock
// is never raced by the target's own thread, replayed runs are
// bit-identical regardless of host scheduling (docs/ROBUSTNESS.md); the
// target's main-line clock is not billed — the handler executes in its
// interrupt context, and the requester carries the full cost forward.
// A per-tile mutex serializes handlers, as a real tile services one
// interrupt at a time.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "sim/device.hpp"

namespace tmc {

using tilesim::Device;
using tilesim::ps_t;
using tilesim::Tile;

class InterruptController {
 public:
  explicit InterruptController(Device& device);

  InterruptController(const InterruptController&) = delete;
  InterruptController& operator=(const InterruptController&) = delete;

  [[nodiscard]] bool supported() const noexcept {
    return device_->config().supports_udn_interrupts;
  }

  /// Raises an interrupt on `target_tile` and runs `handler(service)` under
  /// its identity. `handler` receives the target's interrupt service
  /// context (a Tile with the target's id) and may charge additional costs
  /// (e.g. the serviced copy) to its clock. Returns after the handler
  /// completes; the requester's clock advances to the service completion
  /// time. Throws std::runtime_error when the device lacks UDN interrupts
  /// (TILEPro64).
  void raise(Tile& requester, int target_tile,
             const std::function<void(Tile&)>& handler);

  /// Count of interrupts serviced per tile (for tests/diagnostics).
  [[nodiscard]] std::uint64_t serviced(int tile) const;
  /// Count of raise() calls per requesting tile, failed ones included
  /// (the shmem.interrupt.services metric).
  [[nodiscard]] std::uint64_t raised(int tile) const;

 private:
  struct PerTile {
    std::mutex mu;
    std::uint64_t serviced = 0;
    std::atomic<std::uint64_t> raised{0};  ///< as the requester
    /// Interrupt service context: carries the service timeline for this
    /// target. Created on first raise; its clock re-zeroes lazily when the
    /// device's clock generation moves (job/phase boundaries).
    std::unique_ptr<Tile> service;
    std::uint64_t clock_gen = 0;
  };

  Device* device_;
  std::vector<std::unique_ptr<PerTile>> per_tile_;
};

}  // namespace tmc
