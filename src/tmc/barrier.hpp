// TMC spin and sync barriers (paper §III-D).
//
// Functionally both are real rendezvous barriers (tilesim::Rendezvous).
// Their virtual-time models differ:
//   - the spin barrier polls a shared counter: low overhead, cost grows
//     with the number of participating tiles (coherence traffic on the
//     counter line);
//   - the sync barrier round-trips through the Linux scheduler and pays a
//     large per-tile penalty (Fig 5: 321 us / 786 us at 36 tiles).
// Every participant leaves with clock = max(arrival clocks) + model(n).
#pragma once

#include <functional>

#include "sim/device.hpp"
#include "sim/rendezvous.hpp"

namespace tmc {

using tilesim::Device;
using tilesim::ps_t;
using tilesim::Tile;

/// Reusable rendezvous that gathers the participants' virtual arrival times
/// and releases everyone at `release_fn(max_arrival, parties)`. A party
/// stuck longer than its device watchdog's budget gets the watchdog's
/// diagnostic instead of hanging.
class VtBarrier {
 public:
  using ReleaseFn = std::function<ps_t(ps_t max_arrival, int parties)>;

  VtBarrier(int parties, ReleaseFn release_fn);

  /// Party `index` (0..parties-1) arrives; blocks until all parties arrive,
  /// then advances the caller's clock to the computed release time.
  /// Reusable across generations.
  void wait(Tile& self, int index);
  /// wait() on a raw device, whose parties are tiles 0..parties-1.
  void wait(Tile& self) { wait(self, self.id()); }

  [[nodiscard]] int parties() const noexcept { return meet_.size(); }

  /// Completed wait() calls across all participants (metrics scrape).
  [[nodiscard]] std::uint64_t waits() const {
    return meet_.generations() * static_cast<std::uint64_t>(parties());
  }

 private:
  ReleaseFn release_fn_;
  tilesim::Rendezvous meet_;
  ps_t release_time_ = 0;  ///< of the last completed generation
  int release_src_ = -1;   ///< its latest arriver (profiler edge)
};

/// TMC spin barrier: use only with one task per tile (paper §III-D).
class SpinBarrier {
 public:
  SpinBarrier(Device& device, int parties);
  void wait(Tile& self, int index) { barrier_.wait(self, index); }
  void wait(Tile& self) { barrier_.wait(self); }
  [[nodiscard]] int parties() const noexcept { return barrier_.parties(); }
  [[nodiscard]] std::uint64_t waits() const { return barrier_.waits(); }

  /// Modeled one-shot latency for `parties` tiles (for Fig 5 tables).
  [[nodiscard]] static ps_t model_latency_ps(const tilesim::DeviceConfig& cfg,
                                             int parties);

 private:
  VtBarrier barrier_;
};

/// TMC sync barrier: interacts with the scheduler; usable when tiles are
/// oversubscribed, at a large latency cost.
class SyncBarrier {
 public:
  SyncBarrier(Device& device, int parties);
  void wait(Tile& self) { barrier_.wait(self); }
  [[nodiscard]] int parties() const noexcept { return barrier_.parties(); }
  [[nodiscard]] std::uint64_t waits() const { return barrier_.waits(); }

  [[nodiscard]] static ps_t model_latency_ps(const tilesim::DeviceConfig& cfg,
                                             int parties);

 private:
  VtBarrier barrier_;
};

/// tmc_mem_fence(): blocks until all outstanding stores are visible.
/// Real fence plus a small modeled drain cost.
void mem_fence(Tile& self);

}  // namespace tmc
