// Per-tile virtual device clock.
//
// Every tile thread owns one SimClock; all reported latencies/bandwidths in
// the benchmark harnesses are differences of these clocks.
//
// Single-owner contract: at any moment one thread writes a clock.
//   - A tile's clock is written only by the host thread running that tile
//     inside Device::run (its own advance/advance_to calls, and every
//     charge made on its behalf in its own program order).
//   - An interrupt service clock (tmc/interrupt.hpp) is a separate clock
//     per target tile, written by whichever requester holds that target's
//     mutex; the target's own clock is never charged by a requester.
//   - reset() runs only at single-threaded points: Device::reset_clocks
//     between runs or between two host_syncs, and the service clock's
//     lazy re-zero under its mutex.
// So advance and advance_to are a relaxed load of the owner's own last
// value plus a release store, not a locked read-modify-write. Other
// threads only read a clock (barrier releases, UDN arrival stamps, metric
// scrapes): now() is an acquire load that pairs with the owner's store,
// and every value they see is one the owner stored. Cross-tile time still
// flows only through advance_to (monotone max), so results are
// independent of host scheduling.
#pragma once

#include <atomic>
#include <cstdint>

#include "util/owner_add.hpp"
#include "util/units.hpp"

namespace tilesim {

using tshmem_util::ps_t;

class SimClock {
 public:
  SimClock() = default;

  SimClock(const SimClock&) = delete;
  SimClock& operator=(const SimClock&) = delete;

  [[nodiscard]] ps_t now() const noexcept {
    return now_ps_.load(std::memory_order_acquire);
  }

  /// Advance by a modeled duration. Owner only.
  void advance(ps_t delta) noexcept {
    tshmem_util::owner_add(now_ps_, delta, std::memory_order_release);
    tshmem_util::owner_add(busy_ps_, delta);
  }

  /// Advance to at least `t` (no-op if already past). Used when a message
  /// or released barrier carries a timestamp from another tile. Owner only.
  void advance_to(ps_t t) noexcept {
    const ps_t cur = now_ps_.load(std::memory_order_relaxed);
    if (cur >= t) return;
    now_ps_.store(t, std::memory_order_release);
    tshmem_util::owner_add(idle_ps_, t - cur);
  }

  /// Busy/idle attribution of the current clock value: busy time was
  /// explicitly charged via advance() (compute, copies, protocol costs);
  /// idle time is the sum of advance_to() jumps — waiting on messages,
  /// barrier releases, and remote deliveries. busy + idle == now exactly
  /// for the owner, and for any reader ordered after the owner's last
  /// write (a joined run, a host_sync).
  [[nodiscard]] ps_t busy_ps() const noexcept {
    return busy_ps_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] ps_t idle_ps() const noexcept {
    return idle_ps_.load(std::memory_order_relaxed);
  }

  /// Reset to zero — only at the single-threaded points named above.
  void reset() noexcept {
    now_ps_.store(0, std::memory_order_release);
    busy_ps_.store(0, std::memory_order_relaxed);
    idle_ps_.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<ps_t> now_ps_{0};
  std::atomic<ps_t> busy_ps_{0};
  std::atomic<ps_t> idle_ps_{0};
};

}  // namespace tilesim
