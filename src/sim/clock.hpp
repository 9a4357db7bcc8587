// Per-tile virtual device clock.
//
// Every tile thread owns one SimClock; all reported latencies/bandwidths in
// the benchmark harnesses are differences of these clocks. The clock is
// atomic because other tiles' threads read it concurrently (barrier
// releases, UDN arrival stamps, harness scrapes). Mutation stays with the
// owning thread — even interrupt handlers charge a dedicated per-target
// service clock instead of the target's own (see tmc/interrupt.hpp) — and
// all cross-tile time exchange is via advance_to() (monotone max), so
// results are independent of host scheduling.
#pragma once

#include <atomic>
#include <cstdint>

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

  /// Advance by a modeled duration.
  void advance(ps_t delta) noexcept {
    now_ps_.fetch_add(delta, std::memory_order_acq_rel);
    busy_ps_.fetch_add(delta, std::memory_order_relaxed);
  }

  /// Advance to at least `t` (no-op if already past). Used when a message
  /// or released barrier carries a timestamp from another tile.
  void advance_to(ps_t t) noexcept {
    ps_t cur = now_ps_.load(std::memory_order_acquire);
    while (cur < t && !now_ps_.compare_exchange_weak(
                          cur, t, std::memory_order_acq_rel,
                          std::memory_order_acquire)) {
    }
    if (cur < t) idle_ps_.fetch_add(t - cur, std::memory_order_relaxed);
  }

  /// Busy/idle attribution of the current clock value: busy time was
  /// explicitly charged via advance() (compute, copies, protocol costs);
  /// idle time is the sum of advance_to() jumps — waiting on messages,
  /// barrier releases, and remote deliveries. busy + idle == now modulo
  /// concurrent interrupt-handler charges landing between the two loads.
  [[nodiscard]] ps_t busy_ps() const noexcept {
    return busy_ps_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] ps_t idle_ps() const noexcept {
    return idle_ps_.load(std::memory_order_relaxed);
  }

  /// Reset to zero — only valid between benchmark phases when no other
  /// thread can be charging this clock.
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
