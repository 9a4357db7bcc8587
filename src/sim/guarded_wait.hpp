// Watchdog-aware blocking primitives, shared by every blocking wait in the
// tree (UDN queues, barriers, mPIPE/STN receives, SHMEM waits and locks,
// Device::host_sync). These are the ONLY place src/ is allowed to block on
// a condition variable, barrier, latch or atomic wait, or to spin-yield
// (Cluster::run's two allow-listed start/finish latches aside):
// tools/tshmem_lint.py (rules raw-blocking-wait and unbounded-spin)
// machine-checks that every other blocking wait routes through here, so the
// "every blocking wait is bounded by the watchdog" invariant of
// docs/ROBUSTNESS.md holds by construction, not convention.
//
// A wait first spins, then parks. While the process's running tile threads
// fit on its usable CPUs (spin_before_park), the thread that will satisfy
// the predicate is already running on another CPU, so the waiter re-checks
// the predicate for a few microseconds, less than one park and wake cost,
// before it parks (competitive spinning, Karlin et al., SOSP 1991). With
// more tile threads than CPUs the waker may be queued behind the spinner,
// so the wait parks at once. Either way this is host time only: no clock
// moves here.
//
// The park is exactly cv.wait(lk, pred) with no watchdog attached; with one
// attached it wakes every `timeout` and hands control to on_timeout, which
// is expected to throw a diagnostic tshmem::Error instead of letting the
// tile hang.
#pragma once

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "sim/device.hpp"
#include "sim/fault.hpp"
#include "sim/flight_hook.hpp"

namespace tilesim {

/// The spin decision: spin before parking only while every running tile
/// thread can hold a CPU of its own. One CPU never spins: the waker would
/// be waiting for the spinner to give it up.
[[nodiscard]] constexpr bool spin_before_park(int running_tile_threads,
                                              int usable_cpus) noexcept {
  return usable_cpus > 1 && running_tile_threads <= usable_cpus;
}

namespace detail {

/// Below the cost of one park and wake (a two-thread condition-variable
/// round trip takes ~15 µs on a 4-vCPU x86 KVM guest): a longer budget
/// burns CPU on waits that end up parking anyway.
inline constexpr std::chrono::microseconds kSpinBudget{5};
/// Pauses between predicate polls. Each poll takes the wait's mutex, so a
/// sparse poll keeps the spinner off the lock the waker needs.
inline constexpr int kPausesPerPoll = 32;

inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#endif
}

/// Returns true once pred() holds, spinning with `lk` released while
/// spin_before_park allows; false when the wait must park. `lk` is held on
/// return either way, and pred() is only ever evaluated under it.
template <typename Pred>
bool spin_until(std::unique_lock<std::mutex>& lk, Pred& pred) {
  if (pred()) return true;
  if (!spin_before_park(Device::running_tile_threads(),
                        Device::usable_cpus())) {
    return false;
  }
  lk.unlock();
  const auto deadline = std::chrono::steady_clock::now() + kSpinBudget;
  do {
    for (int i = 0; i < kPausesPerPoll; ++i) cpu_relax();
    if (lk.try_lock()) {
      if (pred()) return true;
      lk.unlock();
    }
  } while (std::chrono::steady_clock::now() < deadline);
  lk.lock();
  return false;
}

}  // namespace detail

/// guarded_wait without the flight-recorder bracket. Device::host_sync
/// waits through this: a harness rendezvous charges no virtual time, and
/// the clock it would record may be reset by another tile mid-wait.
template <typename Pred>
void guarded_host_wait(const Device& device,
                       std::unique_lock<std::mutex>& lk,
                       std::condition_variable& cv, int tile,
                       const char* what, Pred pred) {
  if (detail::spin_until(lk, pred)) return;
  const Watchdog* wd = device.watchdog();
  if (wd == nullptr) {
    cv.wait(lk, pred);
    return;
  }
  while (!cv.wait_for(lk, wd->timeout, pred)) {
    // Release the wait's lock around the callback: the diagnostic snapshot
    // reads queue depths and per-PE state, which may need this same lock.
    lk.unlock();
    wd->on_timeout(tile, what);
    lk.lock();
  }
}

template <typename Pred>
void guarded_wait(const Device& device, std::unique_lock<std::mutex>& lk,
                  std::condition_variable& cv, int tile, const char* what,
                  Pred pred) {
  // Flight-recorder bracket: the clock cannot advance inside a wait, so
  // begin and end carry the same virtual time — host-schedule independent.
  const ps_t wait_vt = device.tile(tile).clock().now();
  flight_event(device, tile, FlightKind::kWaitBegin, what, wait_vt);
  guarded_host_wait(device, lk, cv, tile, what, pred);
  flight_event(device, tile, FlightKind::kWaitEnd, what, wait_vt);
}

/// Nullable-device variant for components whose Device is optional (the
/// tmc barriers): a null device degrades to the unbounded wait.
template <typename Pred>
void guarded_wait(const Device* device, std::unique_lock<std::mutex>& lk,
                  std::condition_variable& cv, int tile, const char* what,
                  Pred pred) {
  if (device == nullptr) {
    if (!detail::spin_until(lk, pred)) cv.wait(lk, pred);
    return;
  }
  guarded_wait(*device, lk, cv, tile, what, pred);
}

/// Watchdog-aware spin loop: retries `attempt` (which may have side
/// effects — e.g. a CAS that advances virtual time per try) until it
/// returns true, yielding between tries. Used by shmem_wait_until and
/// shmem_set_lock, whose progress comes from another PE's plain store
/// rather than a condition variable.
template <typename Attempt>
void guarded_spin(const Device& device, int tile, const char* what,
                  Attempt attempt) {
  // Begin-only bracket: attempts may advance virtual time (a failed lock
  // CAS charges the atomic cost model), so the matching end event belongs
  // to the caller, which records it after merging the final timestamp.
  flight_event(device, tile, FlightKind::kWaitBegin, what,
               device.tile(tile).clock().now());
  const Watchdog* wd = device.watchdog();
  auto deadline = wd != nullptr
                      ? std::chrono::steady_clock::now() + wd->timeout
                      : std::chrono::steady_clock::time_point::max();
  while (!attempt()) {
    std::this_thread::yield();
    if (wd != nullptr && std::chrono::steady_clock::now() >= deadline) {
      wd->on_timeout(tile, what);
      deadline = std::chrono::steady_clock::now() + wd->timeout;
    }
  }
}

}  // namespace tilesim
